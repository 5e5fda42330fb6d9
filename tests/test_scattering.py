"""Mode grid construction, thermal sampling and frame rendering."""

import dataclasses
import hashlib
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramanmem import scattering
from ramanmem.cli import main
from ramanmem.config import ExperimentConfig, RunParams
from ramanmem.geometry import FWHM_PER_SIGMA, Angle2D, BeamGeometry, CameraGeometry
from ramanmem.scattering import (
    Frame,
    ModeGridParams,
    ModeSet,
    RetrievalModel,
    build_mode_set,
    iter_simulated_frames,
    mode_set_from_config,
    retrieval_efficiencies,
    sample_shot,
    shot_rng,
    stokes_basis,
)
from ramanmem.stackio import N_FRAMES_MAX, SEED_MAX

GEOM = BeamGeometry(3.5e-3, 3.5e-3, 6.0e-3, 0.1, 795e-9, 780e-9)


def grid(envelope_fwhm_urad: float, **kwargs) -> ModeGridParams:
    """A [modes] section at gain shrink 2 and 1000 photons per mode."""
    return ModeGridParams(
        gain_shrink=2.0, envelope_fwhm_urad=envelope_fwhm_urad, mean_photons_per_mode=1000.0, **kwargs
    )


def run_of(cfg, n_frames, seed):
    """cfg with a run of n_frames frames seeded with seed."""
    return dataclasses.replace(cfg, run=RunParams(seed=seed, n_frames=n_frames))


def small_camera(n=16):
    return CameraGeometry(width_px=n, height_px=n, pixel_pitch_m=7.5e-6, f3_m=0.5)


def render_shot(intensities, ms, tilt, camera, rng, noise_floor=0.0, shot_index=0):
    """One frame from given mode intensities, through the renderer `iter_simulated_frames` uses."""
    factors = stokes_basis(ms, camera), scattering.anti_stokes_basis(ms, tilt, camera)
    counts = scattering.COUNT_DTYPES[1]  # u32: no test intensity here comes near its range
    return scattering._render_with_bases(intensities, *factors, shot_index, tilt, rng, noise_floor, counts)


def flat_model(eta0=1.0, noise_floor=0.0):
    return RetrievalModel(
        eta0=eta0,
        d_diff_m2_s=0.0,
        tau_storage_s=1e-6,
        aberration_scale_urad=math.inf,  # roll-off disabled
        noise_floor=noise_floor,
    )


# --- mode set -------------------------------------------------------------


def test_effective_source_diameter():
    """A mode's FWHM is spot_constant * lambda_write / d_eff, d_eff = 2 w0_write / gain_shrink."""
    ms = build_mode_set(GEOM, grid(400.0))  # d_eff = 3.5 mm
    assert ms.sigma_urad * FWHM_PER_SIGMA == pytest.approx(0.754212 * 795e-9 / 3.5e-3 * 1e6, rel=1e-12, abs=0.0)
    for shrink in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="gain_shrink must lie in"):
            build_mode_set(GEOM, dataclasses.replace(grid(400.0), gain_shrink=shrink))


def test_default_mode_set_layout():
    ms = mode_set_from_config(ExperimentConfig())
    assert ms.n_modes == 121  # 11 x 11 grid
    assert ms.sigma_urad * FWHM_PER_SIGMA == pytest.approx(171.31386857142857, rel=1e-9)
    assert ms.grid_spacing_urad == pytest.approx(109.1254524520431, rel=1e-9)
    assert ms.spot_fwhm_urad == pytest.approx(239.9996724420318, rel=1e-9)
    np.testing.assert_allclose(ms.mean_photons, 1000.0)
    # the grid is symmetric about the optical axis and contains it
    assert (ms.centers_urad == 0.0).all(axis=1).any()
    np.testing.assert_allclose(ms.centers_urad.mean(axis=0), [0.0, 0.0], atol=1e-9)


def test_spot_width_combines_both_carriers():
    ms = mode_set_from_config(ExperimentConfig())
    ratio = 780.0 / 795.0
    assert ms.spot_fwhm_urad == pytest.approx(
        math.sqrt(1.0 + ratio**2) * ms.sigma_urad * FWHM_PER_SIGMA, rel=1e-12
    )


def test_mode_set_rejects_tiny_envelope():
    with pytest.raises(ValueError, match="smaller than one mode"):
        build_mode_set(GEOM, grid(50.0))


def test_mode_grid_checks_its_intervals_as_it_is_built():
    """A [modes] value outside its interval fails where the section is built, before any mode set."""
    with pytest.raises(ValueError, match=r"^envelope_fwhm_urad must lie in \(0, inf\), got -1.0$"):
        ModeGridParams(envelope_fwhm_urad=-1.0)


def test_mode_set_rejects_overlapping_grid():
    with pytest.raises(ValueError, match="grid_spacing_sigma must lie in"):
        build_mode_set(GEOM, grid(700.0, grid_spacing_sigma=0.5))


def test_anti_stokes_centers_conjugate_and_shift():
    ms = build_mode_set(GEOM, grid(400.0))
    ratio = GEOM.lambda_read_m / GEOM.lambda_write_m
    at_zero = ms.anti_stokes_centers_urad((0.0, 0.0))
    np.testing.assert_allclose(at_zero, -ratio * ms.centers_urad, rtol=1e-12, atol=1e-12)
    steered = ms.anti_stokes_centers_urad((0.0, 200.0))
    np.testing.assert_allclose(steered[:, 1] - at_zero[:, 1], 200.0, rtol=1e-12)
    np.testing.assert_allclose(steered[:, 0], at_zero[:, 0], rtol=1e-12, atol=1e-12)


def test_mode_set_arrays_are_read_only():
    ms = mode_set_from_config(ExperimentConfig())
    for axis in (ms.centers_urad, ms.x_urad, ms.y_urad):
        with pytest.raises(ValueError):
            axis[0, ...] = 1.0


def test_pixel_count_bound_holds_and_is_tight():
    """No pixel mean of every mode at 64 times its mean passes the bound, on either pane at any tilt.

    Carrier ratios below, at and above 1 and lattice pitches of 1, 1.5 and 3
    sigma; the anti-Stokes lattice is shifted over one Stokes pitch in 13 x 13
    tilts.  At a 3-sigma pitch the bound is reached to within 0.1 %.
    """
    cam = small_camera(32)
    worst = 0.0
    for ratio in (0.5, 0.98, 1.0, 2.0):
        geom = BeamGeometry(3.5e-3, 3.5e-3, 6.0e-3, 0.1, 795e-9, ratio * 795e-9)
        for spacing in (1.0, 1.5, 3.0):
            ms = build_mode_set(geom, grid(400.0, grid_spacing_sigma=spacing))
            bound = scattering.pixel_count_bound(ms, cam, 0.0)
            lit = np.full((ms.y_urad.size, ms.x_urad.size), scattering.THERMAL_TAIL_FACTOR * ms.mean_photons)
            steps = np.linspace(0.0, ms.grid_spacing_urad, 13)
            panes = [stokes_basis(ms, cam)]
            panes += [scattering.anti_stokes_basis(ms, (tx, ty), cam) for tx in steps for ty in steps]
            top = max(float((f.wy.T @ lit @ f.wx).max()) for f in panes)
            assert top <= bound, (ratio, spacing)
            worst = max(worst, top / bound)
    assert worst > 0.999


# --- retrieval efficiencies -------------------------------------------------


def test_retrieval_flat_when_diffusion_off():
    ms = build_mode_set(GEOM, grid(400.0))
    eta = retrieval_efficiencies(ms, flat_model(eta0=0.85), (0.0, 0.0))
    np.testing.assert_allclose(eta, 0.85, rtol=1e-12)


def test_retrieval_diffusion_damping_frozen_ratio():
    ms = _lattice([0.0, 300.0], [0.0], spacing=300.0, mean=1.0)
    rm = RetrievalModel(0.85, 0.12, 1e-6, math.inf, 0.0)
    eta = retrieval_efficiencies(ms, rm, (0.0, 0.0))
    assert eta[0] == pytest.approx(0.85, rel=1e-12, abs=0.0)
    # a 300 urad mode stores |K| = 2371.013 rad/m; exp(-D K^2 tau) = 0.5093578
    assert eta[1] / eta[0] == pytest.approx(0.5093578309806889, rel=1e-9)


def test_retrieval_aberration_rolloff():
    ms = build_mode_set(GEOM, grid(400.0))
    rm = RetrievalModel(1.0, 0.0, 1e-6, 600.0, 0.0)
    on_axis = retrieval_efficiencies(ms, rm, (0.0, 0.0))
    steered = retrieval_efficiencies(ms, rm, (0.0, 200.0))
    np.testing.assert_allclose(
        steered / on_axis, math.exp(-(200.0**2) / (2.0 * 600.0**2)), rtol=1e-12
    )


def test_infinite_aberration_scale_is_the_diffusion_law_alone():
    """At an infinite scale the roll-off is exactly 1.0: eta0 times the diffusion damping, bit for bit, at any tilt."""
    ms = build_mode_set(GEOM, grid(400.0))
    rm = RetrievalModel(0.85, 0.12, 1e-6, math.inf, 0.0)
    k_mag = np.linalg.norm(ms.centers_urad, axis=1) * (2.0 * math.pi * 1e-6 / ms.lambda_write_m)
    diffusion = 0.85 * np.exp(-0.12 * k_mag**2 * 1e-6)
    for tilt in ((0.0, 0.0), (-0.0, 0.0), (0.0, 200.0), (-350.0, 75.0), (1e4, -1e4)):
        np.testing.assert_array_equal(retrieval_efficiencies(ms, rm, tilt), diffusion)


def test_aberration_scale_whose_square_underflows_is_rejected():
    """2 scale^2 == 0 would make the untilted roll-off 0 / 0; a scale whose square survives still works.

    A scale that is not positive is rejected with it: inf is the one way to disable the roll-off.
    """
    for scale in (1e-300, 5e-324, 0.0, -0.0, -5.0, -math.inf, math.nan):
        with pytest.raises(ValueError, match="underflows to 0"):
            RetrievalModel(1.0, 0.0, 1e-6, scale, 0.0)
    ms = build_mode_set(GEOM, grid(400.0))
    rm = RetrievalModel(1.0, 0.0, 1e-6, 1e-160, 0.0)  # 2 scale^2 is subnormal, not 0
    assert (retrieval_efficiencies(ms, rm, (0.0, 0.0)) == 1.0).all()
    assert (retrieval_efficiencies(ms, rm, (0.0, 200.0)) == 0.0).all()


# --- sampling ---------------------------------------------------------------


def test_shot_rng_is_the_seed_sequence_child():
    # the stream definition every pinned digest rests on: a numpy release that
    # changes SeedSequence or PCG64 fails here first
    a = shot_rng(5, 17).integers(0, 2**63, size=4)
    b = shot_rng(5, 17).integers(0, 2**63, size=4)
    c = shot_rng(5, 18).integers(0, 2**63, size=4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    child = np.random.Generator(np.random.PCG64(np.random.SeedSequence(5).spawn(18)[17]))
    np.testing.assert_array_equal(a, child.integers(0, 2**63, size=4))
    assert a.tolist() == [
        7049368661295252458, 8041092110536190202, 3972825659913154627, 254810683039388157,
    ]
    last = shot_rng(SEED_MAX, N_FRAMES_MAX - 1).integers(0, 2**63, size=4)
    before = shot_rng(SEED_MAX, N_FRAMES_MAX - 2).integers(0, 2**63, size=4)
    assert not np.array_equal(last, before)
    for seed, shot in ((-1, 0), (0, -1)):
        with pytest.raises(ValueError):  # numpy's SeedSequence makes this check
            shot_rng(seed, shot)


def test_sample_shot_unit_efficiency_gives_equal_twins():
    ms = build_mode_set(GEOM, grid(400.0))
    eta = retrieval_efficiencies(ms, flat_model(eta0=1.0), (0.0, 0.0))
    i_s, i_as = sample_shot(ms, eta, shot_rng(1, 0))
    np.testing.assert_array_equal(i_s, i_as)
    assert (i_s >= 0).all()


def test_sample_shot_scales_by_eta():
    ms = build_mode_set(GEOM, grid(400.0))
    rm = RetrievalModel(0.5, 0.0, 1e-6, math.inf, 0.0)
    i_s, i_as = sample_shot(ms, retrieval_efficiencies(ms, rm, (0.0, 0.0)), shot_rng(1, 0))
    np.testing.assert_allclose(i_as, 0.5 * i_s, rtol=1e-12)


# --- rendering --------------------------------------------------------------


def _lattice(x_urad, y_urad, spacing=100.0, mean=1000.0):
    """A ModeSet on the lattice of the given axes, each mode 70 urad sigma."""
    return ModeSet(
        x_urad=np.array(x_urad, dtype=float),
        y_urad=np.array(y_urad, dtype=float),
        sigma_urad=70.0,
        mean_photons=mean,
        grid_spacing_urad=spacing,
        spot_fwhm_urad=230.0,
        lambda_write_m=795e-9,
        lambda_read_m=780e-9,
    )


@pytest.mark.parametrize(
    "ms",
    [
        build_mode_set(GEOM, grid(400.0)),
        _lattice([0.0, 120.0], [0.0, -400.0]),  # a 2x2 lattice, one row off the pane
    ],
    ids=["grid", "2x2-one-row-off"],
)
def test_factored_mean_matches_per_mode_gaussians(ms):
    # reference: each mode's area-normalised 2-d Gaussian, summed mode by mode
    cam = small_camera(24)
    factors = stokes_basis(ms, cam)
    assert factors.wy.shape == (ms.y_urad.size, cam.height_px)
    assert factors.wx.shape == (ms.x_urad.size, cam.width_px)
    # some modes are centred past the pane's edge: their tails are in the sum too
    assert np.abs(ms.centers_urad).max() > cam.pitch_urad * cam.width_px / 2
    i_s = np.random.default_rng(4).exponential(1000.0, ms.n_modes)
    gx, gy = np.meshgrid(*cam.pixel_angle_axes())
    expected = np.zeros((cam.height_px, cam.width_px))
    sig = ms.sigma_urad
    for m in range(ms.n_modes):
        cx, cy = ms.centers_urad[m]
        r2 = (gx - cx) ** 2 + (gy - cy) ** 2
        area = cam.pitch_urad**2 / (2 * math.pi * sig**2)
        expected += i_s[m] * area * np.exp(-r2 / (2 * sig**2))
    g = i_s.reshape(ms.y_urad.size, ms.x_urad.size)
    np.testing.assert_allclose(factors.wy.T @ g @ factors.wx, expected, rtol=1e-12)


def test_factors_at_every_tilt_keep_the_bits():
    """The per-axis rows equal a one-row-per-mode build bit for bit, modes centred off the pane included."""
    cfg = ExperimentConfig()
    ms, cam = mode_set_from_config(cfg), cfg.camera
    ax, ay = cam.pixel_angle_axes()
    nx = ms.x_urad.size
    sig = np.full(ms.n_modes, ms.sigma_urad)
    for tilt in BOTH_AXIS_TILTS:
        got = scattering.anti_stokes_basis(ms, tilt, cam)
        cx, cy = ms.anti_stokes_centers_urad(tilt).T
        wx = np.exp(-0.5 * ((ax[None, :] - cx[:, None]) / sig[:, None]) ** 2)
        wx *= (cam.pitch_urad**2 / (2.0 * math.pi * sig**2))[:, None]
        wy = np.exp(-0.5 * ((ay[None, :] - cy[:, None]) / sig[:, None]) ** 2)
        # mode iy * nx + ix: the first nx modes span the x axis, every nx-th the y axis
        np.testing.assert_array_equal(got.wx, wx[:nx])
        np.testing.assert_array_equal(got.wy, wy[::nx])


def test_render_dark_frame():
    ms = build_mode_set(GEOM, grid(240.0))
    zeros = np.zeros(ms.n_modes)
    fr = render_shot((zeros, zeros), ms, (0.0, 0.0), small_camera(), shot_rng(0, 0))
    assert fr.stokes.sum() == 0.0
    assert fr.anti_stokes.sum() == 0.0


def test_rendered_counts_are_integers():
    """Frames render in the width of their stack: u16 at the default config."""
    cfg = ExperimentConfig()
    fr = next(iter_simulated_frames(run_of(cfg, 1, 3)))
    assert fr.counts.dtype == scattering.count_dtype(cfg) == np.uint16
    assert fr.stokes.any() and fr.anti_stokes.any()


def test_render_energy_bookkeeping():
    """On a pane wide enough for every mode, the counts carry each pane's intensity budget."""
    ms = build_mode_set(GEOM, grid(240.0))
    cam = small_camera(64)
    stokes, anti = stokes_basis(ms, cam), scattering.anti_stokes_basis(ms, (0.0, 0.0), cam)
    # every row peaks inside the pane, off its edge pixels: every mode is centred on it
    for rows in (stokes.wy, stokes.wx, anti.wy, anti.wx):
        peaks = rows.argmax(axis=1)
        assert ((peaks > 0) & (peaks < rows.shape[1] - 1)).all()
    i_s = np.linspace(1000.0, 2000.0, ms.n_modes)
    i_as = 0.5 * i_s
    fr = render_shot((i_s, i_as), ms, (0.0, 0.0), cam, shot_rng(0, 1))
    for counts, factors, i in ((fr.stokes, stokes, i_s), (fr.anti_stokes, anti, i_as)):
        g = i.reshape(ms.y_urad.size, ms.x_urad.size)
        mean = (factors.wy.T @ g @ factors.wx).sum()
        # only the Gaussian tails past the pane edge are lost
        assert 0.98 * i.sum() < mean <= i.sum()
        assert abs(counts.sum() - mean) < 5.0 * math.sqrt(mean)


def test_every_mode_deposits_its_on_pane_tail():
    """A pane's mean total sums each mode's intensity times its Gaussian mass on the pane, tails included.

    The mass is the erf integral of the mode between the pane's outer pixel
    edges, on each axis.
    """
    # a 16x16 pane spans -127.5 to 112.5 urad between its outer pixel edges; the
    # row at y = -162.5 urad is centred half a sigma (35 urad) below the lower one
    cam = small_camera(16)
    ms = _lattice([-40.0, 60.0], [-162.5, -50.0], spacing=112.5)
    tilt = (0.0, 0.0)
    i_s = np.array([1000.0, 1500.0, 2000.0, 2500.0])

    def mass(c, axis):
        """erf mass of each unit Gaussian centred at c between the outer pixel edges of one axis."""
        lo, hi = axis[0] - cam.pitch_urad / 2, axis[-1] + cam.pitch_urad / 2
        z = ms.sigma_urad * math.sqrt(2.0)
        return np.array([0.5 * (math.erf((hi - ci) / z) - math.erf((lo - ci) / z)) for ci in c])

    # the pixel sum is a midpoint rule for the mass: on each axis it misses it by
    # about h^2 / 24 (f'(hi) - f'(lo)) for pitch h and the mode's density f, at
    # most h^2 max|f'| / 12 = h^2 e^(-1/2) / (12 sqrt(2 pi) sigma^2); the product
    # of a mode's two masses misses by at most the sum of the two
    h, sig = cam.pitch_urad, ms.sigma_urad
    tol = i_s.sum() * 2 * h**2 * math.exp(-0.5) / (12.0 * math.sqrt(2.0 * math.pi) * sig**2)
    ax, ay = cam.pixel_angle_axes()
    for factors, centers in (
        (stokes_basis(ms, cam), ms.centers_urad),
        (scattering.anti_stokes_basis(ms, tilt, cam), ms.anti_stokes_centers_urad(tilt)),
    ):
        p = mass(centers[:, 0], ax) * mass(centers[:, 1], ay)
        # mode 0's tail, though its centre lies past the pane's edge, is far above tol
        assert i_s[0] * p[0] > 10 * tol
        mean = (factors.wy.T @ i_s.reshape(2, 2) @ factors.wx).sum()
        assert mean == pytest.approx((i_s * p).sum(), rel=0.0, abs=tol)


def test_frame_panes_view_a_u32_count_of_2_24():
    """2**24, where float32 starts to round, is a plain u32 count, seen through the pane views unchanged."""
    exact = np.zeros((2, 4, 4), dtype=np.uint32)
    exact[1, 3, 3] = 2**24
    frame = Frame(counts=exact, shot_index=0, readout_angle_urad=(0.0, 0.0))
    assert np.shares_memory(frame.anti_stokes, frame.counts)
    assert frame.anti_stokes[3, 3] == 2**24 and frame.stokes.shape == (4, 4)


# --- stacks -----------------------------------------------------------------


def test_same_seed_reproduces_bit_for_bit():
    cfg = ExperimentConfig()
    a = list(iter_simulated_frames(run_of(cfg, 3, 12)))
    b = list(iter_simulated_frames(run_of(cfg, 3, 12)))
    assert [f.shot_index for f in a] == [f.shot_index for f in b] == [0, 1, 2]
    for fa, fb in zip(a, b):
        np.testing.assert_array_equal(fa.counts, fb.counts)


def test_schedule_is_honored_per_frame():
    cfg = ExperimentConfig()
    sched = np.array([[0.0, -200.0], [0.0, 0.0], [0.0, 200.0]])
    frames = list(iter_simulated_frames(run_of(cfg, 3, 5), schedule=sched))
    for fr, row in zip(frames, sched):
        assert fr.readout_angle_urad == tuple(row)


def test_constant_schedule_broadcasts():
    cfg = ExperimentConfig()
    frames = list(iter_simulated_frames(run_of(cfg, 2, 5), schedule=Angle2D(0.0, 150.0)))
    assert all(fr.readout_angle_urad == (0.0, 150.0) for fr in frames)


def test_schedule_shape_mismatch_raises():
    cfg = ExperimentConfig()
    with pytest.raises(ValueError, match="schedule"):
        list(iter_simulated_frames(run_of(cfg, 3, 5), schedule=np.zeros((2, 2))))


@pytest.mark.parametrize("rows", [2, 4])
def test_schedule_row_count_is_checked_at_the_call(rows):
    """A schedule of the wrong length fails when the run is asked for, before any frame renders."""
    with pytest.raises(ValueError, match=f"^schedule has {rows} rows but the run asks for 3 frames$"):
        iter_simulated_frames(run_of(ExperimentConfig(), 3, 5), schedule=np.zeros((rows, 2)))


@pytest.mark.parametrize("sched", [np.zeros((3, 3)), np.zeros(3), [(0.0, 0.0, 0.0)] * 3])
def test_schedule_rows_must_be_pairs(sched):
    with pytest.raises(ValueError, match=r"^schedule rows must be \(x, y\) pairs"):
        iter_simulated_frames(run_of(ExperimentConfig(), 3, 5), schedule=sched)


@pytest.mark.parametrize("sched", [None, Angle2D(0.0, 150.0)], ids=["no-schedule", "one-angle"])
def test_first_frame_memory_does_not_depend_on_the_frame_count(monkeypatch, sched):
    """A run at the frame bound reaches its first frame at the peak of a 64-frame run.

    With no schedule, or one angle for every frame, a run holds one tilt
    whatever its length: no per-frame tilt array (64 GiB of float64 pairs at
    2**32 - 1 frames).  "The same" allows 1 MiB for thread timing.
    """
    _use_threads(monkeypatch, 2)
    cfg = ExperimentConfig()

    def peak(n):
        tracemalloc.start()
        try:
            frames = iter_simulated_frames(run_of(cfg, n, 3), schedule=sched)
            assert next(frames).readout_angle_urad == ((0.0, 0.0) if sched is None else (0.0, 150.0))
            frames.close()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(8)  # one-off allocations of the first run stay out of the comparison
    peaks = [peak(64), peak(N_FRAMES_MAX)]
    assert abs(peaks[1] - peaks[0]) < 2**20, peaks
    assert _render_threads() == 0


def test_memory_stays_bounded_when_every_frame_has_its_own_tilt():
    cfg = ExperimentConfig()
    n = 200
    sched = np.column_stack([np.zeros(n), np.linspace(-250.0, 250.0, n)])
    tracemalloc.start()
    try:
        for _ in iter_simulated_frames(run_of(cfg, n, 3), schedule=sched):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@given(st.integers(min_value=0, max_value=50))
@settings(max_examples=10, deadline=None)
def test_frames_independent_of_history(idx):
    """Frame idx is a pure function of (seed, idx), not of preceding frames."""
    cfg = ExperimentConfig()
    ms = mode_set_from_config(cfg)
    rng = shot_rng(cfg.run.seed, idx)
    i_s, i_as = sample_shot(ms, retrieval_efficiencies(ms, cfg.retrieval, (0.0, 0.0)), rng)
    fr = render_shot(
        (i_s, i_as), ms, (0.0, 0.0), cfg.camera, rng,
        noise_floor=cfg.retrieval.noise_floor, shot_index=idx,
    )
    from_stream = None
    for candidate in iter_simulated_frames(run_of(cfg, idx + 1, cfg.run.seed)):
        if candidate.shot_index == idx:
            from_stream = candidate
    np.testing.assert_array_equal(fr.stokes, from_stream.stokes)
    np.testing.assert_array_equal(fr.anti_stokes, from_stream.anti_stokes)


# --- pinned output ------------------------------------------------------------

# sha256 of the .rmns files the renderer wrote when these digests were pinned.
# A renderer change that moves even one Poisson count changes a digest; such a
# change is an output change and must be recorded as one, never re-seeded away.
PINNED_DEFAULT_DIGEST = "e944dbffdc358165403f06be83603e09761efc164a8f4924313b0300518576e9"
PINNED_SCHEDULE_DIGEST = "e2435405a4187016903ca331067d848038d95008ff15702cbd54782601751f56"
PINNED_BOTH_AXIS_DIGEST = "fc95e1fb452ddd6b59c29f70d537c4be936fd787bda1b9a74c33bf9076497f66"


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_default_stack_digest_is_pinned(tmp_path):
    out = tmp_path / "run.rmns"
    assert main(["simulate", "--frames", "6", "--out", str(out)]) == 0
    assert _digest(out) == PINNED_DEFAULT_DIGEST


def _three_tone_schedule(tmp_path):
    # three AOD drive tones, 0.25 MHz apart around the 80 MHz base, cycled
    tones = (79.75e6, 80.0e6, 80.25e6)
    sched = tmp_path / "sched.csv"
    sched.write_text(
        "shot,drive_freq_hz\n" + "".join(f"{i},{tones[i % 3]!r}\n" for i in range(6))
    )
    return sched


def test_scheduled_stack_digest_is_pinned(tmp_path):
    sched = _three_tone_schedule(tmp_path)
    out = tmp_path / "sched.rmns"
    assert main(["simulate", "--frames", "6", "--schedule", str(sched), "--out", str(out)]) == 0
    assert _digest(out) == PINNED_SCHEDULE_DIGEST


# readout tilts (x, y) that change y alone, x alone, neither and both; at
# x = 450 urad some anti-Stokes modes leave the pane on x, at y = -330 on y
BOTH_AXIS_TILTS = ((0.0, 0.0), (0.0, 150.0), (-120.0, 150.0), (450.0, 150.0),
                   (450.0, 150.0), (-200.0, -330.0))


def _both_axis_schedule(tmp_path):
    sched = tmp_path / "both.csv"
    sched.write_text(
        "shot,theta_read_x_urad,theta_read_y_urad\n"
        + "".join(f"{i},{x!r},{y!r}\n" for i, (x, y) in enumerate(BOTH_AXIS_TILTS))
    )
    return sched


def test_both_axis_schedule_digest_is_pinned(tmp_path):
    sched = _both_axis_schedule(tmp_path)
    out = tmp_path / "both.rmns"
    assert main(["simulate", "--frames", "6", "--schedule", str(sched), "--out", str(out)]) == 0
    assert _digest(out) == PINNED_BOTH_AXIS_DIGEST


# --- render threads -----------------------------------------------------------


def _use_threads(monkeypatch, threads):
    """Render on `threads` threads: the private seam that stands in for the core count."""
    monkeypatch.setattr(scattering, "_usable_cores", lambda: threads)


def _render_threads():
    return sum(t.name == "ramanmem-render" for t in threading.enumerate())


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_stack_digests_do_not_depend_on_thread_count(tmp_path, monkeypatch, threads):
    _use_threads(monkeypatch, threads)
    out = tmp_path / "run.rmns"
    assert main(["simulate", "--frames", "6", "--out", str(out)]) == 0
    assert _digest(out) == PINNED_DEFAULT_DIGEST
    sched = _three_tone_schedule(tmp_path)
    out = tmp_path / "sched.rmns"
    assert main(["simulate", "--frames", "6", "--schedule", str(sched), "--out", str(out)]) == 0
    assert _digest(out) == PINNED_SCHEDULE_DIGEST
    sched = _both_axis_schedule(tmp_path)
    out = tmp_path / "both.rmns"
    assert main(["simulate", "--frames", "6", "--schedule", str(sched), "--out", str(out)]) == 0
    assert _digest(out) == PINNED_BOTH_AXIS_DIGEST


@pytest.mark.parametrize(("cores", "frames", "started"), [(1, 5, 1), (3, 5, 3), (3, 2, 2)])
def test_one_render_thread_per_core_capped_at_frame_count(monkeypatch, cores, frames, started):
    _use_threads(monkeypatch, cores)
    it = iter_simulated_frames(run_of(ExperimentConfig(), frames, 1))
    next(it)
    assert _render_threads() == started
    it.close()
    assert _render_threads() == 0


@pytest.mark.parametrize("threads", [2, 3])
def test_render_threads_stop_when_the_run_ends_or_is_closed(monkeypatch, threads):
    _use_threads(monkeypatch, threads)
    cfg = ExperimentConfig()
    start = threading.active_count()
    frames = list(iter_simulated_frames(run_of(cfg, 8, 1)))
    assert [fr.shot_index for fr in frames] == list(range(8))
    assert threading.active_count() == start

    it = iter_simulated_frames(run_of(cfg, 20, 1))
    assert [next(it).shot_index for _ in range(3)] == [0, 1, 2]
    assert threading.active_count() == start + threads
    it.close()
    assert threading.active_count() == start


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_render_error_reaches_the_caller_at_its_frame(monkeypatch, threads):
    _use_threads(monkeypatch, threads)
    render = scattering._render_with_bases

    def failing(*job):
        if job[3] == 4:  # the shot index
            raise RuntimeError("render failed at frame 4")
        return render(*job)

    monkeypatch.setattr(scattering, "_render_with_bases", failing)
    start = threading.active_count()
    got = []
    with pytest.raises(RuntimeError, match="frame 4"):
        for fr in iter_simulated_frames(run_of(ExperimentConfig(), 10, 1)):
            got.append(fr.shot_index)
    assert got == [0, 1, 2, 3]
    assert threading.active_count() == start


def test_many_threads_and_fast_switching_keep_the_frames(monkeypatch):
    """More render threads than cores and a 1 us switch interval: the serial frames, in order."""
    cfg = ExperimentConfig()
    n = 24
    sched = np.column_stack([np.zeros(n), np.linspace(-100.0, 100.0, n)])
    _use_threads(monkeypatch, 1)
    want = list(iter_simulated_frames(run_of(cfg, n, 8), schedule=sched))
    _use_threads(monkeypatch, 8)
    got = []
    consumer = threading.Thread(
        target=lambda: got.extend(iter_simulated_frames(run_of(cfg, n, 8), schedule=sched))
    )
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        consumer.start()
        consumer.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not consumer.is_alive()
    assert [fr.shot_index for fr in got] == list(range(n))
    for a, b in zip(want, got):
        assert a.readout_angle_urad == b.readout_angle_urad
        np.testing.assert_array_equal(a.stokes, b.stokes)
        np.testing.assert_array_equal(a.anti_stokes, b.anti_stokes)


_UNCLOSED_RENDER = """\
import dataclasses
from ramanmem import scattering
from ramanmem.config import ExperimentConfig, RunParams

scattering._usable_cores = lambda: 2
frames = scattering.iter_simulated_frames(
    dataclasses.replace(ExperimentConfig(), run=RunParams(seed=1, n_frames=100_000))
)
next(frames)
"""


def test_an_unclosed_render_does_not_hold_up_interpreter_exit():
    """A process that drops a long run after one frame, unclosed, still exits: its helpers are daemons."""
    env = dict(os.environ, PYTHONPATH=str(Path(scattering.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", _UNCLOSED_RENDER],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_threaded_memory_does_not_grow_with_frames(monkeypatch):
    """At most 4 * threads frames are in flight: the same peak at 64 and at 640 frames.

    Every frame has its own theta_y, so each job carries fresh anti-Stokes
    factors (11 x and 11 y rows, ~17 KB), besides its two panes.  "The
    same" allows 1 MB for thread timing, which moves the peak by up to
    ~0.25 MB; a pipeline that queued every job or kept every frame would grow
    by tens of MB.
    """
    _use_threads(monkeypatch, 2)
    cfg = ExperimentConfig()

    def peak(n):
        sched = np.column_stack([np.zeros(n), np.linspace(-250.0, 250.0, n)])
        tracemalloc.start()
        try:
            for _ in iter_simulated_frames(run_of(cfg, n, 3), schedule=sched):
                pass
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(8)  # one-off allocations of the first run stay out of the comparison
    peaks = [peak(64), peak(640)]
    assert abs(peaks[1] - peaks[0]) < 2**20, peaks


# --- tilt cache ---------------------------------------------------------------


def _count_builds(monkeypatch):
    """The tilts whose anti-Stokes factors a run builds, in build order."""
    built = []
    build = scattering.anti_stokes_basis

    def counted(ms, tilt, camera):
        built.append(tuple(tilt))
        return build(ms, tilt, camera)

    monkeypatch.setattr(scattering, "anti_stokes_basis", counted)
    return built


def _cache_tilts(monkeypatch, cfg, tilts):
    """Size the tilt cache to hold exactly `tilts` tilts' factors at this config."""
    ms = mode_set_from_config(cfg)
    pane = stokes_basis(ms, cfg.camera)
    one = pane.wy.nbytes + pane.wx.nbytes + 8 * ms.n_modes
    monkeypatch.setattr(scattering, "_TILT_CACHE_BYTES", tilts * one)


def _frames(cfg, tilts, seed=4):
    sched = np.array(tilts, dtype=float)
    return list(iter_simulated_frames(run_of(cfg, len(sched), seed), schedule=sched))


# three readout tilts, revisited in an order that is not a plain cycle
REVISITED_TILTS = [(0.0, -150.0), (0.0, 0.0), (80.0, 150.0), (0.0, 0.0),
                   (0.0, -150.0), (80.0, 150.0), (0.0, -150.0), (0.0, 0.0), (80.0, 150.0)]


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_revisited_tilts_build_once_and_keep_the_frames(monkeypatch, threads):
    cfg = ExperimentConfig()
    _use_threads(monkeypatch, threads)
    built = _count_builds(monkeypatch)
    got = _frames(cfg, REVISITED_TILTS)
    assert sorted(built) == sorted(set(REVISITED_TILTS))  # 3 builds for 9 frames
    built.clear()
    monkeypatch.setattr(scattering, "_TILT_CACHE_BYTES", 1)  # one tilt: a rebuild per tilt change
    want = _frames(cfg, REVISITED_TILTS)
    assert len(built) == len(REVISITED_TILTS)
    for a, b in zip(want, got):
        assert a.readout_angle_urad == b.readout_angle_urad
        assert a.counts.dtype == b.counts.dtype and a.counts.tobytes() == b.counts.tobytes()


@pytest.mark.parametrize(("distinct", "builds"), [(3, 3), (4, 8)])
def test_tilt_cache_holds_its_byte_budget(monkeypatch, distinct, builds):
    """A 3-tilt budget: two cycles of 3 tilts build 3 times, of 4 tilts (least recently used out) 8."""
    cfg = ExperimentConfig()
    _cache_tilts(monkeypatch, cfg, 3)
    built = _count_builds(monkeypatch)
    _frames(cfg, [(0.0, 50.0 * k) for k in range(distinct)] * 2)
    assert len(built) == builds


def test_negative_zero_tilt_reuses_the_zero_tilt(monkeypatch):
    cfg = ExperimentConfig()
    built = _count_builds(monkeypatch)
    tilts = [(0.0, 0.0), (0.0, -0.0)]
    frames = _frames(cfg, tilts, seed=6)
    assert built == [(0.0, 0.0)]
    assert math.copysign(1.0, frames[1].readout_angle_urad[1]) == -1.0  # the frame keeps its own tilt
    ms = mode_set_from_config(cfg)
    rm = cfg.retrieval
    for i, (fr, tilt) in enumerate(zip(frames, tilts)):
        rng = shot_rng(6, i)
        shot = sample_shot(ms, retrieval_efficiencies(ms, rm, tilt), rng)
        fresh = render_shot(shot, ms, tilt, cfg.camera, rng, noise_floor=rm.noise_floor, shot_index=i)
        assert fr.counts.tobytes() == fresh.counts.astype(fr.counts.dtype).tobytes()
