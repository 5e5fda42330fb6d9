"""Mode grid construction, thermal sampling and frame rendering."""

import hashlib
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from rmns_v1 import v1_bytes

from ramanmem import scattering
from ramanmem.cli import main
from ramanmem.config import default_config
from ramanmem.geometry import Angle2D, BeamGeometry, CameraGeometry
from ramanmem.scattering import (
    Frame,
    ModeGridParams,
    ModeSet,
    RetrievalModel,
    build_mode_set,
    check_counts,
    effective_source_diameter_m,
    iter_simulated_frames,
    mode_set_from_config,
    retrieval_efficiencies,
    sample_shot,
    shot_rng,
    stokes_basis,
)

GEOM = BeamGeometry(3.5e-3, 3.5e-3, 6.0e-3, 0.1, 795e-9, 780e-9)


def grid(envelope_fwhm_urad: float, **kwargs) -> ModeGridParams:
    """A [modes] section at gain shrink 2 and 1000 photons per mode."""
    return ModeGridParams(
        gain_shrink=2.0, envelope_fwhm_urad=envelope_fwhm_urad, mean_photons_per_mode=1000.0, **kwargs
    )


def small_camera(n=16):
    return CameraGeometry(width_px=n, height_px=n, pixel_pitch_m=7.5e-6, f3_m=0.5)


def render_shot(intensities, ms, tilt, camera, rng, noise_floor=0.0, shot_index=0):
    """One frame from given mode intensities, through the renderer `iter_simulated_frames` uses."""
    factors = stokes_basis(ms, camera), scattering.anti_stokes_basis(ms, tilt, camera)
    return scattering._render_with_bases(intensities, *factors, shot_index, tilt, rng, noise_floor)


def flat_model(eta0=1.0, noise_floor=0.0):
    return RetrievalModel(
        eta0=eta0,
        d_diff_m2_s=0.0,
        tau_storage_s=1e-6,
        aberration_scale_urad=0.0,  # roll-off disabled
        noise_floor=noise_floor,
    )


# --- mode set -------------------------------------------------------------


def test_effective_source_diameter():
    assert effective_source_diameter_m(GEOM, 2.0) == pytest.approx(3.5e-3)
    with pytest.raises(ValueError):
        effective_source_diameter_m(GEOM, 0.0)


def test_default_mode_set_layout():
    ms = mode_set_from_config(default_config())
    assert ms.n_modes == 121  # 11 x 11 grid
    assert ms.mode_fwhm_urad == pytest.approx(171.31386857142857, rel=1e-9)
    assert ms.grid_spacing_urad == pytest.approx(109.1254524520431, rel=1e-9)
    assert ms.spot_fwhm_urad == pytest.approx(239.9996724420318, rel=1e-9)
    np.testing.assert_allclose(ms.mean_photons, 1000.0)
    # the grid is symmetric about the optical axis and contains it
    assert (ms.centers_urad == 0.0).all(axis=1).any()
    np.testing.assert_allclose(ms.centers_urad.mean(axis=0), [0.0, 0.0], atol=1e-9)


def test_spot_width_combines_both_carriers():
    ms = mode_set_from_config(default_config())
    ratio = 780.0 / 795.0
    assert ms.spot_fwhm_urad == pytest.approx(
        math.sqrt(1.0 + ratio**2) * ms.mode_fwhm_urad, rel=1e-12
    )


def test_mode_set_rejects_tiny_envelope():
    with pytest.raises(ValueError, match="smaller than one mode"):
        build_mode_set(GEOM, grid(50.0))


def test_mode_set_rejects_overlapping_grid():
    with pytest.raises(ValueError, match="orthogonality"):
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
    ms = mode_set_from_config(default_config())
    with pytest.raises(ValueError):
        ms.centers_urad[0, 0] = 1.0


# --- retrieval efficiencies -------------------------------------------------


def test_retrieval_flat_when_diffusion_off():
    ms = build_mode_set(GEOM, grid(400.0))
    eta = retrieval_efficiencies(ms, flat_model(eta0=0.85), (0.0, 0.0))
    np.testing.assert_allclose(eta, 0.85, rtol=1e-12)


def test_retrieval_diffusion_damping_frozen_ratio():
    ms = ModeSet(
        centers_urad=np.array([[0.0, 0.0], [300.0, 0.0]]),
        mean_photons=np.array([1.0, 1.0]),
        sigma_urad=np.array([70.0, 70.0]),
        grid_spacing_urad=300.0,
        envelope_fwhm_urad=(600.0, 600.0),
        spot_fwhm_urad=230.0,
        lambda_write_m=795e-9,
        lambda_read_m=780e-9,
    )
    rm = RetrievalModel(0.85, 0.12, 1e-6, 0.0, 0.0)
    eta = retrieval_efficiencies(ms, rm, (0.0, 0.0))
    assert eta[0] == pytest.approx(0.85, rel=1e-12)
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


def test_aberration_scale_whose_square_underflows_is_rejected():
    """2 scale^2 == 0 would make the untilted roll-off 0 / 0; a scale whose square survives still works."""
    for scale in (1e-300, 5e-324):
        with pytest.raises(ValueError, match="underflows to 0"):
            RetrievalModel(1.0, 0.0, 1e-6, scale, 0.0)
    ms = build_mode_set(GEOM, grid(400.0))
    rm = RetrievalModel(1.0, 0.0, 1e-6, 1e-160, 0.0)  # 2 scale^2 is subnormal, not 0
    assert (retrieval_efficiencies(ms, rm, (0.0, 0.0)) == 1.0).all()
    assert (retrieval_efficiencies(ms, rm, (0.0, 200.0)) == 0.0).all()


# --- sampling ---------------------------------------------------------------


def test_shot_rng_is_counter_based():
    a = shot_rng(5, 17).integers(0, 2**63, size=4)
    b = shot_rng(5, 17).integers(0, 2**63, size=4)
    c = shot_rng(5, 18).integers(0, 2**63, size=4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    with pytest.raises(ValueError):
        shot_rng(-1, 0)


def test_sample_shot_unit_efficiency_gives_equal_twins():
    ms = build_mode_set(GEOM, grid(400.0))
    eta = retrieval_efficiencies(ms, flat_model(eta0=1.0), (0.0, 0.0))
    i_s, i_as = sample_shot(ms, eta, shot_rng(1, 0))
    np.testing.assert_array_equal(i_s, i_as)
    assert (i_s >= 0).all()


def test_sample_shot_scales_by_eta():
    ms = build_mode_set(GEOM, grid(400.0))
    rm = RetrievalModel(0.5, 0.0, 1e-6, 0.0, 0.0)
    i_s, i_as = sample_shot(ms, retrieval_efficiencies(ms, rm, (0.0, 0.0)), shot_rng(1, 0))
    np.testing.assert_allclose(i_as, 0.5 * i_s, rtol=1e-12)


# --- rendering --------------------------------------------------------------


def test_factored_mean_matches_per_mode_gaussians():
    # reference: each on-pane mode's area-normalised 2-d Gaussian, summed mode by mode
    ms = build_mode_set(GEOM, grid(400.0))
    cam = small_camera(24)
    factors = stokes_basis(ms, cam)
    wy, wx_alpha, in_pane = factors.wy, factors.wx_alpha, ~factors.off_pane
    assert wy.shape == (ms.n_modes, cam.height_px)
    assert wx_alpha.shape == (ms.n_modes, cam.width_px)
    assert 0 < in_pane.sum() < ms.n_modes
    i_s = np.random.default_rng(4).exponential(1000.0, ms.n_modes)
    gx, gy = np.meshgrid(*cam.pixel_angle_axes())
    expected = np.zeros((cam.height_px, cam.width_px))
    for m in np.flatnonzero(in_pane):
        (cx, cy), sig = ms.centers_urad[m], ms.sigma_urad[m]
        r2 = (gx - cx) ** 2 + (gy - cy) ** 2
        area = cam.pitch_urad**2 / (2 * math.pi * sig**2)
        expected += i_s[m] * area * np.exp(-r2 / (2 * sig**2))
    np.testing.assert_allclose(wy.T @ (i_s[:, None] * wx_alpha), expected, rtol=1e-12)


def test_factors_at_a_new_tilt_share_the_unmoved_axis_and_keep_the_bits():
    """Reused factors equal fresh ones, and both equal a one-row-per-mode build bit for bit."""
    cfg = default_config()
    ms, cam = mode_set_from_config(cfg), cfg.camera
    ax, ay = cam.pixel_angle_axes()
    sig = ms.sigma_urad[:, None]
    previous = None
    for tilt in BOTH_AXIS_TILTS:
        got = scattering.anti_stokes_basis(ms, tilt, cam, previous)
        fresh = scattering.anti_stokes_basis(ms, tilt, cam)
        centers = ms.anti_stokes_centers_urad(tilt)
        wx = np.exp(-0.5 * ((ax[None, :] - centers[:, :1]) / sig) ** 2)
        wx *= (cam.pitch_urad**2 / (2.0 * math.pi * ms.sigma_urad**2))[:, None]
        wy = np.exp(-0.5 * ((ay[None, :] - centers[:, 1:]) / sig) ** 2)
        wy[got.off_pane] = 0.0
        for factors in (got, fresh):
            np.testing.assert_array_equal(factors.wx_alpha, wx)
            np.testing.assert_array_equal(factors.wy, wy)
        np.testing.assert_array_equal(got.off_pane, fresh.off_pane)
        if previous is not None:
            assert (got.wx_alpha is previous.wx_alpha) == (tilt[0] == previous.tilt[0])
            assert (got.wy_rows is previous.wy_rows) == (tilt[1] == previous.tilt[1])
        previous = got
    assert got.off_pane.any()


def test_render_dark_frame():
    ms = build_mode_set(GEOM, grid(240.0))
    zeros = np.zeros(ms.n_modes)
    fr = render_shot((zeros, zeros), ms, (0.0, 0.0), small_camera(), shot_rng(0, 0))
    assert fr.stokes.sum() == 0.0
    assert fr.anti_stokes.sum() == 0.0


def test_rendered_counts_are_integers():
    cfg = default_config()
    fr = next(iter_simulated_frames(cfg, n_frames=1, seed=3))
    np.testing.assert_array_equal(fr.stokes, np.round(fr.stokes))
    np.testing.assert_array_equal(fr.anti_stokes, np.round(fr.anti_stokes))
    assert fr.stokes.dtype == np.float32


def test_render_energy_bookkeeping():
    """On a pane wide enough for every mode, the counts carry each pane's intensity budget."""
    ms = build_mode_set(GEOM, grid(240.0))
    cam = small_camera(64)
    stokes, anti = stokes_basis(ms, cam), scattering.anti_stokes_basis(ms, (0.0, 0.0), cam)
    assert not stokes.off_pane.any() and not anti.off_pane.any()
    i_s = np.linspace(1000.0, 2000.0, ms.n_modes)
    i_as = 0.5 * i_s
    fr = render_shot((i_s, i_as), ms, (0.0, 0.0), cam, shot_rng(0, 1))
    for counts, factors, i in ((fr.stokes, stokes, i_s), (fr.anti_stokes, anti, i_as)):
        mean = (factors.wy.T @ (i[:, None] * factors.wx_alpha)).sum()
        # only the Gaussian tails past the pane edge are lost
        assert 0.98 * i.sum() < mean <= i.sum()
        assert abs(counts.sum() - mean) < 5.0 * math.sqrt(mean)


def test_render_clips_off_pane_modes():
    """A mode centred off a pane deposits nothing on it, whatever its intensity."""
    # an 8x8 pane spans +-60 urad; a 400 urad envelope pushes modes off it
    ms = build_mode_set(GEOM, grid(400.0))
    cam, tilt = small_camera(8), (30.0, -20.0)
    off_s = stokes_basis(ms, cam).off_pane
    off_a = scattering.anti_stokes_basis(ms, tilt, cam).off_pane
    assert 0 < off_s.sum() < ms.n_modes and 0 < off_a.sum() < ms.n_modes

    def render(i_s, i_as):
        return render_shot((i_s, i_as), ms, tilt, cam, shot_rng(0, 2), noise_floor=0.0)

    lit = np.linspace(1000.0, 2000.0, ms.n_modes)
    dark = render(lit * off_s, lit * off_a)
    assert not dark.stokes.any() and not dark.anti_stokes.any()
    full, in_pane = render(lit, lit), render(lit * ~off_s, lit * ~off_a)
    assert full.stokes.any() and full.anti_stokes.any()
    np.testing.assert_array_equal(full.stokes, in_pane.stokes)
    np.testing.assert_array_equal(full.anti_stokes, in_pane.anti_stokes)


def test_frame_validation():
    for shape in ((4, 4), (3, 4, 4), (1, 2, 4, 4)):  # not two panes of one shape
        with pytest.raises(ValueError, match=r"\(2, H, W\)"):
            Frame(counts=np.zeros(shape), shot_index=0, readout_angle_urad=(0.0, 0.0))



@pytest.mark.parametrize(
    "value, error",
    [(np.nan, ValueError), (np.inf, ValueError), (-1.0, ValueError), (2.0**24, OverflowError)],
    ids=["nan", "inf", "negative", "2^24"],
)
def test_frame_rejects_counts_outside_the_exact_range(value, error):
    """`check_counts` is the one rule: finite, non-negative and below 2**24."""
    counts = np.zeros((2, 4, 4), dtype=np.float32)
    counts[1, 3, 3] = 2**24 - 1  # the largest count float32 still holds exactly
    frame = Frame(counts=counts, shot_index=0, readout_angle_urad=(0.0, 0.0))
    assert np.shares_memory(frame.anti_stokes, frame.counts)
    assert frame.anti_stokes[3, 3] == 2**24 - 1 and frame.stokes.shape == (4, 4)
    counts[1, 3, 3] = value
    with pytest.raises(error):
        Frame(counts=counts, shot_index=0, readout_angle_urad=(0.0, 0.0))


class _Unscannable(np.ndarray):
    """An array whose min() fails, and whose max() fails too unless allowed."""

    allow_max = False

    def min(self, *args, **kwargs):
        raise AssertionError("min() scanned")

    def max(self, *args, **kwargs):
        if not self.allow_max:
            raise AssertionError("max() scanned")
        return super().max(*args, **kwargs)


def test_check_counts_scans_only_what_the_dtype_allows():
    """u16 holds no count the rule rejects: no scan; u32 keeps only the 2**24 test."""
    u16 = np.full((2, 4, 4), 2**16 - 1, dtype=np.uint16).view(_Unscannable)
    check_counts(u16)
    Frame(counts=u16, shot_index=0, readout_angle_urad=(0.0, 0.0))
    u32 = np.full((2, 4, 4), 2**24 - 1, dtype=np.uint32).view(_Unscannable)
    u32.allow_max = True
    check_counts(u32)
    u32[1, 3, 3] = 2**24
    with pytest.raises(OverflowError, match=r"2\*\*24"):
        check_counts(u32)


# --- stacks -----------------------------------------------------------------


def test_same_seed_reproduces_bit_for_bit():
    cfg = default_config()
    a = list(iter_simulated_frames(cfg, n_frames=3, seed=12))
    b = list(iter_simulated_frames(cfg, n_frames=3, seed=12))
    assert [f.shot_index for f in a] == [f.shot_index for f in b] == [0, 1, 2]
    for fa, fb in zip(a, b):
        np.testing.assert_array_equal(fa.counts, fb.counts)


def test_schedule_is_honored_per_frame():
    cfg = default_config()
    sched = np.array([[0.0, -200.0], [0.0, 0.0], [0.0, 200.0]])
    frames = list(iter_simulated_frames(cfg, n_frames=3, schedule=sched, seed=5))
    for fr, row in zip(frames, sched):
        assert fr.readout_angle_urad == tuple(row)


def test_constant_schedule_broadcasts():
    cfg = default_config()
    frames = list(
        iter_simulated_frames(cfg, n_frames=2, schedule=Angle2D(0.0, 150.0), seed=5)
    )
    assert all(fr.readout_angle_urad == (0.0, 150.0) for fr in frames)


def test_schedule_shape_mismatch_raises():
    cfg = default_config()
    with pytest.raises(ValueError, match="schedule"):
        list(iter_simulated_frames(cfg, n_frames=3, schedule=np.zeros((2, 2)), seed=5))


def test_memory_stays_bounded_when_every_frame_has_its_own_tilt():
    cfg = default_config()
    n = 200
    sched = np.column_stack([np.zeros(n), np.linspace(-250.0, 250.0, n)])
    tracemalloc.start()
    try:
        for _ in iter_simulated_frames(cfg, n_frames=n, schedule=sched, seed=3):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@given(st.integers(min_value=0, max_value=50))
@settings(max_examples=10, deadline=None)
def test_frames_independent_of_history(idx):
    """Frame idx is a pure function of (seed, idx), not of preceding frames."""
    cfg = default_config()
    ms = mode_set_from_config(cfg)
    rng = shot_rng(cfg.run.seed, idx)
    i_s, i_as = sample_shot(ms, retrieval_efficiencies(ms, cfg.retrieval, (0.0, 0.0)), rng)
    fr = render_shot(
        (i_s, i_as), ms, (0.0, 0.0), cfg.camera, rng,
        noise_floor=cfg.retrieval.noise_floor, shot_index=idx,
    )
    from_stream = None
    for candidate in iter_simulated_frames(cfg, n_frames=idx + 1):
        if candidate.shot_index == idx:
            from_stream = candidate
    np.testing.assert_array_equal(fr.stokes, from_stream.stokes)
    np.testing.assert_array_equal(fr.anti_stokes, from_stream.anti_stokes)


# --- pinned output ------------------------------------------------------------

# sha256 of the .rmns files the renderer wrote when these digests were pinned.
# A renderer change that moves even one Poisson count changes a digest; such a
# change is an output change and must be recorded as one, never re-seeded away.
PINNED_DEFAULT_DIGEST = "50eef69fbce54a16066e3ca914eeaffbdd932150cf5e3293270304bdb60ee503"
PINNED_SCHEDULE_DIGEST = "bb2aa19221f12b31e233833ad85a26d9c01bae3519a74efad763feae9fb6e46e"
PINNED_BOTH_AXIS_DIGEST = "60fbf31cf4eee88b0ae4a673f8453077ccf5bd131248976e52a224484733b186"
# sha256 of the same stacks as version 1 files (float32 counts, no angles): the
# digests pinned before version 2.  Each stack, decoded and written as version 1,
# must match, so the format change moved no count
PINNED_V1_DIGESTS = {
    PINNED_DEFAULT_DIGEST: "d382b3fed89d68c78ae5b6a4422043aed47ff6b86af923da6d8044df4492c6f8",
    PINNED_SCHEDULE_DIGEST: "ce9b017f8de74258bae5016c83a2df3ccd58fc3434e8ec8c693e1a8a09aa853c",
    PINNED_BOTH_AXIS_DIGEST: "b12f09a097d1c2e99ec2bc752460c59d652f831363fd459ff93f59862f000cad",
}


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _assert_pinned(path, digest):
    assert _digest(path) == digest
    assert hashlib.sha256(v1_bytes(path)).hexdigest() == PINNED_V1_DIGESTS[digest]


def test_default_stack_digest_is_pinned(tmp_path):
    out = tmp_path / "run.rmns"
    assert main(["simulate", "--frames", "6", "--out", str(out)]) == 0
    _assert_pinned(out, PINNED_DEFAULT_DIGEST)


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
    _assert_pinned(out, PINNED_SCHEDULE_DIGEST)


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
    _assert_pinned(out, PINNED_BOTH_AXIS_DIGEST)


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


@pytest.mark.parametrize(("cores", "frames", "started"), [(1, 5, 0), (3, 5, 3), (3, 2, 2)])
def test_one_render_thread_per_core_capped_at_frame_count(monkeypatch, cores, frames, started):
    _use_threads(monkeypatch, cores)
    it = iter_simulated_frames(default_config(), n_frames=frames, seed=1)
    next(it)
    assert _render_threads() == started
    it.close()
    assert _render_threads() == 0


@pytest.mark.parametrize("threads", [2, 3])
def test_render_threads_stop_when_the_run_ends_or_is_closed(monkeypatch, threads):
    _use_threads(monkeypatch, threads)
    cfg = default_config()
    start = threading.active_count()
    frames = list(iter_simulated_frames(cfg, n_frames=8, seed=1))
    assert [fr.shot_index for fr in frames] == list(range(8))
    assert threading.active_count() == start

    it = iter_simulated_frames(cfg, n_frames=20, seed=1)
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
        for fr in iter_simulated_frames(default_config(), n_frames=10, seed=1):
            got.append(fr.shot_index)
    assert got == [0, 1, 2, 3]
    assert threading.active_count() == start


def test_many_threads_and_fast_switching_keep_the_frames(monkeypatch):
    """More render threads than cores and a 1 us switch interval: the serial frames, in order."""
    cfg = default_config()
    n = 24
    sched = np.column_stack([np.zeros(n), np.linspace(-100.0, 100.0, n)])
    _use_threads(monkeypatch, 1)
    want = list(iter_simulated_frames(cfg, n_frames=n, schedule=sched, seed=8))
    _use_threads(monkeypatch, 8)
    got = []
    consumer = threading.Thread(
        target=lambda: got.extend(iter_simulated_frames(cfg, n_frames=n, schedule=sched, seed=8))
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


def test_threaded_memory_does_not_grow_with_frames(monkeypatch):
    """At most 4 * threads frames are in flight: the same peak at 64 and at 640 frames.

    Every frame has its own theta_y, so each job carries a fresh anti-Stokes
    y factor (~62 KB) and shares the x factor, besides its two panes.  "The
    same" allows 1 MB for thread timing, which moves the peak by up to
    ~0.25 MB; a pipeline that queued every job or kept every frame would grow
    by tens of MB.
    """
    _use_threads(monkeypatch, 2)
    cfg = default_config()

    def peak(n):
        sched = np.column_stack([np.zeros(n), np.linspace(-250.0, 250.0, n)])
        tracemalloc.start()
        try:
            for _ in iter_simulated_frames(cfg, n_frames=n, schedule=sched, seed=3):
                pass
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(8)  # one-off allocations of the first run stay out of the comparison
    peaks = [peak(64), peak(640)]
    assert abs(peaks[1] - peaks[0]) < 2**20, peaks
