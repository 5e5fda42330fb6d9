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

from ramanmem import scattering
from ramanmem.cli import main
from ramanmem.config import default_config
from ramanmem.geometry import Angle2D, BeamGeometry, CameraGeometry
from ramanmem.scattering import (
    Frame,
    ModeSet,
    RetrievalModel,
    build_mode_set,
    effective_source_diameter_m,
    iter_simulated_frames,
    mode_set_from_config,
    render_frame,
    retrieval_efficiencies,
    sample_shot,
    shot_rng,
    simulate_stack,
    stokes_basis,
)

GEOM = BeamGeometry(3.5e-3, 3.5e-3, 6.0e-3, 0.1, 795e-9, 780e-9)


def small_camera(n=16):
    return CameraGeometry(width_px=n, height_px=n, pixel_pitch_m=7.5e-6, f3_m=0.5)


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
        build_mode_set(GEOM, 2.0, 50.0, 1000.0)


def test_mode_set_rejects_overlapping_grid():
    with pytest.raises(ValueError, match="orthogonality"):
        build_mode_set(GEOM, 2.0, 700.0, 1000.0, grid_spacing_sigma=0.5)


def test_anti_stokes_centers_conjugate_and_shift():
    ms = build_mode_set(GEOM, 2.0, 400.0, 1000.0)
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
    ms = build_mode_set(GEOM, 2.0, 400.0, 1000.0)
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
    ms = build_mode_set(GEOM, 2.0, 400.0, 1000.0)
    rm = RetrievalModel(1.0, 0.0, 1e-6, 600.0, 0.0)
    on_axis = retrieval_efficiencies(ms, rm, (0.0, 0.0))
    steered = retrieval_efficiencies(ms, rm, (0.0, 200.0))
    np.testing.assert_allclose(
        steered / on_axis, math.exp(-(200.0**2) / (2.0 * 600.0**2)), rtol=1e-12
    )


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
    ms = build_mode_set(GEOM, 2.0, 400.0, 1000.0)
    eta = retrieval_efficiencies(ms, flat_model(eta0=1.0), (0.0, 0.0))
    i_s, i_as = sample_shot(ms, eta, shot_rng(1, 0))
    np.testing.assert_array_equal(i_s, i_as)
    assert (i_s >= 0).all()


def test_sample_shot_scales_by_eta():
    ms = build_mode_set(GEOM, 2.0, 400.0, 1000.0)
    rm = RetrievalModel(0.5, 0.0, 1e-6, 0.0, 0.0)
    i_s, i_as = sample_shot(ms, retrieval_efficiencies(ms, rm, (0.0, 0.0)), shot_rng(1, 0))
    np.testing.assert_allclose(i_as, 0.5 * i_s, rtol=1e-12)


# --- rendering --------------------------------------------------------------


def test_factored_mean_matches_per_mode_gaussians():
    # reference: each on-pane mode's area-normalised 2-d Gaussian, summed mode by mode
    ms = build_mode_set(GEOM, 2.0, 400.0, 1000.0)
    cam = small_camera(24)
    (wy, wx_alpha), in_pane = stokes_basis(ms, cam)
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


def test_render_dark_frame():
    ms = build_mode_set(GEOM, 2.0, 240.0, 1000.0)
    zeros = np.zeros(ms.n_modes)
    fr = render_frame((zeros, zeros), ms, (0.0, 0.0), small_camera(), shot_rng(0, 0))
    assert fr.stokes.sum() == 0.0
    assert fr.anti_stokes.sum() == 0.0


def test_rendered_counts_are_integers():
    cfg = default_config()
    fr = next(iter_simulated_frames(cfg, n_frames=1, seed=3))
    np.testing.assert_array_equal(fr.stokes, np.round(fr.stokes))
    np.testing.assert_array_equal(fr.anti_stokes, np.round(fr.anti_stokes))
    assert fr.stokes.dtype == np.float32


def test_render_energy_bookkeeping():
    ms = build_mode_set(GEOM, 2.0, 240.0, 1000.0)
    i_s = np.linspace(1.0, 2.0, ms.n_modes)
    fr = render_frame((i_s, 0.5 * i_s), ms, (0.0, 0.0), small_camera(64), shot_rng(0, 1))
    assert fr.budget_stokes == pytest.approx(i_s.sum())
    assert fr.budget_anti_stokes == pytest.approx(0.5 * i_s.sum())
    assert fr.n_clipped_modes == 0
    assert fr.clipped_stokes == 0.0


def test_render_clips_off_pane_modes():
    # an 8x8 pane spans +-60 urad; a 400 urad envelope pushes modes off it
    ms = build_mode_set(GEOM, 2.0, 400.0, 1000.0)
    i_s = np.ones(ms.n_modes)
    fr = render_frame((i_s, i_s), ms, (0.0, 0.0), small_camera(8), shot_rng(0, 2))
    assert fr.n_clipped_modes > 0
    assert fr.clipped_stokes > 0.0


def test_render_rejects_bad_intensities():
    ms = build_mode_set(GEOM, 2.0, 240.0, 1000.0)
    with pytest.raises(ValueError):
        render_frame(
            (np.ones(3), np.ones(3)), ms, (0.0, 0.0), small_camera(), shot_rng(0, 0)
        )
    bad = np.full(ms.n_modes, -1.0)
    with pytest.raises(ValueError):
        render_frame((bad, bad), ms, (0.0, 0.0), small_camera(), shot_rng(0, 0))


def test_frame_validation():
    with pytest.raises(ValueError):
        Frame(
            stokes=np.zeros((4, 4)),
            anti_stokes=np.zeros((4, 5)),
            shot_index=0,
            readout_angle_urad=(0.0, 0.0),
        )


# --- stacks -----------------------------------------------------------------


def test_stack_matches_frame_iterator():
    cfg = default_config()
    stack = simulate_stack(cfg, n_frames=4, seed=9)
    frames = list(iter_simulated_frames(cfg, n_frames=4, seed=9))
    for i, fr in enumerate(frames):
        np.testing.assert_array_equal(stack.stokes[i], fr.stokes)
        np.testing.assert_array_equal(stack.anti_stokes[i], fr.anti_stokes)
    assert stack.seed == 9
    assert stack.config_checksum == cfg.checksum()
    assert len(stack) == 4


def test_same_seed_reproduces_bit_for_bit():
    cfg = default_config()
    a = simulate_stack(cfg, n_frames=3, seed=12)
    b = simulate_stack(cfg, n_frames=3, seed=12)
    np.testing.assert_array_equal(a.stokes, b.stokes)
    np.testing.assert_array_equal(a.anti_stokes, b.anti_stokes)


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
    fr = render_frame(
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
PINNED_DEFAULT_DIGEST = "d382b3fed89d68c78ae5b6a4422043aed47ff6b86af923da6d8044df4492c6f8"
PINNED_SCHEDULE_DIGEST = "ce9b017f8de74258bae5016c83a2df3ccd58fc3434e8ec8c693e1a8a09aa853c"


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
    """At most threads + 1 frames are in flight: the same peak at 64 and at 640 frames.

    Every frame has its own tilt, so each job carries fresh anti-Stokes factors
    (~190 KB) besides its two panes.  "The same" allows 1 MB for thread timing,
    which moves the peak by up to ~0.25 MB; a pipeline that queued every job
    or kept every frame would grow by tens of MB.
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
