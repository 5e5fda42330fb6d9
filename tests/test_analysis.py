"""Correlation maps, accumulator algebra, spot fitting and exports."""

import dataclasses
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramanmem import analysis as an
from ramanmem.config import ExperimentConfig, RunParams
from ramanmem.geometry import Angle2D, CameraGeometry
from ramanmem.scattering import Frame, iter_simulated_frames

FIT_WINDOW = Path(__file__).parent / "data" / "fit_window_rounding_stop.npz"
CAM4 = CameraGeometry(width_px=4, height_px=4, pixel_pitch_m=7.5e-6, f3_m=0.5)


def make_frame(stokes, anti, i=0):
    return Frame(
        counts=np.array([stokes, anti], dtype=np.uint32),
        shot_index=i,
        readout_angle_urad=(0.0, 0.0),
    )


def simulated_frames(n_frames, seed):
    """The default config's first n_frames frames of the run seeded with seed."""
    cfg = dataclasses.replace(ExperimentConfig(), run=RunParams(seed=seed, n_frames=n_frames))
    return list(iter_simulated_frames(cfg))


def accumulate_all(ref, frames):
    acc = an.MomentSet.empty([ref])
    an.accumulate_block(acc, np.stack([fr.counts for fr in frames]))
    return acc


def proportional_frames(values=(1.0, 2.0, 3.0), gain=2.0):
    """Frames whose pixel (0, 0) on both panes scales together."""
    frames = []
    for i, v in enumerate(values):
        s = np.zeros((4, 4))
        a = np.zeros((4, 4))
        s[0, 0] = v
        s[1, 1] = 5.0  # constant pixel: zero variance
        a[0, 0] = gain * v
        a[2, 2] = 7.0 - v  # anti-correlated pixel
        frames.append(make_frame(s, a, i))
    return frames


def pixel_angle(ix, iy):
    """The angle of CAM4's pixel (ix, iy) centre."""
    ax, ay = CAM4.pixel_angle_axes()
    return Angle2D(ax[ix], ay[iy])


def corner_ref():
    return an.Reference.place(CAM4, "stokes", pixel_angle(0, 0), 0.0)


def centre_ref(camera):
    """A Stokes pixel reference at (0, 0) urad, the pane's origin."""
    return an.Reference.place(camera, "stokes", Angle2D(0.0, 0.0), 0.0)


# --- references -------------------------------------------------------------


def test_reference_pixel_lookup():
    ref = corner_ref()
    assert ref.pixel_rows.tolist() == [0]
    assert ref.pixel_cols.tolist() == [0]
    with pytest.raises(ValueError, match="off the pane"):
        an.Reference.place(CAM4, "stokes", Angle2D(500.0, 0.0), 0.0)
    with pytest.raises(ValueError, match=r"pane must be one of \('stokes', 'anti_stokes'\), got 'idler'"):
        an.Reference.place(CAM4, "idler", Angle2D(0.0, 0.0), 0.0)


def test_reference_disc_membership_is_strict():
    # radius 0 is the pixel under the angle, not an empty disc
    center = pixel_angle(2, 2)
    ref0 = an.Reference.place(CAM4, "stokes", center, 0.0)
    assert (ref0.pixel_rows.tolist(), ref0.pixel_cols.tolist()) == ([2], [2])
    # radius equal to the pitch picks up the centre pixel only
    ref = an.Reference.place(CAM4, "stokes", center, CAM4.pitch_urad)
    assert len(ref.pixel_rows) == 1
    # slightly beyond the pitch adds the 4-neighbourhood
    ref2 = an.Reference.place(CAM4, "stokes", center, CAM4.pitch_urad * 1.01)
    assert len(ref2.pixel_rows) == 5
    # a disc of 0.1 pitch centred on a pixel corner reaches no pixel centre
    corner = Angle2D(center.theta_x + CAM4.pitch_urad / 2, center.theta_y + CAM4.pitch_urad / 2)
    with pytest.raises(ValueError, match="covers no pixels"):
        an.Reference.place(CAM4, "stokes", corner, 0.1 * CAM4.pitch_urad)


def test_references_compare_and_hash_by_identity():
    """Two discs placed alike compare, hash and collect without error; their sets still merge."""
    cfg = ExperimentConfig()
    a, b = (an.Reference.place(cfg.camera, "stokes", Angle2D(0.0, 0.0), 20.0) for _ in "ab")
    assert a.pixel_rows.size == 5
    assert a == a and a != b
    assert b in [b] and a not in [b]
    assert hash(a) == hash(a) and len({a, b}) == 2
    frames = simulated_frames(4, seed=9)
    merged = an.merge(accumulate_all(a, frames[:2]), accumulate_all(b, frames[2:]))
    whole = accumulate_all(a, frames)
    assert merged.references == (a,) and merged.n == whole.n
    np.testing.assert_array_equal(merged.sum_ii_ref, whole.sum_ii_ref)
    np.testing.assert_array_equal(merged.sum_i2, whole.sum_i2)


# --- correlation map ---------------------------------------------------------


def test_perfect_linear_correlation():
    cmap = an.correlation_map(accumulate_all(corner_ref(), proportional_frames()), 0)
    c = cmap.pane("anti_stokes")
    assert c[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert c[2, 2] == pytest.approx(-1.0, abs=1e-12)
    # self correlation on the reference pane
    assert cmap.pane("stokes")[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_zero_variance_pixels_are_nan():
    cmap = an.correlation_map(accumulate_all(corner_ref(), proportional_frames()), 0)
    assert np.isnan(cmap.pane("stokes")[1, 1])  # constant pixel
    assert np.isnan(cmap.pane("anti_stokes")[3, 3])  # all-zero pixel


def test_map_needs_two_frames():
    acc = accumulate_all(corner_ref(), proportional_frames()[:1])
    with pytest.raises(ValueError, match="at least 2"):
        an.correlation_map(acc, 0)


def test_constant_reference_gives_all_nan():
    ref = an.Reference.place(CAM4, "stokes", pixel_angle(1, 1), 0.0)
    cmap = an.correlation_map(accumulate_all(ref, proportional_frames()), 0)
    assert np.isnan(cmap.values).all()


def test_correlation_bound_on_simulated_data():
    cfg = ExperimentConfig()
    frames = simulated_frames(120, seed=77)
    ref = an.Reference.place(cfg.camera, "stokes", Angle2D(0.0, 150.0), 0.0)
    cmap = an.correlation_map(accumulate_all(ref, frames), 0)
    finite = cmap.values[np.isfinite(cmap.values)]
    assert finite.size > 0
    assert np.abs(finite).max() <= 1.0 + 1e-9


def test_streaming_equals_two_pass():
    cfg = ExperimentConfig()
    frames = simulated_frames(60, seed=13)
    ref = an.Reference.place(cfg.camera, "stokes", Angle2D(0.0, 0.0), 0.0)
    cmap = an.correlation_map(accumulate_all(ref, frames), 0)

    # naive two-pass estimator straight from the definition
    data = np.stack([fr.counts for fr in frames]).astype(np.float64)
    r = data[:, 0, ref.pixel_rows[0], ref.pixel_cols[0]]
    dm = data - data.mean(axis=0)
    rm = r - r.mean()
    cov = np.tensordot(rm, dm, axes=([0], [0])) / len(r)
    naive = cov / np.sqrt(dm.var(axis=0) * r.var())

    both = np.isfinite(cmap.values)
    np.testing.assert_allclose(cmap.values[both], naive[both], rtol=1e-12, atol=1e-13)


def test_merge_is_bit_stable_under_partitioning():
    cfg = ExperimentConfig()
    frames = simulated_frames(30, seed=55)
    ref = an.Reference.place(cfg.camera, "stokes", Angle2D(0.0, 0.0), 0.0)

    def partial(lo, hi):
        return accumulate_all(ref, frames[lo:hi])

    whole = partial(0, 30)
    ab = an.merge(partial(0, 10), an.merge(partial(10, 20), partial(20, 30)))
    ba = an.merge(an.merge(partial(20, 30), partial(0, 10)), partial(10, 20))
    for combo in (ab, ba):
        assert combo.n == whole.n
        np.testing.assert_array_equal(combo.sum_i, whole.sum_i)
        np.testing.assert_array_equal(combo.sum_i2, whole.sum_i2)
        np.testing.assert_array_equal(combo.sum_ii_ref, whole.sum_ii_ref)
        np.testing.assert_array_equal(combo.sum_ref, whole.sum_ref)
        np.testing.assert_array_equal(combo.sum_ref2, whole.sum_ref2)
    m_whole = an.correlation_map(whole, 0).values
    m_ab = an.correlation_map(ab, 0).values
    np.testing.assert_array_equal(
        np.isnan(m_whole), np.isnan(m_ab)
    )
    np.testing.assert_array_equal(m_whole[~np.isnan(m_whole)], m_ab[~np.isnan(m_ab)])


def test_merge_rejects_mismatched_references():
    """References must match in pane, pixels, count and order."""
    corner = corner_ref()
    centre = an.Reference.place(CAM4, "stokes", pixel_angle(1, 1), 0.0)
    for refs_a, refs_b in (
        ([corner], [centre]),
        ([corner], [corner, centre]),
        ([corner, centre], [centre, corner]),
    ):
        a = an.MomentSet.empty(refs_a)
        b = an.MomentSet.empty(refs_b)
        with pytest.raises(ValueError, match="different references"):
            an.merge(a, b)
    same = an.MomentSet.empty([corner, centre])
    assert an.merge(same, an.MomentSet.empty([corner, centre])).references == (corner, centre)


def test_one_camera_per_moment_set(tmp_path):
    """A set folds references placed on one camera; a map exports its reference camera's pixel angles."""
    coarse = dataclasses.replace(CAM4, pixel_pitch_m=2.0 * CAM4.pixel_pitch_m)
    coarse_corner = an.Reference.place(coarse, "stokes", Angle2D(-60.0, -60.0), 0.0)
    assert (coarse_corner.pixel_rows.tolist(), coarse_corner.pixel_cols.tolist()) == ([0], [0])
    for refs in ([corner_ref(), coarse_corner], []):
        with pytest.raises(ValueError, match="one camera"):
            an.MomentSet.empty(refs)
    # the same pixel on two cameras is two references: their sets do not merge
    fine_set = accumulate_all(corner_ref(), proportional_frames())
    coarse_set = accumulate_all(coarse_corner, proportional_frames())
    with pytest.raises(ValueError, match="different references"):
        an.merge(fine_set, coarse_set)
    cmap = an.correlation_map(coarse_set, 0)
    assert cmap.reference.camera is coarse
    path = tmp_path / "m.csv"
    an.map_to_csv(cmap, "anti_stokes", path, an.provenance(0, 0))
    ax, ay = coarse.pixel_angle_axes()
    gx, gy = np.meshgrid(ax, ay)
    rows = np.loadtxt(path, delimiter=",", skiprows=2)
    np.testing.assert_array_equal(rows[:, :2], np.column_stack([gx.ravel(), gy.ravel()]))


def test_k_reference_set_equals_k_one_reference_sets():
    """A 2-reference set equals two 1-reference sets bit for bit, field by field."""
    cfg = ExperimentConfig()
    frames = simulated_frames(8, seed=70)
    refs = [
        an.Reference.place(cfg.camera, "stokes", Angle2D(0.0, y), 0.0) for y in (0.0, 150.0)
    ]
    both = an.MomentSet.empty(refs)
    an.accumulate_block(both, np.stack([fr.counts for fr in frames]))
    assert both.sum_i.shape == both.sum_i2.shape == (2, cfg.camera.height_px, cfg.camera.width_px)
    assert both.sum_ii_ref.shape == (2, *both.sum_i.shape)
    for k, ref in enumerate(refs):
        solo = accumulate_all(ref, frames)
        assert both.n == solo.n == len(frames)
        np.testing.assert_array_equal(both.sum_i, solo.sum_i)
        np.testing.assert_array_equal(both.sum_i2, solo.sum_i2)
        np.testing.assert_array_equal(both.sum_ii_ref[k], solo.sum_ii_ref[0])
        assert both.sum_ref[k] == solo.sum_ref[0]
        assert both.sum_ref2[k] == solo.sum_ref2[0]
        want = an.correlation_map(solo, 0)
        got = an.correlation_map(both, k)
        assert np.array_equal(got.values, want.values, equal_nan=True)
        assert got.reference is ref


# --- cross sections -----------------------------------------------------------


def ramp_map():
    values = np.zeros((2, 4, 4))
    values[1] = np.arange(16.0).reshape(4, 4) / 16.0
    return an.CorrelationMap(values=values, reference=centre_ref(CAM4), n_frames=10)


def test_value_at():
    cmap = ramp_map()
    assert cmap.value_at("anti_stokes", pixel_angle(2, 1)) == pytest.approx(
        6.0 / 16.0
    )


# --- Gaussian fitting ----------------------------------------------------------


def synthetic_spot(nx=41, ny=31, amp=0.8, x0=12.0, y0=-30.0, sx=55.0, sy=70.0, off=0.05):
    ax = (np.arange(nx) - nx // 2) * 15.0
    ay = (np.arange(ny) - ny // 2) * 15.0
    gx, gy = np.meshgrid(ax, ay)
    z = off + amp * np.exp(-0.5 * ((gx - x0) / sx) ** 2 - 0.5 * ((gy - y0) / sy) ** 2)
    return z, ax, ay


def test_fit_recovers_noiseless_gaussian():
    z, ax, ay = synthetic_spot()
    fit = an.fit_gaussian_spot(z, ax, ay)
    assert fit.converged
    assert fit.amplitude == pytest.approx(0.8, rel=1e-6)
    assert fit.center_x_urad == pytest.approx(12.0, abs=1e-4)
    assert fit.center_y_urad == pytest.approx(-30.0, abs=1e-4)
    assert fit.sigma_x_urad == pytest.approx(55.0, rel=1e-6)
    assert fit.sigma_y_urad == pytest.approx(70.0, rel=1e-6)
    assert fit.offset == pytest.approx(0.05, abs=1e-6)
    assert fit.rms_residual < 1e-8
    assert fit.fwhm_x_urad == pytest.approx(55.0 * 2.3548200450309493, rel=1e-6)


def test_fit_tolerates_nan_holes():
    z, ax, ay = synthetic_spot()
    z[5:8, 10:14] = np.nan
    z[0, :] = np.nan
    fit = an.fit_gaussian_spot(z, ax, ay)
    assert fit.converged
    assert fit.center_x_urad == pytest.approx(12.0, abs=1e-3)
    assert fit.sigma_y_urad == pytest.approx(70.0, rel=1e-4)


def test_fit_survives_noise():
    rng = np.random.default_rng(8)
    z, ax, ay = synthetic_spot(amp=1.0)
    z = z + rng.normal(scale=0.02, size=z.shape)
    fit = an.fit_gaussian_spot(z, ax, ay)
    assert fit.converged
    assert fit.center_x_urad == pytest.approx(12.0, abs=6.0)
    assert fit.sigma_x_urad == pytest.approx(55.0, rel=0.15)
    assert fit.rms_residual == pytest.approx(0.02, rel=0.3)


def test_fit_converges_when_only_rounding_moves_the_cost():
    # the 41x41 window locate_twin_spot handed the fit in steer's compensated
    # pass of fiber 3 (seed 62873276 + 4000, 300 frames, twin at (54, 6) urad):
    # the fit reaches the minimum while its steps are still just above the
    # step tolerance, and every damped proposal moves the cost only by rounding
    with np.load(FIT_WINDOW) as win:
        fit = an.fit_gaussian_spot(win["values"], win["x_axis_urad"], win["y_axis_urad"])
    assert fit.converged
    assert fit.center_x_urad == pytest.approx(53.9253, abs=1e-3)
    assert fit.center_y_urad == pytest.approx(2.4207, abs=1e-3)


def test_fit_reports_failure_on_empty_window():
    z = np.full((9, 9), np.nan)
    ax = np.arange(9.0)
    fit = an.fit_gaussian_spot(z, ax, ax)
    assert not fit.converged


def _floor(z):
    """The median floor _initial_guess seeds the fit's offset with (its last element)."""
    z = np.asarray(z, dtype=float).ravel()
    return float(an._initial_guess(np.zeros_like(z), np.zeros_like(z), z, 1.0)[-1])


def _median_windows():
    rng = np.random.default_rng(35)
    for n in (*range(7, 42), 40 * 41, 41 * 41):
        yield rng.normal(size=n)  # distinct values
        yield rng.integers(-3, 4, size=n).astype(float)  # ties at the middle
        yield np.full(n, 0.25)  # one repeated value
        zeros = np.where(rng.random(n) < 0.5, -0.0, 0.0)
        yield np.concatenate([zeros[: n // 3], 1.0 + rng.random(n - n // 3)])  # both zeros, off the middle
        yield np.concatenate([np.full(n - n // 3, -0.0), rng.normal(size=n // 3)])  # -0.0 at the middle
        yield np.concatenate([np.full(n // 2, -0.0), 1.0 + rng.random(n - n // 2)])  # -0.0 beside a value
        yield zeros  # a tie of both zeros: +0.0, as np.median gives


def test_initial_floor_is_the_median_bit_for_bit():
    for z in _median_windows():
        assert struct.pack("<d", _floor(z)) == struct.pack("<d", float(np.median(z))), z


@given(
    st.floats(min_value=-80.0, max_value=80.0),
    st.floats(min_value=30.0, max_value=90.0),
)
@settings(max_examples=15, deadline=None)
def test_fit_center_property(x0, sx):
    z, ax, ay = synthetic_spot(x0=x0, sx=sx)
    fit = an.fit_gaussian_spot(z, ax, ay)
    assert fit.converged
    assert fit.center_x_urad == pytest.approx(x0, abs=0.01)


@pytest.mark.parametrize("radius_urad", [0.0, 20.0], ids=["pixel", "disc"])
def test_locate_twin_spot_masks_the_reference_pixel(radius_urad):
    # every reference pixel carries C = 1 and would win the argmax, and the
    # 600 urad window around it (20 px half width at 15 urad) misses the blob
    # 30 px away; masking them all must hand the window to the real blob
    cam = CameraGeometry(64, 64, 7.5e-6, 0.5)
    ref = an.Reference.place(cam, "stokes", Angle2D(0.0, 0.0), radius_urad)
    assert len(ref.pixel_rows) == (1 if radius_urad == 0.0 else 5)
    ax, ay = cam.pixel_angle_axes()
    gx, gy = np.meshgrid(ax, ay)
    blob = 0.6 * np.exp(-0.5 * ((gx - 450.0) ** 2 + (gy + 60.0) ** 2) / 25.0**2)
    values = np.zeros((2, 64, 64))
    values[0] = blob
    values[0, ref.pixel_rows, ref.pixel_cols] = 1.0  # the reference pixels themselves
    cmap = an.CorrelationMap(values=values, reference=ref, n_frames=9)
    fit = an.locate_twin_spot(cmap, pane="stokes")
    assert fit.converged
    assert fit.center_x_urad == pytest.approx(450.0, abs=5.0)
    assert fit.center_y_urad == pytest.approx(-60.0, abs=5.0)
    # the map itself is left untouched
    assert (cmap.values[0, ref.pixel_rows, ref.pixel_cols] == 1.0).all()


def test_locate_twin_spot_all_nan():
    values = np.full((2, 8, 8), np.nan)
    cam = CameraGeometry(8, 8, 7.5e-6, 0.5)
    cmap = an.CorrelationMap(values=values, reference=centre_ref(cam), n_frames=5)
    assert not an.locate_twin_spot(cmap).converged


# --- mode counting ---------------------------------------------------------------


def test_count_modes_reference_values():
    assert an.count_modes(758.946695, 240.0) == 20
    assert an.count_modes(536.656315, 240.0) == 10
    assert an.count_modes(240.0, 240.0) == 2


def test_count_modes_anisotropic():
    assert an.count_modes((800.0, 400.0), (200.0, 200.0)) == round(
        2.0 * (800.0 * 400.0) / (200.0 * 200.0)
    )


def test_count_modes_validation():
    with pytest.raises(ValueError):
        an.count_modes(-1.0, 240.0)
    with pytest.raises(ValueError, match="narrower"):
        an.count_modes(100.0, 240.0)


@given(st.floats(min_value=1.0, max_value=6.0))
@settings(max_examples=25)
def test_count_modes_quadratic_scaling(scale):
    base = an.count_modes(480.0, 240.0)
    scaled = an.count_modes(480.0 * scale, 240.0)
    assert scaled == round(base * scale * scale) or abs(
        scaled - base * scale * scale
    ) <= 1.0


# --- exports -----------------------------------------------------------------------


def test_map_to_pgm_encoding(tmp_path):
    values = np.full((2, 2, 3), np.nan)
    values[1] = [[-1.0, 0.0, 1.0], [0.5, np.nan, -0.5]]
    cam = CameraGeometry(3, 2, 7.5e-6, 0.5)
    cmap = an.CorrelationMap(values=values, reference=centre_ref(cam), n_frames=7)
    path = tmp_path / "m.pgm"
    an.map_to_pgm(cmap, "anti_stokes", path, an.provenance(3, 0xABC))
    raw = path.read_bytes()
    header, pixels = raw.rsplit(b"65535\n", 1)
    assert header.startswith(b"P5\n")
    assert b"3 2" in header
    vals = struct.unpack(">6H", pixels)
    assert vals == (0, 32768, 65535, 49151, 0, 16384)


def test_map_to_csv_round_trip(tmp_path):
    cmap = ramp_map()
    path = tmp_path / "m.csv"
    an.map_to_csv(cmap, "anti_stokes", path, an.provenance(0, 0))
    lines = path.read_text().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "angle_x_urad,angle_y_urad,C"
    assert len(lines) == 2 + 16
    first = lines[2].split(",")
    ax, ay = CAM4.pixel_angle_axes()
    assert float(first[0]) == ax[0]
    assert float(first[1]) == ay[0]
    assert float(first[2]) == 0.0


def test_map_to_csv_bytes(tmp_path):
    """Every value form writes as the per-pixel f-string formula writes it."""
    values = np.zeros((2, 3, 4))
    values[1, 0] = [np.nan, -0.0, -0.25, 1e-05]
    values[1, 1] = [0.1, 1.0, -1e-300, 12345.678]
    values[1, 2] = [0.5, -np.inf, 3e20, -7.0]
    cam = CameraGeometry(4, 3, 7.5e-6, 0.5)
    cmap = an.CorrelationMap(values=values, reference=centre_ref(cam), n_frames=7)
    path = tmp_path / "m.csv"
    an.map_to_csv(cmap, "anti_stokes", path, an.provenance(3, 0xABC))
    ax, ay = cam.pixel_angle_axes()
    rows = "".join(
        f"{x!r},{y!r},{v!r}\n"
        for y, row in zip(ay.tolist(), values[1]) for x, v in zip(ax.tolist(), row.tolist())
    )
    head = (
        "# seed=3 config_checksum=0000000000000abc n_frames=7 ref_pane=stokes ref=(0.0,0.0) "
        "pane=anti_stokes\nangle_x_urad,angle_y_urad,C\n"
    )
    raw = path.read_bytes()
    assert raw == (head + rows).encode("ascii")
    assert b",nan\n" in raw and b",-0.0\n" in raw and b",1e-05\n" in raw


def test_fit_to_csv(tmp_path):
    z, ax, ay = synthetic_spot()
    fit = an.fit_gaussian_spot(z, ax, ay)
    path = tmp_path / "fit.csv"
    an.fit_to_csv(fit, path, an.provenance(11, 0xDEAD))
    text = path.read_text()
    assert text.startswith("# seed=11 config_checksum=000000000000dead\n")
    assert text.splitlines()[1].startswith("label,converged")
    row = text.splitlines()[2].split(",")
    assert row[0] == "twin"
    assert row[1] == "1"
    assert float(row[3]) == pytest.approx(12.0, abs=1e-3)


def _default_camera_refs(k: int) -> list[an.Reference]:
    """A pixel, a disc and an anti-Stokes pixel reference on the default camera, the first k of them."""
    cam = CameraGeometry()
    return [
        an.Reference.place(cam, "stokes", Angle2D(0.0, 0.0), 0.0),
        an.Reference.place(cam, "stokes", Angle2D(45.0, -30.0), 40.0),
        an.Reference.place(cam, "anti_stokes", Angle2D(-60.0, 15.0), 0.0),
    ][:k]


def test_fold_holds_one_pane_in_float64():
    """One 8-frame u16 block at K = 1 allocates one pane's float64 slab, its gemm rows and squares, no more."""
    (ref,) = refs = _default_camera_refs(1)
    h, w = ref.camera.height_px, ref.camera.width_px
    block = np.random.default_rng(3).poisson(12.0, (8, 2, h, w)).astype(np.uint16)
    moments = an.MomentSet.empty(refs)
    an.accumulate_block(moments, block)  # any one-time allocation happens outside the measurement
    tracemalloc.start()
    try:
        an.accumulate_block(moments, block)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    pane = h * w * 8
    slab, rows, squares = 8 * pane, (len(refs) + 1) * pane, pane
    assert peak <= slab + rows + squares + 16 * 1024  # the whole-block cast alone is 2 * slab


@pytest.mark.parametrize("dtype", [np.uint16, np.uint32])
def test_fold_equals_a_whole_block_float64_fold_bit_for_bit(dtype):
    """A stream folded pane by pane at K = 3 gives the sums of one float64 cast of all its frames, to the bit."""
    refs = _default_camera_refs(3)
    cam = refs[0].camera
    peak = 60_000 if dtype == np.uint16 else 300_000  # u32 counts past the u16 range
    rng = np.random.default_rng(4)
    # a stream of 3 frames, then 8: the float64 buffers grow once
    blocks = [rng.integers(0, peak, (n, 2, cam.height_px, cam.width_px)).astype(dtype) for n in (3, 8, 8, 5)]
    moments = an.MomentSet.empty(refs)
    an.accumulate_blocks(moments, blocks)
    x = np.concatenate(blocks).astype(np.float64)
    r = np.stack([x[:, an.PANES.index(ref.pane), ref.pixel_rows, ref.pixel_cols].sum(axis=1) for ref in refs])
    assert moments.n == len(x)
    assert moments.sum_i.tobytes() == x.sum(axis=0).tobytes()
    assert moments.sum_i2.tobytes() == (x * x).sum(axis=0).tobytes()
    assert moments.sum_ii_ref.tobytes() == np.einsum("kn,nphw->kphw", r, x).tobytes()
    assert moments.sum_ref.tobytes() == r.sum(axis=1).tobytes()
    assert moments.sum_ref2.tobytes() == (r * r).sum(axis=1).tobytes()


def test_stream_fold_holds_one_block_and_one_set_of_buffers():
    """Folding a lazily read stream holds its float64 buffers once, and no block past the one it folds."""
    (ref,) = refs = _default_camera_refs(1)
    h, w = ref.camera.height_px, ref.camera.width_px
    block = np.random.default_rng(5).poisson(12.0, (8, 2, h, w)).astype(np.uint16)
    moments = an.MomentSet.empty(refs)
    tracemalloc.start()
    try:
        an.accumulate_blocks(moments, (block.copy() for _ in range(6)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    pane = h * w * 8
    assert moments.n == 48
    assert peak <= (8 + len(refs) + 2) * pane + block.nbytes + 16 * 1024
