"""Correlation maps, accumulator algebra, spot fitting and exports."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramanmem import analysis as an
from ramanmem.config import default_config
from ramanmem.control import compensating_readout
from ramanmem.geometry import Angle2D, CameraGeometry
from ramanmem.scattering import Frame, iter_simulated_frames

CAM4 = CameraGeometry(width_px=4, height_px=4, pixel_pitch_m=7.5e-6, f3_m=0.5)


def make_frame(stokes, anti, i=0):
    return Frame(
        counts=np.array([stokes, anti], dtype=np.float32),
        shot_index=i,
        readout_angle_urad=(0.0, 0.0),
    )


def accumulate_all(camera, ref, frames):
    acc = an.MomentSet.empty(camera, [ref])
    for fr in frames:
        an.accumulate(acc, fr)
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


def corner_ref():
    return an.Reference.pixel(CAM4, "stokes", CAM4.pixel_to_angle(0, 0))


# --- references -------------------------------------------------------------


def test_reference_pixel_lookup():
    ref = corner_ref()
    assert ref.pixel_rows.tolist() == [0]
    assert ref.pixel_cols.tolist() == [0]
    with pytest.raises(ValueError, match="off the pane"):
        an.Reference.pixel(CAM4, "stokes", Angle2D(500.0, 0.0))


def test_reference_disc_membership_is_strict():
    # radius equal to the pitch picks up the centre pixel only
    center = CAM4.pixel_to_angle(2, 2)
    ref = an.Reference.disc(CAM4, "stokes", center, CAM4.pitch_urad)
    assert len(ref.pixel_rows) == 1
    # slightly beyond the pitch adds the 4-neighbourhood
    ref2 = an.Reference.disc(CAM4, "stokes", center, CAM4.pitch_urad * 1.01)
    assert len(ref2.pixel_rows) == 5
    with pytest.raises(ValueError, match="covers no pixels"):
        an.Reference.disc(CAM4, "stokes", center, 0.0)


# --- correlation map ---------------------------------------------------------


def test_perfect_linear_correlation():
    cmap = an.correlation_map(accumulate_all(CAM4, corner_ref(), proportional_frames()), 0, CAM4)
    c = cmap.pane("anti_stokes")
    assert c[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert c[2, 2] == pytest.approx(-1.0, abs=1e-12)
    # self correlation on the reference pane
    assert cmap.pane("stokes")[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_zero_variance_pixels_are_nan():
    cmap = an.correlation_map(accumulate_all(CAM4, corner_ref(), proportional_frames()), 0, CAM4)
    assert np.isnan(cmap.pane("stokes")[1, 1])  # constant pixel
    assert np.isnan(cmap.pane("anti_stokes")[3, 3])  # all-zero pixel


def test_map_needs_two_frames():
    acc = accumulate_all(CAM4, corner_ref(), proportional_frames()[:1])
    with pytest.raises(ValueError, match="at least 2"):
        an.correlation_map(acc, 0, CAM4)


def test_constant_reference_gives_all_nan():
    ref = an.Reference.pixel(CAM4, "stokes", CAM4.pixel_to_angle(1, 1))
    cmap = an.correlation_map(accumulate_all(CAM4, ref, proportional_frames()), 0, CAM4)
    assert np.isnan(cmap.values).all()


def test_correlation_bound_on_simulated_data():
    cfg = default_config()
    frames = list(iter_simulated_frames(cfg, n_frames=120, seed=77))
    ref = an.Reference.pixel(cfg.camera, "stokes", Angle2D(0.0, 150.0))
    cmap = an.correlation_map(accumulate_all(cfg.camera, ref, frames), 0, cfg.camera)
    finite = cmap.values[np.isfinite(cmap.values)]
    assert finite.size > 0
    assert np.abs(finite).max() <= 1.0 + 1e-9


def test_streaming_equals_two_pass():
    cfg = default_config()
    frames = list(iter_simulated_frames(cfg, n_frames=60, seed=13))
    ref = an.Reference.pixel(cfg.camera, "stokes", Angle2D(0.0, 0.0))
    cmap = an.correlation_map(accumulate_all(cfg.camera, ref, frames), 0, cfg.camera)

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
    cfg = default_config()
    frames = list(iter_simulated_frames(cfg, n_frames=30, seed=55))
    ref = an.Reference.pixel(cfg.camera, "stokes", Angle2D(0.0, 0.0))

    def partial(lo, hi):
        return accumulate_all(cfg.camera, ref, frames[lo:hi])

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
    m_whole = an.correlation_map(whole, 0, cfg.camera).values
    m_ab = an.correlation_map(ab, 0, cfg.camera).values
    np.testing.assert_array_equal(
        np.isnan(m_whole), np.isnan(m_ab)
    )
    np.testing.assert_array_equal(m_whole[~np.isnan(m_whole)], m_ab[~np.isnan(m_ab)])


def test_merge_rejects_mismatched_references():
    """References must match in pane, pixels, count and order."""
    corner = corner_ref()
    centre = an.Reference.pixel(CAM4, "stokes", CAM4.pixel_to_angle(1, 1))
    for refs_a, refs_b in (
        ([corner], [centre]),
        ([corner], [corner, centre]),
        ([corner, centre], [centre, corner]),
    ):
        a = an.MomentSet.empty(CAM4, refs_a)
        b = an.MomentSet.empty(CAM4, refs_b)
        with pytest.raises(ValueError, match="different references"):
            an.merge(a, b)
    same = an.MomentSet.empty(CAM4, [corner, centre])
    assert an.merge(same, an.MomentSet.empty(CAM4, [corner, centre])).references == (corner, centre)


def test_accumulate_many_matches_single():
    """A 2-reference set equals two 1-reference sets bit for bit, field by field."""
    cfg = default_config()
    frames = list(iter_simulated_frames(cfg, n_frames=8, seed=70))
    refs = [
        an.Reference.pixel(cfg.camera, "stokes", Angle2D(0.0, y)) for y in (0.0, 150.0)
    ]
    both = an.MomentSet.empty(cfg.camera, refs)
    for fr in frames:
        an.accumulate(both, fr)
    assert both.sum_i.shape == both.sum_i2.shape == (2, cfg.camera.height_px, cfg.camera.width_px)
    assert both.sum_ii_ref.shape == (2, *both.sum_i.shape)
    for k, ref in enumerate(refs):
        solo = accumulate_all(cfg.camera, ref, frames)
        assert both.n == solo.n == len(frames)
        np.testing.assert_array_equal(both.sum_i, solo.sum_i)
        np.testing.assert_array_equal(both.sum_i2, solo.sum_i2)
        np.testing.assert_array_equal(both.sum_ii_ref[k], solo.sum_ii_ref[0])
        assert both.sum_ref[k] == solo.sum_ref[0]
        assert both.sum_ref2[k] == solo.sum_ref2[0]
        want = an.correlation_map(solo, 0, cfg.camera)
        got = an.correlation_map(both, k, cfg.camera)
        assert np.array_equal(got.values, want.values, equal_nan=True)
        assert got.ref_angle_urad == ref.angle_urad


# --- cross sections -----------------------------------------------------------


def ramp_map():
    values = np.zeros((2, 4, 4))
    values[1] = np.arange(16.0).reshape(4, 4) / 16.0
    return an.CorrelationMap(
        values=values,
        camera=CAM4,
        ref_pane="stokes",
        ref_angle_urad=(0.0, 0.0),
        n_frames=10,
    )


def test_value_at():
    cmap = ramp_map()
    assert cmap.value_at("anti_stokes", CAM4.pixel_to_angle(2, 1)) == pytest.approx(
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
    # steer's compensated pass of fiber 3 at seed 62873276 (300 frames): the
    # fit reaches the minimum while its steps are still just above the step
    # tolerance, and every damped proposal moves the cost only by rounding
    cfg = default_config().with_seed(62873276 + 4000)
    ratio = cfg.geometry.lambda_read_m / cfg.geometry.lambda_write_m
    fiber = Angle2D(-54.0 / ratio, 75.0)
    cmd = compensating_readout(
        fiber, Angle2D(0.0, 0.0), Angle2D(54.0, 6.0), cfg.chain, cfg.geometry
    )
    ref = an.Reference.pixel(cfg.camera, "stokes", fiber)
    frames = iter_simulated_frames(cfg, n_frames=300, schedule=cmd.theta_read)
    acc = accumulate_all(cfg.camera, ref, frames)
    fit = an.locate_twin_spot(an.correlation_map(acc, 0, cfg.camera))
    assert fit.converged
    assert fit.center_x_urad == pytest.approx(53.9253, abs=1e-3)
    assert fit.center_y_urad == pytest.approx(2.4207, abs=1e-3)


def test_fit_reports_failure_on_empty_window():
    z = np.full((9, 9), np.nan)
    ax = np.arange(9.0)
    fit = an.fit_gaussian_spot(z, ax, ax)
    assert not fit.converged


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


def test_locate_twin_spot_masks_the_reference_pixel():
    # the reference self-pixel carries C = 1 and would win the argmax;
    # masking it must hand the window to the real blob
    cam = CameraGeometry(16, 16, 7.5e-6, 0.5)
    ax, ay = cam.pixel_angle_axes()
    gx, gy = np.meshgrid(ax, ay)
    blob = 0.6 * np.exp(-0.5 * ((gx - 75.0) ** 2 + (gy + 60.0) ** 2) / 25.0**2)
    values = np.zeros((2, 16, 16))
    values[0] = blob
    values[0, 8, 8] = 1.0  # the reference pixel itself
    cmap = an.CorrelationMap(
        values=values, camera=cam, ref_pane="stokes", ref_angle_urad=(0.0, 0.0), n_frames=9
    )
    # a 60 urad window (2 px half width) keeps the two features disjoint
    fit = an.locate_twin_spot(cmap, pane="stokes", window_urad=60.0)
    assert fit.converged
    assert fit.center_x_urad == pytest.approx(75.0, abs=5.0)
    assert fit.center_y_urad == pytest.approx(-60.0, abs=5.0)
    # the map itself is left untouched
    assert cmap.values[0, 8, 8] == 1.0

    # without masking the argmax is the self-pixel, so the fit window
    # centres on the reference instead of the blob
    unmasked = an.locate_twin_spot(cmap, pane="stokes", window_urad=60.0, mask_reference=False)
    assert not unmasked.converged or abs(unmasked.center_x_urad - 75.0) > 10.0


def test_locate_twin_spot_all_nan():
    values = np.full((2, 8, 8), np.nan)
    cam = CameraGeometry(8, 8, 7.5e-6, 0.5)
    cmap = an.CorrelationMap(
        values=values, camera=cam, ref_pane="stokes", ref_angle_urad=(0.0, 0.0), n_frames=5
    )
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
    cmap = an.CorrelationMap(
        values=values, camera=cam, ref_pane="stokes", ref_angle_urad=(0.0, 0.0),
        n_frames=7, seed=3, config_checksum=0xABC,
    )
    path = tmp_path / "m.pgm"
    an.map_to_pgm(cmap, "anti_stokes", path)
    raw = path.read_bytes()
    header, pixels = raw.rsplit(b"65535\n", 1)
    assert header.startswith(b"P5\n")
    assert b"3 2" in header
    vals = struct.unpack(">6H", pixels)
    assert vals == (0, 32768, 65535, 49151, 0, 16384)


def test_map_to_csv_round_trip(tmp_path):
    cmap = ramp_map()
    path = tmp_path / "m.csv"
    an.map_to_csv(cmap, "anti_stokes", path)
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
    cmap = an.CorrelationMap(
        values=values, camera=cam, ref_pane="stokes", ref_angle_urad=(0.0, 0.0),
        n_frames=7, seed=3, config_checksum=0xABC,
    )
    path = tmp_path / "m.csv"
    an.map_to_csv(cmap, "anti_stokes", path)
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
    an.fit_to_csv(fit, path, label="twin", seed=11, config_checksum=0xDEAD)
    text = path.read_text()
    assert "seed=11" in text
    assert text.splitlines()[1].startswith("label,converged")
    row = text.splitlines()[2].split(",")
    assert row[0] == "twin"
    assert row[1] == "1"
    assert float(row[3]) == pytest.approx(12.0, abs=1e-3)
