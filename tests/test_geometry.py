"""Geometry layer: the conjugate law, the AOD chain and camera projection."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramanmem.geometry import (
    FWHM_PER_SIGMA,
    Angle2D,
    BeamGeometry,
    CameraGeometry,
    OpticalChain,
    aod_chain_angle,
    conjugate_angles,
    drive_frequency_for,
    phase_match,
    require_within,
)

GEOM = BeamGeometry(
    w0_write_m=3.5e-3,
    w0_read_m=3.5e-3,
    w0_pump_m=6.0e-3,
    cell_length_m=0.1,
    lambda_write_m=795e-9,
    lambda_read_m=780e-9,
)

CHAIN = OpticalChain(
    f1_m=0.05,
    f2_m=0.75,
    f3_m=0.5,
    base_freq_hz=80e6,
    aod_slope_rad_per_hz=3e-10,
    freq_min_hz=70e6,
    freq_max_hz=90e6,
)

CAMERA = CameraGeometry(width_px=128, height_px=64, pixel_pitch_m=7.5e-6, f3_m=0.5)

angles = st.floats(min_value=-5000.0, max_value=5000.0, allow_nan=False)


# --- angles --------------------------------------------------------------


def test_angle_validation():
    with pytest.raises(ValueError):
        Angle2D(float("nan"), 0.0)
    with pytest.raises(ValueError):
        Angle2D(0.0, 1.2e4)


# --- phase matching ------------------------------------------------------


def test_phase_match_axial_is_axial():
    out = phase_match(Angle2D(0, 0), Angle2D(0, 0), Angle2D(0, 0), GEOM)
    assert out == Angle2D(0.0, 0.0)


def test_phase_match_conjugate_point():
    out = phase_match(Angle2D(0, 0), Angle2D(100.0, 0.0), Angle2D(0, 0), GEOM)
    # emission mirrors the scattered direction, compressed by the carrier ratio
    assert out.theta_x == pytest.approx(-98.11320754716981, rel=1e-12)
    assert out.theta_y == pytest.approx(0.0, abs=1e-15)


@given(angles, angles, angles)
@settings(max_examples=60)
def test_phase_match_readout_shift_is_additive(sx, sy, r):
    base = phase_match(Angle2D(0, 0), Angle2D(sx, sy), Angle2D(0, 0), GEOM)
    shifted = phase_match(Angle2D(0, 0), Angle2D(sx, sy), Angle2D(0.0, r), GEOM)
    assert shifted.theta_x == pytest.approx(base.theta_x, abs=1e-9)
    assert shifted.theta_y - base.theta_y == pytest.approx(r, abs=1e-9)


def test_phase_match_write_tilt_scales_like_stokes():
    ratio = GEOM.lambda_read_m / GEOM.lambda_write_m
    out = phase_match(Angle2D(40.0, -10.0), Angle2D(0, 0), Angle2D(0, 0), GEOM)
    assert out.theta_x == pytest.approx(40.0 * ratio, rel=1e-12)
    assert out.theta_y == pytest.approx(-10.0 * ratio, rel=1e-12)


def test_conjugate_angles_matches_scalar_form():
    rng = np.random.default_rng(3)
    s = rng.uniform(-400, 400, size=(17, 2))
    arr = conjugate_angles(np.zeros(2), s, np.array([5.0, -7.0]), 795e-9, 780e-9)
    for row, expect in zip(s, arr):
        got = phase_match(Angle2D(0, 0), Angle2D(*row), Angle2D(5.0, -7.0), GEOM)
        assert got.theta_x == pytest.approx(expect[0], rel=1e-12)
        assert got.theta_y == pytest.approx(expect[1], rel=1e-12)


# --- AOD chain -----------------------------------------------------------


def test_chain_derived_quantities():
    assert CHAIN.cell_slope_rad_per_hz == pytest.approx(2e-11, rel=1e-12, abs=0.0)


def test_aod_chain_angle_at_key_frequencies():
    assert aod_chain_angle(80e6, CHAIN) == Angle2D(0.0, 0.0)
    hi = aod_chain_angle(90e6, CHAIN)
    lo = aod_chain_angle(70e6, CHAIN)
    assert hi.theta_y == pytest.approx(200.0, rel=1e-12)
    assert lo.theta_y == pytest.approx(-200.0, rel=1e-12)
    assert hi.theta_x == lo.theta_x == 0.0


def test_aod_band_is_enforced():
    with pytest.raises(ValueError, match="outside AOD band"):
        aod_chain_angle(69.9e6, CHAIN)
    with pytest.raises(ValueError, match="outside AOD band"):
        aod_chain_angle(90.2e6, CHAIN)


def test_x_steering_chain():
    chain = OpticalChain(0.05, 0.75, 0.5, 80e6, 3e-10, 70e6, 90e6, steer_axes=("x",))
    out = aod_chain_angle(85e6, chain)
    assert out.theta_x == pytest.approx(100.0, rel=1e-12)
    assert out.theta_y == 0.0


@given(st.floats(min_value=-200.0, max_value=200.0, allow_nan=False))
def test_drive_frequency_round_trip(deflection):
    freq = drive_frequency_for(deflection, CHAIN)
    back = aod_chain_angle(freq, CHAIN)
    assert back.theta_y == pytest.approx(deflection, abs=1e-9)


def test_drive_frequency_is_affine():
    f0 = drive_frequency_for(0.0, CHAIN)
    f1 = drive_frequency_for(20.0, CHAIN)
    f2 = drive_frequency_for(40.0, CHAIN)
    assert f0 == 80e6
    assert f2 - f1 == pytest.approx(f1 - f0, rel=1e-12)
    # 20 urad per MHz at the cell for the default chain
    assert f1 - f0 == pytest.approx(1e6, rel=1e-12)


def test_chain_validation():
    with pytest.raises(ValueError):
        OpticalChain(0.05, 0.75, 0.5, 95e6, 3e-10, 70e6, 90e6)
    with pytest.raises(ValueError):
        OpticalChain(0.05, 0.75, 0.5, 80e6, 3e-10, 70e6, 90e6, steer_axes=("z",))


# --- camera --------------------------------------------------------------


def test_camera_origin_and_pitch():
    assert CAMERA.origin_px == (64, 32)
    assert CAMERA.pitch_urad == pytest.approx(15.0, rel=1e-12)


def test_angle_to_pixel_key_points():
    assert CAMERA.angle_to_pixel(Angle2D(0, 0)) == (64.0, 32.0)
    px, py = CAMERA.angle_to_pixel(Angle2D(0.0, 300.0))
    assert (px, py) == pytest.approx((64.0, 52.0), abs=1e-9)
    px, py = CAMERA.angle_to_pixel(Angle2D(-150.0, -300.0))
    assert (px, py) == pytest.approx((54.0, 12.0), abs=1e-9)


@given(
    st.floats(min_value=-0.49, max_value=127.49),
    st.floats(min_value=-0.49, max_value=63.49),
)
def test_pixel_round_trip(px, py):
    ox, oy = CAMERA.origin_px
    a = Angle2D((px - ox) * CAMERA.pitch_urad, (py - oy) * CAMERA.pitch_urad)
    qx, qy = CAMERA.angle_to_pixel(a)
    assert qx == pytest.approx(px, abs=1e-9)
    assert qy == pytest.approx(py, abs=1e-9)


def test_contains_respects_half_pixel_edges():
    assert CAMERA.contains(-0.5, 0.0)
    assert not CAMERA.contains(-0.51, 0.0)
    assert CAMERA.contains(127.49, 63.49)
    assert not CAMERA.contains(127.5, 0.0)
    assert not CAMERA.contains(0.0, 63.5)


def test_pixel_angle_axes():
    ax, ay = CAMERA.pixel_angle_axes()
    assert len(ax) == 128 and len(ay) == 64
    assert ax[64] == 0.0 and ay[32] == 0.0
    assert ax[65] == pytest.approx(15.0)
    assert ay[32 + 20] == pytest.approx(300.0)


# --- constants ------------------------------------------------------------


def test_fwhm_sigma_constant():
    assert FWHM_PER_SIGMA == pytest.approx(2.3548200450309493, rel=1e-15)
    assert FWHM_PER_SIGMA == pytest.approx(2.0 * math.sqrt(2.0 * math.log(2.0)))


@pytest.mark.parametrize("bounds", ["[]", "[)", "(]", "()"])
def test_require_within_each_bounds_form(bounds):
    """A closed end takes its bound, an open end rejects it; one step past either end, and NaN, are rejected."""
    low_closed, high_closed = bounds[0] == "[", bounds[1] == "]"
    cases = [
        (0.5, True), (-1.0, low_closed), (2.0, high_closed),
        (math.nextafter(-1.0, -math.inf), False), (math.nextafter(2.0, math.inf), False),
        (math.nan, False), (math.inf, False), (-math.inf, False),
    ]
    for value, inside in cases:
        if inside:
            require_within("v", value, -1.0, 2.0, bounds)
        else:
            message = f"v must lie in {bounds[0]}-1, 2{bounds[1]}, got {value!r}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                require_within("v", value, -1.0, 2.0, bounds)
    # an infinite value lies only in an interval whose end at it is infinite and closed
    for value, low, high, closed in ((math.inf, 0.0, math.inf, high_closed), (-math.inf, -math.inf, 0.0, low_closed)):
        if closed:
            require_within("v", value, low, high, bounds)
        else:
            with pytest.raises(ValueError):
                require_within("v", value, low, high, bounds)


def test_require_within_prints_integer_bounds_exactly():
    with pytest.raises(ValueError, match=r"^seed must lie in \[0, 18446744073709551615\], got 18446744073709551616$"):
        require_within("seed", 2**64, 0, 2**64 - 1)
