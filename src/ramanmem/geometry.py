"""Paraxial far-field geometry for the steered Raman-memory simulator.

Conventions used across the package:

* user-facing angles are in microradians (urad), stored as (theta_x, theta_y)
* everything else is SI

All functions here are deterministic, closed form and stateless, so they are
safe to call from any thread.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields
from functools import cache

import numpy as np

RAD_PER_URAD = 1.0e-6
# paraxial guard: beyond ~10 mrad the small-angle mapping is no longer honest
PARAXIAL_LIMIT_URAD = 1.0e4
FWHM_PER_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))
# pixels per pane: the widest .rmns frame record (16 angle bytes, then two panes
# of 4-byte counts) must fit the C int numpy sizes a record dtype in
PANE_PIXELS_MAX = (2**31 - 1 - 16) // 8
# read / write carrier ratio: a Raman memory's two carriers lie within an octave
# (780 / 795 nm by default); a wider ratio throws the conjugate angles off any pane
CARRIER_RATIO_MAX = 2.0


def _interval(low, high, bounds: str) -> str:
    """The interval as `require_within` prints it, integer bounds exactly: "(0, inf)", "[1, 4294967295]"."""
    low, high = (str(b) if isinstance(b, int) else f"{b:g}" for b in (low, high))
    return f"{bounds[0]}{low}, {high}{bounds[1]}"


def require_within(name: str, value, low, high, bounds: str = "[]") -> None:
    """Reject a value outside the interval from low to high: the one range check of a single value.

    `bounds` is "[]", "[)", "(]" or "()", a bracket for a closed end and a
    parenthesis for an open one.  NaN lies in no interval, and an infinite
    value lies only in one whose end at it is infinite and closed.  The
    message is always "<name> must lie in <interval>, got <value>", with
    integer bounds printed exactly.
    """
    left, right = bounds
    if not ((value > low if left == "(" else value >= low) and (value < high if right == ")" else value <= high)):
        raise ValueError(f"{name} must lie in {_interval(low, high, bounds)}, got {value!r}")


def bounded(default, low, high, bounds: str = "[]", **metadata):
    """A dataclass field whose "within" metadata is the interval `require_fields_within` keeps it in.

    A "key" names its config key and its message in place of the field's name (None: no config key).
    """
    return field(default=default, metadata={"within": (low, high, bounds), **metadata})


@cache
def _intervals(cls) -> tuple:
    """(field, message name, low, high, bounds) of each field of cls that declares an interval."""
    return tuple(
        (f.name, f.metadata.get("key") or f.name, *f.metadata["within"])
        for f in fields(cls) if "within" in f.metadata
    )


def require_fields_within(obj) -> None:
    """Check each field of a dataclass instance against the interval its metadata declares: the one validator."""
    for attr, name, low, high, bounds in _intervals(type(obj)):
        require_within(name, getattr(obj, attr), low, high, bounds)


@dataclass(frozen=True)
class Angle2D:
    """Far-field propagation direction, components in microradians."""

    theta_x: float = bounded(MISSING, -PARAXIAL_LIMIT_URAD, PARAXIAL_LIMIT_URAD, "()")
    theta_y: float = bounded(MISSING, -PARAXIAL_LIMIT_URAD, PARAXIAL_LIMIT_URAD, "()")

    def __post_init__(self) -> None:
        require_fields_within(self)

    @classmethod
    def from_array(cls, arr) -> "Angle2D":
        return cls(float(arr[0]), float(arr[1]))

    def as_array(self) -> np.ndarray:
        return np.array([self.theta_x, self.theta_y], dtype=float)


@dataclass(frozen=True)
class BeamGeometry:
    """Beam waists, cell length and the two optical carriers."""

    w0_write_m: float = bounded(3.5e-3, 0.0, math.inf, "()")
    w0_read_m: float = bounded(3.5e-3, 0.0, math.inf, "()")
    w0_pump_m: float = bounded(6.0e-3, 0.0, math.inf, "()")
    cell_length_m: float = bounded(0.1, 0.0, math.inf, "()")
    lambda_write_m: float = bounded(795e-9, 0.0, math.inf, "()")
    lambda_read_m: float = bounded(780e-9, 0.0, math.inf, "()")

    def __post_init__(self) -> None:
        require_fields_within(self)
        ratio = self.lambda_read_m / self.lambda_write_m
        if not 1.0 / CARRIER_RATIO_MAX <= ratio <= CARRIER_RATIO_MAX:
            raise ValueError(f"lambda_read_m / lambda_write_m = {ratio:g} is not within {CARRIER_RATIO_MAX:g}x of 1")


@dataclass(frozen=True)
class OpticalChain:
    """AOD drive plus the 4f relay and far-field lens in front of the camera.

    A drive tone detuned from ``base_freq_hz`` tilts the readout beam along the
    first entry of ``steer_axes``; the 4f pair (f1, f2) demagnifies that tilt
    onto the cell and f3 maps angle at the cell to position on the camera.
    A second entry stands for a crossed AOD with the same law, whose tone no
    command or report column lists: ``drive_freq_hz`` is always the first
    axis's tone.
    """

    f1_m: float = bounded(0.05, 0.0, math.inf, "()")
    f2_m: float = bounded(0.75, 0.0, math.inf, "()")
    f3_m: float = bounded(0.5, 0.0, math.inf, "()")
    base_freq_hz: float = 80e6
    aod_slope_rad_per_hz: float = bounded(3e-10, 0.0, math.inf, "()")
    freq_min_hz: float = 70e6
    freq_max_hz: float = 90e6
    steer_axes: tuple[str, ...] = ("y",)

    def __post_init__(self) -> None:
        require_fields_within(self)
        if not (self.freq_min_hz <= self.base_freq_hz <= self.freq_max_hz):
            raise ValueError(
                "AOD band must contain the base frequency: "
                f"{self.freq_min_hz!r} <= {self.base_freq_hz!r} <= {self.freq_max_hz!r}"
            )
        if sorted(self.steer_axes) not in (["x"], ["y"], ["x", "y"]):
            raise ValueError(f"steer_axes must name 'x' and/or 'y', each once, got {self.steer_axes!r}")

    @property
    def cell_slope_rad_per_hz(self) -> float:
        """Readout-angle change at the cell per Hz of drive detuning."""
        return self.aod_slope_rad_per_hz * self.f1_m / self.f2_m

    def deflection_urad(self, drive_freq_hz: float) -> float:
        """Readout tilt (urad) at the cell along the primary steering axis for one drive tone.

        The tone law, stated once: no band check, so a band edge at +-inf maps to +-inf.
        """
        return (drive_freq_hz - self.base_freq_hz) * self.cell_slope_rad_per_hz / RAD_PER_URAD


@dataclass(frozen=True)
class CameraGeometry:
    """One far-field pane of the camera.

    Both panes (Stokes and anti-Stokes) share this geometry; each is centred on
    its own beam axis.  Pixel (ix, iy) sits at angle
    ((ix - origin_x) * pitch / f3, (iy - origin_y) * pitch / f3).
    """

    # a pane key names the pane it sizes; the far-field lens is the chain's last, so it has no key
    width_px: int = bounded(128, 2, math.inf, key="pane_width_px")
    height_px: int = bounded(64, 2, math.inf, key="pane_height_px")
    pixel_pitch_m: float = bounded(7.5e-6, 0.0, math.inf, "()")
    f3_m: float = bounded(OpticalChain.f3_m, 0.0, math.inf, "()", key=None)

    def __post_init__(self) -> None:
        require_fields_within(self)
        if self.width_px * self.height_px > PANE_PIXELS_MAX:
            raise ValueError(
                f"a {self.width_px}x{self.height_px} pane is too large to store "
                f"(more than {PANE_PIXELS_MAX} pixels)"
            )
        # one check for every source of the two lengths, a config or a stack header; the
        # floor keeps every paraxial angle within 2**31 pixels of the origin (a C long)
        require_within("a pixel in urad (pixel_pitch_m / f3_m)", self.pitch_urad,
                       PARAXIAL_LIMIT_URAD / 2**31, PARAXIAL_LIMIT_URAD, "(]")

    @property
    def origin_px(self) -> tuple[int, int]:
        return (self.width_px // 2, self.height_px // 2)

    @property
    def pitch_urad(self) -> float:
        """Angular extent of one pixel."""
        return self.pixel_pitch_m / self.f3_m / RAD_PER_URAD

    def angle_to_pixel(self, angle: Angle2D) -> tuple[float, float]:
        """Far-field projection x = f3 * theta, in fractional pixel coordinates.

        Off-pane directions still map to coordinates; bounds are the caller's
        concern (see contains), going off pane is not a fault.
        """
        ox, oy = self.origin_px
        px = ox + angle.theta_x * RAD_PER_URAD * self.f3_m / self.pixel_pitch_m
        py = oy + angle.theta_y * RAD_PER_URAD * self.f3_m / self.pixel_pitch_m
        return (px, py)

    def contains(self, px: float, py: float) -> bool:
        """True when (px, py) rounds onto a physical pixel of the pane."""
        return (-0.5 <= px < self.width_px - 0.5) and (-0.5 <= py < self.height_px - 0.5)

    def pixel_angle_axes(self) -> tuple[np.ndarray, np.ndarray]:
        """Angular coordinates (urad) of pixel centres: (x axis, y axis)."""
        ox, oy = self.origin_px
        ax = (np.arange(self.width_px, dtype=float) - ox) * self.pitch_urad
        ay = (np.arange(self.height_px, dtype=float) - oy) * self.pitch_urad
        return ax, ay


# ---------------------------------------------------------------------------
# phase matching


def conjugate_angles(
    theta_w_urad: np.ndarray,
    theta_s_urad: np.ndarray,
    theta_r_urad: np.ndarray,
    lambda_write_m: float,
    lambda_read_m: float,
) -> np.ndarray:
    """Anti-Stokes emission direction (urad) from transverse phase matching.

    The spin wave stores k_w - k_S (write carrier); readout adds k_r (read
    carrier), so k_aS = k_w - k_S + k_r.  With k = 2*pi*theta / lambda at each
    angle's own carrier and k_aS mapped back at the read carrier this is

        theta_aS = theta_r + (lambda_read / lambda_write) * (theta_w - theta_S)

    for (..., 2) angle stacks.  This is the only statement of the law.
    """
    return theta_r_urad + (lambda_read_m / lambda_write_m) * (theta_w_urad - theta_s_urad)


def phase_match(
    theta_w: Angle2D, theta_s: Angle2D, theta_r: Angle2D, geom: BeamGeometry
) -> Angle2D:
    """:func:`conjugate_angles` for one Stokes direction."""
    return Angle2D.from_array(
        conjugate_angles(
            theta_w.as_array(),
            theta_s.as_array(),
            theta_r.as_array(),
            geom.lambda_write_m,
            geom.lambda_read_m,
        )
    )


# ---------------------------------------------------------------------------
# AOD drive chain


def aod_chain_angle(drive_freq_hz: float, chain: OpticalChain) -> Angle2D:
    """Readout tilt at the cell produced by one AOD drive tone.

    Raises ValueError for frequencies outside the configured band (a relative
    guard of 1e-9 of the band width absorbs float rounding at the edges).
    """
    require_within("drive frequency", drive_freq_hz, -math.inf, math.inf, "()")
    band = chain.freq_max_hz - chain.freq_min_hz
    slack = 1e-9 * band if math.isfinite(band) else 0.0
    if not (chain.freq_min_hz - slack <= drive_freq_hz <= chain.freq_max_hz + slack):
        raise ValueError(
            f"drive frequency {drive_freq_hz:g} Hz outside AOD band "
            f"[{chain.freq_min_hz:g}, {chain.freq_max_hz:g}] Hz"
        )
    deflection_urad = chain.deflection_urad(drive_freq_hz)
    if chain.steer_axes[0] == "x":
        return Angle2D(deflection_urad, 0.0)
    return Angle2D(0.0, deflection_urad)


def drive_frequency_for(deflection_urad: float, chain: OpticalChain) -> float:
    """Drive tone realising a given tilt along the primary steering axis.

    Exact inverse of :func:`aod_chain_angle`; no band clamp is applied here so
    callers can detect and report out-of-span requests themselves.
    """
    require_within("deflection", deflection_urad, -math.inf, math.inf, "()")
    return chain.base_freq_hz + deflection_urad * RAD_PER_URAD / chain.cell_slope_rad_per_hz
