"""Correlation-map analysis of frame stacks.

The map follows the intensity-correlation estimator

    C(p) = (<I_p I_ref> - <I_p><I_ref>) / sqrt(Var(I_p) Var(I_ref))

computed from streaming raw moments held in float64.  Rendered panes are
integer photon counts, so the moment sums stay exact (every partial sum is an
integer far below 2**53) and chunk merging is bit-stable in any order.

Spot extraction is a plain 2-d Gaussian least-squares fit, Gauss-Newton with
a Levenberg damping fallback and a numeric Jacobian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .geometry import FWHM_PER_SIGMA, Angle2D, CameraGeometry
from .scattering import Frame

__all__ = [
    "PANES",
    "Reference",
    "MomentAccumulator",
    "CorrelationMap",
    "CrossSection",
    "GaussianSpotFit",
    "accumulate",
    "accumulate_many",
    "merge",
    "correlation_map",
    "cross_section",
    "fit_gaussian_spot",
    "locate_twin_spot",
    "count_modes",
    "map_to_csv",
    "map_to_pgm",
    "fit_to_csv",
]

PANES = ("stokes", "anti_stokes")


def _pane_index(pane: str) -> int:
    try:
        return PANES.index(pane)
    except ValueError:
        raise ValueError(f"pane must be one of {PANES}, got {pane!r}") from None


def _fiber_pixel_mask(camera: CameraGeometry, center: Angle2D, radius_urad: float) -> np.ndarray:
    ax, ay = camera.pixel_angle_axes()
    dx = ax[None, :] - center.theta_x
    dy = ay[:, None] - center.theta_y
    # strict inequality: a zero-radius fiber collects nothing
    return dx * dx + dy * dy < radius_urad * radius_urad


@dataclass(frozen=True)
class Reference:
    """Reference signal for a correlation map: one pixel or a small disc."""

    pane: str
    pixel_rows: np.ndarray
    pixel_cols: np.ndarray
    angle_urad: tuple[float, float]

    def __post_init__(self) -> None:
        _pane_index(self.pane)
        if self.pixel_rows.size == 0:
            raise ValueError("reference contains no pixels")
        object.__setattr__(self, "pixel_rows", np.asarray(self.pixel_rows, dtype=int))
        object.__setattr__(self, "pixel_cols", np.asarray(self.pixel_cols, dtype=int))

    @classmethod
    def pixel(cls, camera: CameraGeometry, pane: str, angle: Angle2D) -> "Reference":
        px, py = camera.angle_to_pixel(angle)
        ix, iy = round(px), round(py)
        if not camera.contains(px, py):
            raise ValueError(f"reference angle {angle} falls off the pane")
        return cls(
            pane=pane,
            pixel_rows=np.array([iy]),
            pixel_cols=np.array([ix]),
            angle_urad=(angle.theta_x, angle.theta_y),
        )

    @classmethod
    def disc(
        cls, camera: CameraGeometry, pane: str, center: Angle2D, radius_urad: float
    ) -> "Reference":
        mask = _fiber_pixel_mask(camera, center, radius_urad)
        rows, cols = np.nonzero(mask)
        if rows.size == 0:
            raise ValueError(
                f"disc reference of radius {radius_urad:g} urad at {center} covers no pixels"
            )
        return cls(pane=pane, pixel_rows=rows, pixel_cols=cols, angle_urad=(center.theta_x, center.theta_y))

    def value(self, frame_data: np.ndarray) -> float:
        """Summed reference intensity for one (2, H, W) frame."""
        pane = frame_data[_pane_index(self.pane)]
        return float(pane[self.pixel_rows, self.pixel_cols].sum())

    def same_as(self, other: "Reference") -> bool:
        return (
            self.pane == other.pane
            and np.array_equal(self.pixel_rows, other.pixel_rows)
            and np.array_equal(self.pixel_cols, other.pixel_cols)
        )


@dataclass(eq=False)
class MomentAccumulator:
    """Streaming raw moments of every pixel against one reference signal.

    All sums are float64.  With integer photon counts the arithmetic is exact,
    which is what makes merge() associative and commutative bit for bit.
    """

    reference: Reference
    n: int
    sum_i: np.ndarray
    sum_i2: np.ndarray
    sum_ii_ref: np.ndarray
    sum_ref: float
    sum_ref2: float

    @classmethod
    def empty(cls, camera: CameraGeometry, reference: Reference) -> "MomentAccumulator":
        shape = (2, camera.height_px, camera.width_px)
        return cls(
            reference=reference,
            n=0,
            sum_i=np.zeros(shape),
            sum_i2=np.zeros(shape),
            sum_ii_ref=np.zeros(shape),
            sum_ref=0.0,
            sum_ref2=0.0,
        )


def _fold(accs: Sequence[MomentAccumulator], frame: Frame) -> None:
    """The moment update: one frame into each accumulator.

    data * data is formed per accumulator on purpose: one shared copy held
    across the loop made single-reference ingest of default 64x128 panes about
    2x slower in a long-lived process (allocator churn on a third pane-sized
    array).
    """
    data = np.stack([frame.stokes, frame.anti_stokes]).astype(np.float64)
    for acc in accs:
        ref = acc.reference.value(data)
        acc.sum_i += data
        acc.sum_i2 += data * data
        acc.sum_ii_ref += data * ref
        acc.sum_ref += ref
        acc.sum_ref2 += ref * ref
        acc.n += 1


def accumulate(acc: MomentAccumulator, frame: Frame) -> MomentAccumulator:
    """Fold one frame into the accumulator (in place) and return it."""
    _fold((acc,), frame)
    return acc


def accumulate_many(accs: Sequence[MomentAccumulator], frame: Frame) -> None:
    """Fold one frame into several accumulators, converting the frame once."""
    _fold(accs, frame)


def merge(a: MomentAccumulator, b: MomentAccumulator) -> MomentAccumulator:
    """Combine two partial accumulations over disjoint frame sets."""
    if not a.reference.same_as(b.reference):
        raise ValueError("cannot merge accumulators with different references")
    return MomentAccumulator(
        reference=a.reference,
        n=a.n + b.n,
        sum_i=a.sum_i + b.sum_i,
        sum_i2=a.sum_i2 + b.sum_i2,
        sum_ii_ref=a.sum_ii_ref + b.sum_ii_ref,
        sum_ref=a.sum_ref + b.sum_ref,
        sum_ref2=a.sum_ref2 + b.sum_ref2,
    )


@dataclass(eq=False)
class CorrelationMap:
    """Pearson correlation of every pixel with the reference signal."""

    values: np.ndarray  # (2, H, W), NaN where a variance vanishes
    camera: CameraGeometry
    ref_pane: str
    ref_angle_urad: tuple[float, float]
    n_frames: int
    seed: int = 0
    config_checksum: int = 0

    def pane(self, pane: str) -> np.ndarray:
        return self.values[_pane_index(pane)]

    def value_at(self, pane: str, angle: Angle2D) -> float:
        px, py = self.camera.angle_to_pixel(angle)
        if not self.camera.contains(px, py):
            raise ValueError(f"{angle} is off the pane")
        return float(self.pane(pane)[round(py), round(px)])


def correlation_map(
    acc: MomentAccumulator,
    camera: CameraGeometry,
    seed: int = 0,
    config_checksum: int = 0,
) -> CorrelationMap:
    if acc.n < 2:
        raise ValueError(f"need at least 2 frames for a correlation map, have {acc.n}")
    n = float(acc.n)
    mean_i = acc.sum_i / n
    mean_ref = acc.sum_ref / n
    cov = acc.sum_ii_ref / n - mean_i * mean_ref
    var_i = acc.sum_i2 / n - mean_i * mean_i
    var_ref = acc.sum_ref2 / n - mean_ref * mean_ref
    with np.errstate(invalid="ignore", divide="ignore"):
        denom = np.sqrt(var_i * var_ref)
        values = np.where((var_i > 0.0) & (var_ref > 0.0), cov / denom, np.nan)
    return CorrelationMap(
        values=values,
        camera=camera,
        ref_pane=acc.reference.pane,
        ref_angle_urad=acc.reference.angle_urad,
        n_frames=acc.n,
        seed=seed,
        config_checksum=config_checksum,
    )


@dataclass(frozen=True)
class CrossSection:
    axis: str
    positions_urad: np.ndarray
    values: np.ndarray
    fixed_urad: float


def cross_section(
    cmap: CorrelationMap, pane: str, axis: str, through: Angle2D
) -> CrossSection:
    """1-d cut through the map at the row/column nearest to `through`.

    axis='y' varies theta_y at the fixed theta_x of `through`, and vice versa.
    """
    values = cmap.pane(pane)
    ax, ay = cmap.camera.pixel_angle_axes()
    px, py = cmap.camera.angle_to_pixel(through)
    if not cmap.camera.contains(px, py):
        raise ValueError(f"cross-section anchor {through} is off the pane")
    if axis == "y":
        col = round(px)
        return CrossSection("y", ay.copy(), values[:, col].copy(), float(ax[col]))
    if axis == "x":
        row = round(py)
        return CrossSection("x", ax.copy(), values[row, :].copy(), float(ay[row]))
    raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")


# ---------------------------------------------------------------------------
# Gaussian spot fitting


@dataclass(frozen=True)
class GaussianSpotFit:
    amplitude: float
    center_x_urad: float
    center_y_urad: float
    sigma_x_urad: float
    sigma_y_urad: float
    offset: float
    rms_residual: float
    n_iterations: int
    converged: bool

    @property
    def fwhm_x_urad(self) -> float:
        return FWHM_PER_SIGMA * self.sigma_x_urad

    @property
    def fwhm_y_urad(self) -> float:
        return FWHM_PER_SIGMA * self.sigma_y_urad

    @property
    def center(self) -> Angle2D:
        return Angle2D(self.center_x_urad, self.center_y_urad)


def _gauss_model(p: np.ndarray, gx: np.ndarray, gy: np.ndarray) -> np.ndarray:
    amp, x0, y0, sx, sy, off = p
    return off + amp * np.exp(
        -0.5 * ((gx - x0) / sx) ** 2 - 0.5 * ((gy - y0) / sy) ** 2
    )


def _initial_guess(
    gx: np.ndarray, gy: np.ndarray, z: np.ndarray, pitch: float
) -> np.ndarray:
    """Centroid of the brightest 5% of pixels seeds the fit."""
    k = max(1, int(math.ceil(0.05 * z.size)))
    order = np.argsort(z)
    top = order[-k:]
    floor = float(np.median(z))
    w = np.clip(z[top] - floor, 1e-12, None)
    x0 = float(np.sum(gx[top] * w) / np.sum(w))
    y0 = float(np.sum(gy[top] * w) / np.sum(w))
    var_x = float(np.sum((gx[top] - x0) ** 2 * w) / np.sum(w))
    var_y = float(np.sum((gy[top] - y0) ** 2 * w) / np.sum(w))
    sx = max(math.sqrt(var_x), pitch)
    sy = max(math.sqrt(var_y), pitch)
    amp = float(z.max() - floor)
    if amp <= 0.0:
        amp = max(float(z.max() - z.min()), 1e-9)
    return np.array([amp, x0, y0, sx, sy, floor])


def fit_gaussian_spot(
    values: np.ndarray,
    x_axis_urad: np.ndarray,
    y_axis_urad: np.ndarray,
    initial_guess: Optional[np.ndarray] = None,
    max_iterations: int = 100,
    rel_step_tol: float = 1e-8,
) -> GaussianSpotFit:
    """Least-squares 2-d Gaussian (amplitude, centre, widths, offset).

    NaN pixels are ignored.  Gauss-Newton steps with Levenberg damping as the
    fallback; the Jacobian is numeric (forward differences).  The fit has
    converged once a step is below rel_step_tol of the parameters or moves the
    cost by no more than rounding (1e-12 of it).  Non-convergence is reported
    on the result, not raised.
    """
    z2d = np.asarray(values, dtype=float)
    gx2d, gy2d = np.meshgrid(np.asarray(x_axis_urad, float), np.asarray(y_axis_urad, float))
    valid = np.isfinite(z2d)
    gx, gy, z = gx2d[valid], gy2d[valid], z2d[valid]
    pitch = float(abs(x_axis_urad[1] - x_axis_urad[0])) if len(x_axis_urad) > 1 else 1.0

    def failed(p, iters) -> GaussianSpotFit:
        return GaussianSpotFit(
            amplitude=float(p[0]),
            center_x_urad=float(p[1]),
            center_y_urad=float(p[2]),
            sigma_x_urad=abs(float(p[3])),
            sigma_y_urad=abs(float(p[4])),
            offset=float(p[5]),
            rms_residual=float("nan") if z.size == 0 else _rms(p),
            n_iterations=iters,
            converged=False,
        )

    def _rms(p) -> float:
        r = _gauss_model(p, gx, gy) - z
        return float(np.sqrt(np.mean(r * r)))

    if z.size < 7:
        p = initial_guess if initial_guess is not None else np.full(6, np.nan)
        return failed(np.asarray(p, float), 0)

    p = (
        np.asarray(initial_guess, dtype=float)
        if initial_guess is not None
        else _initial_guess(gx, gy, z, pitch)
    )
    scale = np.array([abs(p[0]) + 1e-9, pitch, pitch, pitch, pitch, abs(p[0]) + 1e-9])

    def residual(q):
        return _gauss_model(q, gx, gy) - z

    def succeeded(p, iters) -> GaussianSpotFit:
        return GaussianSpotFit(
            amplitude=float(p[0]),
            center_x_urad=float(p[1]),
            center_y_urad=float(p[2]),
            sigma_x_urad=abs(float(p[3])),
            sigma_y_urad=abs(float(p[4])),
            offset=float(p[5]),
            rms_residual=_rms(p),
            n_iterations=iters,
            converged=True,
        )

    r = residual(p)
    cost = float(r @ r)
    lam = 1e-3
    iters = 0
    for iters in range(1, max_iterations + 1):
        jac = np.empty((z.size, 6))
        for j in range(6):
            h = 1e-6 * max(abs(p[j]), scale[j])
            q = p.copy()
            q[j] += h
            jac[:, j] = (residual(q) - r) / h
        jtj = jac.T @ jac
        jtr = jac.T @ r
        step = None
        for _ in range(12):
            try:
                dp = np.linalg.solve(jtj + lam * np.diag(np.diag(jtj)) + 1e-15 * np.eye(6), -jtr)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial = p + dp
            trial[3] = abs(trial[3])
            trial[4] = abs(trial[4])
            r_trial = residual(trial)
            cost_trial = float(r_trial @ r_trial)
            # a proposal that moves the cost only by rounding cannot be told
            # apart from the current point: we are at the minimum
            at_minimum = abs(cost_trial - cost) <= 1e-12 * cost
            if math.isfinite(cost_trial) and cost_trial <= cost:
                step = dp
                p, r, cost = trial, r_trial, cost_trial
                lam = max(lam / 3.0, 1e-12)
                break
            tiny_step = float(np.max(np.abs(dp) / np.maximum(np.abs(p), scale))) < rel_step_tol
            if at_minimum or tiny_step:
                # the cost cannot be reduced further: we are at the minimum
                return succeeded(p, iters)
            lam *= 10.0
        if step is None:
            return failed(p, iters)
        rel = float(np.max(np.abs(step) / np.maximum(np.abs(p), scale)))
        if rel < rel_step_tol or at_minimum:
            return succeeded(p, iters)
    return failed(p, max_iterations)


def locate_twin_spot(
    cmap: CorrelationMap,
    pane: str = "anti_stokes",
    window_urad: float = 600.0,
    mask_reference: bool = True,
) -> GaussianSpotFit:
    """Find the brightest correlation spot on a pane and fit it.

    The fit window is a square of window_urad around the global maximum.  When
    fitting the reference's own pane the trivial self-correlation pixel is
    masked out first.
    """
    values = cmap.pane(pane).copy()
    if mask_reference and pane == cmap.ref_pane:
        px, py = cmap.camera.angle_to_pixel(Angle2D(*cmap.ref_angle_urad))
        if cmap.camera.contains(px, py):
            values[round(py), round(px)] = np.nan
    if not np.isfinite(values).any():
        return fit_gaussian_spot(values, *cmap.camera.pixel_angle_axes())
    iy, ix = np.unravel_index(np.nanargmax(values), values.shape)
    ax, ay = cmap.camera.pixel_angle_axes()
    half = max(2, int(round(window_urad / 2.0 / cmap.camera.pitch_urad)))
    sl_y = slice(max(0, iy - half), min(values.shape[0], iy + half + 1))
    sl_x = slice(max(0, ix - half), min(values.shape[1], ix + half + 1))
    return fit_gaussian_spot(values[sl_y, sl_x], ax[sl_x], ay[sl_y])


# ---------------------------------------------------------------------------
# mode counting


def count_modes(envelope_fwhm_urad, spot_fwhm_urad) -> int:
    """Independent spatial mode estimate: 2 * envelope / spot solid angles.

    Both arguments may be scalars or per-axis (x, y) pairs; solid angles are
    the product of the per-axis FWHMs.  The factor 2 counts both quadratures
    of each angular cell.
    """
    env = np.broadcast_to(np.asarray(envelope_fwhm_urad, float), (2,))
    spot = np.broadcast_to(np.asarray(spot_fwhm_urad, float), (2,))
    if np.any(env <= 0.0) or np.any(spot <= 0.0):
        raise ValueError("FWHMs must be positive")
    if np.any(env < spot):
        raise ValueError("envelope narrower than a single spot")
    return int(round(2.0 * float(env[0] * env[1]) / float(spot[0] * spot[1])))


# ---------------------------------------------------------------------------
# exports


def _provenance_line(cmap: CorrelationMap) -> str:
    return (
        f"seed={cmap.seed} config_checksum={cmap.config_checksum:016x} "
        f"n_frames={cmap.n_frames} ref_pane={cmap.ref_pane} "
        f"ref=({cmap.ref_angle_urad[0]!r},{cmap.ref_angle_urad[1]!r})"
    )


def map_to_csv(cmap: CorrelationMap, pane: str, path) -> None:
    """One pane of the map as (angle_x_urad, angle_y_urad, C) rows."""
    values = cmap.pane(pane)
    ax, ay = cmap.camera.pixel_angle_axes()
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"# {_provenance_line(cmap)} pane={pane}\n")
        fh.write("angle_x_urad,angle_y_urad,C\n")
        for iy in range(values.shape[0]):
            for ix in range(values.shape[1]):
                fh.write(f"{float(ax[ix])!r},{float(ay[iy])!r},{float(values[iy, ix])!r}\n")


def map_to_pgm(cmap: CorrelationMap, pane: str, path) -> None:
    """16-bit PGM: C in [-1, 1] maps linearly to [0, 65535], NaN to 0."""
    values = cmap.pane(pane)
    scaled = np.clip((values + 1.0) / 2.0, 0.0, 1.0) * 65535.0
    pixels = np.where(np.isfinite(values), np.rint(scaled), 0.0).astype(">u2")
    header = (
        f"P5\n# {_provenance_line(cmap)} pane={pane}\n"
        f"{values.shape[1]} {values.shape[0]}\n65535\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(pixels.tobytes())


def fit_to_csv(fit: GaussianSpotFit, path, label: str = "spot", seed: int = 0, config_checksum: int = 0) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"# seed={seed} config_checksum={config_checksum:016x}\n")
        fh.write(
            "label,converged,amplitude,center_x_urad,center_y_urad,"
            "sigma_x_urad,sigma_y_urad,fwhm_x_urad,fwhm_y_urad,offset,"
            "rms_residual,n_iterations\n"
        )
        fh.write(
            f"{label},{int(fit.converged)},{fit.amplitude!r},{fit.center_x_urad!r},"
            f"{fit.center_y_urad!r},{fit.sigma_x_urad!r},{fit.sigma_y_urad!r},"
            f"{fit.fwhm_x_urad!r},{fit.fwhm_y_urad!r},{fit.offset!r},"
            f"{fit.rms_residual!r},{fit.n_iterations}\n"
        )
