"""Correlation-map analysis of frame stacks.

The map follows the intensity-correlation estimator

    C(p) = (<I_p I_ref> - <I_p><I_ref>) / sqrt(Var(I_p) Var(I_ref))

computed from streaming raw moments held in float64, one `MomentSet` per
pass: the sums of I_p and I_p^2 are held once for every reference, the cross
moment and the reference sums once per reference.  `accumulate_blocks` is the
one fold: it takes a stream of (n, 2, H, W) blocks of counts, as `stackio`
reads them, and `accumulate_block` folds one such block.
Rendered panes are integer photon counts, so the moment sums stay exact
(every partial sum is an integer below 2**53, which each fold and merge
checks) and chunk merging is bit-stable in any order.

Spot extraction is a plain 2-d Gaussian least-squares fit, Gauss-Newton with
a Levenberg damping fallback and a numeric Jacobian.

A `Reference` is placed on one camera and keeps it: the moment set folds its
references' camera, and every map, export and twin fit reads the camera from
its reference.  Every output's comment line starts with the stamp
`provenance(seed, config_checksum)`, which each export takes as a required
argument: a map knows its frames and reference, not the run that made them.
Every report table (spot fits here, the CLI's steer and herald reports) is
written by `write_table`.
"""

from __future__ import annotations

import csv
import math
from contextlib import suppress
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .geometry import FWHM_PER_SIGMA, Angle2D, CameraGeometry

__all__ = [
    "PANES",
    "Reference",
    "MomentSet",
    "CorrelationMap",
    "GaussianSpotFit",
    "accumulate_blocks",
    "accumulate_block",
    "merge",
    "correlation_map",
    "fit_gaussian_spot",
    "locate_twin_spot",
    "count_modes",
    "map_to_csv",
    "map_to_pgm",
    "fit_to_csv",
    "provenance",
    "write_table",
]

PANES = ("stokes", "anti_stokes")


def _pane_index(pane: str) -> int:
    try:
        return PANES.index(pane)
    except ValueError:
        raise ValueError(f"pane must be one of {PANES}, got {pane!r}") from None


@dataclass(frozen=True, eq=False)
class Reference:
    """Reference signal for a correlation map: one pixel or a disc of pixels of `camera`'s `pane`.

    `angle` is the direction it was placed at; `camera` is the grid its
    pixels index, and every set, map and export made with it uses that grid.
    References compare and hash by identity; `merge` matches two sets'
    references by camera, pane and pixels.
    """

    camera: CameraGeometry
    pane: str
    pixel_rows: np.ndarray
    pixel_cols: np.ndarray
    angle: Angle2D

    @classmethod
    def place(
        cls, camera: CameraGeometry, pane: str, angle: Angle2D, radius_urad: float
    ) -> "Reference":
        """The pixel under `angle` at radius 0, else the disc of pixels strictly within `radius_urad`."""
        _pane_index(pane)
        if radius_urad > 0.0:
            ax, ay = camera.pixel_angle_axes()
            dx, dy = ax[None, :] - angle.theta_x, ay[:, None] - angle.theta_y
            rows, cols = np.nonzero(dx * dx + dy * dy < radius_urad * radius_urad)
            if rows.size == 0:
                raise ValueError(
                    f"disc reference of radius {radius_urad:g} urad at {angle} covers no pixels"
                )
        else:
            px, py = camera.angle_to_pixel(angle)
            if not camera.contains(px, py):
                raise ValueError(f"reference angle {angle} falls off the pane")
            rows, cols = np.array([round(py)]), np.array([round(px)])
        return cls(camera=camera, pane=pane, pixel_rows=rows, pixel_cols=cols, angle=angle)


@dataclass(eq=False)
class MomentSet:
    """Streaming raw moments of every pixel of both panes against K reference signals.

    The reference-free sums (`sum_i`, `sum_i2`, each (2, H, W)) are held
    once; `sum_ii_ref` is (K, 2, H, W) and `sum_ref`, `sum_ref2` are (K,),
    row k for references[k].  All sums are float64.  With integer photon
    counts the arithmetic is exact, which is what makes merge() associative
    and commutative bit for bit.  The panes are folded on the one camera all
    the references were placed on.
    """

    references: tuple[Reference, ...]
    n: int
    sum_i: np.ndarray
    sum_i2: np.ndarray
    sum_ii_ref: np.ndarray
    sum_ref: np.ndarray
    sum_ref2: np.ndarray

    @classmethod
    def empty(cls, references: Sequence[Reference]) -> "MomentSet":
        """A set of zero frames; ValueError unless one or more references all sit on one camera."""
        cameras = {ref.camera for ref in references}
        if len(cameras) != 1:
            raise ValueError(
                f"a moment set needs references placed on one camera, "
                f"got {len(references)} references on {len(cameras)} cameras"
            )
        (camera,) = cameras
        shape = (2, camera.height_px, camera.width_px)
        k = len(references)
        return cls(
            references=tuple(references),
            n=0,
            sum_i=np.zeros(shape),
            sum_i2=np.zeros(shape),
            sum_ii_ref=np.zeros((k, *shape)),
            sum_ref=np.zeros(k),
            sum_ref2=np.zeros(k),
        )


# float64 adds integers exactly while every partial sum stays below 2**53
_EXACT_LIMIT = 2.0**53


def _check_exact(moments: MomentSet) -> None:
    """Fail once a squared sum reaches 2**53; by Cauchy-Schwarz the other sums are below it too."""
    if not (moments.sum_ref2.max(initial=0.0) < _EXACT_LIMIT and moments.sum_i2.max() < _EXACT_LIMIT):
        raise OverflowError(
            f"moment sums of {moments.n} frames reach 2**53: float64 no longer sums the counts exactly"
        )


def accumulate_blocks(moments: MomentSet, blocks: Iterable[np.ndarray]) -> None:
    """The moment update: fold each (n, 2, H, W) block of counts into the set, in stream order.

    A block holds unsigned counts (u16 or u32, each exact in float64).  The
    K reference signals r_k are summed from it in float64, and then each pane
    in turn is cast to float64, as X, its n rows of H*W counts: one gemm
    [1; r_1 ... r_K] @ X gives the pane's intensity sum and every reference's
    cross moment, and one einsum its squared sum.  Only one pane is held in
    float64 at a time, in buffers allocated once for the whole stream: a
    fold after the first allocates none.  Photon counts are integers, so while
    every partial sum stays below 2**53 the sums do not depend on how frames
    are grouped into blocks or pixels into panes; a fold that reaches 2**53
    raises OverflowError.
    """
    blocks, work = iter(blocks), None
    with suppress(StopIteration):
        while True:  # passed unbound, so each block is freed before the next one is read
            work = _fold(moments, next(blocks), work)


def accumulate_block(moments: MomentSet, block: np.ndarray) -> None:
    """Fold one (n, 2, H, W) block of counts into the set (see accumulate_blocks)."""
    _fold(moments, block, None)


def _fold(
    moments: MomentSet, block: np.ndarray, work: tuple[np.ndarray, ...] | None
) -> tuple[np.ndarray, ...]:
    """Fold one block in the float64 buffers `work` (pane slab, gemm rows, squares), when large enough.

    Returns the buffers it used, made here for a block of more frames than `work` holds.
    """
    n = block.shape[0]
    if work is None or len(work[0]) < n:
        pane_px = moments.sum_i[0].size
        work = (np.empty((n, pane_px)), np.empty((len(moments.references) + 1, pane_px)), np.empty(pane_px))
    slab, sums, squares = work[0][:n], work[1], work[2]
    weights = np.empty((len(moments.references) + 1, n))
    weights[0] = 1.0
    for k, ref in enumerate(moments.references, 1):
        signal = block[:, _pane_index(ref.pane), ref.pixel_rows, ref.pixel_cols]
        weights[k] = signal.sum(axis=1, dtype=np.float64)
    shape = moments.sum_i.shape[1:]
    for pane in range(len(PANES)):
        np.copyto(slab, block[:, pane].reshape(n, -1))
        np.matmul(weights, slab, out=sums)
        np.einsum("ij,ij->j", slab, slab, out=squares)
        moments.sum_i[pane] += sums[0].reshape(shape)
        moments.sum_i2[pane] += squares.reshape(shape)
        moments.sum_ii_ref[:, pane] += sums[1:].reshape(-1, *shape)
    r = weights[1:]
    moments.sum_ref += r.sum(axis=1)
    moments.sum_ref2 += np.einsum("ij,ij->i", r, r)
    moments.n += n
    _check_exact(moments)
    return work


# names perfbench/tracing.py still wraps; no program path calls them (ROADMAP item 1 removes them)
accumulate = accumulate_many = accumulate_block


def _reference_key(ref: Reference) -> tuple:
    return ref.camera, ref.pane, ref.pixel_rows.tolist(), ref.pixel_cols.tolist()


def merge(a: MomentSet, b: MomentSet) -> MomentSet:
    """Combine two partial sets over disjoint frames and the same references (cameras too), in order."""
    if list(map(_reference_key, a.references)) != list(map(_reference_key, b.references)):
        raise ValueError("cannot merge moment sets with different references")
    merged = MomentSet(
        references=a.references,
        n=a.n + b.n,
        sum_i=a.sum_i + b.sum_i,
        sum_i2=a.sum_i2 + b.sum_i2,
        sum_ii_ref=a.sum_ii_ref + b.sum_ii_ref,
        sum_ref=a.sum_ref + b.sum_ref,
        sum_ref2=a.sum_ref2 + b.sum_ref2,
    )
    _check_exact(merged)
    return merged


@dataclass(eq=False)
class CorrelationMap:
    """Pearson correlation of every pixel with the reference signal, on the reference's camera."""

    values: np.ndarray  # (2, H, W), NaN where a variance vanishes
    reference: Reference
    n_frames: int

    def pane(self, pane: str) -> np.ndarray:
        return self.values[_pane_index(pane)]

    def value_at(self, pane: str, angle: Angle2D) -> float:
        camera = self.reference.camera
        px, py = camera.angle_to_pixel(angle)
        if not camera.contains(px, py):
            raise ValueError(f"{angle} is off the pane")
        return float(self.pane(pane)[round(py), round(px)])


def correlation_map(moments: MomentSet, k: int) -> CorrelationMap:
    """The map of every pixel against references[k] of the set."""
    if moments.n < 2:
        raise ValueError(f"need at least 2 frames for a correlation map, have {moments.n}")
    n = float(moments.n)
    mean_i = moments.sum_i / n
    mean_ref = float(moments.sum_ref[k]) / n
    cov = moments.sum_ii_ref[k] / n - mean_i * mean_ref
    var_i = moments.sum_i2 / n - mean_i * mean_i
    var_ref = float(moments.sum_ref2[k]) / n - mean_ref * mean_ref
    with np.errstate(invalid="ignore", divide="ignore"):
        denom = np.sqrt(var_i * var_ref)
        values = np.where((var_i > 0.0) & (var_ref > 0.0), cov / denom, np.nan)
    return CorrelationMap(values=values, reference=moments.references[k], n_frames=moments.n)


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


def _gauss_model(p: np.ndarray, gx: np.ndarray, gy: np.ndarray) -> np.ndarray:
    amp, x0, y0, sx, sy, off = p
    return off + amp * np.exp(
        -0.5 * ((gx - x0) / sx) ** 2 - 0.5 * ((gy - y0) / sy) ** 2
    )


def _initial_guess(
    gx: np.ndarray, gy: np.ndarray, z: np.ndarray, pitch: float
) -> np.ndarray:
    """One sort of the window seeds the fit: the centroid of its brightest 5%
    above the window's median, read off the same sort bit for bit as
    np.median gives it (np.median would load numpy.ma, which no command loads).
    """
    k = max(1, int(math.ceil(0.05 * z.size)))
    order = np.argsort(z)
    top = order[-k:]
    # the middle value or two summed from +0.0 over their count, as np.median
    # does: a median of zeros is +0.0 whichever signs the sort leaves there
    mid = z.size // 2
    if z.size % 2:
        floor = 0.0 + float(z[order[mid]])
    else:
        floor = (0.0 + float(z[order[mid - 1]]) + float(z[order[mid]])) / 2.0
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


# Gauss-Newton iteration cap and the relative step that counts as converged
_MAX_ITERATIONS = 100
_REL_STEP_TOL = 1e-8


def fit_gaussian_spot(
    values: np.ndarray,
    x_axis_urad: np.ndarray,
    y_axis_urad: np.ndarray,
) -> GaussianSpotFit:
    """Least-squares 2-d Gaussian (amplitude, centre, widths, offset).

    NaN pixels are ignored.  Gauss-Newton steps with Levenberg damping as the
    fallback; the Jacobian is numeric (forward differences).  The fit has
    converged once a step is below _REL_STEP_TOL of the parameters or moves
    the cost by no more than rounding (1e-12 of it).  Non-convergence is
    reported on the result, not raised.
    """
    z2d = np.asarray(values, dtype=float)
    gx2d, gy2d = np.meshgrid(np.asarray(x_axis_urad, float), np.asarray(y_axis_urad, float))
    valid = np.isfinite(z2d)
    gx, gy, z = gx2d[valid], gy2d[valid], z2d[valid]
    pitch = float(abs(x_axis_urad[1] - x_axis_urad[0])) if len(x_axis_urad) > 1 else 1.0

    def residual(q):
        return _gauss_model(q, gx, gy) - z

    def result(p, iters, converged: bool) -> GaussianSpotFit:
        r = residual(p)
        rms = float(np.sqrt(np.mean(r * r))) if z.size else float("nan")
        return GaussianSpotFit(
            amplitude=float(p[0]),
            center_x_urad=float(p[1]),
            center_y_urad=float(p[2]),
            sigma_x_urad=abs(float(p[3])),
            sigma_y_urad=abs(float(p[4])),
            offset=float(p[5]),
            rms_residual=rms,
            n_iterations=iters,
            converged=converged,
        )

    if z.size < 7:
        return result(np.full(6, np.nan), 0, False)

    p = _initial_guess(gx, gy, z, pitch)
    scale = np.array([abs(p[0]) + 1e-9, pitch, pitch, pitch, pitch, abs(p[0]) + 1e-9])

    r = residual(p)
    cost = float(r @ r)
    lam = 1e-3
    iters = 0
    for iters in range(1, _MAX_ITERATIONS + 1):
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
            tiny_step = float(np.max(np.abs(dp) / np.maximum(np.abs(p), scale))) < _REL_STEP_TOL
            if at_minimum or tiny_step:
                # the cost cannot be reduced further: we are at the minimum
                return result(p, iters, True)
            lam *= 10.0
        if step is None:
            return result(p, iters, False)
        rel = float(np.max(np.abs(step) / np.maximum(np.abs(p), scale)))
        if rel < _REL_STEP_TOL or at_minimum:
            return result(p, iters, True)
    return result(p, _MAX_ITERATIONS, False)


# side of the square fit window around a map's brightest pixel
_TWIN_WINDOW_URAD = 600.0


def locate_twin_spot(cmap: CorrelationMap, pane: str = "anti_stokes") -> GaussianSpotFit:
    """Find the brightest correlation spot on a pane and fit it.

    The fit window is a square of _TWIN_WINDOW_URAD around the global
    maximum.  When fitting the reference's own pane every pixel of the
    reference, whose self-correlation is trivial, is masked out first.
    """
    ref, camera = cmap.reference, cmap.reference.camera
    values = cmap.pane(pane).copy()
    if pane == ref.pane:
        values[ref.pixel_rows, ref.pixel_cols] = np.nan
    ax, ay = camera.pixel_angle_axes()
    if not np.isfinite(values).any():
        return fit_gaussian_spot(values, ax, ay)
    iy, ix = np.unravel_index(np.nanargmax(values), values.shape)
    half = max(2, int(round(_TWIN_WINDOW_URAD / 2.0 / camera.pitch_urad)))
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


def provenance(seed: int, config_checksum: int) -> str:
    """The stamp that opens every output's comment line: what ran."""
    return f"seed={seed} config_checksum={config_checksum:016x}"


def write_table(path, comment: str, rows: Sequence[dict]) -> None:
    """A report CSV: `# comment`, the first row's keys, then each row's values (bools as 0/1).

    A cell holding a comma or a quote is quoted, as `csv.reader` reads it back.
    """
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(f"# {comment}\n")
        table = csv.writer(fh, lineterminator="\n")
        table.writerow(rows[0])
        for row in rows:
            # cells are str()'d here: csv would write a numpy float by its repr, np.float64(...)
            table.writerow(str(int(v)) if isinstance(v, (bool, np.bool_)) else str(v) for v in row.values())


def _map_comment(cmap: CorrelationMap, pane: str, stamp: str) -> str:
    ref = cmap.reference
    return (
        f"# {stamp} n_frames={cmap.n_frames} ref_pane={ref.pane} "
        f"ref=({ref.angle.theta_x!r},{ref.angle.theta_y!r}) pane={pane}\n"
    )


def map_to_csv(cmap: CorrelationMap, pane: str, path, stamp: str) -> None:
    """One pane of the map as (angle_x_urad, angle_y_urad, C) rows under the `provenance` stamp."""
    values = cmap.pane(pane)
    ax, ay = cmap.reference.camera.pixel_angle_axes()
    with open(path, "w", encoding="ascii") as fh:
        fh.write(_map_comment(cmap, pane, stamp))
        fh.write("angle_x_urad,angle_y_urad,C\n")
        # each coordinate is formatted once: x with its comma per pane, y per row
        xs = [f"{x!r}," for x in ax.tolist()]
        for y, row in zip(ay.tolist(), values):
            yc = f"{y!r},"
            fh.write("".join([f"{x}{yc}{v!r}\n" for x, v in zip(xs, row.tolist())]))


def map_to_pgm(cmap: CorrelationMap, pane: str, path, stamp: str) -> None:
    """16-bit PGM under the `provenance` stamp: C in [-1, 1] maps linearly to [0, 65535], NaN to 0."""
    values = cmap.pane(pane)
    scaled = np.clip((values + 1.0) / 2.0, 0.0, 1.0) * 65535.0
    pixels = np.where(np.isfinite(values), np.rint(scaled), 0.0).astype(">u2")
    header = f"P5\n{_map_comment(cmap, pane, stamp)}{values.shape[1]} {values.shape[0]}\n65535\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(pixels.tobytes())


def fit_to_csv(fit: GaussianSpotFit, path, stamp: str) -> None:
    """The twin-spot fit as a one-row report table, labelled `twin`, under the `provenance` stamp."""
    columns = (
        "converged", "amplitude", "center_x_urad", "center_y_urad", "sigma_x_urad", "sigma_y_urad",
        "fwhm_x_urad", "fwhm_y_urad", "offset", "rms_residual", "n_iterations",
    )
    row = {"label": "twin", **{c: getattr(fit, c) for c in columns}}
    write_table(path, stamp, [row])
