"""Stochastic synthesis of Stokes / anti-Stokes camera frames.

Model: the write process populates a square grid of angular modes inside the
scattering cone.  Each shot draws an independent exponential (single-mode
thermal) intensity per mode; retrieval returns eta_m * I_m into the conjugate
direction, where eta_m combines spin-wave diffusion damping and a readout
steering aberration roll-off.  Panes are Poisson photoelectron counts on top
of a uniform noise floor, so every rendered pixel is integer valued.

Randomness is counter based: shot i of a run seeded with s draws exclusively
from Philox streamed with key (s, i), which makes stacks bit-reproducible and
independent of any worker scheduling.  `iter_simulated_frames`, the one
render entry point, relies on that to render frames on every usable core
while handing them out in frame order.
"""

from __future__ import annotations

import math
import os
import queue
import threading
from collections import deque
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .geometry import (
    FWHM_PER_SIGMA,
    RAD_PER_URAD,
    Angle2D,
    BeamGeometry,
    CameraGeometry,
    conjugate_angles,
)

__all__ = [
    "ModeSet",
    "ModeGridParams",
    "RetrievalModel",
    "Frame",
    "FrameStack",
    "effective_source_diameter_m",
    "build_mode_set",
    "mode_set_from_config",
    "check_pixel_photons",
    "check_counts",
    "pixel_count_bound",
    "retrieval_efficiencies",
    "sample_shot",
    "iter_simulated_frames",
    "shot_rng",
]

# Upper bound on the photon scales (mean photons per mode, noise floor): a pixel's
# Poisson mean sums them, and numpy's Poisson draw fails above ~9.2e18.
PHOTON_SCALE_MAX = 1e12

# Upper bound on the mode grid: the renderer keeps (M, H) and (M, W) float64
# factors per pane and draws M exponentials per shot, so 1e5 modes (~800 times
# the default 121) already take ~150 MB of factors at 64x128 pixels.
MODE_COUNT_MAX = 100_000

# frames store counts as float32, which holds every integer exactly only below 2**24
_COUNT_LIMIT = 2**24


def effective_source_diameter_m(geom: BeamGeometry, gain_shrink: float) -> float:
    """Diameter of the emitting region: the write beam shrunk by gain."""
    if not (gain_shrink > 0.0 and math.isfinite(gain_shrink)):
        raise ValueError(f"gain_shrink must be positive, got {gain_shrink!r}")
    return 2.0 * geom.w0_write_m / gain_shrink


@dataclass(frozen=True, eq=False)
class ModeSet:
    """Angular mode grid populated by the write process.

    centers_urad holds one (theta_x, theta_y) row per mode; mean_photons and
    sigma_urad are per mode.  spot_fwhm_urad is the predicted width of a
    correlation-map spot, which for this model is
    sqrt(1 + (lambda_read/lambda_write)^2) times the single-mode intensity
    FWHM (the covariance of two carrier-scaled Gaussian profiles).
    """

    centers_urad: np.ndarray
    mean_photons: np.ndarray
    sigma_urad: np.ndarray
    grid_spacing_urad: float
    envelope_fwhm_urad: tuple[float, float]
    spot_fwhm_urad: float
    lambda_write_m: float
    lambda_read_m: float
    write_angle_urad: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        c = np.asarray(self.centers_urad, dtype=float)
        m = np.asarray(self.mean_photons, dtype=float)
        s = np.asarray(self.sigma_urad, dtype=float)
        if c.ndim != 2 or c.shape[1] != 2 or c.shape[0] == 0:
            raise ValueError("centers_urad must be a non-empty (M, 2) array")
        if m.shape != (c.shape[0],) or s.shape != (c.shape[0],):
            raise ValueError("mean_photons and sigma_urad must be (M,) arrays")
        if not np.all(np.isfinite(c)):
            raise ValueError("mode centres must be finite")
        if np.any(m < 0.0) or not np.all(np.isfinite(m)):
            raise ValueError("mean photon numbers must be finite and >= 0")
        if np.any(s <= 0.0) or not np.all(np.isfinite(s)):
            raise ValueError("mode widths must be positive")
        if self.grid_spacing_urad < float(np.max(s)):
            raise ValueError(
                "grid spacing below the mode width: modes would not be "
                f"approximately orthogonal ({self.grid_spacing_urad:g} < {np.max(s):g})"
            )
        for arr in (c, m, s):
            arr.setflags(write=False)
        object.__setattr__(self, "centers_urad", c)
        object.__setattr__(self, "mean_photons", m)
        object.__setattr__(self, "sigma_urad", s)

    @property
    def n_modes(self) -> int:
        return self.centers_urad.shape[0]

    @property
    def mode_fwhm_urad(self) -> float:
        return float(self.sigma_urad[0]) * FWHM_PER_SIGMA

    def anti_stokes_centers_urad(self, theta_read_urad: Sequence[float]) -> np.ndarray:
        """Conjugate (readout) direction of every mode for a given steering angle."""
        tw = np.asarray(self.write_angle_urad, dtype=float)
        tr = np.asarray(theta_read_urad, dtype=float)
        return conjugate_angles(tw, self.centers_urad, tr, self.lambda_write_m, self.lambda_read_m)

    @cached_property
    def _axis_groups(self) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
        """Per axis (x, y): (first, inverse) over the distinct (centre, sigma) pairs.

        first[g] is a mode holding pair g and inverse[m] is the pair of mode
        m, so a per-mode row built once per pair is rows[inverse].  The
        conjugate law maps each axis on its own, so modes that share a pair
        here share it in the anti-Stokes direction at every readout tilt.
        """
        groups = []
        for axis in (0, 1):
            group_of, first, inverse = {}, [], []
            for m, pair in enumerate(zip(self.centers_urad[:, axis].tolist(),
                                         self.sigma_urad.tolist())):
                if pair not in group_of:
                    group_of[pair] = len(first)
                    first.append(m)
                inverse.append(group_of[pair])
            groups.append((np.array(first), np.array(inverse)))
        return tuple(groups)


def build_mode_set(geom: BeamGeometry, modes: ModeGridParams) -> ModeSet:
    """Lay out the thermal mode grid of one [modes] section.

    The single-mode angular FWHM is spot_constant * lambda_write / d_eff with
    d_eff = 2 w0_write / gain_shrink.  Mode centres form a square grid of pitch
    grid_spacing_sigma * sigma covering the envelope plus grid_margin_sigma
    extra sigmas per side, so correlation spots referenced anywhere inside the
    envelope see a statistically uniform neighbourhood.  Mean photon number is
    uniform across the grid.
    """
    env = np.broadcast_to(np.asarray(modes.envelope_fwhm_urad, dtype=float), (2,)).copy()
    if np.any(~np.isfinite(env)) or np.any(env <= 0.0):
        raise ValueError(f"envelope FWHM must be positive, got {modes.envelope_fwhm_urad!r}")
    mean_photons = modes.mean_photons_per_mode
    if not 0.0 <= mean_photons <= PHOTON_SCALE_MAX:
        raise ValueError(
            f"mean photons per mode must lie in [0, {PHOTON_SCALE_MAX:g}], got {mean_photons!r}"
        )
    if not (modes.spot_constant > 0.0 and math.isfinite(modes.spot_constant)):
        raise ValueError(f"spot_constant must be positive, got {modes.spot_constant!r}")
    if modes.grid_spacing_sigma < 1.0:
        raise ValueError("grid_spacing_sigma below 1 breaks mode orthogonality")
    if modes.grid_margin_sigma < 0.0:
        raise ValueError("grid_margin_sigma must be >= 0")

    d_eff = effective_source_diameter_m(geom, modes.gain_shrink)
    mode_fwhm_urad = modes.spot_constant * geom.lambda_write_m / d_eff / RAD_PER_URAD
    if np.any(env < mode_fwhm_urad):
        raise ValueError(
            f"envelope FWHM {env} urad smaller than one mode ({mode_fwhm_urad:g} urad)"
        )
    sigma = mode_fwhm_urad / FWHM_PER_SIGMA
    spacing = modes.grid_spacing_sigma * sigma

    half_extent = env / 2.0 + modes.grid_margin_sigma * sigma
    counts = np.floor(half_extent / spacing)
    nx, ny = (2.0 * counts + 1.0).tolist()
    if not nx * ny <= MODE_COUNT_MAX:
        raise ValueError(
            f"mode grid of {nx:g} x {ny:g} modes exceeds {MODE_COUNT_MAX} "
            f"(modes of {mode_fwhm_urad:g} urad FWHM over a {env.tolist()} urad envelope)"
        )
    counts = counts.astype(int)
    xs = spacing * np.arange(-counts[0], counts[0] + 1, dtype=float)
    ys = spacing * np.arange(-counts[1], counts[1] + 1, dtype=float)
    gx, gy = np.meshgrid(xs, ys, indexing="xy")
    centers = np.column_stack([gx.ravel(), gy.ravel()])

    n = centers.shape[0]
    ratio = geom.lambda_read_m / geom.lambda_write_m
    spot_fwhm = math.sqrt(1.0 + ratio * ratio) * mode_fwhm_urad
    return ModeSet(
        centers_urad=centers,
        mean_photons=np.full(n, float(mean_photons)),
        sigma_urad=np.full(n, sigma),
        grid_spacing_urad=spacing,
        envelope_fwhm_urad=(float(env[0]), float(env[1])),
        spot_fwhm_urad=spot_fwhm,
        lambda_write_m=geom.lambda_write_m,
        lambda_read_m=geom.lambda_read_m,
    )


def mode_set_from_config(cfg) -> ModeSet:
    """The default ModeSet of an ExperimentConfig, built once per (geometry, modes)."""
    return _mode_set(cfg.geometry, cfg.modes)


# one entry: a run parses, validates and renders one config, and a ModeSet is
# read-only, so every caller can share the one built for its config
@lru_cache(maxsize=1)
def _mode_set(geom: BeamGeometry, modes: ModeGridParams) -> ModeSet:
    return build_mode_set(geom, modes)


def _peak_pixel_means(ms: ModeSet, camera: CameraGeometry) -> np.ndarray:
    """Each mode's mean photons on one pixel when centred on it, mean_photons * pitch^2 / (2 pi sigma^2).

    The expression of `_pane_factors`.  Computed from pitch / sigma so that an
    overflow reads as inf, and no photons times an infinite ratio as NaN.
    """
    ratio = camera.pitch_urad / ms.sigma_urad
    with np.errstate(over="ignore", invalid="ignore"):
        return ms.mean_photons * (ratio * ratio) / (2.0 * math.pi)


def check_pixel_photons(ms: ModeSet, camera: CameraGeometry) -> None:
    """Reject a pixel so coarse for the modes that one mode's peak pixel passes PHOTON_SCALE_MAX.

    Past the bound the Poisson draw fails or the peak expression overflows;
    an overflow (inf) or a NaN peak is rejected too.
    """
    peak = float(_peak_pixel_means(ms, camera).max())
    if not peak <= PHOTON_SCALE_MAX:
        raise ValueError(
            f"a pixel of {camera.pitch_urad:g} urad would hold {peak:g} mean photons of one "
            f"mode of {float(ms.sigma_urad.min()):g} urad sigma, past {PHOTON_SCALE_MAX:g}"
        )


# an exponential (thermal) mode intensity passes THERMAL_TAIL_FACTOR times its
# mean with probability exp(-THERMAL_TAIL_FACTOR), e^-64 here
THERMAL_TAIL_FACTOR = 64


def pixel_count_bound(ms: ModeSet, camera: CameraGeometry, noise_floor: float) -> float:
    """THERMAL_TAIL_FACTOR * sum over modes of each one's peak-pixel mean, plus the noise floor.

    Mode m puts at most its `_peak_pixel_means` entry of its intensity's mean
    on one pixel, and its anti-Stokes twin no more (eta <= 1).  So no pixel's Poisson mean passes the bound unless a
    mode's intensity passes THERMAL_TAIL_FACTOR times its mean: the width a
    stack's counts need.
    """
    return THERMAL_TAIL_FACTOR * float(_peak_pixel_means(ms, camera).sum()) + noise_floor


@dataclass(frozen=True)
class ModeGridParams:
    """The [modes] section: the mode grid `build_mode_set` lays out."""

    gain_shrink: float = 2.0
    envelope_fwhm_urad: float = 758.946695
    readout_envelope_fwhm_urad: float = 536.656315
    mean_photons_per_mode: float = 1000.0
    spot_constant: float = 0.754212
    grid_spacing_sigma: float = 1.5
    grid_margin_sigma: float = 3.0


@dataclass(frozen=True)
class RetrievalModel:
    """Readout efficiency model and camera noise floor.

    eta_m = eta0 * exp(-d_diff |K_m|^2 tau_storage) * A(theta_read) with
    K_m the stored transverse wavevector of mode m and
    A = exp(-|theta_read|^2 / (2 aberration_scale^2)); a non-positive or
    infinite aberration scale disables the roll-off, and a positive one whose
    square underflows is rejected.
    """

    eta0: float
    d_diff_m2_s: float
    tau_storage_s: float
    aberration_scale_urad: float
    noise_floor: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.eta0 <= 1.0):
            raise ValueError(f"eta0 must lie in [0, 1], got {self.eta0!r}")
        if self.d_diff_m2_s < 0.0 or not math.isfinite(self.d_diff_m2_s):
            raise ValueError(f"d_diff must be >= 0, got {self.d_diff_m2_s!r}")
        if self.tau_storage_s < 0.0 or not math.isfinite(self.tau_storage_s):
            raise ValueError(f"tau_storage must be >= 0, got {self.tau_storage_s!r}")
        scale = self.aberration_scale_urad
        if scale > 0.0 and 2.0 * scale * scale == 0.0:  # the roll-off would divide 0 by 0
            raise ValueError(f"aberration_scale_urad {scale!r} is so small its square underflows to 0")
        if not 0.0 <= self.noise_floor <= PHOTON_SCALE_MAX:
            raise ValueError(
                f"noise_floor must lie in [0, {PHOTON_SCALE_MAX:g}], got {self.noise_floor!r}"
            )


def _diffusion_efficiencies(ms: ModeSet, rm: RetrievalModel) -> np.ndarray:
    """eta0 * exp(-d_diff |K_m|^2 tau_storage): the part of eta_m no readout tilt changes."""
    k_mag = (
        np.linalg.norm(ms.centers_urad, axis=1)
        * (2.0 * math.pi * RAD_PER_URAD / ms.lambda_write_m)
    )
    return rm.eta0 * np.exp(-rm.d_diff_m2_s * k_mag**2 * rm.tau_storage_s)


def _aberration_rolloff(rm: RetrievalModel, theta_read_urad: Sequence[float]) -> float:
    """A(theta_read) of the retrieval model; 1.0 when the roll-off is disabled."""
    tr = np.asarray(theta_read_urad, dtype=float)
    scale = rm.aberration_scale_urad
    if scale > 0.0 and math.isfinite(scale):
        return math.exp(-float(tr @ tr) / (2.0 * scale * scale))
    return 1.0


def retrieval_efficiencies(
    ms: ModeSet, rm: RetrievalModel, theta_read_urad: Sequence[float]
) -> np.ndarray:
    """Per-mode anti-Stokes/Stokes intensity ratio for one steering angle."""
    return _diffusion_efficiencies(ms, rm) * _aberration_rolloff(rm, theta_read_urad)


def shot_rng(seed: int, shot_index: int) -> np.random.Generator:
    """Independent counter-based stream for one shot of one run."""
    if seed < 0 or shot_index < 0:
        raise ValueError("seed and shot index must be non-negative")
    key = np.array([seed, shot_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_shot(
    ms: ModeSet, eta: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw one shot of per-mode intensities (photons).

    Returns (I_stokes, I_anti_stokes).  Stokes intensities are independent
    exponentials; the retrieved intensity is the deterministic fraction
    eta_m of its twin (`retrieval_efficiencies` at the shot's readout tilt),
    so with eta == 1 the pair is exactly equal.
    """
    i_s = rng.exponential(ms.mean_photons)
    return i_s, eta * i_s


# ---------------------------------------------------------------------------
# rendering


@dataclass(frozen=True, eq=False)
class PaneFactors:
    """Per-mode pixel deposit patterns on one pane, as per-axis factors.

    Mode m deposits the (H, W) pattern outer(wy[m], wx_alpha[m]), which
    integrates to ~1 over an unbounded pane; the (M, H, W) stack of patterns
    is never built.  off_pane[m] flags modes whose centre misses the pane;
    only their wy rows are zeroed, which removes them from every product
    while wx_alpha stays shareable between tilts with the same theta_x.  The
    energy clipped from the pane follows from off_pane and the mode means,
    once per tilt.  tilt is the readout tilt of the anti-Stokes pane (None on
    the Stokes pane) and wy_rows the unzeroed y factor per distinct (centre,
    sigma) pair.
    """

    tilt: Optional[tuple[float, float]]
    wy_rows: np.ndarray
    wy: np.ndarray
    wx_alpha: np.ndarray
    off_pane: np.ndarray


def _gauss_rows(axis: np.ndarray, centers: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """exp(-(axis - c)^2 / (2 sigma^2)), one row per (c, sigma), built in place in one buffer."""
    w = axis[None, :] - centers[:, None]
    w /= sigma[:, None]
    w **= 2
    w *= -0.5
    return np.exp(w, out=w)


def _pane_factors(
    ms: ModeSet,
    centers_urad: np.ndarray,
    camera: CameraGeometry,
    tilt: Optional[tuple[float, float]] = None,
    previous: Optional[PaneFactors] = None,
) -> PaneFactors:
    """Factors of the modes centred at centers_urad; previous lends each unmoved axis's factor.

    Each factor is built once per distinct (centre, sigma) pair of its axis
    and gathered per mode: the same operations on the same inputs as one row
    per mode, so the same bits.
    """
    ax, ay = camera.pixel_angle_axes()
    (first_x, inv_x), (first_y, inv_y) = ms._axis_groups
    sigma = ms.sigma_urad
    # separable Gaussian, peak-normalised per axis, area-normalised overall
    if previous is not None and previous.tilt[0] == tilt[0]:
        wx_alpha = previous.wx_alpha
    else:
        rows = _gauss_rows(ax, centers_urad[first_x, 0], sigma[first_x])
        alpha = camera.pitch_urad**2 / (2.0 * math.pi * sigma[first_x] ** 2)
        rows *= alpha[:, None]
        wx_alpha = rows[inv_x]
    if previous is not None and previous.tilt[1] == tilt[1]:
        wy_rows = previous.wy_rows
    else:
        wy_rows = _gauss_rows(ay, centers_urad[first_y, 1], sigma[first_y])

    ox, oy = camera.origin_px
    lo_x, hi_x = -ox * camera.pitch_urad, (camera.width_px - 1 - ox) * camera.pitch_urad
    lo_y, hi_y = -oy * camera.pitch_urad, (camera.height_px - 1 - oy) * camera.pitch_urad
    half_px = 0.5 * camera.pitch_urad
    in_pane = (
        (centers_urad[:, 0] >= lo_x - half_px)
        & (centers_urad[:, 0] < hi_x + half_px)
        & (centers_urad[:, 1] >= lo_y - half_px)
        & (centers_urad[:, 1] < hi_y + half_px)
    )
    off_pane = ~in_pane
    wy = wy_rows[inv_y]
    wy[off_pane] = 0.0
    return PaneFactors(tilt, wy_rows, wy, wx_alpha, off_pane)


def stokes_basis(ms: ModeSet, camera: CameraGeometry) -> PaneFactors:
    return _pane_factors(ms, ms.centers_urad, camera)


def anti_stokes_basis(
    ms: ModeSet,
    theta_read_urad: Sequence[float],
    camera: CameraGeometry,
    previous: Optional[PaneFactors] = None,
) -> PaneFactors:
    """Anti-Stokes factors at one readout tilt.

    `previous`, this pane's factors at an earlier tilt, lends the factor of
    each axis whose tilt component is unchanged.
    """
    tilt = (float(theta_read_urad[0]), float(theta_read_urad[1]))
    centers = ms.anti_stokes_centers_urad(tilt)
    return _pane_factors(ms, centers, camera, tilt, previous)


def check_counts(counts: np.ndarray) -> None:
    """The one count rule: finite and non-negative (else ValueError), below 2**24 (else OverflowError).

    Unsigned integers need no minimum, and a dtype whose whole range obeys
    the rule (u16) no scan at all.
    """
    if counts.dtype.kind == "u":
        if np.iinfo(counts.dtype).max < _COUNT_LIMIT:
            return
        lo, hi = 0, (counts.max() if counts.size else 0)
    else:
        lo, hi = (counts.min(), counts.max()) if counts.size else (0, 0)  # min() is NaN if any is
    if not (lo >= 0 and hi < np.inf):
        raise ValueError("pane intensities must be finite and non-negative")
    if hi >= _COUNT_LIMIT:
        raise OverflowError(f"a count of {hi:.0f} reaches 2**24: float32 frames round it")


class _Panes:
    """`stokes` and `anti_stokes`: views of the pane axis of a (..., 2, H, W) `counts` array."""

    @property
    def stokes(self) -> np.ndarray:
        return self.counts[..., 0, :, :]

    @property
    def anti_stokes(self) -> np.ndarray:
        return self.counts[..., 1, :, :]


@dataclass(eq=False)
class Frame(_Panes):
    """One camera exposure: (2, H, W) counts, Stokes pane first as in `.rmns`, shot index and tilt."""

    counts: np.ndarray
    shot_index: int
    readout_angle_urad: tuple[float, float]

    def __post_init__(self) -> None:
        if self.counts.ndim != 3 or self.counts.shape[0] != 2:
            raise ValueError(f"frame counts must be a (2, H, W) array, got {self.counts.shape}")
        check_counts(self.counts)


def _render_with_bases(
    intensities: tuple[np.ndarray, np.ndarray],
    stokes: PaneFactors,
    anti_stokes: PaneFactors,
    shot_index: int,
    theta_read_urad: Sequence[float],
    rng: np.random.Generator,
    noise_floor: float,
) -> Frame:
    """One shot's counts: both panes' means under one Poisson draw, Stokes first."""
    panes = zip((stokes, anti_stokes), intensities)
    means = np.stack([f.wy.T @ (i[:, None] * f.wx_alpha) + noise_floor for f, i in panes])
    return Frame(
        counts=rng.poisson(means).astype(np.float32),
        shot_index=shot_index,
        readout_angle_urad=tuple(map(float, theta_read_urad)),
    )


# ---------------------------------------------------------------------------
# stacks


@dataclass(eq=False)
class FrameStack(_Panes):
    """A stack `stackio.read_stack` loads whole: (n, 2, H, W) counts, one row per frame, plus provenance."""

    counts: np.ndarray
    readout_angles_urad: np.ndarray
    camera: CameraGeometry
    seed: int
    config_checksum: int

    def __post_init__(self) -> None:
        if self.counts.ndim != 4 or self.counts.shape[1] != 2:
            raise ValueError(f"stack counts must be an (n, 2, H, W) array, got {self.counts.shape}")
        if self.readout_angles_urad.shape != (self.counts.shape[0], 2):
            raise ValueError("readout_angles_urad must be (n, 2)")

    @property
    def n_frames(self) -> int:
        return self.counts.shape[0]


def _normalize_schedule(schedule, n_frames: int) -> np.ndarray:
    """None (no tilt), one Angle2D for every frame, or an (n_frames, 2) array."""
    if schedule is None:
        return np.zeros((n_frames, 2), dtype=float)
    if isinstance(schedule, Angle2D):
        return np.tile(schedule.as_array(), (n_frames, 1))
    arr = np.asarray(schedule, dtype=float)
    if arr.shape != (n_frames, 2):
        raise ValueError(
            f"schedule must be one angle or an (n_frames, 2) array, got shape {arr.shape}"
        )
    return arr.copy()


def _usable_cores() -> int:
    """Cores this process may run on: the number of render threads, before the cap at n_frames."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity interface on this platform
        return os.cpu_count() or 1


def _take(done: queue.SimpleQueue):
    result, exc = done.get()
    if exc is not None:
        raise exc
    return result


# jobs in flight per render thread.  With one more job than threads, a helper
# that finishes before the oldest frame is collected finds no queued job, and
# none is queued while the consumer handles a frame; a deeper window keeps the
# helpers busy through both, and memory stays bounded by the window
_IN_FLIGHT_PER_THREAD = 4


def _in_order(render: Callable, jobs: Iterable[tuple], threads: int) -> Iterator:
    """Yield render(*job) for each job, in job order, computed on `threads` helper threads.

    The jobs iterator runs on the calling thread.  At most
    _IN_FLIGHT_PER_THREAD * threads jobs are in flight, so memory does not
    grow with the number of jobs.  An exception raised by `render` reaches
    the caller at its job.  The helpers stop and are joined when the
    generator finishes, fails or is closed.
    """
    tasks = queue.SimpleQueue()

    def work() -> None:
        while (task := tasks.get()) is not None:
            job, done = task
            try:
                done.put((render(*job), None))
            except BaseException as exc:  # handed to the caller, which re-raises it
                done.put((None, exc))

    # daemon: a generator dropped unclosed at interpreter exit must not hold the exit up
    helpers = [threading.Thread(target=work, name="ramanmem-render", daemon=True)
               for _ in range(threads)]
    for t in helpers:
        t.start()
    pending = deque()
    try:
        for job in jobs:
            done = queue.SimpleQueue()
            tasks.put((job, done))
            pending.append(done)
            if len(pending) >= _IN_FLIGHT_PER_THREAD * threads:
                yield _take(pending.popleft())
        while pending:
            yield _take(pending.popleft())
    finally:
        for _ in helpers:
            tasks.put(None)
        for t in helpers:
            t.join()


def iter_simulated_frames(cfg, n_frames=None, schedule=None, seed=None) -> Iterator[Frame]:
    """Generate frames one at a time, in frame order, without holding the stack in memory.

    The calling thread draws every shot in frame order (tilt factors, shot
    stream, mode intensities); the mean-field gemms and the Poisson draw run
    on one helper thread per usable core, capped at the frame count.  Frame i
    draws only from shot_rng(seed, i), so the frames do not depend on the
    number of threads.  One usable core renders on the calling thread alone.
    """
    n = int(cfg.run.n_frames if n_frames is None else n_frames)
    s = int(cfg.run.seed if seed is None else seed)
    if n < 1:
        raise ValueError("n_frames must be >= 1")
    ms = mode_set_from_config(cfg)
    rm = cfg.retrieval
    camera = cfg.camera
    sched = _normalize_schedule(schedule, n)

    stokes = stokes_basis(ms, camera)
    diffusion = _diffusion_efficiencies(ms, rm)

    def jobs() -> Iterator[tuple]:
        # only the current tilt's factors are kept (and those of the frames in
        # flight); a tilt change rebuilds the factor of each axis it moves, so
        # a drive-tone schedule on one axis shares the other axis's factor
        anti = None
        for i in range(n):
            tr = (float(sched[i, 0]), float(sched[i, 1]))
            if anti is None or tr != anti.tilt:
                anti = anti_stokes_basis(ms, tr, camera, anti)
                eta = diffusion * _aberration_rolloff(rm, tr)
            rng = shot_rng(s, i)
            intensities = sample_shot(ms, eta, rng)
            yield intensities, stokes, anti, i, tr, rng, rm.noise_floor

    threads = min(_usable_cores(), n)
    if threads == 1:
        for job in jobs():
            yield _render_with_bases(*job)
    else:
        yield from _in_order(_render_with_bases, jobs(), threads)
