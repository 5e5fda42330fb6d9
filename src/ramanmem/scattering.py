"""Stochastic synthesis of Stokes / anti-Stokes camera frames.

Model: the write process populates a square grid of angular modes inside the
scattering cone.  Each shot draws an independent exponential (single-mode
thermal) intensity per mode; retrieval returns eta_m * I_m into the conjugate
direction, where eta_m combines spin-wave diffusion damping and a readout
steering aberration roll-off.  Panes are Poisson photoelectron counts on top
of a uniform noise floor: each frame holds them as unsigned integers of one
width, u16 or u32, the `count_dtype` its stack is written in.

Randomness is per shot: shot i of a run seeded with s draws exclusively from
PCG64 seeded by the SeedSequence child with spawn key (i,) of entropy s, which
makes stacks bit-reproducible and independent of any worker scheduling.
`iter_simulated_frames`, the one render entry point, relies on that to render
frames on every usable core while handing them out in frame order.
"""

from __future__ import annotations

import math
import os
import queue
import threading
from collections import deque
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import repeat
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .geometry import (
    FWHM_PER_SIGMA,
    RAD_PER_URAD,
    Angle2D,
    BeamGeometry,
    CameraGeometry,
    bounded,
    conjugate_angles,
    require_fields_within,
)

__all__ = [
    "ModeSet",
    "ModeGridParams",
    "RetrievalModel",
    "Frame",
    "FrameStack",
    "build_mode_set",
    "mode_set_from_config",
    "check_pixel_photons",
    "pixel_count_bound",
    "count_dtype",
    "retrieval_efficiencies",
    "sample_shot",
    "iter_simulated_frames",
    "shot_rng",
]

# Upper bound on the photon scales (mean photons per mode, noise floor): a pixel's
# Poisson mean sums them, and numpy's Poisson draw fails above ~9.2e18.
PHOTON_SCALE_MAX = 1e12

# Upper bound on the mode grid: every shot draws M exponentials, and
# `ModeSet.centers_urad` and the retrieval efficiencies hold M rows.  At 1e5
# modes (~800 times the default 121) the draws alone take ~1.5 ms a shot, about
# what a whole default frame costs (one 2-core x86 host).
MODE_COUNT_MAX = 100_000


@dataclass(frozen=True, eq=False)
class ModeSet:
    """Angular mode lattice populated by the write process.

    Mode (iy, ix) sits at (x_urad[ix], y_urad[iy]) and is mode iy * nx + ix
    of every per-mode array: centers_urad, the draws of `sample_shot` and the
    efficiencies of `retrieval_efficiencies`.  Every mode has the one width
    sigma_urad and the one mean photon number mean_photons.  spot_fwhm_urad
    is the predicted width of a correlation-map spot, which for this model is
    sqrt(1 + (lambda_read/lambda_write)^2) times the single-mode intensity
    FWHM (the covariance of two carrier-scaled Gaussian profiles).

    The fields are not checked here: `build_mode_set`, the program's one
    builder, guarantees non-empty, finite, read-only axes and a positive
    finite sigma_urad.  The intervals of its `ModeGridParams` section give the
    rest: mean_photons in [0, PHOTON_SCALE_MAX] and a grid spacing of at least
    sigma_urad.
    """

    x_urad: np.ndarray
    y_urad: np.ndarray
    sigma_urad: float
    mean_photons: float
    grid_spacing_urad: float
    spot_fwhm_urad: float
    lambda_write_m: float
    lambda_read_m: float
    write_angle_urad: tuple[float, float] = (0.0, 0.0)

    @property
    def n_modes(self) -> int:
        return self.x_urad.size * self.y_urad.size

    @cached_property
    def centers_urad(self) -> np.ndarray:
        """(theta_x, theta_y) of every mode, one row per mode in mode order."""
        c = np.column_stack([np.tile(self.x_urad, self.y_urad.size),
                             np.repeat(self.y_urad, self.x_urad.size)])
        c.setflags(write=False)
        return c

    def anti_stokes_centers_urad(self, theta_read_urad: Sequence[float]) -> np.ndarray:
        """Conjugate (readout) direction of every mode for a given steering angle."""
        tw = np.asarray(self.write_angle_urad, dtype=float)
        tr = np.asarray(theta_read_urad, dtype=float)
        return conjugate_angles(tw, self.centers_urad, tr, self.lambda_write_m, self.lambda_read_m)


def build_mode_set(geom: BeamGeometry, modes: ModeGridParams) -> ModeSet:
    """Lay out the thermal mode grid of one [modes] section.

    The single-mode angular FWHM is spot_constant * lambda_write / d_eff with
    d_eff = 2 w0_write / gain_shrink.  Mode centres form a square grid of pitch
    grid_spacing_sigma * sigma covering the envelope plus grid_margin_sigma
    extra sigmas per side, so correlation spots referenced anywhere inside the
    envelope see a statistically uniform neighbourhood.  Mean photon number is
    uniform across the grid.  The section checks each of its values against its
    interval as it is built; this checks only what the values derive together.
    """
    env = np.broadcast_to(np.asarray(modes.envelope_fwhm_urad, dtype=float), (2,)).copy()
    d_eff = 2.0 * geom.w0_write_m / modes.gain_shrink  # the emitting region: the write beam shrunk by gain
    mode_fwhm_urad = modes.spot_constant * geom.lambda_write_m / d_eff / RAD_PER_URAD
    if np.any(env < mode_fwhm_urad):
        raise ValueError(
            f"envelope FWHM {env} urad smaller than one mode ({mode_fwhm_urad:g} urad)"
        )
    sigma = mode_fwhm_urad / FWHM_PER_SIGMA
    spacing = modes.grid_spacing_sigma * sigma
    if not (sigma > 0.0 and spacing < math.inf):
        raise ValueError(f"modes of {mode_fwhm_urad:g} urad FWHM spaced {spacing:g} urad apart cannot be laid out")

    half_extent = env / 2.0 + modes.grid_margin_sigma * sigma
    counts = np.floor(half_extent / spacing)
    nx, ny = (2.0 * counts + 1.0).tolist()
    if not nx * ny <= MODE_COUNT_MAX:
        raise ValueError(
            f"mode grid of {nx:g} x {ny:g} modes exceeds {MODE_COUNT_MAX} "
            f"(modes of {mode_fwhm_urad:g} urad FWHM over a {env.tolist()} urad envelope)"
        )
    x, y = (spacing * np.arange(-k, k + 1, dtype=float) for k in counts.astype(int).tolist())
    x.setflags(write=False)
    y.setflags(write=False)
    ratio = geom.lambda_read_m / geom.lambda_write_m
    return ModeSet(
        x_urad=x,
        y_urad=y,
        sigma_urad=sigma,
        mean_photons=float(modes.mean_photons_per_mode),
        grid_spacing_urad=spacing,
        spot_fwhm_urad=math.sqrt(1.0 + ratio * ratio) * mode_fwhm_urad,
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


def _peak_pixel_mean(ms: ModeSet, camera: CameraGeometry) -> float:
    """A mode's mean photons on one pixel when centred on it, mean_photons * pitch^2 / (2 pi sigma^2).

    The expression of `_pane_factors`.  Computed from pitch / sigma so that an
    overflow reads as inf, and no photons times an infinite ratio as NaN.
    """
    ratio = camera.pitch_urad / ms.sigma_urad
    return ms.mean_photons * (ratio * ratio) / (2.0 * math.pi)


def check_pixel_photons(ms: ModeSet, camera: CameraGeometry) -> None:
    """Reject a pixel so coarse for the modes that one mode's peak pixel passes PHOTON_SCALE_MAX.

    Past the bound the Poisson draw fails or the peak expression overflows;
    an overflow (inf) or a NaN peak is rejected too.
    """
    peak = _peak_pixel_mean(ms, camera)
    if not peak <= PHOTON_SCALE_MAX:
        raise ValueError(
            f"a pixel of {camera.pitch_urad:g} urad would hold {peak:g} mean photons of one "
            f"mode of {ms.sigma_urad:g} urad sigma, past {PHOTON_SCALE_MAX:g}"
        )


# an exponential (thermal) mode intensity passes THERMAL_TAIL_FACTOR times its
# mean with probability exp(-THERMAL_TAIL_FACTOR), e^-64 here
THERMAL_TAIL_FACTOR = 64


def _row_sum_bound(n: int, spacing: float, sigma: float) -> float:
    """Bound on the sum, at any point, of n Gaussian rows of peak 1 and width sigma spaced `spacing` apart.

    The sum over an infinite lattice peaks on a lattice point, where it is
    1 + 2 sum_k q^(k^2) <= (1 + q) / (1 - q) = coth(spacing^2 / (4 sigma^2))
    with q = exp(-spacing^2 / (2 sigma^2)); n rows never sum past n.
    """
    r = spacing / sigma
    t = math.tanh(r * r / 4.0)
    return float(n) if t == 0.0 else min(float(n), 1.0 / t)


def pixel_count_bound(ms: ModeSet, camera: CameraGeometry, noise_floor: float) -> float:
    """THERMAL_TAIL_FACTOR * peak-pixel mean * S_x * S_y, plus the noise floor.

    A pixel's mean is the sum over modes of I_m * peak * gx_m * gy_m, with
    gx, gy a mode's per-axis rows; S_x and S_y bound each axis's sum of rows
    (`_row_sum_bound`) on the tighter of the two panes' lattices: the
    anti-Stokes one is lambda_read / lambda_write times the Stokes pitch, and
    its twin intensities are no larger (eta <= 1).  So no pixel's Poisson
    mean passes the bound unless a mode's intensity passes
    THERMAL_TAIL_FACTOR times its mean: the width a stack's counts need.
    """
    pitch = ms.grid_spacing_urad * min(1.0, ms.lambda_read_m / ms.lambda_write_m)
    s_x, s_y = (_row_sum_bound(axis.size, pitch, ms.sigma_urad) for axis in (ms.x_urad, ms.y_urad))
    return THERMAL_TAIL_FACTOR * _peak_pixel_mean(ms, camera) * s_x * s_y + noise_floor


# the count widths a frame holds and a stack stores: u16, else u32
COUNT_DTYPES = (np.dtype("<u2"), np.dtype("<u4"))


def count_dtype(cfg) -> np.dtype:
    """The narrower of COUNT_DTYPES whose range holds cfg's `pixel_count_bound`."""
    bound = pixel_count_bound(mode_set_from_config(cfg), cfg.camera, cfg.retrieval.noise_floor)
    return COUNT_DTYPES[bound > np.iinfo(COUNT_DTYPES[0]).max]


@dataclass(frozen=True)
class ModeGridParams:
    """The [modes] section: the mode grid `build_mode_set` lays out, each value in its interval."""

    gain_shrink: float = bounded(2.0, 0.0, math.inf, "()")
    envelope_fwhm_urad: float = bounded(758.946695, 0.0, math.inf, "()")
    readout_envelope_fwhm_urad: float = bounded(536.656315, 0.0, math.inf, "()")
    mean_photons_per_mode: float = bounded(1000.0, 0.0, PHOTON_SCALE_MAX)
    spot_constant: float = bounded(0.754212, 0.0, math.inf, "()")
    # a spacing below one sigma breaks mode orthogonality
    grid_spacing_sigma: float = bounded(1.5, 1.0, math.inf)
    grid_margin_sigma: float = bounded(3.0, 0.0, math.inf)

    def __post_init__(self) -> None:
        require_fields_within(self)


@dataclass(frozen=True)
class RetrievalModel:
    """Readout efficiency model and camera noise floor.

    eta_m = eta0 * exp(-d_diff |K_m|^2 tau_storage) * A(theta_read) with
    K_m the stored transverse wavevector of mode m and
    A = exp(-|theta_read|^2 / (2 aberration_scale^2)).  The aberration scale
    must be positive with a square that does not underflow to 0; inf
    disables the roll-off, since the law then gives A = 1.0 exactly.
    """

    eta0: float = bounded(0.85, 0.0, 1.0)
    d_diff_m2_s: float = bounded(0.12, 0.0, math.inf, "[)")
    tau_storage_s: float = bounded(1.0e-6, 0.0, math.inf, "[)")
    aberration_scale_urad: float = 600.0
    noise_floor: float = bounded(2.0, 0.0, PHOTON_SCALE_MAX)

    def __post_init__(self) -> None:
        require_fields_within(self)
        scale = self.aberration_scale_urad
        if not (scale > 0.0 and 2.0 * scale * scale > 0.0):  # else the roll-off divides by 0
            raise ValueError(
                "aberration_scale_urad must be positive and not so small that its square "
                f"underflows to 0 (inf disables the roll-off), got {scale!r}"
            )


def retrieval_efficiencies(
    ms: ModeSet, rm: RetrievalModel, theta_read_urad: Sequence[float]
) -> np.ndarray:
    """Per-mode anti-Stokes/Stokes intensity ratio eta_m for one steering angle.

    The one statement of the `RetrievalModel` law: eta0 times each mode's
    diffusion damping times the aberration roll-off A(theta_read), which is
    1.0 at an infinite aberration scale.
    """
    k_mag = (
        np.linalg.norm(ms.centers_urad, axis=1)
        * (2.0 * math.pi * RAD_PER_URAD / ms.lambda_write_m)
    )
    scale = rm.aberration_scale_urad
    tr = np.asarray(theta_read_urad, dtype=float)
    rolloff = math.exp(-float(tr @ tr) / (2.0 * scale * scale))
    return rm.eta0 * np.exp(-rm.d_diff_m2_s * k_mag**2 * rm.tau_storage_s) * rolloff


def shot_rng(seed: int, shot_index: int) -> np.random.Generator:
    """Independent stream for one shot of one run: PCG64 on a SeedSequence child.

    The stream is `SeedSequence(seed).spawn(shot_index + 1)[shot_index]`,
    built directly from its spawn key, so it depends only on
    (seed, shot_index) and never on which shots were drawn before.
    """
    child = np.random.SeedSequence(seed, spawn_key=(shot_index,))
    return np.random.Generator(np.random.PCG64(child))


def sample_shot(
    ms: ModeSet, eta: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw one shot of per-mode intensities (photons).

    Returns (I_stokes, I_anti_stokes).  Stokes intensities are independent
    exponentials; the retrieved intensity is the deterministic fraction
    eta_m of its twin (`retrieval_efficiencies` at the shot's readout tilt),
    so with eta == 1 the pair is exactly equal.
    """
    i_s = rng.exponential(ms.mean_photons, ms.n_modes)
    return i_s, eta * i_s


# ---------------------------------------------------------------------------
# rendering


@dataclass(frozen=True, eq=False)
class PaneFactors:
    """One pane's pixel deposit patterns, as per-axis rows of the mode lattice.

    Mode (iy, ix) deposits outer(wy[iy], wx[ix]): wy is (ny, H), and wx
    (nx, W) carries the area normalisation, so a pattern integrates to ~1
    over an unbounded pane.  Every mode deposits whatever its Gaussian puts
    on the pane, wherever its centre lies: a mode centred past an edge
    still leaves its tail there.
    """

    wy: np.ndarray
    wx: np.ndarray


def _gauss_rows(axis: np.ndarray, centers: np.ndarray, sigma: float) -> np.ndarray:
    """exp(-(axis - c)^2 / (2 sigma^2)), one row per centre c, built in place in one buffer."""
    w = axis[None, :] - centers[:, None]
    w /= sigma
    w **= 2
    w *= -0.5
    return np.exp(w, out=w)


def _pane_factors(ms: ModeSet, x_urad: np.ndarray, y_urad: np.ndarray, camera: CameraGeometry) -> PaneFactors:
    """Factors of the mode lattice whose axes sit at x_urad and y_urad on the pane: one row per axis entry."""
    sigma = ms.sigma_urad
    ax, ay = camera.pixel_angle_axes()
    wx = _gauss_rows(ax, x_urad, sigma)
    # peak-normalised per axis; the x rows carry the area normalisation
    wx *= camera.pitch_urad**2 / (2.0 * math.pi * (sigma * sigma))
    return PaneFactors(wy=_gauss_rows(ay, y_urad, sigma), wx=wx)


def stokes_basis(ms: ModeSet, camera: CameraGeometry) -> PaneFactors:
    return _pane_factors(ms, ms.x_urad, ms.y_urad, camera)


def anti_stokes_basis(ms: ModeSet, theta_read_urad: Sequence[float], camera: CameraGeometry) -> PaneFactors:
    """Anti-Stokes factors at one readout tilt: the conjugate law moves each lattice axis on its own."""
    x, y = (
        conjugate_angles(tw, axis, tr, ms.lambda_write_m, ms.lambda_read_m)
        for tw, axis, tr in zip(ms.write_angle_urad, (ms.x_urad, ms.y_urad), theta_read_urad)
    )
    return _pane_factors(ms, x, y, camera)


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
    """One camera exposure: (2, H, W) u16 or u32 counts, Stokes pane first as in `.rmns`, shot index and tilt."""

    counts: np.ndarray
    shot_index: int
    readout_angle_urad: tuple[float, float]


def _render_with_bases(
    intensities: tuple[np.ndarray, np.ndarray],
    stokes: PaneFactors,
    anti_stokes: PaneFactors,
    shot_index: int,
    theta_read_urad: tuple[float, float],
    rng: np.random.Generator,
    noise_floor: float,
    counts_dtype: np.dtype,
) -> Frame:
    """One shot's counts from its per-mode intensities: both panes' means under one Poisson draw, Stokes first.

    Each pane's intensities, in mode order, reshape to the (ny, nx) grid of
    its factor rows.  The counts are cast to counts_dtype; one past its range
    raises OverflowError, never wraps.
    """
    panes = zip((stokes, anti_stokes), intensities)
    means = np.stack([f.wy.T @ i.reshape(len(f.wy), len(f.wx)) @ f.wx + noise_floor for f, i in panes])
    counts = rng.poisson(means)
    top = counts.max()
    if top > np.iinfo(counts_dtype).max:
        raise OverflowError(f"a count of {top} does not fit the stack's {counts_dtype.name} counts")
    return Frame(
        counts=counts.astype(counts_dtype),
        shot_index=shot_index,
        readout_angle_urad=theta_read_urad,
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

    @property
    def n_frames(self) -> int:
        return self.counts.shape[0]


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

# bytes of tilt factors (anti-Stokes rows and efficiencies) one run keeps for
# revisited tilts.  A run keeps at least one tilt's, however large; at the
# default pane the budget holds 58 tilts
_TILT_CACHE_BYTES = 2**20


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


def iter_simulated_frames(cfg, schedule=None) -> Iterator[Frame]:
    """Generate cfg.run's frames one at a time, in frame order, without holding the stack in memory.

    `schedule` gives the readout tilts: None (no tilt) or one Angle2D, held as
    one (x, y) float pair for every frame, else one (x, y) row per frame,
    checked against cfg.run.n_frames here, before the first frame renders,
    and turned into a float pair as its frame is drawn.

    The calling thread draws every shot in frame order (tilt factors, shot
    stream, per-mode intensities); the two gemms of each pane's mean,
    wy.T @ grid @ wx with grid the intensities as the (ny, nx) lattice, and
    the Poisson draw run on one helper thread per usable core, capped at the
    frame count, so one usable core gets one helper.  Every frame holds its
    counts in `count_dtype(cfg)`, the width of its stack.  The run fixes the
    frame count and the seed: frame i draws only from shot_rng(cfg.run.seed,
    i), so the frames do not depend on the number of threads.

    Each tilt's factors are built once per run and kept in a least recently
    used cache of at most _TILT_CACHE_BYTES (or one tilt, if its factors are
    larger), so a schedule that revisits its drive tones builds each tone's
    rows once and memory does not grow with the schedule.  The cache lives
    as long as the generator.
    """
    n, s = cfg.run.n_frames, cfg.run.seed
    if schedule is None or isinstance(schedule, Angle2D):
        x, y = (0.0, 0.0) if schedule is None else (schedule.theta_x, schedule.theta_y)
        tilts = repeat((float(x), float(y)), n)
    else:
        if len(schedule) != n:
            raise ValueError(f"schedule has {len(schedule)} rows but the run asks for {n} frames")
        rows = np.array(schedule, dtype=float)  # a copy: the caller cannot move a tilt mid-run
        if rows.shape != (n, 2):
            raise ValueError(f"schedule rows must be (x, y) pairs, got an array of shape {rows.shape}")
        tilts = (tuple(row.tolist()) for row in rows)  # a pair as each frame is drawn: no tuple per row held
    ms = mode_set_from_config(cfg)
    rm = cfg.retrieval
    camera = cfg.camera

    stokes = stokes_basis(ms, camera)
    counts_dtype = count_dtype(cfg)

    # one cached tilt holds its anti-Stokes rows, the same shapes as the
    # Stokes pane's, and one float64 efficiency per mode
    tilt_bytes = stokes.wy.nbytes + stokes.wx.nbytes + 8 * ms.n_modes

    @lru_cache(maxsize=max(1, _TILT_CACHE_BYTES // tilt_bytes))
    def tilt_factors(tr: tuple[float, float]) -> tuple[PaneFactors, np.ndarray]:
        return anti_stokes_basis(ms, tr, camera), retrieval_efficiencies(ms, rm, tr)

    def jobs() -> Iterator[tuple]:
        # a revisited tilt reuses its factors; a miss builds them here, on the calling thread.
        # The tilts are Python floats: -0.0 and 0.0 compare equal, so they share a key
        for i, tr in enumerate(tilts):
            anti, eta = tilt_factors(tr)
            rng = shot_rng(s, i)
            yield sample_shot(ms, eta, rng), stokes, anti, i, tr, rng, rm.noise_floor, counts_dtype

    return _in_order(_render_with_bases, jobs(), min(_usable_cores(), n))
