"""Stochastic synthesis of Stokes / anti-Stokes camera frames.

Model: the write process populates a square grid of angular modes inside the
scattering cone.  Each shot draws an independent exponential (single-mode
thermal) intensity per mode; retrieval returns eta_m * I_m into the conjugate
direction, where eta_m combines spin-wave diffusion damping and a readout
steering aberration roll-off.  Panes are Poisson photoelectron counts on top
of a uniform noise floor, so every rendered pixel is integer valued.

Randomness is counter based: shot i of a run seeded with s draws exclusively
from Philox streamed with key (s, i), which makes stacks bit-reproducible and
independent of any worker scheduling.  `iter_simulated_frames` relies on that
to render frames on every usable core while handing them out in frame order.
"""

from __future__ import annotations

import math
import os
import queue
import threading
from collections import deque
from dataclasses import dataclass
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
    "RetrievalModel",
    "Frame",
    "FrameStack",
    "effective_source_diameter_m",
    "build_mode_set",
    "mode_set_from_config",
    "retrieval_efficiencies",
    "sample_shot",
    "render_frame",
    "iter_simulated_frames",
    "simulate_stack",
    "shot_rng",
]


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


def build_mode_set(
    geom: BeamGeometry,
    gain_shrink: float,
    envelope_fwhm_urad,
    mean_photons_per_mode: float,
    spot_constant: float = 0.754212,
    grid_spacing_sigma: float = 1.5,
    grid_margin_sigma: float = 3.0,
    write_angle_urad: tuple[float, float] = (0.0, 0.0),
) -> ModeSet:
    """Lay out the thermal mode grid for one experiment configuration.

    The single-mode angular FWHM is spot_constant * lambda_write / d_eff with
    d_eff = 2 w0_write / gain_shrink.  Mode centres form a square grid of pitch
    grid_spacing_sigma * sigma covering the envelope plus grid_margin_sigma
    extra sigmas per side, so correlation spots referenced anywhere inside the
    envelope see a statistically uniform neighbourhood.  Mean photon number is
    uniform across the grid.
    """
    env = np.broadcast_to(np.asarray(envelope_fwhm_urad, dtype=float), (2,)).copy()
    if np.any(~np.isfinite(env)) or np.any(env <= 0.0):
        raise ValueError(f"envelope FWHM must be positive, got {envelope_fwhm_urad!r}")
    if not (mean_photons_per_mode >= 0.0 and math.isfinite(mean_photons_per_mode)):
        raise ValueError(f"mean photons per mode must be >= 0, got {mean_photons_per_mode!r}")
    if not (spot_constant > 0.0 and math.isfinite(spot_constant)):
        raise ValueError(f"spot_constant must be positive, got {spot_constant!r}")
    if grid_spacing_sigma < 1.0:
        raise ValueError("grid_spacing_sigma below 1 breaks mode orthogonality")
    if grid_margin_sigma < 0.0:
        raise ValueError("grid_margin_sigma must be >= 0")

    d_eff = effective_source_diameter_m(geom, gain_shrink)
    mode_fwhm_urad = spot_constant * geom.lambda_write_m / d_eff / RAD_PER_URAD
    if np.any(env < mode_fwhm_urad):
        raise ValueError(
            f"envelope FWHM {env} urad smaller than one mode ({mode_fwhm_urad:g} urad)"
        )
    sigma = mode_fwhm_urad / FWHM_PER_SIGMA
    spacing = grid_spacing_sigma * sigma

    half_extent = env / 2.0 + grid_margin_sigma * sigma
    counts = np.floor(half_extent / spacing).astype(int)
    xs = spacing * np.arange(-counts[0], counts[0] + 1, dtype=float)
    ys = spacing * np.arange(-counts[1], counts[1] + 1, dtype=float)
    gx, gy = np.meshgrid(xs, ys, indexing="xy")
    centers = np.column_stack([gx.ravel(), gy.ravel()])
    centers += np.asarray(write_angle_urad, dtype=float)

    n = centers.shape[0]
    ratio = geom.lambda_read_m / geom.lambda_write_m
    spot_fwhm = math.sqrt(1.0 + ratio * ratio) * mode_fwhm_urad
    return ModeSet(
        centers_urad=centers,
        mean_photons=np.full(n, float(mean_photons_per_mode)),
        sigma_urad=np.full(n, sigma),
        grid_spacing_urad=spacing,
        envelope_fwhm_urad=(float(env[0]), float(env[1])),
        spot_fwhm_urad=spot_fwhm,
        lambda_write_m=geom.lambda_write_m,
        lambda_read_m=geom.lambda_read_m,
        write_angle_urad=(float(write_angle_urad[0]), float(write_angle_urad[1])),
    )


def mode_set_from_config(cfg) -> ModeSet:
    """Assemble the default ModeSet of an ExperimentConfig."""
    mp = cfg.modes
    return build_mode_set(
        cfg.geometry,
        mp.gain_shrink,
        mp.envelope_fwhm_urad,
        mp.mean_photons_per_mode,
        spot_constant=mp.spot_constant,
        grid_spacing_sigma=mp.grid_spacing_sigma,
        grid_margin_sigma=mp.grid_margin_sigma,
    )


@dataclass(frozen=True)
class RetrievalModel:
    """Readout efficiency model and camera noise floor.

    eta_m = eta0 * exp(-d_diff |K_m|^2 tau_storage) * A(theta_read) with
    K_m the stored transverse wavevector of mode m and
    A = exp(-|theta_read|^2 / (2 aberration_scale^2)); a non-positive or
    infinite aberration scale disables the roll-off.
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
        if self.noise_floor < 0.0 or not math.isfinite(self.noise_floor):
            raise ValueError(f"noise_floor must be >= 0, got {self.noise_floor!r}")


def retrieval_efficiencies(
    ms: ModeSet, rm: RetrievalModel, theta_read_urad: Sequence[float]
) -> np.ndarray:
    """Per-mode anti-Stokes/Stokes intensity ratio for one steering angle."""
    tr = np.asarray(theta_read_urad, dtype=float)
    k_mag = (
        np.linalg.norm(ms.centers_urad, axis=1)
        * (2.0 * math.pi * RAD_PER_URAD / ms.lambda_write_m)
    )
    eta = rm.eta0 * np.exp(-rm.d_diff_m2_s * k_mag**2 * rm.tau_storage_s)
    scale = rm.aberration_scale_urad
    if scale > 0.0 and math.isfinite(scale):
        eta = eta * math.exp(-float(tr @ tr) / (2.0 * scale * scale))
    return eta


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


def _separable_basis(
    centers_urad: np.ndarray, sigma_urad: np.ndarray, camera: CameraGeometry
) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """Per-mode pixel deposit patterns on one pane, as per-axis factors.

    Returns ((wy, wx_alpha), in_pane).  Mode m deposits the (H, W) pattern
    outer(wy[m], wx_alpha[m]), which integrates to ~1 over an unbounded pane;
    the (M, H, W) stack of patterns is never built.  in_pane[m] flags modes
    whose centre lands on the pane.  Off-pane modes get all-zero rows; the
    caller accounts for their energy separately.
    """
    ax, ay = camera.pixel_angle_axes()
    cx = centers_urad[:, 0][:, None]
    cy = centers_urad[:, 1][:, None]
    sig = sigma_urad[:, None]
    # separable Gaussian, peak-normalised per axis, area-normalised overall.
    # Each factor is built in place in one buffer: the calling thread rebuilds
    # the anti-Stokes factors at every new tilt while frames render elsewhere
    def gauss(axis, c):
        w = axis[None, :] - c
        w /= sig
        w **= 2
        w *= -0.5
        return np.exp(w, out=w)

    wx_alpha = gauss(ax, cx)
    wy = gauss(ay, cy)
    alpha = camera.pitch_urad**2 / (2.0 * math.pi * sigma_urad**2)
    wx_alpha *= alpha[:, None]

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
    wy[~in_pane] = 0.0
    wx_alpha[~in_pane] = 0.0
    return (wy, wx_alpha), in_pane


def stokes_basis(
    ms: ModeSet, camera: CameraGeometry
) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    return _separable_basis(ms.centers_urad, ms.sigma_urad, camera)


def anti_stokes_basis(
    ms: ModeSet, theta_read_urad: Sequence[float], camera: CameraGeometry
) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    centers = ms.anti_stokes_centers_urad(theta_read_urad)
    return _separable_basis(centers, ms.sigma_urad, camera)


@dataclass(eq=False)
class Frame:
    """One camera exposure: two photon-count panes plus shot bookkeeping.

    Energy metadata is populated by the renderer; frames re-read from disk
    carry None there.
    """

    stokes: np.ndarray
    anti_stokes: np.ndarray
    shot_index: int
    readout_angle_urad: tuple[float, float]
    budget_stokes: Optional[float] = None
    budget_anti_stokes: Optional[float] = None
    clipped_stokes: Optional[float] = None
    clipped_anti_stokes: Optional[float] = None
    n_clipped_modes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.stokes.shape != self.anti_stokes.shape or self.stokes.ndim != 2:
            raise ValueError("panes must be two 2-d arrays of equal shape")
        if np.any(self.stokes < 0) or np.any(self.anti_stokes < 0):
            raise ValueError("pane intensities must be non-negative")


def _render_with_bases(
    intensities: tuple[np.ndarray, np.ndarray],
    bases: tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
    masks: tuple[np.ndarray, np.ndarray],
    shot_index: int,
    theta_read_urad: Sequence[float],
    rng: np.random.Generator,
    noise_floor: float,
) -> Frame:
    i_s, i_as = intensities
    (wy_s, wxa_s), (wy_a, wxa_a) = bases
    mean_s = wy_s.T @ (i_s[:, None] * wxa_s) + noise_floor
    mean_a = wy_a.T @ (i_as[:, None] * wxa_a) + noise_floor
    # one pane after the other: the same draws as one call on both panes stacked
    counts_s = rng.poisson(mean_s)
    counts_a = rng.poisson(mean_a)
    tr = np.asarray(theta_read_urad, dtype=float)
    n_clip = int(np.sum(~masks[0]) + np.sum(~masks[1]))
    return Frame(
        stokes=counts_s.astype(np.float32),
        anti_stokes=counts_a.astype(np.float32),
        shot_index=shot_index,
        readout_angle_urad=(float(tr[0]), float(tr[1])),
        budget_stokes=float(np.sum(i_s)),
        budget_anti_stokes=float(np.sum(i_as)),
        clipped_stokes=float(np.sum(i_s[~masks[0]])),
        clipped_anti_stokes=float(np.sum(i_as[~masks[1]])),
        n_clipped_modes=n_clip,
    )


def render_frame(
    intensities: tuple[np.ndarray, np.ndarray],
    ms: ModeSet,
    theta_read_urad: Sequence[float],
    camera: CameraGeometry,
    rng: np.random.Generator,
    noise_floor: float = 0.0,
    shot_index: int = 0,
) -> Frame:
    """Render one shot onto the two panes and Poisson sample the counts.

    Modes whose centre falls off a pane are clipped from that pane; their
    energy is recorded on the frame rather than silently lost.
    """
    i_s, i_as = (np.asarray(a, dtype=float) for a in intensities)
    if i_s.shape != (ms.n_modes,) or i_as.shape != (ms.n_modes,):
        raise ValueError("intensities must be two (M,) vectors matching the mode set")
    if np.any(i_s < 0) or np.any(i_as < 0):
        raise ValueError("mode intensities must be non-negative")
    b_s, m_s = stokes_basis(ms, camera)
    b_a, m_a = anti_stokes_basis(ms, theta_read_urad, camera)
    return _render_with_bases(
        (i_s, i_as), (b_s, b_a), (m_s, m_a), shot_index, theta_read_urad, rng, noise_floor
    )


# ---------------------------------------------------------------------------
# stacks


@dataclass(eq=False)
class FrameStack:
    """A simulated (or re-loaded) run: frame arrays plus provenance."""

    stokes: np.ndarray
    anti_stokes: np.ndarray
    readout_angles_urad: np.ndarray
    camera: CameraGeometry
    seed: int
    config_checksum: int

    def __post_init__(self) -> None:
        if self.stokes.shape != self.anti_stokes.shape or self.stokes.ndim != 3:
            raise ValueError("stack panes must be (n, H, W) arrays of equal shape")
        if self.readout_angles_urad.shape != (self.stokes.shape[0], 2):
            raise ValueError("readout_angles_urad must be (n, 2)")

    @property
    def n_frames(self) -> int:
        return self.stokes.shape[0]

    def frame(self, i: int) -> Frame:
        return Frame(
            stokes=self.stokes[i],
            anti_stokes=self.anti_stokes[i],
            shot_index=i,
            readout_angle_urad=tuple(self.readout_angles_urad[i]),
        )

    def __len__(self) -> int:
        return self.n_frames

    def __iter__(self) -> Iterator[Frame]:
        for i in range(self.n_frames):
            yield self.frame(i)


def _normalize_schedule(schedule, n_frames: int) -> np.ndarray:
    if schedule is None:
        return np.zeros((n_frames, 2), dtype=float)
    if isinstance(schedule, Angle2D):
        return np.tile(schedule.as_array(), (n_frames, 1))
    arr = np.asarray(
        [a.as_array() if isinstance(a, Angle2D) else a for a in np.atleast_1d(schedule)]
        if not isinstance(schedule, np.ndarray)
        else schedule,
        dtype=float,
    )
    if arr.shape == (2,):
        return np.tile(arr, (n_frames, 1))
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


def _in_order(render: Callable, jobs: Iterable[tuple], threads: int) -> Iterator:
    """Yield render(*job) for each job, in job order, computed on `threads` helper threads.

    The jobs iterator runs on the calling thread.  At most threads + 1 jobs
    are in flight, so memory does not grow with the number of jobs.  An
    exception raised by `render` reaches the caller at its job.  The helpers
    stop and are joined when the generator finishes, fails or is closed.
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
            if len(pending) > threads:
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

    b_s, m_s = stokes_basis(ms, camera)

    def jobs() -> Iterator[tuple]:
        # only the current tilt's factors are kept (and those of the frames in
        # flight): a schedule whose every frame has its own tilt rebuilds them
        # (M * (H + W) exponentials) each frame
        tr_built = None
        for i in range(n):
            tr = (float(sched[i, 0]), float(sched[i, 1]))
            if tr != tr_built:
                b_a, m_a = anti_stokes_basis(ms, tr, camera)
                eta = retrieval_efficiencies(ms, rm, tr)
                tr_built = tr
            rng = shot_rng(s, i)
            intensities = sample_shot(ms, eta, rng)
            yield intensities, (b_s, b_a), (m_s, m_a), i, tr, rng, rm.noise_floor

    threads = min(_usable_cores(), n)
    if threads == 1:
        for job in jobs():
            yield _render_with_bases(*job)
    else:
        yield from _in_order(_render_with_bases, jobs(), threads)


def simulate_stack(cfg, n_frames=None, schedule=None, seed=None) -> FrameStack:
    """Simulate a full run and return it as an in-memory FrameStack."""
    n = int(cfg.run.n_frames if n_frames is None else n_frames)
    s = int(cfg.run.seed if seed is None else seed)
    camera = cfg.camera
    stokes = np.empty((n, camera.height_px, camera.width_px), dtype=np.float32)
    anti = np.empty_like(stokes)
    angles = np.empty((n, 2), dtype=float)
    for frame in iter_simulated_frames(cfg, n, schedule, s):
        stokes[frame.shot_index] = frame.stokes
        anti[frame.shot_index] = frame.anti_stokes
        angles[frame.shot_index] = frame.readout_angle_urad
    return FrameStack(
        stokes=stokes,
        anti_stokes=anti,
        readout_angles_urad=angles,
        camera=camera,
        seed=s,
        config_checksum=cfg.checksum(),
    )
