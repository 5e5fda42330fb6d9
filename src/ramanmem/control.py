"""Readout steering and heralded single-photon routing.

Steering: given a Stokes reference direction and a wanted anti-Stokes target,
solve the wavevector balance for the readout tilt and translate it into an
AOD drive tone.  Requests outside the drive band come back flagged (with the
best clamped command) instead of raising, so batch runs can report them row
by row.

Herald: Monte Carlo of the thermally seeded multimode source with a feedback
switch, against closed-form checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import (
    Angle2D,
    BeamGeometry,
    OpticalChain,
    aod_chain_angle,
    conjugate_angles,
    drive_frequency_for,
    phase_match,
)
from .scattering import shot_rng

__all__ = [
    "SteeringCommand",
    "FeasibleRegion",
    "HeraldConfig",
    "HeraldStats",
    "compensating_readout",
    "feasible_region",
    "herald_probability",
    "multi_given_herald_exact",
    "run_herald_protocol",
    "load_schedule",
    "save_schedule",
]

# tolerance (urad) for readout components the chain cannot actuate; these must
# already be satisfied by the Stokes reference geometry
OFF_AXIS_TOL_URAD = 1e-3


@dataclass(frozen=True)
class SteeringCommand:
    """One solved readout setting.

    theta_read is the tilt the command actually realises (after any band
    clamp), expected_theta_as is where the twin spot will land under it.  For
    a reachable command expected_theta_as equals the requested target exactly.
    """

    theta_read: Angle2D
    drive_freq_hz: float
    expected_theta_as: Angle2D
    reachable: bool
    note: str = ""


def _deflection_band_urad(chain: OpticalChain) -> tuple[float, float]:
    """Reachable readout tilts (urad) relative to the base tone.

    Computed straight from the band edges so unbounded chains come out as
    (-inf, inf) rather than tripping over inf - inf.
    """
    slope = chain.cell_slope_rad_per_hz / 1e-6
    return (
        (chain.freq_min_hz - chain.base_freq_hz) * slope,
        (chain.freq_max_hz - chain.base_freq_hz) * slope,
    )


def _required_readout(
    theta_s: Angle2D, theta_w: Angle2D, target_as: Angle2D, geom: BeamGeometry
) -> Angle2D:
    """Readout tilt (urad) whose conjugate of theta_s lands on target_as.

    The conjugate law is theta_r plus a term free of theta_r, so the tilt is
    the target minus the law evaluated at zero readout.
    """
    shift = conjugate_angles(
        theta_w.as_array(), theta_s.as_array(), np.zeros(2), geom.lambda_write_m, geom.lambda_read_m
    )
    return Angle2D.from_array(target_as.as_array() - shift)


def compensating_readout(
    theta_s: Angle2D,
    theta_w: Angle2D,
    target_as: Angle2D,
    chain: OpticalChain,
    geom: BeamGeometry,
) -> SteeringCommand:
    """Readout command that parks the twin of theta_s onto target_as.

    The drive tone encodes the component along the chain's primary steering
    axis.  A command is unreachable when the required tilt leaves the AOD band
    on a steered axis, or needs a component the chain cannot actuate at all;
    in both cases the returned command carries the clamped best effort.
    """
    required = _required_readout(theta_s, theta_w, target_as, geom)
    req = {"x": required.theta_x, "y": required.theta_y}

    lo, hi = _deflection_band_urad(chain)

    realized = {"x": 0.0, "y": 0.0}
    reachable = True
    notes = []
    for axis in ("x", "y"):
        want = req[axis]
        if axis in chain.steer_axes:
            got = min(max(want, lo), hi)
            if got != want:
                reachable = False
                notes.append(f"{axis} deflection {want:.3f} urad outside span [{lo:.3f}, {hi:.3f}]")
            realized[axis] = got
        else:
            realized[axis] = 0.0
            if abs(want) > OFF_AXIS_TOL_URAD:
                reachable = False
                notes.append(f"{axis} component {want:.3f} urad not steerable by this chain")

    primary = chain.steer_axes[0]
    freq = drive_frequency_for(realized[primary], chain)
    theta_read = Angle2D(realized["x"], realized["y"])
    expected = phase_match(theta_w, theta_s, theta_read, geom)
    return SteeringCommand(
        theta_read=theta_read,
        drive_freq_hz=freq,
        expected_theta_as=expected,
        reachable=reachable,
        note="; ".join(notes),
    )


@dataclass(frozen=True)
class FeasibleRegion:
    """Axis-aligned description of the Stokes directions a target can serve.

    Steered axes get a real interval; non-steered axes collapse to the single
    compatible value (within the actuation tolerance).
    """

    x_urad: tuple[float, float]
    y_urad: tuple[float, float]

    def contains(self, theta_s: Angle2D) -> bool:
        return (
            self.x_urad[0] <= theta_s.theta_x <= self.x_urad[1]
            and self.y_urad[0] <= theta_s.theta_y <= self.y_urad[1]
        )

    def diameter_urad(self, axis: str) -> float:
        lo, hi = self.x_urad if axis == "x" else self.y_urad
        return hi - lo

    @property
    def is_everything(self) -> bool:
        return all(
            math.isinf(v) for v in (*self.x_urad, *self.y_urad)
        )

    @property
    def is_point(self) -> bool:
        return self.x_urad[0] == self.x_urad[1] and self.y_urad[0] == self.y_urad[1]


def feasible_region(
    chain: OpticalChain,
    geom: BeamGeometry,
    theta_w: Angle2D,
    target_as: Angle2D,
) -> FeasibleRegion:
    """Set of Stokes directions whose twin can be steered onto target_as.

    Solving theta_r = target - (lr/lw)(theta_w - theta_s) for theta_s, each
    steered axis contributes an interval of width span * lambda_write /
    lambda_read; a non-steered axis pins theta_s to one value.
    """
    ratio = geom.lambda_read_m / geom.lambda_write_m
    lo_defl, hi_defl = _deflection_band_urad(chain)

    intervals = {}
    for axis, t_w, t_t in (
        ("x", theta_w.theta_x, target_as.theta_x),
        ("y", theta_w.theta_y, target_as.theta_y),
    ):
        # theta_s = theta_w + (theta_r - target)/ratio, theta_r in [lo, hi]
        center = t_w - t_t / ratio
        if axis in chain.steer_axes:
            a = center + lo_defl / ratio
            b = center + hi_defl / ratio
        else:
            a = center - OFF_AXIS_TOL_URAD
            b = center + OFF_AXIS_TOL_URAD
        intervals[axis] = (min(a, b), max(a, b))
    return FeasibleRegion(x_urad=intervals["x"], y_urad=intervals["y"])


# ---------------------------------------------------------------------------
# heralded routing


@dataclass(frozen=True)
class HeraldConfig:
    """Multimode heralded source with a routing switch.

    zeta is the mean thermal excitation number per mode and p the per-mode
    probability of at least one excitation; they are locked together by
    p = zeta / (1 + zeta).  Supply either (or both, consistently).
    """

    modes: int
    zeta: Optional[float] = None
    p: Optional[float] = None
    eta_retrieve: float = 1.0
    eta_detect: float = 1.0
    switch_latency_s: float = 0.0
    memory_lifetime_s: float = math.inf

    def __post_init__(self) -> None:
        if self.modes < 1:
            raise ValueError(f"mode count must be >= 1, got {self.modes!r}")
        zeta, p = self.zeta, self.p
        if zeta is None and p is None:
            raise ValueError("need zeta or p")
        if zeta is None:
            if not (0.0 <= p < 1.0):
                raise ValueError(f"p must lie in [0, 1), got {p!r}")
            zeta = p / (1.0 - p)
        elif p is None:
            if zeta < 0.0 or not math.isfinite(zeta):
                raise ValueError(f"zeta must be >= 0, got {zeta!r}")
            p = zeta / (1.0 + zeta)
        else:
            if abs(p - zeta / (1.0 + zeta)) > 1e-12 * max(1.0, abs(p)):
                raise ValueError(
                    f"inconsistent pair: p={p!r} vs zeta/(1+zeta)={zeta / (1.0 + zeta)!r}"
                )
        object.__setattr__(self, "zeta", float(zeta))
        object.__setattr__(self, "p", float(p))
        for name in ("eta_retrieve", "eta_detect"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {v!r}")
        if self.switch_latency_s < 0.0:
            raise ValueError("switch latency must be >= 0")
        if self.memory_lifetime_s <= 0.0:
            raise ValueError("memory lifetime must be positive")


@dataclass(frozen=True)
class HeraldStats:
    shots: int
    heralds: int
    routed_successes: int
    multi_excitation_events: int
    success_prob: float
    multi_given_herald: float

    def __post_init__(self) -> None:
        if not (0 <= self.heralds <= self.shots):
            raise ValueError("herald count out of range")
        if not (0 <= self.routed_successes <= self.heralds):
            raise ValueError("success count out of range")
        if not (0 <= self.multi_excitation_events <= self.heralds):
            raise ValueError("multi-excitation count out of range")
        for v in (self.success_prob, self.multi_given_herald):
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"probabilities must lie in [0, 1], got {v!r}")


def herald_probability(modes: int, p: float) -> float:
    """Probability that at least one of `modes` independent modes fires."""
    if modes < 1 or not (0.0 <= p <= 1.0):
        raise ValueError("need modes >= 1 and p in [0, 1]")
    return 1.0 - (1.0 - p) ** modes


def multi_given_herald_exact(zeta: float, eta_detect: float = 1.0) -> float:
    """P(routed mode held >= 2 excitations | it produced a detection).

    For thermal P(n) = zeta^n / (1+zeta)^(n+1) and per-excitation detection
    efficiency eta_detect this is 1 - (1 + zeta*eta_detect) / (1+zeta)^2,
    which reduces to zeta / (1 + zeta) at unit efficiency.
    """
    if zeta < 0.0 or not (0.0 < eta_detect <= 1.0):
        raise ValueError("need zeta >= 0 and eta_detect in (0, 1]")
    if zeta == 0.0:
        return 0.0
    return 1.0 - (1.0 + zeta * eta_detect) / (1.0 + zeta) ** 2


def run_herald_protocol(
    cfg: HeraldConfig, shots: int, seed: int, chunk_size: int = 8192
) -> HeraldStats:
    """Monte Carlo of herald / route / retrieve over independent shots.

    Each mode holds a thermal excitation number; detection thins it by
    eta_detect, the switch routes the lowest-index mode with a detection, and
    a success is at least one retrieved photon from the routed mode.  A switch
    slower than the memory lifetime voids every success but leaves the herald
    statistics untouched.

    The modes are i.i.d., so a shot needs no per-mode draws.  With
    q = zeta*eta_detect / (1 + zeta*eta_detect) the per-mode chance of a
    detection, the first firing mode is K ~ Geometric(q) and the shot heralds
    iff K <= modes.  The routed mode's detected count is then
    D ~ Geometric(1 - q) (the thermal law given D >= 1), its undetected count
    U ~ NegBinomial(D + 1, 1 - s(1 - eta_detect)) with s = zeta / (1 + zeta),
    and its excitation number n = D + U.  Cost is O(shots) and memory
    O(chunk_size), whatever the mode count.

    Chunks of chunk_size shots draw from counter-based streams keyed by
    (seed, chunk index), so results depend on (seed, chunk_size); chunk_size
    sets only that partition and the memory held at once.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")

    zeta_d = cfg.zeta * cfg.eta_detect
    q = zeta_d / (1.0 + zeta_d)
    undetected_p = 1.0 - cfg.p * (1.0 - cfg.eta_detect)
    switch_dead = cfg.switch_latency_s > cfg.memory_lifetime_s
    heralds = successes = multis = 0

    # q == 0 (no excitation or a blind detector) never heralds; geometric(0) raises
    n_chunks = (shots + chunk_size - 1) // chunk_size if q > 0.0 else 0
    for chunk in range(n_chunks):
        size = min(chunk_size, shots - chunk * chunk_size)
        rng = shot_rng(seed, chunk)
        n_heralded = int(np.count_nonzero(rng.geometric(q, size) <= cfg.modes))
        heralds += n_heralded
        n_exc = rng.geometric(1.0 - q, n_heralded)
        if cfg.eta_detect < 1.0:
            n_exc += rng.negative_binomial(n_exc + 1, undetected_p)
        multis += int(np.count_nonzero(n_exc >= 2))
        if not switch_dead:
            successes += int(np.count_nonzero(rng.binomial(n_exc, cfg.eta_retrieve)))

    return HeraldStats(
        shots=shots,
        heralds=heralds,
        routed_successes=successes,
        multi_excitation_events=multis,
        success_prob=successes / shots,
        multi_given_herald=(multis / heralds) if heralds else 0.0,
    )


# ---------------------------------------------------------------------------
# file formats


def save_schedule(path, schedule_urad: np.ndarray) -> None:
    """Write a per-shot readout schedule as CSV (angles in urad)."""
    arr = np.asarray(schedule_urad, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("schedule must be an (n, 2) array")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("shot,theta_read_x_urad,theta_read_y_urad\n")
        for i, (tx, ty) in enumerate(arr):
            fh.write(f"{i},{float(tx)!r},{float(ty)!r}\n")


def load_schedule(path, chain: Optional[OpticalChain] = None) -> np.ndarray:
    """Read a schedule CSV; drive_freq_hz rows need the chain to convert."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    if any(len(r) != len(header) for r in rows):
        raise ValueError(f"every schedule row needs {len(header)} cells, one per header column")
    cols = {name: idx for idx, name in enumerate(header)}
    if "theta_read_x_urad" in cols and "theta_read_y_urad" in cols:
        # Angle2D rejects NaN, infinite and super-paraxial tilts
        angles = [
            Angle2D(float(r[cols["theta_read_x_urad"]]), float(r[cols["theta_read_y_urad"]]))
            for r in rows
        ]
    elif "drive_freq_hz" in cols:
        if chain is None:
            raise ValueError("schedule gives drive frequencies; an OpticalChain is required")
        angles = [aod_chain_angle(float(r[cols["drive_freq_hz"]]), chain) for r in rows]
    else:
        raise ValueError(
            "schedule needs either theta_read_{x,y}_urad columns or a drive_freq_hz column"
        )
    return np.array([[a.theta_x, a.theta_y] for a in angles])
