"""Readout steering and heralded single-photon routing.

Steering: given a Stokes reference direction and a wanted anti-Stokes target,
solve the wavevector balance for the readout tilt and translate it into an
AOD drive tone.  Requests outside the drive band or the paraxial range come
back flagged (with the best clamped command) instead of raising, so batch runs
can report them row by row.

Herald: Monte Carlo of the thermally seeded multimode source with a feedback
switch, against closed-form checks.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .geometry import (
    PARAXIAL_LIMIT_URAD,
    Angle2D,
    BeamGeometry,
    OpticalChain,
    aod_chain_angle,
    bounded,
    conjugate_angles,
    drive_frequency_for,
    phase_match,  # a name perfbench/tracing.py still wraps here; no program path calls it
    require_fields_within,
)
from .scattering import shot_rng

__all__ = [
    "SteeringCommand",
    "HeraldConfig",
    "HeraldStats",
    "compensating_readout",
    "herald_probability",
    "multi_given_herald_exact",
    "run_herald_protocol",
    "load_schedule",
]

# tolerance (urad) for readout components the chain cannot actuate; these must
# already be satisfied by the Stokes reference geometry
OFF_AXIS_TOL_URAD = 1e-3


@dataclass(frozen=True)
class SteeringCommand:
    """One solved readout setting: theta_read is the tilt the command realises (after any clamp)."""

    theta_read: Angle2D
    drive_freq_hz: float
    reachable: bool
    note: str = ""


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
    or the paraxial range on a steered axis, or needs a component the chain
    cannot actuate at all; in each case the returned command carries the
    clamped best effort.
    """
    # the reachable tilts are the tone law at the band-edge tones: an edge is the tilt its
    # own tone produces, bit for bit, so a clamped command is realised by its drive tone.
    # An edge past the paraxial bound (an unbounded band) is pulled inside it instead.
    edge = math.nextafter(PARAXIAL_LIMIT_URAD, 0.0)
    lo = max(chain.deflection_urad(chain.freq_min_hz), -edge)
    hi = min(chain.deflection_urad(chain.freq_max_hz), edge)
    realized = {}
    notes = []
    for axis in "xy":
        attr = f"theta_{axis}"
        # the conjugate law is theta_r plus a term free of theta_r, so the tilt is
        # the target minus the law evaluated at zero readout
        want = getattr(target_as, attr) - conjugate_angles(
            getattr(theta_w, attr), getattr(theta_s, attr), 0.0, geom.lambda_write_m, geom.lambda_read_m
        )
        if axis in chain.steer_axes:
            realized[axis] = min(max(want, lo), hi)
            if realized[axis] != want:
                notes.append(f"{axis} deflection {want:.3f} urad outside span [{lo:.3f}, {hi:.3f}]")
        else:
            realized[axis] = 0.0
            if abs(want) > OFF_AXIS_TOL_URAD:
                notes.append(f"{axis} component {want:.3f} urad not steerable by this chain")

    return SteeringCommand(
        theta_read=Angle2D(realized["x"], realized["y"]),
        drive_freq_hz=drive_frequency_for(realized[chain.steer_axes[0]], chain),
        reachable=not notes,
        note="; ".join(notes),
    )


# ---------------------------------------------------------------------------
# heralded routing

# shots per herald chunk: each chunk draws from its own stream (see run_herald_protocol).
# A chunk has a fixed cost of tens of microseconds whatever its size (the stream's
# setup and a few numpy calls); 2^15 shots spread that cost thin.  A chunk's arrays
# hold only its multi-excitation shots, so they stay within 256 KB each at any zeta.
HERALD_CHUNK = 32768


@dataclass(frozen=True)
class HeraldConfig:
    """Multimode heralded source with a routing switch.

    zeta is the mean thermal excitation number per mode; the per-mode
    probability of at least one excitation, p = zeta / (1 + zeta), follows
    from it.
    """

    modes: int = bounded(20, 1, math.inf)
    zeta: float = bounded(0.01, 0.0, math.inf, "[)")
    eta_retrieve: float = bounded(0.6, 0.0, 1.0)
    eta_detect: float = bounded(0.55, 0.0, 1.0)
    switch_latency_s: float = bounded(1.0e-7, 0.0, math.inf)
    memory_lifetime_s: float = bounded(1.0e-6, 0.0, math.inf, "(]")

    def __post_init__(self) -> None:
        object.__setattr__(self, "zeta", float(self.zeta))
        require_fields_within(self)
        # past zeta ~ 1e16, zeta / (1 + zeta) rounds to 1
        if not self.p < 1.0:
            raise ValueError(f"p must lie in [0, 1), got {self.p!r} (zeta={self.zeta!r})")

    @property
    def p(self) -> float:
        """Per-mode probability of at least one excitation, zeta / (1 + zeta)."""
        return self.zeta / (1.0 + self.zeta)

    @property
    def p_detect(self) -> float:
        """Per-mode probability of at least one *detected* excitation.

        Detection thins the thermal law to one of mean zeta*eta_detect, so this is
        zeta*eta_detect / (1 + zeta*eta_detect), and p when the detector is ideal.
        """
        zeta_d = self.zeta * self.eta_detect
        return zeta_d / (1.0 + zeta_d)


@dataclass(frozen=True)
class HeraldStats:
    """Counts and rates of one `run_herald_protocol` run, which builds every HeraldStats."""

    shots: int
    heralds: int
    routed_successes: int
    multi_excitation_events: int
    success_prob: float
    multi_given_herald: float


def herald_probability(modes: int, p: float) -> float:
    """Probability that at least one of `modes` independent modes fires."""
    if modes < 1 or not (0.0 <= p <= 1.0):
        raise ValueError("need modes >= 1 and p in [0, 1]")
    if p in (0.0, 1.0):
        return float(p)  # log1p(-1) raises, and -expm1(0) would be -0.0
    # 1 - (1 - p)^M, without the cancellation that loses p ~ 1e-12 to rounding
    return -math.expm1(modes * math.log1p(-p))


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


def run_herald_protocol(cfg: HeraldConfig, shots: int, seed: int) -> HeraldStats:
    """Monte Carlo of herald / route / retrieve over independent shots.

    Each mode holds a thermal excitation number; detection thins it by
    eta_detect, the switch routes the lowest-index mode with a detection, and
    a success is at least one retrieved photon from the routed mode.  A switch
    slower than the memory lifetime voids every success but leaves the herald
    statistics untouched.

    The modes and the shots are i.i.d., so nothing is drawn per mode, nor per
    shot that does not herald.  With q = cfg.p_detect = zeta*eta_detect / (1 + zeta*eta_detect)
    the per-mode chance of a detection, a shot heralds with probability
    P = herald_probability(modes, q), so a chunk's herald count is one
    Binomial(size, P) draw.  Each heralded shot's routed mode then has
    detected count D ~ Geometric(1 - q) (the thermal law given D >= 1),
    undetected count
    U ~ NegBinomial(D + 1, u) with u = 1 - s(1 - eta_detect), s = zeta / (1 + zeta),
    and excitation number n = D + U.  Most heralded shots have D = 1 and U = 0,
    so the chunk counts those and draws per shot only for the rest:
    k ~ Binomial(heralds, q) shots have D >= 2, with D = 1 + Geometric(1 - q)
    and U one NegBinomial(D + 1, u) draw; of the D = 1 shots,
    m ~ Binomial(heralds - k, 1 - u^2) have U = G0 + G1 >= 1, drawn given that
    (G0 >= 1 with probability 1 / (1 + u)).  Those k + m shots are the
    multi-excitation ones.  At eta_detect = 1, U = 0 and nothing of it is drawn.
    The other shots hold n = 1 and retrieve with probability eta_retrieve, so
    their successes are one binomial draw; each of the k + m succeeds when a
    uniform falls below 1 - (1 - eta_retrieve)^n, the chance that
    Binomial(n, eta_retrieve) >= 1.  At eta_retrieve = 0, or with a dead
    switch, nothing is drawn and nothing succeeds; at eta_retrieve = 1 every
    heralded shot succeeds.  Every draw follows the exact joint law of
    (D, U, retrieval), and no multi-excitation or success count is drawn from
    its closed-form probability, so the tests that compare those counts with
    closed forms stay independent checks.  Cost is O(chunks + multi-excitation
    shots) and memory O(k + m), at most O(HERALD_CHUNK), whatever the mode
    count and zeta.

    Chunk c of HERALD_CHUNK shots draws from shot_rng(seed, c), the PCG64
    stream of the seed's SeedSequence child c, so the chunk size is part of
    every result.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")

    q = cfg.p_detect
    # u = 1 - miss; 1 - u^2 as miss (2 - miss), which keeps its digits at small p
    miss = cfg.p * (1.0 - cfg.eta_detect)
    undetected_p = 1.0 - miss
    extra_p = miss * (2.0 - miss)
    herald_p = herald_probability(cfg.modes, q)
    # a switch slower than the memory retrieves nothing
    retrieve = 0.0 if cfg.switch_latency_s > cfg.memory_lifetime_s else cfg.eta_retrieve
    heralds = successes = multis = 0

    for chunk in range((shots + HERALD_CHUNK - 1) // HERALD_CHUNK):
        size = min(HERALD_CHUNK, shots - chunk * HERALD_CHUNK)
        rng = shot_rng(seed, chunk)
        n_heralded = int(rng.binomial(size, herald_p))
        heralds += n_heralded
        # D >= 2 with probability q, and then D - 1 ~ Geometric(1 - q) again
        n_more = int(rng.binomial(n_heralded, q))
        n_exc = 1 + rng.geometric(1.0 - q, n_more)
        n_extra = 0
        if cfg.eta_detect < 1.0:
            # U ~ NegBin(D + 1, u): one scalar-n draw for the D = 2 shots, and the
            # array-n draw, with its fixed cost of tens of microseconds, for D > 2 only
            big = n_exc[n_exc > 2]
            parts = [2 + rng.negative_binomial(3, undetected_p, n_more - big.size)]
            if big.size:
                parts.append(big + rng.negative_binomial(big + 1, undetected_p))
            # a D = 1 shot has U = G0 + G1 >= 1 with probability 1 - u^2, and then
            # G0 >= 1 with probability 1 / (1 + u); numpy's geometric counts trials,
            # one more than the failures
            n_extra = int(rng.binomial(n_heralded - n_more, extra_p))
            first = rng.random(n_extra) < 1.0 / (1.0 + undetected_p)
            parts.append(
                1 + rng.geometric(undetected_p, n_extra)
                + first * (rng.geometric(undetected_p, n_extra) - 1)
            )
            n_exc = np.concatenate(parts)
        multis += n_more + n_extra
        if retrieve == 1.0:
            successes += n_heralded
        elif retrieve > 0.0:
            # the n = 1 shots succeed with probability eta_r; the others when a uniform
            # falls below P(Binomial(n, eta_r) >= 1) = 1 - (1 - eta_r)^n
            successes += int(rng.binomial(n_heralded - n_exc.size, retrieve))
            p_success = -np.expm1(n_exc * math.log1p(-retrieve))
            successes += int(np.count_nonzero(rng.random(n_exc.size) < p_success))

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

_PAIR = struct.Struct("<dd")  # one schedule row as it is held: its readout tilt (x, y) in urad


def _content_lines(fh) -> Iterator[tuple[int, str]]:
    """(file line, stripped text) of each line of a binary file that is neither blank nor a '#' comment.

    Each line is decoded as UTF-8 on its own, so a byte that is not UTF-8
    fails as its line; a byte-order mark may open the first line.
    """
    for lineno, raw in enumerate(fh, 1):
        try:
            line = raw.decode("utf-8-sig" if lineno == 1 else "utf-8").strip()
        except UnicodeDecodeError as exc:
            raise ValueError(f"line {lineno}: byte {exc.start + 1} is not UTF-8 text ({exc.reason})") from None
        if line and not line.startswith("#"):
            yield lineno, line


def load_schedule(path, chain: OpticalChain) -> np.ndarray:
    """Read a schedule CSV into (n, 2) readout tilts, in one pass holding 16 bytes per row.

    The file is UTF-8 text, with or without a byte-order mark, and each line
    ends at a newline byte.  Blank lines and lines starting with '#' are
    skipped, and every cell, header included, is stripped.  The header names
    each column once: the two theta_read_{x,y}_urad columns or the one
    drive_freq_hz column (converted through the chain), and optionally a shot
    column, which must read 0..n-1 in file order: row i is frame i.  A line
    that is not UTF-8, and a row's error, start with the file line.
    """
    pairs = bytearray()
    with open(path, "rb") as fh:
        lines = _content_lines(fh)
        _, first = next(lines, (0, ""))
        header = [name.strip() for name in first.split(",")] if first else []
        cols = {name: idx for idx, name in enumerate(header)}
        if len(cols) != len(header):
            twice = sorted({name for name in header if header.count(name) > 1})
            raise ValueError(f"the schedule header names {', '.join(twice)} more than once")
        found = [name for name in header if name != "shot"]
        if set(found) not in ({"theta_read_x_urad", "theta_read_y_urad"}, {"drive_freq_hz"}):
            raise ValueError(
                "schedule needs either theta_read_{x,y}_urad columns or a drive_freq_hz column "
                f"beside an optional shot column, got {', '.join(found) or 'none'}"
            )
        shot, tone = cols.get("shot"), cols.get("drive_freq_hz")
        tilt_x, tilt_y = cols.get("theta_read_x_urad"), cols.get("theta_read_y_urad")
        for i, (lineno, line) in enumerate(lines):
            try:
                cells = line.split(",")
                if len(cells) != len(header):
                    raise ValueError(f"every schedule row needs {len(header)} cells, one per header column")
                if shot is not None and cells[shot].strip() != str(i):
                    raise ValueError(f"the shot column must read each row's index in file order, {i} here, "
                                     f"got {cells[shot].strip()!r}")
                # geometry states the band and paraxial rules: aod_chain_angle and Angle2D
                # reject NaN, infinite, out-of-band and super-paraxial rows
                if tone is not None:
                    angle = aod_chain_angle(float(cells[tone]), chain)
                else:
                    angle = Angle2D(float(cells[tilt_x]), float(cells[tilt_y]))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
            pairs += _PAIR.pack(angle.theta_x, angle.theta_y)
    return np.frombuffer(pairs, dtype="<f8").reshape(-1, 2)
