"""The four benchmark workloads: generated inputs, commands and output gates.

Every input the program sees is generated here from the workload seed: an
INI config, a drive-tone schedule CSV, and (for map_fibers) a stack recorded
by ``ramanmem simulate`` once per seed.  Each workload returns a Plan whose
commands are ``ramanmem`` argument lists with ``{out}`` standing for the
repetition's output directory, and whose ``check`` turns the outputs of one
repetition into (operation, ok) pairs.  ``fixture(config, name)`` returns a
stack recorded by ``ramanmem simulate`` under that config, cached by name.  See NOTES.md for why each workload
and size was chosen.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# per-workload sizes; "tiny" is the smoke-test scale
SIZES = {
    "full": {
        "record_sched": {"frames": 640, "tilts": 32},
        "map_fibers": {"frames": 2000},
        "steer_fibers": {"frames": 300, "fibers": 5},
        "herald_sweep": {"small_shots": 1_500_000, "sweep_shots": 10_000, "sweep_m": "100,1000,2000"},
    },
    "tiny": {
        "record_sched": {"frames": 12, "tilts": 4},
        "map_fibers": {"frames": 600},
        "steer_fibers": {"frames": 300, "fibers": 2},
        "herald_sweep": {"small_shots": 100_000, "sweep_shots": 4_000, "sweep_m": "100,300"},
    },
}

# two-sided false-alarm rate of each herald gate: that of a 4 standard error
# gate on a normal estimate.  The gates use exact binomial tails, because at
# M = 2000 almost every shot heralds: 0.17 misses are expected in 10 000 shots,
# and 2 misses, which happen on 1.3% of seeds, would read as 4.8 SE
HERALD_K_SE = 4.0
HERALD_ALPHA = math.erfc(HERALD_K_SE / math.sqrt(2.0))

# the default experiment, as a user would write it; [run] is filled per workload
CONFIG_TEMPLATE = """\
[geometry]
w0_write_m = 0.0035
w0_read_m = 0.0035
w0_pump_m = 0.006
cell_length_m = 0.1
lambda_write_m = 7.95e-07
lambda_read_m = 7.8e-07

[chain]
f1_m = 0.05
f2_m = 0.75
f3_m = 0.5
base_freq_hz = 80000000.0
aod_slope_rad_per_hz = 3e-10
freq_min_hz = 70000000.0
freq_max_hz = 90000000.0
steer_axes = y

[modes]
gain_shrink = 2.0
envelope_fwhm_urad = 758.946695
readout_envelope_fwhm_urad = 536.656315
mean_photons_per_mode = 1000.0
spot_constant = 0.754212
grid_spacing_sigma = 1.5
grid_margin_sigma = 3.0

[retrieval]
eta0 = 0.85
d_diff_m2_s = 0.12
tau_storage_s = 1e-06
aberration_scale_urad = 600.0
noise_floor = 2.0

[camera]
pane_width_px = 128
pane_height_px = 64
pixel_pitch_m = 7.5e-06

[run]
seed = {seed}
n_frames = {frames}

[herald]
modes = 20
zeta = 0.01
eta_retrieve = 0.6
eta_detect = 0.55
switch_latency_s = 1e-07
memory_lifetime_s = 1e-06
"""


@dataclass
class Plan:
    config: Path
    commands: list[list[str]]
    units: int  # work items per repetition: frames, frame-references or shots
    unit_name: str
    check: Callable[[Path], list[tuple[str, bool]]]  # outputs -> (operation, ok)


def write_config(work: Path, seed: int, frames: int) -> Path:
    path = work / "config.ini"
    path.write_text(CONFIG_TEMPLATE.format(seed=seed, frames=frames), encoding="ascii")
    return path


def _load_config(path: Path):
    from ramanmem.config import load_config

    return load_config(path)


def binomial_tail(k: int, n: int, p: float) -> float:
    """P(X <= k) if k is below the mean of X ~ Binomial(n, p), else P(X >= k)."""
    def pmf(j: int) -> float:
        return math.exp(
            math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1)
            + j * math.log(p) + (n - j) * math.log1p(-p)
        )

    step = -1 if k < n * p else 1  # sum away from the mean, where terms shrink
    total, j = 0.0, k
    while 0 <= j <= n:
        term = pmf(j)
        total += term
        if term <= 1e-17 * total or term == 0.0:
            break
        j += step
    return min(total, 1.0)


def _read_csv(path: Path) -> list[dict]:
    with open(path, encoding="ascii") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


# ---------------------------------------------------------------------------
# record_sched


def record_sched(work: Path, seed: int, size: dict, fixture) -> Plan:
    frames, tilts = size["frames"], size["tilts"]
    config = write_config(work, seed, frames)
    # T distinct tones 0.25 MHz apart around the 80 MHz base (5 urad of
    # readout tilt each), visited in a seeded order that cycles through all T
    tones = [80e6 + 0.25e6 * (k - (tilts - 1) / 2.0) for k in range(tilts)]
    order = list(range(tilts))
    random.Random(seed).shuffle(order)
    schedule = work / "schedule.csv"
    with open(schedule, "w", encoding="ascii") as fh:
        fh.write("shot,drive_freq_hz\n")
        for i in range(frames):
            fh.write(f"{i},{tones[order[i % tilts]]!r}\n")

    def check(out: Path) -> list[tuple[str, bool]]:
        from ramanmem.stackio import read_stack

        cfg = _load_config(config)
        try:
            stack = read_stack(out / "sched.rmns")
        except (OSError, ValueError):
            return [("stack reads back", False)]
        shape = (frames, cfg.camera.height_px, cfg.camera.width_px)
        counts_ok = all(
            bool((p >= 0).all() and (p == p.round()).all())
            for p in (stack.stokes, stack.anti_stokes)
        )
        return [
            ("stack reads back with declared count and shape",
             stack.n_frames == frames and stack.stokes.shape == shape
             and stack.anti_stokes.shape == shape),
            ("stack counts are non-negative integers", counts_ok),
        ]

    return Plan(
        config,
        [["simulate", "--config", str(config), "--schedule", str(schedule),
          "--out", "{out}/sched.rmns"]],
        frames,
        "frames",
        check,
    )


# ---------------------------------------------------------------------------
# map_fibers


def _twin_prediction(cfg, pane: str, ref: tuple[float, float]) -> tuple[float, float]:
    """Conjugate-law position of the twin of `ref` (readout tilt 0)."""
    from ramanmem.geometry import Angle2D, phase_match

    ms = cfg.mode_set()
    w, r = Angle2D(*ms.write_angle_urad), Angle2D(0.0, 0.0)
    if pane == "stokes":
        a = phase_match(w, Angle2D(*ref), r, cfg.geometry)
        return a.theta_x, a.theta_y
    # reverse map: invert the affine law theta_aS = a0 + slope * theta_S
    a0 = phase_match(w, Angle2D(0.0, 0.0), r, cfg.geometry)
    a1 = phase_match(w, Angle2D(1.0, 1.0), r, cfg.geometry)
    return (
        (ref[0] - a0.theta_x) / (a1.theta_x - a0.theta_x),
        (ref[1] - a0.theta_y) / (a1.theta_y - a0.theta_y),
    )


def map_fibers(work: Path, seed: int, size: dict, fixture) -> Plan:
    frames = size["frames"]
    config = write_config(work, seed, frames)
    stack = fixture(config, f"map_fibers-seed{seed}-frames{frames}.rmns")
    rng = random.Random(seed)

    def angle() -> tuple[float, float]:
        return round(rng.uniform(-150.0, 150.0), 1), round(rng.uniform(-150.0, 150.0), 1)

    # (pane, angle, disc radius urad): a pixel, a virtual fiber, a reverse map
    refs = [("stokes", angle(), 0.0), ("stokes", angle(), 20.0), ("anti_stokes", angle(), 0.0)]
    commands = [
        ["correlate", "--stack", str(stack), "--ref-x", repr(a[0]), "--ref-y", repr(a[1]),
         "--ref-pane", pane, "--ref-radius", repr(radius), "--out", f"{{out}}/map{i}"]
        for i, (pane, a, radius) in enumerate(refs)
    ]

    def check(out: Path) -> list[tuple[str, bool]]:
        cfg = _load_config(config)
        quarter = cfg.mode_set().spot_fwhm_urad / 4.0
        ops = []
        for i, (pane, a, _radius) in enumerate(refs):
            try:
                (fit,) = _read_csv(out / f"map{i}_fit.csv")
            except (OSError, ValueError):
                ops += [(f"map{i} fit converges", False), (f"map{i} twin on conjugate law", False)]
                continue
            px, py = _twin_prediction(cfg, pane, a)
            dist = math.hypot(float(fit["center_x_urad"]) - px, float(fit["center_y_urad"]) - py)
            ops += [
                (f"map{i} fit converges", fit["converged"] == "1"),
                (f"map{i} twin within spot_fwhm/4 of conjugate law", dist < quarter),
            ]
        return ops

    return Plan(config, commands, frames * len(refs), "frame-references", check)


# ---------------------------------------------------------------------------
# steer_fibers


def steer_fibers(work: Path, seed: int, size: dict, fixture) -> Plan:
    frames, fibers = size["frames"], size["fibers"]
    config = write_config(work, seed, frames)

    def check(out: Path) -> list[tuple[str, bool]]:
        try:
            rows = _read_csv(out / "steer.csv")
        except OSError:
            rows = []
        if len(rows) != fibers:
            return [("steer report lists every fiber", False)]
        ops = []
        for row in rows:
            f = row["fiber"]
            ops += [
                (f"fiber {f} baseline fit converges", row["baseline_twin_y_urad"] != "nan"),
                (f"fiber {f} compensated fit converges", row["twin_x_urad"] != "nan"),
                (f"fiber {f} reachable and within quarter FWHM",
                 row["reachable"] == "1" and row["within_quarter_fwhm"] == "1"),
            ]
        return ops

    return Plan(
        config,
        [["steer", "--config", str(config), "--fibers", str(fibers), "--out", "{out}/steer.csv"]],
        frames * (fibers + 1),
        "frames",
        check,
    )


# ---------------------------------------------------------------------------
# herald_sweep


def herald_sweep(work: Path, seed: int, size: dict, fixture) -> Plan:
    config = write_config(work, seed, 1)
    small, sweep = size["small_shots"], size["sweep_shots"]
    sweep_m = size["sweep_m"]
    commands = [
        ["herald", "--config", str(config), "--shots", str(small), "--out", "{out}/herald_small.csv"],
        ["herald", "--config", str(config), "--shots", str(sweep), "--sweep-m", sweep_m,
         "--out", "{out}/herald_sweep.csv"],
    ]

    def check(out: Path) -> list[tuple[str, bool]]:
        from ramanmem.control import herald_probability, multi_given_herald_exact

        cfg = _load_config(config)
        zeta, eta = cfg.herald.zeta, cfg.herald.eta_detect
        p_detect = zeta * eta / (1.0 + zeta * eta)  # per mode, thermal thinned by eta
        exact_multi = multi_given_herald_exact(zeta, eta)
        ops = []
        for name in ("herald_small.csv", "herald_sweep.csv"):
            try:
                rows = _read_csv(out / name)
            except OSError:
                rows = []
            if not rows:
                ops.append((f"{name} written", False))
            for row in rows:
                shots, heralds = int(row["shots"]), int(row["heralds"])
                multis = int(row["multi_excitation_events"])
                closed = herald_probability(int(row["modes"]), p_detect)
                ops += [
                    (f"M={row['modes']} herald count within the {HERALD_K_SE:g} SE tail",
                     2.0 * binomial_tail(heralds, shots, closed) >= HERALD_ALPHA),
                    (f"M={row['modes']} multi|herald count within the {HERALD_K_SE:g} SE tail",
                     heralds > 0
                     and 2.0 * binomial_tail(multis, heralds, exact_multi) >= HERALD_ALPHA),
                ]
        return ops

    shots = small + sweep * len(sweep_m.split(","))
    return Plan(config, commands, shots, "shots", check)


WORKLOADS = {
    "record_sched": record_sched,
    "map_fibers": map_fibers,
    "steer_fibers": steer_fibers,
    "herald_sweep": herald_sweep,
}

# defined and runnable, but not listed in BENCHMARK.json: the program fails
# one of its gates on some seeds at the seed commit (NOTES.md, Findings), and
# a listed workload must pass on every seed
HELD_OUT = ("steer_fibers",)
