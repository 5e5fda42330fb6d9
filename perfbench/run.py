#!/usr/bin/env python3
"""ramanmem benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; ``src/ramanmem`` is imported from
there.  Each repetition is a fresh ``python3 perfbench/child.py`` process
that calls ``ramanmem.cli.main`` on inputs generated from the seed, with the
BLAS thread pools capped at ``nproc``.  Repetitions run back to back (one
process at a time, closed loop); one starts only while a typical repetition
would end within S seconds of the first.

--trace 0 reports the end-to-end metrics (wall_s and throughput over the
whole run, peak_rss_mb and setup_s as medians over repetitions).
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones, plus the tracing overhead.  The outputs
of every repetition are checked; the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``, preceded by a run record
and one human-readable line per metric with its sample count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402

CHILD_TIMEOUT_S = 150
MIN_REPS = 3  # untraced repetitions per untraced run
MIN_PAIRS = 2  # untraced/traced pairs per traced run
MIN_SETUP_SAMPLES = 11
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)

END_TO_END = {"wall_s": "s", "throughput": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}

# span name -> per-layer self-time metric
SPAN_METRICS = {
    "scattering.frame": "scattering.frame_s",
    "scattering.sample": "scattering.sample_s",
    "scattering.basis": "scattering.basis_s",
    "scattering.modeset": "scattering.modeset_s",
    "analysis.ingest": "analysis.ingest_s",
    "analysis.map": "analysis.map_s",
    "analysis.fit": "analysis.fit_s",
    "analysis.export": "analysis.export_s",
    "stackio.write": "stackio.write_s",
    "stackio.read": "stackio.read_s",
    "control.herald": "control.herald_s",
    "control.steer_solve": "control.steer_solve_s",
    "control.schedule_load": "control.schedule_load_s",
    "geometry.chain": "geometry.chain_s",
    "config.load": "config.load_s",
}
COUNT_METRICS = {
    "scattering.frames": "count",
    "scattering.basis_builds": "count",
    "analysis.frame_refs": "count",
    "analysis.fits": "count",
    "analysis.fit_iterations": "count",
    "analysis.fits_failed": "count",
    "stackio.bytes_written": "B",
    "stackio.bytes_read": "B",
    "control.herald_shots": "count",
    "control.unreachable": "count",
}
PER_LAYER = {
    **{m: "s" for m in SPAN_METRICS.values()},
    "scattering.frame_ms_p50": "ms",
    "scattering.frame_ms_p99": "ms",
    "scattering.basis_hit_ratio": "ratio",
    **COUNT_METRICS,
    "cli.self_s": "s",
    "cli.cpu_s": "s",
    "cli.trace_overhead": "ratio",
}


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed gate)."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_sha(root: Path):
    """HEAD of the checkout when it is a git work tree, else None."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "ramanmem").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def output_digest(out: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())
    }


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


class Runner:
    """Starts child processes in one checkout, one at a time."""

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        self.cap = nproc()
        self.env = dict(os.environ)
        for var in BLAS_THREAD_VARS:
            self.env[var] = str(self.cap)

    def child(self, rep_dir: Path, config: Path, commands, trace: bool) -> dict:
        out = rep_dir / "out"
        out.mkdir(parents=True)
        spec = {
            "root": str(self.root),
            "rep_dir": str(rep_dir),
            "config": str(config),
            "commands": [[a.replace("{out}", str(out)) for a in argv] for argv in commands],
            "trace": trace,
            "run_id": rep_dir.name,
        }
        spec_path = rep_dir / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(spec_path)],
            cwd=self.root, env=self.env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise BenchmarkError(f"child process exited with {proc.returncode} in {rep_dir}")
        with open(rep_dir / "result.json", encoding="utf-8") as fh:
            result = json.load(fh)
        if trace:
            result["spans"] = tracing.read_spans(rep_dir / "spans.jsonl")
        return result

    def fixture(self, config: Path, name: str) -> Path:
        """A stack recorded by `ramanmem simulate`, cached by name (untimed).

        Only the newest fixture is kept, so a series of seeds does not fill
        the disk.
        """
        cache = self.work.parent / "cache"
        path = cache / name
        if path.is_file():
            return path
        if cache.exists():
            shutil.rmtree(cache)
        rep_dir = cache / "build"
        result = self.child(rep_dir, config, [["simulate", "--config", str(config),
                                               "--out", "{out}/stack.rmns"]], False)
        if result["exit_codes"] != [0]:
            raise BenchmarkError(f"fixture simulate failed: {result['exit_codes']}")
        (rep_dir / "out" / "stack.rmns").rename(path)
        shutil.rmtree(rep_dir)
        return path


def layer_metrics(rep: dict) -> dict[str, float]:
    """Per-layer values of one traced repetition."""
    selfs = tracing.self_times(rep["spans"])
    values = {metric: selfs.get(span, 0.0) for span, metric in SPAN_METRICS.items()}
    counts = rep["counts"]
    values.update({name: float(counts.get(name, 0)) for name in COUNT_METRICS})
    frames = values["scattering.frames"]
    values["scattering.basis_hit_ratio"] = (
        1.0 - values["scattering.basis_builds"] / frames if frames else 0.0
    )
    values["cli.self_s"] = rep["wall_s"] - sum(
        t for name, t in selfs.items() if name != "cli.main"
    )
    values["cli.cpu_s"] = rep["cpu_s"]
    return values


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: bool,
                 size: dict) -> dict:
    """Measure one workload; returns the result object plus its run record."""
    work = root / ".perfbench" / f"{name}-seed{seed}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        return _measure(root, work, name, seed, seconds, trace, size)
    finally:
        shutil.rmtree(work)


def _measure(root: Path, work: Path, name: str, seed: int, seconds: float, trace: bool,
             size: dict) -> dict:
    runner = Runner(root, work)
    plan = WORKLOADS[name](work, seed, size[name], runner.fixture)

    ops: list[tuple[str, bool]] = []
    untraced: list[dict] = []
    traced: list[dict] = []
    reference = None
    rep_s: list[float] = []  # each repetition, from process start to checked outputs
    deadline = time.perf_counter() + seconds
    i = 0
    # start a repetition only if a typical one ends before the deadline, so a
    # run lasts about `seconds` however long its repetitions are
    while (
        time.perf_counter() + median(rep_s) < deadline
        or len(untraced) < (MIN_PAIRS if trace else MIN_REPS)
        or (trace and len(traced) < MIN_PAIRS)
    ):
        is_traced = trace and i % 2 == 1
        rep_dir = work / f"rep{i}"
        started = time.perf_counter()
        rep = runner.child(rep_dir, plan.config, plan.commands, is_traced)
        out = rep_dir / "out"
        ops += [(f"{argv[0]} exits 0", code == 0)
                for argv, code in zip(plan.commands, rep["exit_codes"])]
        ops += plan.check(out)
        digest = output_digest(out)
        if is_traced:
            ops.append(("traced outputs byte-identical to untraced", digest == reference))
            ops.append(("every wrapper removed", rep["wrappers_removed"]))
            traced.append(rep)
        else:
            if reference is None:
                reference = digest
            untraced.append(rep)
        shutil.rmtree(rep_dir)
        rep_s.append(time.perf_counter() - started)
        i += 1

    setups = [r["setup_s"] for r in untraced]
    while not trace and len(setups) < MIN_SETUP_SAMPLES:
        rep_dir = work / f"setup{len(setups)}"
        setups.append(runner.child(rep_dir, plan.config, [], False)["setup_s"])
        shutil.rmtree(rep_dir)

    walls = [r["wall_s"] for r in untraced]
    if trace:
        per_rep = [layer_metrics(r) for r in traced]
        metrics = {m: median([v[m] for v in per_rep]) for m in per_rep[0]}
        frame_ms = [
            1e3 * (s["end"] - s["start"])
            for r in traced for s in r["spans"] if s["name"] == "scattering.frame"
        ]
        metrics["scattering.frame_ms_p50"] = percentile(frame_ms, 50)
        metrics["scattering.frame_ms_p99"] = percentile(frame_ms, 99)
        metrics["cli.trace_overhead"] = (
            statistics.fmean([r["wall_s"] for r in traced]) / statistics.fmean(walls) - 1.0
        )
        units, samples = PER_LAYER, {m: len(traced) for m in PER_LAYER}
        samples["scattering.frame_ms_p50"] = samples["scattering.frame_ms_p99"] = len(frame_ms)
    else:
        # wall_s and throughput average over the whole run: repetition times
        # here are bimodal (the host has fast and slow phases lasting seconds),
        # and a median jumps between the modes as their shares change
        metrics = {
            "wall_s": statistics.fmean(walls),
            "throughput": plan.units * len(walls) / sum(walls),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in untraced]),
            "setup_s": median(setups),
        }
        units, samples = END_TO_END, {m: len(untraced) for m in END_TO_END}
        samples["setup_s"] = len(setups)

    import numpy
    from ramanmem.config import load_config

    cfg_checksum = f"{load_config(plan.config).checksum():016x}"
    failed = [label for label, ok in ops if not ok]
    return {
        "result": {
            "correct": not failed,
            "attempted": len(ops),
            "failed": len(failed),
            "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
        },
        "samples": samples,
        "failures": failed,
        "record": {
            "workload": name,
            "seed": seed,
            "trace": trace,
            "seconds": seconds,
            "size": size[name],
            "work_unit": plan.unit_name,
            "units_per_repetition": plan.units,
            "repetitions": {"untraced": len(untraced), "traced": len(traced)},
            "wall_s_samples": walls,
            "git_sha": git_sha(root),
            "source_sha256": source_digest(root),
            "nproc": nproc(),
            "blas_thread_cap": runner.cap,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "config_checksum": cfg_checksum,
        },
    }


def print_report(out: dict, stream=sys.stdout) -> None:
    print("run record: " + json.dumps(out["record"], sort_keys=True), file=stream)
    res = out["result"]
    for name, m in res["metrics"].items():
        print(f"{name:28s} {m['value']:14.6g} {m['unit']:6s} n={out['samples'][name]}", file=stream)
    ratio = res["failed"] / res["attempted"]
    print(f"{'fail_ratio':28s} {ratio:14.6g} {'ratio':6s} n={res['attempted']}", file=stream)
    for label in out["failures"][:20]:
        print(f"FAILED: {label}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "ramanmem" / "__init__.py").is_file():
        print(f"error: no src/ramanmem under {root}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    try:
        out = run_workload(root, args.workload, args.seed, args.seconds, bool(args.trace),
                           SIZES["full"])
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print_report(out)
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
