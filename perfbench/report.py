#!/usr/bin/env python3
"""Every workload in one command, or the benchmark's own smoke test.

    python3 perfbench/report.py [--seed N] [--seconds S]
        Full-size untraced run of every workload, the held-out steer_fibers
        included: prints wall_s, throughput, peak_rss_mb, setup_s and
        fail_ratio per workload with units and sample counts.  S defaults
        to run_seconds from BENCHMARK.json.

    python3 perfbench/report.py --smoke
        Every workload at a tiny size, untraced and traced: asserts that
        every metric BENCHMARK.json names is emitted with its unit, that all
        output gates pass, and that run.py refuses to run (non-zero exit, no
        result) in a directory holding only the benchmark.

Run from the root of a source checkout, like run.py.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import run
from workloads import HELD_OUT, SIZES, WORKLOADS


def check_result(out: dict, expected: list[dict], where: str) -> None:
    res = out["result"]
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, where
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, (
        f"{where}: gates failed: {out['failures']}"
    )
    names = [m["name"] for m in expected]
    assert list(res["metrics"]) == names, f"{where}: metrics {list(res['metrics'])} != {names}"
    for m in expected:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"], f"{where}: {m['name']} unit {got['unit']} != {m['unit']}"
        assert math.isfinite(got["value"]), f"{where}: {m['name']} = {got['value']}"


def check_refuses_bare_directory(root: Path) -> None:
    bare = root / ".perfbench" / "bare"
    if bare.exists():
        shutil.rmtree(bare)
    bare.mkdir(parents=True)
    shutil.copy(root / "BENCHMARK.json", bare)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((root / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        spec["command"] + ["--workload", spec["workloads"][0]["name"], "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0, "run.py succeeded without a program to measure"
    assert '"metrics"' not in proc.stdout, "run.py printed a result without a program"


def smoke(root: Path, seed: int) -> None:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == [w for w in WORKLOADS if w not in HELD_OUT]
    for name in WORKLOADS:
        for trace, expected in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            out = run.run_workload(root, name, seed, 0.0, trace, SIZES["tiny"])
            run.print_report(out)
            check_result(out, expected, f"{name} trace={int(trace)}")
    check_refuses_bare_directory(root)
    print("smoke test passed")


def full(root: Path, seed: int, seconds: float) -> None:
    rows = []
    for name in WORKLOADS:
        out = run.run_workload(root, name, seed, seconds, False, SIZES["full"])
        res = out["result"]
        for metric, m in res["metrics"].items():
            rows.append((name, metric, m["value"], m["unit"], out["samples"][metric]))
        rows.append((name, "fail_ratio", res["failed"] / res["attempted"], "ratio",
                     res["attempted"]))
        for label in out["failures"]:
            print(f"FAILED {name}: {label}", file=sys.stderr)
    print(f"{'workload':14s} {'metric':12s} {'value':>14s} {'unit':6s} samples")
    for name, metric, value, unit, n in rows:
        print(f"{name:14s} {metric:12s} {value:14.6g} {unit:6s} {n}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, with assertions")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "ramanmem" / "__init__.py").is_file():
        print(f"error: no src/ramanmem under {root}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    if args.smoke:
        smoke(root, args.seed)
    else:
        seconds = args.seconds
        if seconds is None:
            seconds = json.loads((root / "BENCHMARK.json").read_text())["run_seconds"]
        full(root, args.seed, seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
