"""One repetition of a workload in a fresh interpreter.

    python3 perfbench/child.py SPEC.json

SPEC (written by run.py) names the checkout root, the generated config, the
``ramanmem`` argument lists to run through ``cli.main`` and whether to trace.
The child times its own set-up (import, config load, mode grid and Stokes
basis), then the commands, and writes ``result.json`` (plus ``spans.jsonl``
when traced) into the directory given by SPEC.  Command output goes to
``stdout.log`` there.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time
import traceback


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    """Peak resident set of this process image.

    ru_maxrss would also count the parent's peak at spawn time, because Linux
    carries it across fork and exec; VmHWM covers this image alone.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    src = os.path.join(spec["root"], "src")
    rep_dir = spec["rep_dir"]

    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import ramanmem
    from ramanmem import cli, config, scattering

    cfg = config.load_config(spec["config"])
    basis = scattering.stokes_basis(scattering.mode_set_from_config(cfg), cfg.camera)
    setup_s = time.perf_counter() - t0
    del basis
    if os.path.dirname(os.path.abspath(ramanmem.__file__)) != os.path.join(src, "ramanmem"):
        print(f"error: imported ramanmem from {ramanmem.__file__}, not {src}", file=sys.stderr)
        return 3

    tracer = None
    if spec["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracing

        tracer = tracing.Tracer(spec["run_id"])
        tracing.install(tracer)

    codes = []
    cpu0 = _cpu_s()
    w0 = time.perf_counter()
    with open(os.path.join(rep_dir, "stdout.log"), "w", encoding="utf-8") as log:
        with contextlib.redirect_stdout(log):
            for argv in spec["commands"]:
                try:
                    codes.append(cli.main(argv))
                except Exception:  # a traceback is a failed command, not a crashed benchmark
                    traceback.print_exc()
                    codes.append(None)
    wall_s = time.perf_counter() - w0
    cpu_s = _cpu_s() - cpu0

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": _peak_rss_mb(),
        "exit_codes": codes,
    }
    if tracer is not None:
        result["wrappers_removed"] = tracer.remove()
        result["counts"] = dict(tracer.counts)
        tracer.write(os.path.join(rep_dir, "spans.jsonl"))
    with open(os.path.join(rep_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
