"""The benchmark tracer still finds every library name it wraps.

perfbench/tracing.py looks each name up with vars(module)[name], so a name
deleted or renamed in the library fails here with a KeyError.  Its span stack
is not thread-safe, so every traced call must stay on the calling thread.
"""

import importlib.util
from pathlib import Path

from ramanmem import cli, scattering

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_removes_every_wrapper():
    tracing = _load_tracing()
    tracer = tracing.Tracer("t")
    main = cli.main
    try:
        tracing.install(tracer)
        assert cli.main is not main
    finally:
        assert tracer.remove()
    assert cli.main is main


def test_traced_schedule_builds_factors_once_per_distinct_tilt(tmp_path, monkeypatch):
    """A traced 3-tone run on 2 render threads: one factor build per distinct tilt, spans nested."""
    monkeypatch.setattr(scattering, "_usable_cores", lambda: 2)
    tones = (79.75e6, 79.75e6, 80.0e6, 80.25e6, 80.25e6, 79.75e6)
    sched = tmp_path / "sched.csv"
    sched.write_text("shot,drive_freq_hz\n" + "".join(f"{i},{t!r}\n" for i, t in enumerate(tones)))
    tracing = _load_tracing()
    tracer = tracing.Tracer("t")
    try:
        tracing.install(tracer)
        argv = ["simulate", "--frames", "6", "--schedule", str(sched)]
        assert cli.main([*argv, "--out", str(tmp_path / "s.rmns")]) == 0
    finally:
        assert tracer.remove()
    assert tracer.counts["scattering.basis_builds"] == len(set(tones)) == 3
    assert tracer.counts["scattering.frames"] == 6
    assert not tracer._open
    for name, start, end, parent in tracer.spans:
        assert end is not None and start <= end, name
        if parent != tracing.NO_PARENT:
            _, p_start, p_end, _ = tracer.spans[parent]
            assert p_start <= start and end <= p_end, name
