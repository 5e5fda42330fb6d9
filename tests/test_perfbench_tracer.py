"""The benchmark tracer still finds every library name it wraps.

perfbench/tracing.py looks each name up with vars(module)[name], so a name
deleted or renamed in the library fails here with a KeyError.
"""

import importlib.util
from pathlib import Path

from ramanmem import cli

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
