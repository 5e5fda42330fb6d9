"""The runtime depends on numpy alone: every import in the package is stdlib, numpy or ramanmem."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import ramanmem

_ALLOWED = set(sys.stdlib_module_names) | {"numpy", "ramanmem"}


def _imported_packages(tree: ast.AST):
    """(line, top-level package) of every import; a relative import is ramanmem itself."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom):
            name = "ramanmem" if node.level else node.module.partition(".")[0]
            yield node.lineno, name


def test_package_imports_only_stdlib_and_numpy():
    sources = sorted((Path(__file__).parents[1] / "src" / "ramanmem").glob("*.py"))
    assert len(sources) > 1
    outside = [
        f"{src.name}:{line}: {name}"
        for src in sources
        for line, name in _imported_packages(ast.parse(src.read_text(encoding="utf-8")))
        if name not in _ALLOWED
    ]
    assert outside == []


def test_every_exported_name_exists():
    """Each module's `__all__` lists only names the module defines."""
    missing = []
    for info in pkgutil.iter_modules(ramanmem.__path__):
        if info.name != "__main__":
            module = importlib.import_module(f"ramanmem.{info.name}")
            missing += [f"{info.name}.{n}" for n in module.__dict__.get("__all__", ()) if not hasattr(module, n)]
    assert missing == []


# each subcommand at a tiny size, in one interpreter; after each, numpy.ma must still be unloaded
_EVERY_SUBCOMMAND = """\
import sys
from ramanmem import cli

tmp = sys.argv[1]
stack = f"{tmp}/run.rmns"
runs = [
    ["simulate", "--frames", "6", "--out", stack],
    ["correlate", "--stack", stack, "--out", f"{tmp}/map"],
    ["correlate", "--frames", "6", "--out", f"{tmp}/fresh"],
    ["steer", "--frames", "6", "--fibers", "2", "--out", f"{tmp}/steer.csv"],
    ["herald", "--shots", "1000", "--out", f"{tmp}/herald.csv"],
]
for argv in runs:
    # a fit that ran but did not converge on so few frames exits EXIT_FIT_FAILED
    assert cli.main(argv) in (cli.EXIT_OK, cli.EXIT_FIT_FAILED), argv
    assert "numpy.ma" not in sys.modules, " ".join(argv[:2]) + " loaded numpy.ma"
"""


def test_no_subcommand_loads_numpy_ma(tmp_path):
    """Neither the twin fit nor the steering line needs the masked-array package."""
    env = dict(os.environ, PYTHONPATH=str(Path(ramanmem.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _EVERY_SUBCOMMAND, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
