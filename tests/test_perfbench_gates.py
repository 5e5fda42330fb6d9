"""Every benchmark workload still passes its own output gates.

perfbench/workloads.py checks each repetition's outputs with library names of
its own (`read_stack`, `ModeSet.write_angle_urad` and `spot_fwhm_urad`,
`phase_match`, `multi_given_herald_exact`).  A deletion that breaks one of
them would otherwise show only as a failed benchmark run.  Each workload
listed in BENCHMARK.json runs here at its smoke-test size, in process.
"""

import importlib.util
import json
import sys
from pathlib import Path

from ramanmem.cli import main

ROOT = Path(__file__).resolve().parents[1]


def _load_workloads(monkeypatch):
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclass looks itself up there
    spec.loader.exec_module(module)
    return module


def test_listed_workloads_pass_their_gates_at_tiny_size(tmp_path, monkeypatch):
    workloads = _load_workloads(monkeypatch)
    listed = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    assert listed

    def fixture(config, name):
        """A stack recorded by `simulate` under the workload's config."""
        path = tmp_path / name
        assert main(["simulate", "--config", str(config), "--out", str(path)]) == 0
        return path

    for name in listed:
        work = tmp_path / name
        out = work / "out"
        out.mkdir(parents=True)
        plan = workloads.WORKLOADS[name](work, 1, workloads.SIZES["tiny"][name], fixture)
        for argv in plan.commands:
            assert main([a.replace("{out}", str(out)) for a in argv]) == 0, (name, argv)
        ops = plan.check(out)
        assert ops, name
        assert [op for op, ok in ops if not ok] == [], name
