"""End-to-end runs of the console entry point, in process via main()."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ramanmem
from ramanmem.cli import main
from ramanmem.geometry import CameraGeometry
from ramanmem.scattering import Frame
from ramanmem.stackio import StackWriter, read_stack

SMALL_CFG = """\
[camera]
pane_width_px = 64
pane_height_px = 32

[run]
seed = 7
n_frames = 150
"""


@pytest.fixture()
def cfg_path(tmp_path):
    p = tmp_path / "exp.ini"
    p.write_text(SMALL_CFG)
    return str(p)


def test_simulate_writes_stack(tmp_path, cfg_path, capsys):
    out = str(tmp_path / "run.rmns")
    assert main(["simulate", "--config", cfg_path, "--frames", "5", "--out", out]) == 0
    stack = read_stack(out)
    assert stack.n_frames == 5
    assert stack.seed == 7
    assert stack.camera.width_px == 64
    line = capsys.readouterr().out
    assert "wrote" in line and "seed=7" in line and "config_checksum=" in line


def test_simulate_seed_determinism(tmp_path, cfg_path):
    a, b, c = (str(tmp_path / n) for n in ("a.rmns", "b.rmns", "c.rmns"))
    base = ["simulate", "--config", cfg_path, "--frames", "5"]
    assert main(base + ["--out", a]) == 0
    assert main(base + ["--out", b]) == 0
    assert main(base + ["--seed", "8", "--out", c]) == 0
    raw_a, raw_b, raw_c = (Path(p).read_bytes() for p in (a, b, c))
    assert raw_a == raw_b
    assert raw_a != raw_c


def test_simulate_honours_schedule(tmp_path, cfg_path):
    sched = tmp_path / "sched.csv"
    sched.write_text(
        "shot,theta_read_x_urad,theta_read_y_urad\n"
        + "\n".join(f"{i},0.0,150.0" for i in range(5))
        + "\n"
    )
    flat, tilted = str(tmp_path / "flat.rmns"), str(tmp_path / "tilt.rmns")
    base = ["simulate", "--config", cfg_path, "--frames", "5"]
    assert main(base + ["--out", flat]) == 0
    assert main(base + ["--out", tilted, "--schedule", str(sched)]) == 0
    a, b = read_stack(flat), read_stack(tilted)
    np.testing.assert_array_equal(a.stokes, b.stokes)  # write side is untouched
    assert not np.array_equal(a.anti_stokes, b.anti_stokes)


def test_schedule_length_mismatch_is_config_error(tmp_path, cfg_path, capsys):
    sched = tmp_path / "sched.csv"
    sched.write_text("shot,theta_read_x_urad,theta_read_y_urad\n0,0.0,0.0\n1,0.0,0.0\n")
    rc = main(
        ["simulate", "--config", cfg_path, "--frames", "5",
         "--out", str(tmp_path / "x.rmns"), "--schedule", str(sched)]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err and "schedule has 2 rows" in err


def test_bad_config_reports_file_and_line(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[run]\nseeed = 1\n")
    rc = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "x.rmns")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert f"{bad}:2" in err


def test_missing_config_file(tmp_path, capsys):
    rc = main(
        ["simulate", "--config", str(tmp_path / "nope.ini"), "--out", str(tmp_path / "x.rmns")]
    )
    assert rc == 2
    assert "cannot read config" in capsys.readouterr().err


def test_correlate_from_stack(tmp_path, cfg_path, capsys):
    stack = str(tmp_path / "run.rmns")
    assert main(["simulate", "--config", cfg_path, "--out", stack]) == 0
    prefix = str(tmp_path / "map")
    rc = main(["correlate", "--stack", stack, "--ref-radius", "16", "--out", prefix])
    assert rc == 0
    for suffix in ("_stokes.csv", "_stokes.pgm", "_anti_stokes.csv", "_anti_stokes.pgm", "_fit.csv"):
        assert (tmp_path / f"map{suffix}").exists()
    out = capsys.readouterr().out
    assert "150 frames" in out
    assert "twin spot on anti_stokes" in out


def test_correlate_fresh_simulation_and_flipped_reference(tmp_path, cfg_path, capsys):
    prefix = str(tmp_path / "rev")
    rc = main(
        ["correlate", "--config", cfg_path, "--frames", "120",
         "--ref-pane", "anti_stokes", "--out", prefix]
    )
    assert rc == 0
    assert "twin spot on stokes" in capsys.readouterr().out
    assert (tmp_path / "rev_fit.csv").exists()


def test_correlate_dead_reference_fails_fit(tmp_path, capsys):
    cam = CameraGeometry(width_px=16, height_px=8, pixel_pitch_m=7.5e-6, f3_m=0.5)
    stack = tmp_path / "dead.rmns"
    zeros = np.zeros((8, 16), dtype=np.float32)
    with StackWriter(stack, cam, 4, seed=0, config_checksum=0) as w:
        for i in range(4):
            w.append(Frame(zeros, zeros, shot_index=i, readout_angle_urad=(0.0, 0.0)))
    rc = main(["correlate", "--stack", str(stack), "--out", str(tmp_path / "dead")])
    assert rc == 4
    assert "did not converge" in capsys.readouterr().err


def test_steer_reports_unreachable_fibers(tmp_path, cfg_path, capsys):
    report = tmp_path / "steer.csv"
    rc = main(
        ["steer", "--config", cfg_path, "--frames", "40",
         "--target-y", "300", "--out", str(report)]
    )
    assert rc == 3
    out = capsys.readouterr().out
    assert "UNREACHABLE" in out and "outside span" in out
    lines = report.read_text().splitlines()
    assert lines[0].startswith("# seed=7")
    assert lines[1].split(",")[0] == "fiber"
    rows = [ln.split(",") for ln in lines[2:]]
    assert len(rows) == 5
    reachable = [r for r in rows if r[3] == "1"]
    assert 1 <= len(reachable) < 5


def test_herald_sweep_csv(tmp_path, cfg_path, capsys):
    out = tmp_path / "herald.csv"
    rc = main(
        ["herald", "--config", cfg_path, "--shots", "20000",
         "--sweep-m", "5,50", "--out", str(out)]
    )
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "M=5:" in stdout and "M=50:" in stdout
    lines = out.read_text().splitlines()
    header = lines[1].split(",")
    assert header[0] == "modes" and header[-1] == "closed_form_herald_prob"
    rows = [ln.split(",") for ln in lines[2:]]
    assert [r[0] for r in rows] == ["5", "50"]
    for r in rows:
        rate = int(r[3]) / int(r[2])
        assert rate == pytest.approx(float(r[-1]), abs=0.02)


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects bad option values itself
        return exc.code


@pytest.mark.parametrize(
    "argv",
    [
        ["herald", "--shots", "0"],
        ["herald", "--sweep-m", "0"],
        ["herald", "--sweep-m", "10,abc"],
        ["simulate", "--frames", "0", "--out", "{tmp}/x.rmns"],
        ["correlate", "--frames", "5", "--ref-x", "3000", "--out", "{tmp}/off"],
        ["herald", "--seed", "-1"],
        ["steer", "--fibers", "0"],
        ["steer", "--fibers", "-2"],
        ["steer", "--fiber-span", "3000"],
        ["steer", "--fiber-span", "30000"],
        ["herald", "--seed", str(2**64)],
        ["correlate", "--frames", "5", "--seed", str(2**64), "--out", "{tmp}/big"],
        ["simulate", "--frames", "5", "--seed", str(2**64), "--out", "{tmp}/x.rmns"],
        ["steer", "--frames", "5", "--seed", str(2**64 - 1000)],
        ["correlate", "--frames", "5", "--ref-radius", "-5", "--out", "{tmp}/neg"],
        ["correlate", "--frames", "5", "--ref-radius", "nan", "--out", "{tmp}/nan"],
        ["steer", "--frames", "5", "--fiber-radius", "-5"],
        ["steer", "--frames", "5", "--fiber-radius", "nan"],
    ],
    ids=[
        "shots-0", "sweep-m-0", "sweep-m-not-int", "frames-0", "ref-x-off-pane", "seed-neg",
        "fibers-0", "fibers-neg", "fibers-off-pane", "fibers-past-paraxial",
        "herald-seed-2^64", "correlate-seed-2^64", "simulate-seed-2^64",
        "steer-fiber-seed-past-2^64", "ref-radius-neg", "ref-radius-nan",
        "fiber-radius-neg", "fiber-radius-nan",
    ],
)
def test_bad_input_exits_2(tmp_path, cfg_path, capsys, argv):
    argv = [a.format(tmp=tmp_path) for a in argv] + ["--config", cfg_path]
    assert _exit_code(argv) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "x.rmns").exists()


def test_bad_reference_on_a_stack_closes_the_file(tmp_path, cfg_path):
    stack = str(tmp_path / "run.rmns")
    assert main(["simulate", "--config", cfg_path, "--frames", "5", "--out", stack]) == 0
    env = dict(os.environ, PYTHONPATH=str(Path(ramanmem.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::ResourceWarning", "-m", "ramanmem", "correlate",
         "--stack", stack, "--ref-x", "3000", "--out", str(tmp_path / "off")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: --ref-x/--ref-y: ")
    assert "ResourceWarning" not in proc.stderr and "Traceback" not in proc.stderr


def test_requires_a_subcommand():
    with pytest.raises(SystemExit):
        main([])
