"""End-to-end runs of the console entry point, in process via main()."""

import csv
import dataclasses
import hashlib
import os
import re
import struct
import subprocess
import sys
import tomllib
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import ramanmem
from ramanmem import analysis, cli, control, scattering, stackio
from ramanmem.cli import main
from ramanmem.config import RunParams, load_config
from ramanmem.geometry import Angle2D, CameraGeometry, aod_chain_angle
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


@pytest.mark.parametrize("columns", ["theta", "drive"])
def test_scheduled_stack_stores_the_schedule_angles(tmp_path, cfg_path, columns):
    """Each frame record holds its schedule row's readout angle, bit for bit."""
    sched = tmp_path / "sched.csv"
    if columns == "theta":
        rows = [(0.1, -150.0), (1 / 3, 2.0**-30), (-450.0, 7.7), (0.0, 0.0), (12.345, 1e-9)]
        lines = [f"{i},{x!r},{y!r}\n" for i, (x, y) in enumerate(rows)]
        sched.write_text(_SCHEDULE_HEAD + "".join(lines))
    else:
        tones = (79.75e6, 80.0e6, 80.1234567e6, 80.25e6, 79.9e6)
        lines = [f"{i},{t!r}\n" for i, t in enumerate(tones)]
        sched.write_text("shot,drive_freq_hz\n" + "".join(lines))
    out = tmp_path / "sched.rmns"
    argv = ["simulate", "--config", cfg_path, "--frames", "5", "--schedule", str(sched)]
    assert main([*argv, "--out", str(out)]) == 0
    want = np.asarray(control.load_schedule(sched, load_config(cfg_path).chain), dtype=float)
    assert want.any()
    assert read_stack(out).readout_angles_urad.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    ("photons", "width"), [(None, np.uint16), (1300.0, np.uint16), (1e5, np.uint32), (1e9, np.uint32)]
)
def test_simulate_picks_the_count_width_from_the_pixel_bound(tmp_path, photons, width):
    """The default config's bound (~1 780) fits u16, and so does 1.3 times its photons; 100 times them need u32."""
    cfg = tmp_path / "exp.ini"
    modes = "" if photons is None else f"\n[modes]\nmean_photons_per_mode = {photons!r}\n"
    cfg.write_text(SMALL_CFG + modes)
    out = tmp_path / "run.rmns"
    assert main(["simulate", "--config", str(cfg), "--frames", "2", "--out", str(out)]) == 0
    count_bytes = stackio._HEADER.unpack_from(out.read_bytes())[-1]
    assert count_bytes == np.dtype(width).itemsize
    assert read_stack(out).counts.dtype == width
    loaded = load_config(cfg)
    ms, noise = loaded.mode_set(), loaded.retrieval.noise_floor
    assert (scattering.pixel_count_bound(ms, loaded.camera, noise) <= 65535) == (width == np.uint16)


def test_count_past_the_stack_width_exits_2(tmp_path, monkeypatch, capsys):
    """A bound that failed to hold is an error with no file left, never a wrapped count."""
    cfg = tmp_path / "bright.ini"
    cfg.write_text(SMALL_CFG + "\n[modes]\nmean_photons_per_mode = 1e7\n")
    monkeypatch.setattr(scattering, "pixel_count_bound", lambda *args: 0.0)
    out = tmp_path / "run.rmns"
    capsys.readouterr()
    assert main(["simulate", "--config", str(cfg), "--frames", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: a count of ") and err.count("\n") == 1
    assert "does not fit the stack's uint16 counts" in err
    assert not out.exists()


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
    zeros = np.zeros((2, 8, 16), dtype=np.uint16)
    with StackWriter(stack, cam, 4, seed=0, config_checksum=0, count_dtype=np.uint16) as w:
        for i in range(4):
            w.append(Frame(zeros, shot_index=i, readout_angle_urad=(0.0, 0.0)))
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
    with open(report, newline="") as fh:
        assert fh.readline().startswith("# seed=7")
        rows = list(csv.DictReader(fh))
    assert list(rows[0])[0] == "fiber"
    assert len(rows) == 5 and all(None not in row for row in rows)  # no cell past the header's
    reachable = [r for r in rows if r["reachable"] == "1"]
    assert 1 <= len(reachable) < 5
    # a note holds a comma (`outside span [lo, hi]`) and still reads back as one cell
    printed = re.findall(r"UNREACHABLE \((.*)\)$", out, re.MULTILINE)
    assert [r["note"] for r in rows if r["reachable"] == "0"] == printed
    assert all(", " in note for note in printed)


@pytest.mark.parametrize(
    "band, target_y, span",
    [
        ("", "9999", "[-200.000, 200.000]"),
        ("", "-9999", "[-200.000, 200.000]"),
        ("[chain]\nfreq_min_hz = -inf\nfreq_max_hz = inf\n", "9999", "[-10000.000, 10000.000]"),
    ],
    ids=["past-paraxial", "past-paraxial-neg", "unbounded-band"],
)
def test_steer_past_the_paraxial_bound_exits_3(tmp_path, capsys, band, target_y, span):
    """A valid target whose readout tilt lies past the paraxial bound is clamped and reported UNREACHABLE."""
    config = tmp_path / "band.ini"
    config.write_text(SMALL_CFG + "\n" + band)
    report = tmp_path / "steer.csv"
    assert main(["steer", "--config", str(config), "--frames", "4", "--target-y", target_y,
                 "--out", str(report)]) == 3
    fibers = [line for line in capsys.readouterr().out.splitlines() if line.startswith("fiber ")]
    with open(report, newline="") as fh:
        fh.readline()
        rows = list(csv.DictReader(fh))
    assert len(fibers) == len(rows) == 5  # one line per fiber
    far = [r for r in rows if r["reachable"] == "0"]
    assert len(far) == (2 if band else 5)  # an unbounded band reaches the three lower fibers
    # one UNREACHABLE line per unreachable fiber, quoting its note
    assert [line.partition("UNREACHABLE ")[2] for line in fibers if "UNREACHABLE" in line] == [
        f"({r['note']})" for r in far
    ]
    assert all(r["note"].endswith(f"outside span {span}") for r in far)
    assert all(abs(float(r["readout_y_urad"])) < 1e4 for r in rows)


@pytest.mark.parametrize("axes", ["x,y", "y,x"])
def test_steer_report_tone_is_the_first_axis_tilt(tmp_path, axes):
    """On a two-axis chain drive_freq_hz is the first axis's tone; no column lists the second's."""
    config = tmp_path / "axes.ini"
    config.write_text(SMALL_CFG + f"\n[chain]\nsteer_axes = {axes}\n")
    chain = load_config(config).chain
    first, second = chain.steer_axes
    report = tmp_path / "steer.csv"
    argv = ["steer", "--config", str(config), "--frames", "40", "--fibers", "2", "--fiber-x", "-40",
            "--out", str(report)]
    assert main(argv) == 0
    with open(report, newline="") as fh:
        fh.readline()
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    for row in rows:
        tilt = aod_chain_angle(float(row["drive_freq_hz"]), chain)
        assert getattr(tilt, f"theta_{first}") == pytest.approx(float(row[f"readout_{first}_urad"]), abs=1e-9)
        assert getattr(tilt, f"theta_{second}") == 0.0 != float(row[f"readout_{second}_urad"])


_PINNED_STEER_ARGS = ["steer", "--frames", "200", "--fibers", "2", "--seed", "50"]
_PINNED_STEER_DIGEST = "2e1702641e787dfc5ac87f20ec400df35f9c12ee9991174204e95d3ea0d7e725"


def test_steer_report_digest_is_pinned(tmp_path, capsys):
    """A small default-config steer writes the same report bytes on every run.

    A byte that moves is an output change to document, not to re-pin silently.
    """
    report = tmp_path / "steer.csv"
    rc = main([*_PINNED_STEER_ARGS, "--out", str(report)])
    assert rc == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == _PINNED_STEER_DIGEST


# (name, correlate options): a pixel, a 20 urad virtual fiber, a reverse map
_STACK_DIGEST_REFS = (
    ("pixel", ["--ref-x", "40.0", "--ref-y", "-30.0"]),
    ("disc", ["--ref-x", "-60.0", "--ref-y", "50.0", "--ref-radius", "20"]),
    ("reverse", ["--ref-x", "30.0", "--ref-y", "20.0", "--ref-pane", "anti_stokes"]),
)
_MAP_SUFFIXES = ("_stokes.csv", "_stokes.pgm", "_anti_stokes.csv", "_anti_stokes.pgm", "_fit.csv")
_PINNED_STACK_MAP_DIGESTS = {
    "pixel_stokes.csv": "a9b10174390b9bf202380418966b84753af8bc8071892355494118fbce0f3601",
    "pixel_stokes.pgm": "f99979b0ef5eb5444a70aa930b00ea984f457a378dcd7c98380e961495881d00",
    "pixel_anti_stokes.csv": "b6cf3ddb55fdd16ee73bfe520b6aec8bdc59fbde984184d8d52a7183f0600d8b",
    "pixel_anti_stokes.pgm": "b3f8642893d6928d34e006555434aa1a6ff3f67e77bd7bc28bf57909ff7434ff",
    "pixel_fit.csv": "26236bfbd2efd24ed57e402555fd11fa913c8ad35cd78e8988e07cc07ab7d54e",
    "disc_stokes.csv": "b41ace237cb184eaf6dc4b6cd7ae209a764daea9bd08b7beb63ea6fa12a22188",
    "disc_stokes.pgm": "1a96709eeb8cdb10be40883637046953bcf2e97c18b0b72d3d11a23f53e5f480",
    "disc_anti_stokes.csv": "4b742f480ec070fa8e9e21585be35ae1e63f1f67b8bcd9a7bad5aed69b27c905",
    "disc_anti_stokes.pgm": "c4fc6b88f55a2411042d0f10fd740067184fc49337b90c48da3bd8940f768eae",
    "disc_fit.csv": "e434636778d97acf70ec21f75d22a9ea265bb52424ebd6af42b49b724194d26f",
    "reverse_stokes.csv": "898aa90e5be0125dacbee4de727787edf45a43e09ed0eac636a0a6457ab44a5d",
    "reverse_stokes.pgm": "eefcfbf49ccacfe69820f92cf01402bf548c968cbc766c2d1e69f6d52bcb1a5a",
    "reverse_anti_stokes.csv": "ab24b57a318c7d2a3dcd87d539ed824c07df4a628a452d410f333d345dd53b9e",
    "reverse_anti_stokes.pgm": "4475e5f59bda979d2d3ad5bd6ef23035724f2528ea939cdd66ae8ae571448d72",
    "reverse_fit.csv": "cc6c6404c8c83421ba1c0977d28bf84ad4f9124bd29d4af3854d1cc0c1a276cd",
}


def test_correlate_stack_digest_is_pinned(tmp_path, capsys):
    """`correlate --stack` writes the same map and fit bytes on every run, and so does a fresh `correlate`.

    203 frames: the count is not a multiple of the ingest block, so a short
    last block is folded too.  The stack's maps take their stamp from its
    header, the fresh maps theirs from the config.  A byte that moves is an
    output change to document, not to re-pin silently.
    """
    run = ["--frames", "203", "--seed", "11"]
    stack = str(tmp_path / "run.rmns")
    assert main(["simulate", *run, "--out", stack]) == 0
    for source in (["--stack", stack], run):
        digests = {}
        for name, options in _STACK_DIGEST_REFS:
            prefix = tmp_path / name
            assert main(["correlate", *source, *options, "--out", str(prefix)]) == 0
            for suffix in _MAP_SUFFIXES:
                raw = Path(f"{prefix}{suffix}").read_bytes()
                digests[f"{name}{suffix}"] = hashlib.sha256(raw).hexdigest()
        assert digests == _PINNED_STACK_MAP_DIGESTS, source


def _block_refs(camera):
    """K = 3 references: a Stokes pixel, a Stokes disc and an anti-Stokes pixel."""
    return [
        analysis.Reference.place(camera, "stokes", Angle2D(40.0, -30.0), 0.0),
        analysis.Reference.place(camera, "stokes", Angle2D(-60.0, 50.0), 20.0),
        analysis.Reference.place(camera, "anti_stokes", Angle2D(30.0, 20.0), 0.0),
    ]


@pytest.mark.parametrize("source", ["stack", "simulated"])
def test_block_ingest_equals_frame_loop(tmp_path, cfg_path, source):
    """One full and one short block; the maps match a frame loop's bit for bit."""
    n_frames = stackio._BLOCK + 3
    cfg = dataclasses.replace(load_config(cfg_path), run=RunParams(seed=21, n_frames=n_frames))
    frames = list(scattering.iter_simulated_frames(cfg))
    path = tmp_path / "run.rmns"
    with StackWriter(
        path, cfg.camera, n_frames, seed=21, config_checksum=0, count_dtype=np.uint16
    ) as w:
        for frame in frames:
            w.append(frame)
    if source == "stack":
        blocks = cli._stack_blocks(str(path))[-1]
    else:
        blocks = cli._rendered_blocks(iter(frames))
    refs = _block_refs(cfg.camera)
    got = cli._correlate_frames(blocks, refs)
    for cmap, ref in zip(got, refs):
        acc = analysis.MomentSet.empty([ref])
        for frame in frames:  # the frame-at-a-time reference the block fold must match
            analysis.accumulate_block(acc, frame.counts[None])
        want = analysis.correlation_map(acc, 0)
        assert cmap.n_frames == want.n_frames == n_frames
        assert np.array_equal(cmap.values, want.values, equal_nan=True)


def test_stack_ingest_memory_does_not_grow_with_frames(tmp_path):
    """Ingest holds one block at a time: the same map-making peak at 64 and at 640 frames.

    "The same" allows 8 KB, one frame's u16 panes, for one-off
    interpreter allocations; a peak that grew with the stack would be MBs.
    """
    cam = CameraGeometry(width_px=64, height_px=32, pixel_pitch_m=7.5e-6, f3_m=0.5)
    rng = np.random.default_rng(5)
    refs = _block_refs(cam)
    peaks = []
    for count in (64, 640):
        path = tmp_path / f"run{count}.rmns"
        with StackWriter(path, cam, count, seed=0, config_checksum=0, count_dtype=np.uint16) as w:
            for i in range(count):
                panes = rng.poisson(20.0, size=(2, 32, 64)).astype(np.uint16)
                w.append(Frame(panes, shot_index=i, readout_angle_urad=(0.0, 0.0)))
        blocks = cli._stack_blocks(str(path))[-1]
        tracemalloc.start()
        try:
            maps = cli._correlate_frames(blocks, refs)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert maps[0].n_frames == count
    assert abs(peaks[1] - peaks[0]) < 8192, peaks


def test_extra_references_add_only_their_cross_moments():
    """One moment set per pass: from 1 to 5 pixel references the fold's peak grows by at most
    3 pane pairs (2 H W float64) per extra reference, for its cross moments and gemm row.

    The shared intensity sums are held once; a set per reference held its own copies.
    """
    cam = CameraGeometry(width_px=128, height_px=64, pixel_pitch_m=7.5e-6, f3_m=0.5)  # the default
    rng = np.random.default_rng(9)
    shape = (stackio._BLOCK, 2, cam.height_px, cam.width_px)
    blocks = [rng.integers(0, 100, size=shape, dtype=np.uint16) for _ in range(400 // stackio._BLOCK)]
    refs = [
        analysis.Reference.place(cam, "stokes", Angle2D(0.0, y), 0.0) for y in (-300, -150, 0, 150, 300)
    ]
    peaks = []
    for k in (1, 5):
        tracemalloc.start()
        try:
            maps = cli._correlate_frames(blocks, refs[:k])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(maps) == k and maps[-1].n_frames == 400
    pane_pair = 2 * cam.height_px * cam.width_px * 8
    assert peaks[1] - peaks[0] <= 4 * 3 * pane_pair, peaks


def test_steer_fibers_at_one_height_report_no_slope(tmp_path, capsys):
    """Converged fibers that share one y give no baseline line: NaN, not a polyfit crash.

    Two fibers over a zero span sit at y = 0, and so does a lone fiber over any span.
    """
    report = tmp_path / "steer.csv"
    for n, span in ((2, "0"), (1, "300")):
        argv = ["steer", "--frames", "60", "--fibers", str(n), "--fiber-span", span, "--out", str(report)]
        assert main(argv) == 0
        assert "baseline conjugate slope along y: nan (intercept nan urad)" in capsys.readouterr().out
        header = report.read_text().splitlines()[0]
        assert header.endswith("baseline_slope=nan baseline_intercept=nan")
        rows = [ln.split(",") for ln in report.read_text().splitlines()[2:]]
        assert [r[2] for r in rows] == ["0.0"] * n  # every fiber at y = 0
        assert all(r[7] != "nan" for r in rows)  # every baseline fit converged


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


_PINNED_HERALD_ARGS = ["herald", "--shots", "20000", "--sweep-m", "1,10,100", "--seed", "3"]
_PINNED_HERALD_DIGEST = "7ca4726da05f194716b9c6634cefba6250aceb1edeefd280bdf54089987e07ab"


def test_herald_csv_digest_is_pinned(tmp_path, capsys):
    """A default-config herald sweep writes the same CSV bytes on every run."""
    out = tmp_path / "herald.csv"
    assert main([*_PINNED_HERALD_ARGS, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _PINNED_HERALD_DIGEST


def test_version_matches_pyproject(capsys):
    # the version is written in two places; stacks from different versions
    # at one seed may differ, so the two copies must name the same release
    with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as f:
        declared = tomllib.load(f)["project"]["version"]
    assert declared == ramanmem.__version__
    assert _exit_code(["--version"]) == 0
    assert capsys.readouterr().out == f"ramanmem {ramanmem.__version__}\n"


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
        ["simulate", "--frames", str(2**32), "--out", "{tmp}/x.rmns"],
        ["correlate", "--frames", "1", "--out", "{tmp}/one"],
        ["steer", "--frames", "1"],
        ["correlate", "--config", "{one}", "--out", "{tmp}/one"],
        ["steer", "--config", "{one}"],
        ["correlate", "--stack", "{stack}", "--seed", "9", "--out", "{tmp}/s"],
        ["correlate", "--stack", "{stack}", "--frames", "3", "--out", "{tmp}/s"],
        ["correlate", "--stack", "{stack}", "--out", "{tmp}/s"],
    ],
    ids=[
        "shots-0", "sweep-m-0", "sweep-m-not-int", "frames-0", "ref-x-off-pane", "seed-neg",
        "fibers-0", "fibers-neg", "fibers-off-pane", "fibers-past-paraxial",
        "herald-seed-2^64", "correlate-seed-2^64", "simulate-seed-2^64",
        "steer-fiber-seed-past-2^64", "ref-radius-neg", "ref-radius-nan",
        "fiber-radius-neg", "fiber-radius-nan", "frames-past-u32",
        "correlate-one-frame", "steer-one-frame", "correlate-config-one-frame", "steer-config-one-frame",
        "correlate-stack-seed", "correlate-stack-frames", "correlate-stack-config",
    ],
)
def test_bad_input_exits_2(tmp_path, cfg_path, capsys, argv):
    stack, one = tmp_path / "s.rmns", tmp_path / "one.ini"
    if "{stack}" in argv:
        assert main(["simulate", "--config", cfg_path, "--frames", "3", "--out", str(stack)]) == 0
    if "{one}" in argv:
        one.write_text(SMALL_CFG.replace("n_frames = 150", "n_frames = 1"))
    else:
        argv = [*argv, "--config", cfg_path]
    argv = [a.format(tmp=tmp_path, stack=stack, one=one) for a in argv]
    assert _exit_code(argv) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    if "needs at least 2 frames" in err:  # named after what set the count: the flag, else the config
        source = "--frames" if "--frames" in argv else str(one)
        assert err == f"error: {source}: a correlation map needs at least 2 frames, got 1\n"
    for flag, name in (("--seed", "seed"), ("--frames", "n_frames")):
        if f" {name} must lie in" in err:  # a run value out of range names the one flag that set it
            assert err.startswith(f"error: {flag}: ")
    assert not (tmp_path / "x.rmns").exists()
    if "--stack" in argv:  # one line, naming the first run flag a recorded stack cannot take
        flag = next(f for f in ("--seed", "--frames", "--config") if f in argv)
        assert err == f"error: {flag}: does not apply to a recorded --stack\n"
        assert not list(tmp_path.glob("s_*"))


def test_more_fibers_than_column_pixels_exit_2_before_any_render(tmp_path, cfg_path, capsys, monkeypatch):
    """Every fiber is one reference on one pixel column: one more fiber than its pixels is refused."""
    height = load_config(cfg_path).camera.height_px

    def no_render(*args, **kwargs):
        raise AssertionError("rendered")

    monkeypatch.setattr(scattering, "iter_simulated_frames", no_render)
    report = tmp_path / "steer.csv"
    argv = ["steer", "--config", cfg_path, "--frames", "5", "--fibers", str(height + 1), "--out", str(report)]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: --fibers: more fibers than the {height} pixels of a column\n"
    assert not report.exists()


@pytest.mark.parametrize("span", ["inf", "-inf", "nan"])
def test_fiber_span_must_be_finite(capsys, span):
    """argparse rejects the span itself, before numpy sees it."""
    assert _exit_code(["steer", "--frames", "5", f"--fiber-span={span}"]) == 2
    err = capsys.readouterr().err
    assert err.endswith(f"argument --fiber-span: must be a finite number, got {span}\n")
    assert "Warning" not in err


_SCHEDULE_HEAD = "shot,theta_read_x_urad,theta_read_y_urad\n"


def _as_version_1(raw):
    """The stack with its version field set to 1, a format no longer read."""
    return raw[:4] + struct.pack("<H", 1) + raw[6:]


@pytest.mark.parametrize(
    "kind, make",
    [
        ("stack", lambda raw: b"WAT?" + raw[4:]),
        ("stack", lambda raw: raw[:10]),
        ("stack", lambda raw: raw[:-100]),
        ("stack", None),
        ("stack", _as_version_1),
        ("stack", lambda raw: raw[:26] + struct.pack("<d", 3.7e-155) + raw[34:]),  # f3
        ("stack", lambda raw: raw[:26] + struct.pack("<d", 5.8e-310) + raw[34:]),
        ("stack", lambda raw: raw[:26] + struct.pack("<d", 1e300) + raw[34:]),
        ("stack", lambda raw: raw + raw),
        ("schedule", "shot,tilt_urad\n0,1.0\n"),
        ("schedule", _SCHEDULE_HEAD + "0,0.0,abc\n"),
        ("schedule", _SCHEDULE_HEAD + "0,0.0\n"),
        ("schedule", _SCHEDULE_HEAD + "0,0.0,nan\n"),
        ("schedule", "shot,drive_freq_hz\n0,1e9\n"),
        ("schedule", _SCHEDULE_HEAD + "2,0.0,30.0\n0,0.0,10.0\n1,0.0,20.0\n"),
        ("schedule", "\ufeff" + _SCHEDULE_HEAD + "1,0.0,30.0\n"),
        ("schedule", "theta_read_x_urad,theta_read_y_urad,theta_read_y_urad\n0,10,20\n"),
        ("schedule", "shot,drive_freq_hz,foo\n0,80e6,1\n"),
        ("schedule", "theta_read_x_urad,theta_read_y_urad,drive_freq_hz\n0,10,95e6\n"),
        ("schedule", "theta_read_x_urad,drive_freq_hz\n5,80e6\n"),
        ("config", b"[modes]\ngain_shrink = -1\n"),
        ("config", b"[modes]\nenvelope_fwhm_urad = 1\n"),
        ("config", b"[modes]\ngrid_spacing_sigma = 0.5\n"),
        ("config", b"[metadata]\nlab = caf\xe9\n"),
        ("config", b"[modes]\nmean_photons_per_mode = 1e30\n"),
        ("config", b"[retrieval]\nnoise_floor = 1e30\n"),
        ("config", b"[herald]\nzeta = 1e300\n"),
        ("config", b"[geometry]\nw0_write_m = 1e300\n"),
        ("config", b"[modes]\nmean_photons_per_mode = 1e12\n[camera]\npixel_pitch_m = 1e-3\n"),
        ("config", b"[camera]\npixel_pitch_m = 1e300\n"),
        ("config", b"[camera]\npane_width_px = 40000\npane_height_px = 40000\n"),
        ("config", b"[camera]\npane_width_px = 4294967296\npane_height_px = 2\n"),
        ("config", b"[retrieval]\naberration_scale_urad = 1e-300\n"),
        ("config", b"[retrieval]\naberration_scale_urad = 0\n"),
        ("config", b"[retrieval]\naberration_scale_urad = -5\n"),
        ("config", b"[geometry]\nlambda_read_m = 1e300\n"),
        ("config", b"[modes]\ngain_shrink = 5e-324\n"),
        ("config", b"[modes]\ngrid_spacing_sigma = inf\n"),
        ("config", b"[chain]\nf3_m = 1e300\n"),
        ("config", b"[camera]\npixel_pitch_m = 5e-324\n"),
        ("config", b"[modes]\nreadout_envelope_fwhm_urad = -5\n"),
        ("config", b"[chain]\nsteer_axes = y,y\n"),
        ("config", b"[herald]\nswitch_latency_s = -1\n"),
        ("config", b"[herald]\nmemory_lifetime_s = 0\n"),
        ("config", b"[run]\nseed = 18446744073709551616\n"),
        ("config", b"[run]\nn_frames = 4294967296\n"),
        ("steer-config", b"[run]\nseed = 18446744073709551000\n"),
    ],
    ids=[
        "stack-bad-magic", "stack-truncated-header", "stack-truncated-body", "stack-one-frame",
        "stack-version-1", "stack-f3-pitch-past-paraxial",
        "stack-f3-subnormal", "stack-f3-pixel-below-floor", "stack-trailing-bytes",
        "schedule-unknown-columns", "schedule-not-a-number", "schedule-short-row", "schedule-nan-tilt",
        "schedule-tone-outside-band", "schedule-shots-out-of-order", "schedule-bom-shot-out-of-order",
        "schedule-column-named-twice", "schedule-extra-column", "schedule-tilts-and-tone",
        "schedule-one-tilt-and-tone",
        "config-gain-shrink-neg", "config-envelope-below-one-mode", "config-grid-spacing-below-1",
        "config-not-utf8", "config-photons-past-poisson", "config-noise-floor-past-poisson",
        "config-zeta-p-rounds-to-1", "config-mode-grid-too-large", "config-pixel-past-poisson",
        "config-pitch-past-paraxial", "config-pane-past-frame-record", "config-pane-width-past-u32",
        "config-aberration-scale-underflows", "config-aberration-scale-0", "config-aberration-scale-neg",
        "config-carrier-ratio-1e306",
        "config-gain-shrink-subnormal", "config-grid-spacing-inf",
        "config-f3-pixel-below-floor", "config-pitch-pixel-below-floor",
        "config-readout-envelope-neg", "config-steer-axis-twice", "config-switch-latency-neg",
        "config-memory-lifetime-0", "config-seed-past-u64", "config-frames-past-u32",
        "steer-config-fiber-seed-past-u64",
    ],
)
def test_bad_input_file_exits_2(tmp_path, cfg_path, capsys, kind, make):
    bad = tmp_path / f"bad.{kind}"
    if kind == "stack":
        frames = "1" if make is None else "3"
        assert main(["simulate", "--config", cfg_path, "--frames", frames, "--out", str(bad)]) == 0
        if make is not None:
            bad.write_bytes(make(bad.read_bytes()))
        argv = ["correlate", "--stack", str(bad), "--out", str(tmp_path / "map")]
    elif kind == "config":
        bad.write_bytes(make)
        argv = ["simulate", "--config", str(bad), "--frames", "1", "--out", str(tmp_path / "x.rmns")]
    elif kind == "steer-config":  # a valid config whose seed steer's per-fiber passes push past u64
        bad.write_bytes(make)
        argv = ["steer", "--config", str(bad), "--frames", "5", "--out", str(tmp_path / "x.rmns")]
    else:
        bad.write_text(make, encoding="utf-8")
        argv = ["simulate", "--config", cfg_path, "--frames", "1", "--schedule", str(bad),
                "--out", str(tmp_path / "x.rmns")]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1
    if make is _as_version_1:
        assert err.endswith(": unsupported version 1\n")
    assert not (tmp_path / "x.rmns").exists() and not list(tmp_path.glob("map_*"))


_CONTRACT_KEYS = [
    *(("modes", key) for key in (
        "gain_shrink", "envelope_fwhm_urad", "readout_envelope_fwhm_urad", "mean_photons_per_mode",
        "spot_constant", "grid_spacing_sigma", "grid_margin_sigma",
    )),
    ("geometry", "lambda_read_m"),
    ("camera", "pixel_pitch_m"),
    ("retrieval", "noise_floor"),
]
_CONTRACT_VALUES = [
    "0.0", "-0.0", "5e-324", "1e-300", "1", "1e12", "1e13", "1e300", "inf", "-inf", "nan", "-1",
    "4294967296",
]


@pytest.mark.parametrize("value", _CONTRACT_VALUES)
@pytest.mark.parametrize(("section", "key"), _CONTRACT_KEYS, ids=[k for _, k in _CONTRACT_KEYS])
def test_mode_grid_config_values_exit_0_or_2(tmp_path, capsys, section, key, value):
    """Any value of a key the mode grid depends on runs or exits 2, with no traceback, warning or file left."""
    sections = {"camera": {"pane_width_px": "16", "pane_height_px": "8"}}
    sections.setdefault(section, {})[key] = value
    cfg = tmp_path / "exp.ini"
    cfg.write_text("".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()) for name, keys in sections.items()
    ))
    out = tmp_path / "run.rmns"
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(["simulate", "--config", str(cfg), "--frames", "3", "--out", str(out)])
    assert rc in (0, 2)
    assert out.exists() == (rc == 0)
    if rc == 2:
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["correlate", "steer", "herald"])
def test_oversized_pane_exits_2_as_the_config_loads(tmp_path, capsys, command):
    """The pane bound is checked when the config loads, so no command allocates the pane.

    `simulate` is the config-pane-width-past-u32 case of test_bad_input_file_exits_2.
    """
    bad = tmp_path / "wide.ini"
    bad.write_text("[camera]\npane_width_px = 4294967296\npane_height_px = 2\n")
    argv = [command, "--config", str(bad), "--out", str(tmp_path / "out")]
    capsys.readouterr()
    assert main(argv if command == "herald" else [*argv, "--frames", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: a 4294967296x2 pane is too large") and err.count("\n") == 1
    assert not list(tmp_path.glob("out*"))


def test_failed_simulate_leaves_no_stack(tmp_path, cfg_path, monkeypatch):
    """A render that fails at frame 4 of 10 deletes the stack it started."""
    render = scattering.iter_simulated_frames

    def failing(cfg, **kwargs):
        for frame in render(cfg, **kwargs):
            if frame.shot_index == 4:
                raise RuntimeError("render failed at frame 4")
            yield frame

    monkeypatch.setattr(scattering, "iter_simulated_frames", failing)
    out = tmp_path / "x.rmns"
    with pytest.raises(RuntimeError, match="frame 4"):
        main(["simulate", "--config", cfg_path, "--frames", "10", "--out", str(out)])
    assert not out.exists()


def _bright_config(tmp_path, photons):
    cfg = tmp_path / "bright.ini"
    cfg.write_text(f"[modes]\nmean_photons_per_mode = {photons!r}\n")
    return str(cfg)


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_counts_past_2_24_fit_a_u32_stack_and_fail_the_fold(tmp_path, capsys, monkeypatch, threads):
    """At 1e9 photons per mode counts pass 2**24: a u32 stack holds them, and their squares pass 2**53."""
    _use_threads(monkeypatch, threads)
    cfg, stack = _bright_config(tmp_path, 1e9), tmp_path / "bright.rmns"
    run = ["--frames", "16", "--seed", "5", "--config", cfg]
    assert main(["simulate", *run, "--out", str(stack)]) == 0
    counts = read_stack(stack).counts
    assert counts.dtype == np.uint32 and counts.max() >= 2**24
    for source in (run, ["--stack", str(stack)]):
        capsys.readouterr()
        assert main(["correlate", *source, "--out", str(tmp_path / "map")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "2**53" in err
    assert not list(tmp_path.glob("map_*"))


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_counts_past_u32_exit_2(tmp_path, capsys, monkeypatch, threads):
    """At 1e12 photons per mode a count passes u32, the widest stack: no run finishes, no file is left."""
    _use_threads(monkeypatch, threads)
    run = ["--frames", "3", "--seed", "5", "--config", _bright_config(tmp_path, 1e12)]
    stack = tmp_path / "bright.rmns"
    for argv in (["simulate", *run, "--out", str(stack)],
                 ["correlate", *run, "--out", str(tmp_path / "map")]):
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: a count of ") and err.count("\n") == 1
        assert err.endswith(" does not fit the stack's uint32 counts\n")
    assert not stack.exists() and not list(tmp_path.glob("map_*"))


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_u32_stack_holding_2_24_maps(tmp_path, cfg_path, monkeypatch, threads):
    """A count of 2**24 is a plain u32 count: the stack maps, and that pixel correlates."""
    _use_threads(monkeypatch, threads)
    cfg = load_config(cfg_path)
    cfg = dataclasses.replace(cfg, run=dataclasses.replace(cfg.run, n_frames=20))
    frames = list(scattering.iter_simulated_frames(cfg))
    path = tmp_path / "wide.rmns"
    with StackWriter(path, cfg.camera, len(frames), seed=7, config_checksum=0, count_dtype=np.uint32) as w:
        for i, frame in enumerate(frames):
            counts = frame.counts.astype(np.uint32)
            if i == len(frames) - 1:  # the first anti-Stokes pixel of the last frame
                counts[1, 0, 0] = 2**24
            w.append(Frame(counts, shot_index=i, readout_angle_urad=(0.0, 0.0)))
    assert read_stack(path).anti_stokes.max() == 2**24
    prefix = tmp_path / "map"
    assert main(["correlate", "--stack", str(path), "--out", str(prefix)]) == 0
    first_row = np.loadtxt(f"{prefix}_anti_stokes.csv", delimiter=",", skiprows=2)[0]
    assert np.isfinite(first_row[2])


def test_header_past_its_body_exits_2_before_allocating(tmp_path, capsys):
    """A header declaring 64 MiB of body the file lacks exits 2 at the header, within 1 MB of memory."""
    path = tmp_path / "big.rmns"  # the header alone, declaring 8 frames of a 1024x1024 u32 pane
    path.write_bytes(stackio._HEADER.pack(stackio.MAGIC, stackio.VERSION, 1024, 1024, 8, 7.5e-6, 0.5, 0, 0, 4))
    capsys.readouterr()
    tracemalloc.start()
    try:
        assert main(["correlate", "--stack", str(path), "--out", str(tmp_path / "map")]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().err == f"error: {path}: truncated frame 0\n"
    assert peak < 2**20, peak
    assert not list(tmp_path.glob("map_*"))


def test_stack_past_exact_moment_sums_exits_2(tmp_path, capsys):
    """Counts below 2**24 whose squares sum past 2**53 fail the fold and a merge.

    Each count is under 2**24, so any 32 frames keep every squared sum under
    2**53 and exact; the 64 frames of the stack pass it.
    """
    cam = CameraGeometry(width_px=64, height_px=32, pixel_pitch_m=7.5e-6, f3_m=0.5)
    counts = np.random.default_rng(3).integers(2**23, 2**24, size=(64, 2, 32, 64), dtype=np.uint32)
    path = tmp_path / "bright.rmns"
    with StackWriter(path, cam, len(counts), seed=0, config_checksum=0, count_dtype=np.uint32) as w:
        for i, panes in enumerate(counts):
            w.append(Frame(panes, shot_index=i, readout_angle_urad=(0.0, 0.0)))
    ref = analysis.Reference.place(cam, "stokes", Angle2D(0.0, 0.0), 0.0)
    halves = [analysis.MomentSet.empty([ref]) for _ in range(2)]
    analysis.accumulate_block(halves[0], counts[:32])
    analysis.accumulate_block(halves[1], counts[32:])
    with pytest.raises(OverflowError, match=r"2\*\*53"):
        analysis.merge(*halves)
    capsys.readouterr()
    assert main(["correlate", "--stack", str(path), "--out", str(tmp_path / "map")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "2**53" in err
    assert not list(tmp_path.glob("map_*"))


def test_non_ascii_metadata_runs(tmp_path, capsys):
    """Metadata is UTF-8 text, and the config checksum hashes it as such."""
    cfg = tmp_path / "warm.ini"
    cfg.write_text(SMALL_CFG + "\n[metadata]\nnote = cell at 70\u00b0C\n", encoding="utf-8")
    stack = tmp_path / "x.rmns"
    assert main(["simulate", "--config", str(cfg), "--out", str(stack)]) == 0
    report = tmp_path / "herald.csv"
    assert main(["herald", "--config", str(cfg), "--shots", "100", "--out", str(report)]) == 0
    checksum = load_config(cfg).checksum()
    assert read_stack(stack).config_checksum == checksum
    assert report.read_text().startswith(f"# seed=7 config_checksum={checksum:016x}\n")


def test_one_mode_grid_per_config(tmp_path, cfg_path, monkeypatch, capsys):
    """Parsing a config and a 2-fiber steer on it lay the mode grid out once."""
    calls = []
    build = scattering.build_mode_set

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(scattering, "build_mode_set", counted)
    scattering._mode_set.cache_clear()
    load_config(cfg_path)
    assert main(["steer", "--config", cfg_path, "--frames", "20", "--fibers", "2"]) == 0
    assert len(calls) == 1


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


def _use_threads(monkeypatch, threads):
    """Render on `threads` threads: the private seam that stands in for the core count."""
    monkeypatch.setattr(scattering, "_usable_cores", lambda: threads)


def test_fresh_outputs_do_not_depend_on_thread_count(tmp_path, monkeypatch, capsys):
    """All 5 files of a fresh correlate and the pinned steer report, on 1, 2 and 3 threads."""
    outputs = {}
    for threads in (1, 2, 3):
        _use_threads(monkeypatch, threads)
        prefix = tmp_path / f"map{threads}"
        argv = ["correlate", "--frames", "120", "--ref-x", "40", "--ref-y", "-30"]
        assert main([*argv, "--out", str(prefix)]) == 0
        outputs[threads] = [Path(f"{prefix}{suffix}").read_bytes() for suffix in _MAP_SUFFIXES]
        report = tmp_path / f"steer{threads}.csv"
        assert main([*_PINNED_STEER_ARGS, "--out", str(report)]) == 0
        assert hashlib.sha256(report.read_bytes()).hexdigest() == _PINNED_STEER_DIGEST
    assert outputs[2] == outputs[1] and outputs[3] == outputs[1]


_FAILING_RENDER = """\
import sys
from ramanmem import cli, scattering

scattering._usable_cores = lambda: int(sys.argv[1])
render = scattering._render_with_bases

def failing(*job):
    if job[3] == 4:  # the shot index
        raise RuntimeError("render failed at frame 4")
    return render(*job)

scattering._render_with_bases = failing
sys.exit(cli.main(sys.argv[2:]))
"""


def test_render_error_exits_as_it_does_on_one_thread(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(ramanmem.__file__).parents[1]))
    runs = {}
    for threads in (1, 2):
        proc = subprocess.run(
            [sys.executable, "-c", _FAILING_RENDER, str(threads), "simulate", "--frames", "10",
             "--out", str(tmp_path / f"run{threads}.rmns")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        runs[threads] = (proc.returncode, proc.stderr.splitlines()[-1])
    assert runs[1] == (1, "RuntimeError: render failed at frame 4")
    assert runs[2] == runs[1]


def test_requires_a_subcommand():
    with pytest.raises(SystemExit):
        main([])
