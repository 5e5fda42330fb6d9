"""The CLI contract, property-tested: every input ends in a documented exit code and leaves no stray file.

Each test runs `cli.main` in process at a tiny size (at most 4 frames on a
16x8 pane, a few thousand herald shots) over inputs hypothesis builds,
derandomized so tier-1 stays deterministic.  No run may raise a numpy
RuntimeWarning or leave a file handle to a ResourceWarning.
"""

import contextlib
import csv
import functools
import io
import math
import struct
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ramanmem import control, stackio
from ramanmem.cli import main
from ramanmem.config import load_config
from ramanmem.stackio import read_stack

_SCHEDULE_NAMES = ("shot", "drive_freq_hz", "theta_read_x_urad", "theta_read_y_urad", "foo", "")
_SCHEDULE_BAD_CELLS = (
    b"nan", b"inf", b"-inf", b"1e300", b"-1e300", b"95e6", b"1e4", b"abc", b"", b"caf\xe9",
)


def _one_in(draw, k: int) -> bool:
    return draw(st.integers(0, k - 1)) == 0


@st.composite
def _schedule_files(draw):
    """(file bytes, --frames) of a schedule that may be valid or wrong in its header, rows or shots.

    Each defect is drawn rarely, so that about half the files are valid.
    """
    header = draw(st.one_of(
        st.permutations(["shot", "drive_freq_hz"]),
        st.permutations(["shot", "theta_read_x_urad", "theta_read_y_urad"]),
        st.just(["drive_freq_hz"]),
        st.lists(st.sampled_from(_SCHEDULE_NAMES), max_size=4),
    ))
    header = [name if draw(st.booleans()) else f" {name} " for name in header]
    n = 0 if _one_in(draw, 8) else draw(st.integers(1, 4))
    shots = draw(st.permutations(range(n))) if _one_in(draw, 4) else range(n)
    tone, tilt = st.floats(70e6, 90e6), st.floats(-1e4, 1e4, exclude_min=True, exclude_max=True)
    rows = []
    for shot in shots:
        width = len(header) + (draw(st.sampled_from([-1, 1])) if _one_in(draw, 8) else 0)
        cells = []
        for name in (header[k].strip() if k < len(header) else "" for k in range(max(width, 0))):
            if name == "shot":
                cells.append(str(shot).encode())
            elif _one_in(draw, 8):
                cells.append(draw(st.sampled_from(_SCHEDULE_BAD_CELLS)))
            else:
                cells.append(repr(draw(tone if name == "drive_freq_hz" else tilt)).encode())
        rows.append(b",".join(cells))
    bom = b"\xef\xbb\xbf" if draw(st.booleans()) else b""
    text = bom + b"\n".join([b"# plan", ",".join(header).encode(), *rows]) + b"\n"
    return text, (draw(st.integers(1, 4)) if n == 0 or _one_in(draw, 8) else n)


@given(_schedule_files())
@example((b"shot,drive_freq_hz,foo\n0,80e6,1\n", 1))  # an extra column, once read as nothing
@example((b"drive_freq_hz\n80e6\ncaf\xe9\n", 2))
@example((b"\xef\xbb\xbf shot , drive_freq_hz \n0, 80e6\n 1 ,80.25e6\n", 2))
@settings(derandomize=True, max_examples=150, deadline=None)
def test_any_schedule_file_runs_or_exits_2(case):
    """Any schedule bytes run to a stack holding load_schedule's rows, or exit 2 with one error line and no stack."""
    text, frames = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg, sched, out = (Path(tmp) / name for name in ("exp.ini", "sched.csv", "run.rmns"))
        cfg.write_text("[camera]\npane_width_px = 16\npane_height_px = 8\n")
        sched.write_bytes(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main(["simulate", "--config", str(cfg), "--frames", str(frames), "--schedule", str(sched),
                       "--out", str(out)])
        assert rc in (0, 2)
        if rc == 2:
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
            assert not out.exists()
        else:
            want = control.load_schedule(sched, load_config(str(cfg)).chain)
            assert read_stack(out).readout_angles_urad.tobytes() == want.tobytes()


def _run(argv: list[str]) -> tuple[int, str]:
    """main(argv)'s exit code and stderr; fails on any RuntimeWarning or ResourceWarning it raised."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main(argv)
    bad = [w for w in caught if issubclass(w.category, (RuntimeWarning, ResourceWarning))]
    assert not bad, [str(w.message) for w in bad]
    return rc, err.getvalue()


def _assert_one_error_line(stderr: str) -> None:
    assert stderr.startswith("error: ") and stderr.count("\n") == 1, stderr


# ---------------------------------------------------------------------------
# a recorded stack, mutated


@functools.cache
def _valid_stack() -> bytes:
    """A 4-frame stack of 16x8 panes, as simulate records it."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "exp.ini", Path(tmp) / "run.rmns"
        cfg.write_text("[camera]\npane_width_px = 16\npane_height_px = 8\n")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["simulate", "--config", str(cfg), "--frames", "4", "--out", str(out)]) == 0
        return out.read_bytes()


_RECORD = 16 + 2 * 16 * 8 * 2  # a frame record of the valid stack: its angle pair, then u16 counts
_STACK_SIZE = stackio._HEADER.size + 4 * _RECORD

# (offset, struct format) of each .rmns header field after the magic, and values that take each apart
_HEADER_FIELDS = {
    "version": (4, "<H", [0, 1, 3, 2**16 - 1]),
    "width": (6, "<I", [0, 1, 2, 4, 8, 32, 64, 2**31, 2**32 - 1]),
    "height": (10, "<I", [0, 1, 2, 4, 16, 32, 64, 2**31, 2**32 - 1]),
    "count": (14, "<I", [0, 1, 2, 3, 5, 2**31, 2**32 - 1]),
    "pitch": (18, "<d", [0.0, -0.0, -7.5e-6, 5e-324, 1e-12, 1.5e-5, 1e300, math.inf, math.nan]),
    "f3": (26, "<d", [0.0, -0.5, 5e-324, 0.25, 1e6, 1e300, -math.inf, math.nan]),
    "seed": (34, "<Q", [0, 2**64 - 1]),
    "checksum": (42, "<Q", [0, 2**64 - 1]),
    "count width": (50, "<H", [0, 1, 3, 4, 8, 2**16 - 1]),
}


def _field(name: str, value) -> tuple:
    offset, fmt, _ = _HEADER_FIELDS[name]
    return ("set", offset, struct.pack(fmt, value))


@st.composite
def _stack_mutations(draw):
    """One to three edits of the valid stack: a header field or body bytes set, a cut or a tail."""
    edits = []
    for _ in range(draw(st.integers(1, 3))):
        # edits that keep the file's length are drawn most: they reach the fold, the map and the fit
        kind = draw(st.sampled_from(["field", "field", "body", "body", "body", "magic", "truncate", "extend"]))
        if kind == "field":
            name = draw(st.sampled_from(sorted(_HEADER_FIELDS)))
            edits.append(_field(name, draw(st.sampled_from(_HEADER_FIELDS[name][2]))))
        elif kind == "magic":
            edits.append(("set", 0, draw(st.binary(min_size=4, max_size=4))))
        elif kind == "body":
            at = draw(st.integers(stackio._HEADER.size, _STACK_SIZE - 1))
            edits.append(("set", at, draw(st.binary(min_size=1, max_size=min(64, _STACK_SIZE - at)))))
        elif kind == "truncate":
            edits.append(("truncate", draw(st.integers(0, _STACK_SIZE - 1))))
        else:
            edits.append(("extend", draw(st.binary(min_size=1, max_size=2 * _RECORD))))
    return edits


def _mutate(data: bytes, edits) -> bytes:
    out = bytearray(data)
    for kind, *args in edits:
        if kind == "set":
            at, value = args
            out[at:at + len(value)] = value[:max(len(out) - at, 0)]
        elif kind == "truncate":
            del out[args[0]:]
        else:
            out += args[0]
    return bytes(out)


@given(_stack_mutations())
@example([])  # the valid stack itself
@example([_field("width", 32), _field("height", 4)])  # the record size of 16x8: the map runs on a 32x4 camera
@example([_field("count", 5)])  # a header that declares more body than its file holds
@example([("set", stackio._HEADER.size, bytes(4 * _RECORD))])  # every count 0: each pixel's variance is 0
@example([("set", stackio._HEADER.size + 16, b"\xff" * 512)])  # one frame's counts at the u16 maximum
@settings(derandomize=True, max_examples=200, deadline=None)
def test_any_stack_bytes_map_or_exit_2(edits):
    """correlate --stack on any stack bytes exits 0, 2 or 4; exit 2 prints one error line and writes no map."""
    assert len(_valid_stack()) == _STACK_SIZE
    with tempfile.TemporaryDirectory() as tmp:
        stack = Path(tmp) / "run.rmns"
        stack.write_bytes(_mutate(_valid_stack(), edits))
        rc, stderr = _run(["correlate", "--stack", str(stack), "--out", str(Path(tmp) / "map")])
        assert rc in (0, 2, 4), (rc, stderr)
        if rc == 2:
            _assert_one_error_line(stderr)
            assert sorted(p.name for p in Path(tmp).iterdir()) == ["run.rmns"]


# ---------------------------------------------------------------------------
# herald configs at the edges of the sampler

_ZETAS = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1e-12, 0.01, 1.0, 1e9, 1e15, 9.9e15, 1e16, math.inf]
_EFFICIENCIES = [0.0, 5e-324, 1e-12, 0.5, math.nextafter(1.0, 0.0), 1.0]


@st.composite
def _herald_configs(draw):
    """([herald] section text, --shots, --sweep-m or None), often with a dead switch."""
    keys = {
        "modes": draw(st.sampled_from([1, 2, 20, 10**9])),
        "zeta": draw(st.sampled_from(_ZETAS)),
        "eta_detect": draw(st.sampled_from(_EFFICIENCIES)),
        "eta_retrieve": draw(st.sampled_from(_EFFICIENCIES)),
    }
    if draw(st.booleans()):  # a switch slower than the memory: every success is voided
        keys["switch_latency_s"] = draw(st.sampled_from([1e-6, 1.0, math.inf]))
        keys["memory_lifetime_s"] = draw(st.sampled_from([5e-324, 1e-9, 1e-7]))
    text = "[herald]\n" + "".join(f"{key} = {value!r}\n" for key, value in keys.items())
    sweep = draw(st.none() | st.sampled_from(["1,1000000000", "2,20"]))
    return text, draw(st.sampled_from([1, 7, 2000, 40_000])), sweep


@given(_herald_configs())
@example(("[herald]\nzeta = 0.0\n", 2000, None))
@example(("[herald]\nzeta = 5e-324\neta_detect = 1.0\n", 2000, None))
@example(("[herald]\nzeta = 1e15\neta_detect = 0.0\neta_retrieve = 1.0\n", 40_000, "1,1000000000"))
@example(("[herald]\nswitch_latency_s = inf\nmemory_lifetime_s = 5e-324\n", 2000, None))
@settings(derandomize=True, max_examples=150, deadline=None)
def test_any_herald_edge_config_runs_or_exits_2(case):
    """herald at any edge config exits 0 with heralds <= shots and successes <= heralds, or 2 with one error line."""
    text, shots, sweep = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "herald.ini", Path(tmp) / "herald.csv"
        cfg.write_text(text)
        argv = ["herald", "--config", str(cfg), "--shots", str(shots), "--out", str(out)]
        rc, stderr = _run(argv + (["--sweep-m", sweep] if sweep else []))
        assert rc in (0, 2), (rc, stderr)
        if rc == 2:
            _assert_one_error_line(stderr)
            assert not out.exists()
            return
        with out.open(newline="") as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        assert len(rows) == (len(sweep.split(",")) if sweep else 1)
        for row in rows:
            assert int(row["shots"]) == shots
            assert 0 <= int(row["routed_successes"]) <= int(row["heralds"]) <= shots
            assert 0 <= int(row["multi_excitation_events"]) <= int(row["heralds"])
