"""The CLI contract, property-tested: every input ends in a documented exit code and leaves no stray file.

Each test runs `cli.main` in process at a tiny size (at most 4 frames on a
16x8 pane) over inputs hypothesis builds, derandomized so tier-1 stays
deterministic.
"""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ramanmem import control
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
