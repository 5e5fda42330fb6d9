"""Binary stack format: round trips, streaming reads and corruption errors."""

import dataclasses
import struct

import numpy as np
import pytest

from ramanmem.config import default_config
from ramanmem.geometry import CameraGeometry
from ramanmem.scattering import Frame, simulate_stack
from ramanmem.stackio import (
    _BLOCK,
    _HEADER,
    MAGIC,
    VERSION,
    StackWriter,
    iter_stack,
    iter_stack_blocks,
    read_stack,
    write_stack,
)

CAM = CameraGeometry(width_px=16, height_px=8, pixel_pitch_m=7.5e-6, f3_m=0.5)


def small_stack(n=6, seed=3):
    cfg = dataclasses.replace(default_config(), camera=CAM)
    return simulate_stack(cfg.with_seed(seed), n_frames=n)


def test_round_trip_preserves_everything(tmp_path):
    stack = small_stack()
    path = tmp_path / "run.rmns"
    write_stack(path, stack)
    back = read_stack(path)
    np.testing.assert_array_equal(back.stokes, stack.stokes)
    np.testing.assert_array_equal(back.anti_stokes, stack.anti_stokes)
    assert back.seed == stack.seed
    assert back.config_checksum == stack.config_checksum
    assert back.camera == stack.camera
    assert back.n_frames == stack.n_frames


def test_read_stack_counts_are_the_body_array(tmp_path):
    """One (n, 2, H, W) array as read; the pane views share its memory and match the file."""
    stack = small_stack()
    path = tmp_path / "run.rmns"
    write_stack(path, stack)
    back = read_stack(path)
    body = np.frombuffer(path.read_bytes(), dtype="<f4", offset=_HEADER.size)
    body = body.reshape(stack.n_frames, 2, CAM.height_px, CAM.width_px)
    assert back.counts.shape == body.shape and back.counts.flags.c_contiguous
    np.testing.assert_array_equal(back.counts, body)
    for view, pane in ((back.stokes, 0), (back.anti_stokes, 1)):
        assert np.shares_memory(view, back.counts)
        np.testing.assert_array_equal(view, body[:, pane])
    for i, frame in enumerate(stack):  # the panes as written
        np.testing.assert_array_equal(back.stokes[i], frame.stokes)
        np.testing.assert_array_equal(back.anti_stokes[i], frame.anti_stokes)


def test_write_is_byte_deterministic(tmp_path):
    stack = small_stack()
    a, b = tmp_path / "a.rmns", tmp_path / "b.rmns"
    write_stack(a, stack)
    write_stack(b, stack)
    assert a.read_bytes() == b.read_bytes()


def test_iter_stack_matches_bulk_read(tmp_path):
    stack = small_stack()
    path = tmp_path / "run.rmns"
    write_stack(path, stack)
    camera, count, seed, checksum, frames = iter_stack(path)
    assert camera == stack.camera
    assert count == stack.n_frames
    assert seed == stack.seed
    assert checksum == stack.config_checksum
    for i, frame in enumerate(frames):
        assert frame.shot_index == i
        np.testing.assert_array_equal(frame.stokes, stack.stokes[i])
        np.testing.assert_array_equal(frame.anti_stokes, stack.anti_stokes[i])
    assert i == count - 1


def test_writer_rejects_wrong_pane_shape(tmp_path):
    w = StackWriter(tmp_path / "x.rmns", CAM, 1, seed=0, config_checksum=0)
    bad = Frame(
        counts=np.zeros((2, 4, 4), dtype=np.float32),
        shot_index=0,
        readout_angle_urad=(0.0, 0.0),
    )
    with pytest.raises(ValueError, match="does not match header"):
        w.append(bad)
    w._fh.close()


def test_writer_rejects_extra_frames(tmp_path):
    stack = small_stack(n=2)
    with pytest.raises(ValueError, match="already holds"):
        with StackWriter(tmp_path / "x.rmns", CAM, 1, seed=0, config_checksum=0) as w:
            for frame in stack:
                w.append(frame)


def test_writer_close_checks_count(tmp_path):
    w = StackWriter(tmp_path / "x.rmns", CAM, 3, seed=0, config_checksum=0)
    w.append(next(iter(small_stack(n=1))))
    with pytest.raises(ValueError, match="declared 3 frames but 1"):
        w.close()


def test_writer_requires_at_least_one_frame(tmp_path):
    with pytest.raises(ValueError, match=">= 1"):
        StackWriter(tmp_path / "x.rmns", CAM, 0, seed=0, config_checksum=0)


def test_header_the_format_cannot_hold_leaves_no_file(tmp_path):
    # the frame count is a u32 in the header
    with pytest.raises(struct.error):
        StackWriter(tmp_path / "x.rmns", CAM, 2**32, seed=0, config_checksum=0)
    assert not (tmp_path / "x.rmns").exists()


def test_truncated_header(tmp_path):
    p = tmp_path / "short.rmns"
    p.write_bytes(b"RM")
    with pytest.raises(ValueError, match="truncated header"):
        read_stack(p)


def test_bad_magic(tmp_path):
    stack = small_stack(n=1)
    p = tmp_path / "bad.rmns"
    write_stack(p, stack)
    raw = bytearray(p.read_bytes())
    raw[:4] = b"WAT?"
    p.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="bad magic"):
        read_stack(p)


def test_unsupported_version(tmp_path):
    stack = small_stack(n=1)
    p = tmp_path / "v9.rmns"
    write_stack(p, stack)
    raw = bytearray(p.read_bytes())
    raw[4:6] = (VERSION + 8).to_bytes(2, "little")
    p.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="unsupported version"):
        read_stack(p)
    assert MAGIC == b"RMNS"


def test_truncated_body(tmp_path):
    stack = small_stack(n=3)  # one short read block: every cut below falls inside it
    p = tmp_path / "cut.rmns"
    write_stack(p, stack)
    raw = p.read_bytes()
    frame_bytes = 2 * 4 * CAM.width_px * CAM.height_px
    for cut in (100, frame_bytes):  # inside frame 2, and all of frame 2
        p.write_bytes(raw[: len(raw) - cut])
        # every reader anchors the error to the first incomplete frame
        with pytest.raises(ValueError, match="truncated frame 2"):
            read_stack(p)
        with pytest.raises(ValueError, match="truncated frame 2"):
            _, _, _, _, frames = iter_stack(p)
            list(frames)
        with pytest.raises(ValueError, match="truncated frame 2"):
            _, _, _, _, blocks = iter_stack_blocks(p)
            list(blocks)


@pytest.mark.parametrize("n", [3, _BLOCK])  # a short last block, and one full block
def test_bytes_past_the_declared_frames_are_rejected(tmp_path, n):
    stack = small_stack(n=n)
    p = tmp_path / "long.rmns"
    write_stack(p, stack)
    raw = p.read_bytes()
    for extra in (b"\0", raw):  # one stray byte, and a second stack appended
        p.write_bytes(raw + extra)
        with pytest.raises(ValueError, match=f"bytes past the {n} declared frames"):
            read_stack(p)
        with pytest.raises(ValueError, match="bytes past"):
            _, _, _, _, blocks = iter_stack_blocks(p)
            list(blocks)
        with pytest.raises(ValueError, match="bytes past"):
            _, _, _, _, frames = iter_stack(p)
            list(frames)


def test_iter_stack_blocks_reads_whole_blocks(tmp_path):
    stack = small_stack(n=_BLOCK + 3)
    path = tmp_path / "run.rmns"
    write_stack(path, stack)
    _, count, _, _, blocks = iter_stack_blocks(path)
    blocks = list(blocks)
    assert count == _BLOCK + 3
    assert [b.shape for b in blocks] == [(_BLOCK, 2, 8, 16), (3, 2, 8, 16)]
    joined = np.concatenate(blocks)
    np.testing.assert_array_equal(joined[:, 0], stack.stokes)
    np.testing.assert_array_equal(joined[:, 1], stack.anti_stokes)


def test_negative_count_is_rejected(tmp_path):
    stack = small_stack(n=_BLOCK + 2)
    p = tmp_path / "neg.rmns"
    write_stack(p, stack)
    raw = bytearray(p.read_bytes())
    raw[-4:] = struct.pack("<f", -1.0)  # last anti-Stokes pixel of the short last block
    p.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="non-negative"):
        _, _, _, _, blocks = iter_stack_blocks(p)
        list(blocks)
    with pytest.raises(ValueError, match="non-negative"):
        _, _, _, _, frames = iter_stack(p)
        list(frames)
    with pytest.raises(ValueError, match="non-negative"):
        read_stack(p)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_count_is_rejected(tmp_path, value):
    stack = small_stack(n=_BLOCK + 2)
    p = tmp_path / "bad.rmns"
    write_stack(p, stack)
    raw = bytearray(p.read_bytes())
    raw[-4:] = struct.pack("<f", value)  # last anti-Stokes pixel of the short last block
    p.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="finite and non-negative"):
        read_stack(p)
    with pytest.raises(ValueError, match="finite and non-negative"):
        _, _, _, _, blocks = iter_stack_blocks(p)
        list(blocks)


def test_count_of_2_24_is_rejected(tmp_path):
    """float32 holds every integer only below 2**24; a body count there was rounded."""
    stack = small_stack(n=_BLOCK + 2)
    p = tmp_path / "big.rmns"
    write_stack(p, stack)
    raw = bytearray(p.read_bytes())
    raw[-4:] = struct.pack("<f", 2.0**24 - 1)
    p.write_bytes(bytes(raw))
    assert read_stack(p).anti_stokes[-1, -1, -1] == 2**24 - 1
    raw[-4:] = struct.pack("<f", 2.0**24)
    p.write_bytes(bytes(raw))
    with pytest.raises(OverflowError, match=r"2\*\*24"):
        read_stack(p)
    with pytest.raises(OverflowError, match=r"2\*\*24"):
        _, _, _, _, blocks = iter_stack_blocks(p)
        list(blocks)


def test_negative_zero_count_is_accepted(tmp_path):
    stack = small_stack(n=2)
    p = tmp_path / "zero.rmns"
    write_stack(p, stack)
    raw = bytearray(p.read_bytes())
    raw[-4:] = struct.pack("<f", -0.0)
    p.write_bytes(bytes(raw))
    assert read_stack(p).anti_stokes[-1, -1, -1] == 0.0


def test_writer_deletes_a_partial_stack(tmp_path):
    """A render that fails at frame 4 of 10 leaves no file and no open handle."""
    path = tmp_path / "x.rmns"
    frames = iter(small_stack(n=4))

    def render():
        yield from frames
        raise RuntimeError("render failed at frame 4")

    with pytest.raises(RuntimeError, match="frame 4"):
        with StackWriter(path, CAM, 10, seed=0, config_checksum=0) as w:
            for frame in render():
                w.append(frame)
    assert w._fh.closed
    assert not path.exists()
