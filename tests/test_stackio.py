"""Binary stack format: round trips, streaming reads and corruption errors."""

import dataclasses
import errno
import struct

import numpy as np
import pytest

from ramanmem.config import ExperimentConfig
from ramanmem.geometry import CameraGeometry
from ramanmem.scattering import Frame, iter_simulated_frames
from ramanmem.stackio import (
    _BLOCK,
    _HEADER,
    MAGIC,
    N_FRAMES_MAX,
    SEED_MAX,
    VERSION,
    StackWriter,
    _record_dtype,
    iter_stack_blocks,
    read_stack,
)

CAM = CameraGeometry(width_px=16, height_px=8, pixel_pitch_m=7.5e-6, f3_m=0.5)
BODY = _HEADER.size  # where the body starts


SMALL_CFG = dataclasses.replace(ExperimentConfig(), camera=CAM).with_seed(3)


def small_frames(n=6, tilts=None):
    cfg = dataclasses.replace(SMALL_CFG, run=dataclasses.replace(SMALL_CFG.run, n_frames=n))
    return list(iter_simulated_frames(cfg, schedule=tilts))


def write(path, frames, count_dtype=np.uint16, seed=3, checksum=SMALL_CFG.checksum()):
    with StackWriter(path, CAM, len(frames), seed, checksum, count_dtype) as w:
        for frame in frames:
            w.append(frame)


def stacked(frames):
    return np.stack([frame.counts for frame in frames])


# readout tilts (urad) that no short decimal holds exactly
TILTS = np.array([[0.1, -150.0], [1 / 3, 2.0**-30], [-450.0, 1e-300], [0.0, 0.0]])


def test_round_trip_preserves_everything(tmp_path):
    frames = small_frames(n=len(TILTS), tilts=TILTS)
    path = tmp_path / "run.rmns"
    write(path, frames)
    back = read_stack(path)
    np.testing.assert_array_equal(back.counts, stacked(frames))
    assert back.readout_angles_urad.tobytes() == TILTS.tobytes()  # bit for bit
    assert back.seed == 3
    assert back.config_checksum == SMALL_CFG.checksum()
    assert back.camera == CAM
    assert back.n_frames == len(TILTS)


def test_read_stack_counts_are_the_body_array(tmp_path):
    """Counts and angles are views of the body records as read; the pane views share them."""
    frames = small_frames(n=len(TILTS), tilts=TILTS)
    for count_dtype in (np.uint16, np.uint32):
        path = tmp_path / f"run-{count_dtype.__name__}.rmns"
        write(path, frames, count_dtype)
        back = read_stack(path)
        record = _record_dtype(CAM, np.dtype(count_dtype).newbyteorder("<"))
        body = np.frombuffer(path.read_bytes(), dtype=record, offset=BODY)
        assert path.stat().st_size == BODY + len(frames) * record.itemsize
        assert back.counts.dtype == count_dtype and back.counts.shape == body["counts"].shape
        np.testing.assert_array_equal(back.counts, body["counts"])
        assert back.readout_angles_urad.tobytes() == body["angle"].tobytes()
        assert np.shares_memory(back.readout_angles_urad, back.counts.base)
        for view, pane in ((back.stokes, 0), (back.anti_stokes, 1)):
            assert np.shares_memory(view, back.counts)
            np.testing.assert_array_equal(view, body["counts"][:, pane])
        for i, frame in enumerate(frames):  # the panes as written
            np.testing.assert_array_equal(back.stokes[i], frame.stokes)
            np.testing.assert_array_equal(back.anti_stokes[i], frame.anti_stokes)


def test_write_is_byte_deterministic(tmp_path):
    frames = small_frames()
    a, b = tmp_path / "a.rmns", tmp_path / "b.rmns"
    write(a, frames)
    write(b, frames)
    assert a.read_bytes() == b.read_bytes()


def test_iter_stack_matches_bulk_read(tmp_path):
    written = small_frames(n=len(TILTS), tilts=TILTS)
    path = tmp_path / "run.rmns"
    write(path, written)
    camera, count, seed, checksum, blocks = iter_stack_blocks(path)
    assert camera == CAM
    assert count == len(written)
    assert seed == 3
    assert checksum == SMALL_CFG.checksum()
    back = read_stack(path)
    np.testing.assert_array_equal(np.concatenate(list(blocks)), back.counts)
    np.testing.assert_array_equal(back.counts, stacked(written))
    assert back.readout_angles_urad.tobytes() == TILTS.tobytes()


def test_writer_never_wraps_or_rounds_a_count(tmp_path):
    """A frame's counts go into a stack only if its width holds their type; a float stack is refused."""
    counts = np.zeros((2, CAM.height_px, CAM.width_px), dtype=np.uint32)
    counts[1, -1, -1] = 2**16
    frame = Frame(counts, shot_index=0, readout_angle_urad=(0.0, 0.0))
    path = tmp_path / "x.rmns"
    # a u32 count past u16, whole counts held as float64, and counts held as int64
    for wide in (counts, np.ones_like(counts, dtype=np.float64), np.ones_like(counts, dtype=np.int64)):
        with pytest.raises(TypeError, match=f"Cannot cast .*{wide.dtype}"):
            with StackWriter(path, CAM, 1, seed=0, config_checksum=0, count_dtype=np.uint16) as w:
                w.append(Frame(wide, shot_index=0, readout_angle_urad=(0.0, 0.0)))
        assert not path.exists()
    with StackWriter(path, CAM, 1, seed=0, config_checksum=0, count_dtype=np.uint32) as w:
        w.append(frame)
    assert read_stack(path).anti_stokes[0, -1, -1] == 2**16
    with pytest.raises(ValueError, match="u16 or u32"):
        StackWriter(path, CAM, 1, seed=0, config_checksum=0, count_dtype=np.float32)


class _Unscannable(np.ndarray):
    """An array whose min() and max() fail."""

    def min(self, *args, **kwargs):
        raise AssertionError("min() scanned")

    def max(self, *args, **kwargs):
        raise AssertionError("max() scanned")


@pytest.mark.parametrize("width", [np.uint16, np.uint32])
def test_writer_scans_no_count(tmp_path, width):
    """The frame's type is the writer's one check: its widest counts go in as they are."""
    counts = np.full((2, CAM.height_px, CAM.width_px), np.iinfo(width).max, dtype=width)
    frame = Frame(counts.view(_Unscannable), shot_index=0, readout_angle_urad=(0.0, 0.0))
    path = tmp_path / "x.rmns"
    with StackWriter(path, CAM, 1, seed=0, config_checksum=0, count_dtype=width) as w:
        w.append(frame)
    np.testing.assert_array_equal(read_stack(path).counts[0], counts)


def test_writer_rejects_wrong_pane_shape(tmp_path):
    w = StackWriter(tmp_path / "x.rmns", CAM, 1, seed=0, config_checksum=0, count_dtype=np.uint16)
    bad = Frame(
        counts=np.zeros((2, 4, 4), dtype=np.uint16),
        shot_index=0,
        readout_angle_urad=(0.0, 0.0),
    )
    with pytest.raises(ValueError, match="does not match header"):
        w.append(bad)
    w._fh.close()


def test_writer_rejects_extra_frames(tmp_path):
    with pytest.raises(ValueError, match="already holds"):
        with StackWriter(
            tmp_path / "x.rmns", CAM, 1, seed=0, config_checksum=0, count_dtype=np.uint16
        ) as w:
            for frame in small_frames(n=2):
                w.append(frame)


def test_writer_close_checks_count(tmp_path):
    w = StackWriter(tmp_path / "x.rmns", CAM, 3, seed=0, config_checksum=0, count_dtype=np.uint16)
    w.append(small_frames(n=1)[0])
    with pytest.raises(ValueError, match="declared 3 frames but 1"):
        w.close()


def test_writer_requires_at_least_one_frame(tmp_path):
    with pytest.raises(ValueError, match=r"n_frames must lie in \[1, 4294967295\], got 0"):
        StackWriter(tmp_path / "x.rmns", CAM, 0, seed=0, config_checksum=0, count_dtype=np.uint16)


def test_header_the_format_cannot_hold_leaves_no_file(tmp_path):
    """A frame count past the header's u32 or a seed outside its u64 is a ValueError naming it, and no file."""
    path = tmp_path / "x.rmns"
    for name, n_frames, seed in (("n_frames", N_FRAMES_MAX + 1, 0), ("seed", 1, -1), ("seed", 1, SEED_MAX + 1)):
        with pytest.raises(ValueError, match=f"{name} must lie in"):
            StackWriter(path, CAM, n_frames, seed=seed, config_checksum=0, count_dtype=np.uint16)
        assert not path.exists()


def test_truncated_header(tmp_path):
    p = tmp_path / "short.rmns"
    p.write_bytes(b"RM")
    with pytest.raises(ValueError, match="truncated header"):
        read_stack(p)
    write(p, small_frames(n=1))
    p.write_bytes(p.read_bytes()[: BODY - 1])  # the count width cut short
    with pytest.raises(ValueError, match="truncated header"):
        read_stack(p)


def test_bad_magic(tmp_path):
    p = tmp_path / "bad.rmns"
    write(p, small_frames(n=1))
    raw = bytearray(p.read_bytes())
    raw[:4] = b"WAT?"
    p.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="bad magic"):
        read_stack(p)


def test_unsupported_version(tmp_path):
    p = tmp_path / "v9.rmns"
    write(p, small_frames(n=1))
    raw = bytearray(p.read_bytes())
    for version in (1, VERSION + 8):  # 1 held float32 counts and no angles
        raw[4:6] = version.to_bytes(2, "little")
        p.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=f"unsupported version {version}$"):
            read_stack(p)
    assert MAGIC == b"RMNS"
    raw[4:6] = VERSION.to_bytes(2, "little")
    raw[BODY - 2:BODY] = (8).to_bytes(2, "little")  # the count width ends the header
    p.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="unsupported count width of 8 bytes"):
        read_stack(p)


def test_truncated_body(tmp_path):
    p = tmp_path / "cut.rmns"
    write(p, small_frames(n=3))  # one short read block: every cut below falls inside it
    raw = p.read_bytes()
    frame_bytes = 16 + 2 * 2 * CAM.width_px * CAM.height_px  # angle pair, u16 counts
    for cut in (100, frame_bytes):  # inside frame 2, and all of frame 2
        p.write_bytes(raw[: len(raw) - cut])
        # every reader anchors the error to the first incomplete frame
        with pytest.raises(ValueError, match="truncated frame 2"):
            read_stack(p)
        with pytest.raises(ValueError, match="truncated frame 2"):
            _, _, _, _, blocks = iter_stack_blocks(p)
            list(blocks)


def test_body_length_is_checked_at_the_header(tmp_path):
    """A header the file cannot back fails before any read: no reader sizes a buffer by it."""
    p = tmp_path / "big.rmns"  # the header alone, declaring 8 frames of a 1024x1024 u32 pane
    p.write_bytes(_HEADER.pack(MAGIC, VERSION, 1024, 1024, 8, CAM.pixel_pitch_m, CAM.f3_m, 0, 0, 4))
    with pytest.raises(ValueError, match="truncated frame 0"):
        read_stack(p)
    with pytest.raises(ValueError, match="truncated frame 0"):
        iter_stack_blocks(p)


@pytest.mark.parametrize("n", [0, 3, _BLOCK])  # no frame, a short last block, one full block
def test_bytes_past_the_declared_frames_are_rejected(tmp_path, n):
    p = tmp_path / "long.rmns"
    write(p, small_frames(n=max(n, 1)))
    raw = p.read_bytes()
    if n == 0:  # the header alone, declaring no frame
        raw = raw[:14] + struct.pack("<I", 0) + raw[18:BODY]
        p.write_bytes(raw)
        assert read_stack(p).n_frames == 0
        assert list(iter_stack_blocks(p)[-1]) == []
    for extra in (b"\0", raw):  # one stray byte, and a second stack appended
        p.write_bytes(raw + extra)
        with pytest.raises(ValueError, match=f"bytes past the {n} declared frames"):
            read_stack(p)
        with pytest.raises(ValueError, match="bytes past"):
            _, _, _, _, blocks = iter_stack_blocks(p)
            list(blocks)


def test_iter_stack_blocks_reads_whole_blocks(tmp_path):
    frames = small_frames(n=_BLOCK + 3)
    path = tmp_path / "run.rmns"
    write(path, frames)
    _, count, _, _, blocks = iter_stack_blocks(path)
    blocks = list(blocks)
    assert count == _BLOCK + 3
    assert [b.shape for b in blocks] == [(_BLOCK, 2, 8, 16), (3, 2, 8, 16)]
    np.testing.assert_array_equal(np.concatenate(blocks), stacked(frames))


def test_count_of_2_24_reads_from_a_u32_body(tmp_path):
    """2**24, where float32 starts to round, is a plain u32 count to every reader."""
    p = tmp_path / "big.rmns"
    write(p, small_frames(n=_BLOCK + 2), np.uint32)
    raw = bytearray(p.read_bytes())
    raw[-4:] = struct.pack("<I", 2**24)  # last anti-Stokes pixel of the short last block
    p.write_bytes(bytes(raw))
    assert read_stack(p).anti_stokes[-1, -1, -1] == 2**24
    _, _, _, _, blocks = iter_stack_blocks(p)
    assert list(blocks)[-1][-1, 1, -1, -1] == 2**24


def test_writer_deletes_a_partial_stack(tmp_path):
    """A render that fails at frame 4 of 10 leaves no file and no open handle."""
    path = tmp_path / "x.rmns"
    frames = iter(small_frames(n=4))

    def render():
        yield from frames
        raise RuntimeError("render failed at frame 4")

    with pytest.raises(RuntimeError, match="frame 4"):
        with StackWriter(path, CAM, 10, seed=0, config_checksum=0, count_dtype=np.uint16) as w:
            for frame in render():
                w.append(frame)
    assert w._fh.closed
    assert not path.exists()


def test_writer_deletes_a_stack_it_cannot_close(tmp_path):
    """A block that ends without an error but leaves a short or unwritten stack leaves no file."""
    path = tmp_path / "x.rmns"
    with pytest.raises(ValueError, match="declared 2 frames but 1 were written"):
        with StackWriter(path, CAM, 2, seed=0, config_checksum=0, count_dtype=np.uint16) as w:
            w.append(small_frames(n=1)[0])
    assert not path.exists()

    class _FullDisk:
        """The writer's file, whose close fails as a full disk would on its final flush."""

        def __init__(self, fh):
            self._fh = fh

        def __getattr__(self, name):
            return getattr(self._fh, name)

        def close(self):
            self._fh.close()
            raise OSError(errno.ENOSPC, "No space left on device")

    with pytest.raises(OSError, match="No space left"):
        with StackWriter(path, CAM, 1, seed=0, config_checksum=0, count_dtype=np.uint16) as w:
            w._fh = _FullDisk(w._fh)
            w.append(small_frames(n=1)[0])
    assert not path.exists()
