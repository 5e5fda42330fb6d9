"""Binary stack format: round trips, streaming reads and corruption errors."""

import dataclasses
import struct
from pathlib import Path

import numpy as np
import pytest
from rmns_v1 import v1_bytes

from ramanmem.config import default_config
from ramanmem.geometry import CameraGeometry
from ramanmem.scattering import Frame, iter_simulated_frames
from ramanmem.stackio import (
    _BLOCK,
    _COUNT_WIDTH,
    _HEADER,
    MAGIC,
    VERSION,
    StackWriter,
    _record_dtype,
    iter_stack,
    iter_stack_blocks,
    read_stack,
)

CAM = CameraGeometry(width_px=16, height_px=8, pixel_pitch_m=7.5e-6, f3_m=0.5)
BODY = _HEADER.size + _COUNT_WIDTH.size  # where a version 2 body starts
# three frames a version 1 writer wrote: default config at CAM, seed 3
V1_FIXTURE = Path(__file__).parent / "data" / "v1_3frames_16x8.rmns"


SMALL_CFG = dataclasses.replace(default_config(), camera=CAM).with_seed(3)


def small_frames(n=6, tilts=None):
    return list(iter_simulated_frames(SMALL_CFG, n_frames=n, schedule=tilts))


def write(path, frames, count_dtype=np.uint16, seed=3, checksum=SMALL_CFG.checksum()):
    with StackWriter(path, CAM, len(frames), seed, checksum, count_dtype) as w:
        for frame in frames:
            w.append(frame)


def stacked(frames):
    return np.stack([frame.counts for frame in frames])


def v1_stack(path, n):
    """A version 1 stack of n frames at path; its raw bytes."""
    write(path, small_frames(n=n))
    raw = v1_bytes(path)
    path.write_bytes(raw)
    return bytearray(raw)


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
    camera, count, seed, checksum, frames = iter_stack(path)
    assert camera == CAM
    assert count == len(written)
    assert seed == 3
    assert checksum == SMALL_CFG.checksum()
    for i, frame in enumerate(frames):
        assert frame.shot_index == i
        assert frame.readout_angle_urad == tuple(TILTS[i])
        np.testing.assert_array_equal(frame.counts, written[i].counts)
    assert i == count - 1


def test_v1_stack_reads_with_zero_angles(tmp_path):
    """A committed version 1 stack reads as written, and as the v2 stack of its frames."""
    v1 = read_stack(V1_FIXTURE)
    assert v1.counts.dtype == np.float32 and v1.n_frames == 3
    assert v1.camera == CAM and v1.seed == 3
    assert not v1.readout_angles_urad.any()
    _, _, _, _, frames = iter_stack(V1_FIXTURE)
    assert [f.readout_angle_urad for f in frames] == [(0.0, 0.0)] * 3
    path = tmp_path / "v2.rmns"
    frames = [Frame(counts, shot_index=i, readout_angle_urad=(0.0, 0.0)) for i, counts in enumerate(v1.counts)]
    write(path, frames, seed=v1.seed, checksum=v1.config_checksum)
    v2 = read_stack(path)
    assert v2.counts.dtype == np.uint16
    np.testing.assert_array_equal(v2.counts, v1.counts)
    assert (v2.camera, v2.seed, v2.config_checksum) == (v1.camera, v1.seed, v1.config_checksum)
    assert v1_bytes(path) == V1_FIXTURE.read_bytes()
    _, _, _, _, blocks = iter_stack_blocks(V1_FIXTURE)
    np.testing.assert_array_equal(np.concatenate(list(blocks)), v1.counts)


def test_writer_never_wraps_or_rounds_a_count(tmp_path):
    counts = np.zeros((2, CAM.height_px, CAM.width_px), dtype=np.float32)
    counts[1, -1, -1] = 2**16
    frame = Frame(counts, shot_index=0, readout_angle_urad=(0.0, 0.0))
    path = tmp_path / "x.rmns"
    with pytest.raises(OverflowError, match="65536 does not fit the stack's uint16 counts"):
        with StackWriter(path, CAM, 1, seed=0, config_checksum=0, count_dtype=np.uint16) as w:
            w.append(frame)
    assert not path.exists()
    with StackWriter(path, CAM, 1, seed=0, config_checksum=0, count_dtype=np.uint32) as w:
        w.append(frame)
    assert read_stack(path).anti_stokes[0, -1, -1] == 2**16
    counts[1, -1, -1] = 2.5
    with pytest.raises(ValueError, match="whole numbers"):
        with StackWriter(path, CAM, 1, seed=0, config_checksum=0, count_dtype=np.uint16) as w:
            w.append(frame)
    with pytest.raises(ValueError, match="u16 or u32"):
        StackWriter(path, CAM, 1, seed=0, config_checksum=0, count_dtype=np.float32)


def test_writer_rejects_wrong_pane_shape(tmp_path):
    w = StackWriter(tmp_path / "x.rmns", CAM, 1, seed=0, config_checksum=0, count_dtype=np.uint16)
    bad = Frame(
        counts=np.zeros((2, 4, 4), dtype=np.float32),
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
    with pytest.raises(ValueError, match=">= 1"):
        StackWriter(tmp_path / "x.rmns", CAM, 0, seed=0, config_checksum=0, count_dtype=np.uint16)


def test_header_the_format_cannot_hold_leaves_no_file(tmp_path):
    # the frame count is a u32 in the header
    with pytest.raises(struct.error):
        StackWriter(
            tmp_path / "x.rmns", CAM, 2**32, seed=0, config_checksum=0, count_dtype=np.uint16
        )
    assert not (tmp_path / "x.rmns").exists()


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
    raw[4:6] = (VERSION + 8).to_bytes(2, "little")
    p.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="unsupported version"):
        read_stack(p)
    assert MAGIC == b"RMNS"
    raw[4:6] = VERSION.to_bytes(2, "little")
    raw[_HEADER.size:BODY] = _COUNT_WIDTH.pack(8)
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
            _, _, _, _, frames = iter_stack(p)
            list(frames)
        with pytest.raises(ValueError, match="truncated frame 2"):
            _, _, _, _, blocks = iter_stack_blocks(p)
            list(blocks)


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
        with pytest.raises(ValueError, match="bytes past"):
            _, _, _, _, frames = iter_stack(p)
            list(frames)


def test_iter_stack_blocks_reads_whole_blocks(tmp_path):
    frames = small_frames(n=_BLOCK + 3)
    path = tmp_path / "run.rmns"
    write(path, frames)
    _, count, _, _, blocks = iter_stack_blocks(path)
    blocks = list(blocks)
    assert count == _BLOCK + 3
    assert [b.shape for b in blocks] == [(_BLOCK, 2, 8, 16), (3, 2, 8, 16)]
    np.testing.assert_array_equal(np.concatenate(blocks), stacked(frames))


def test_negative_count_is_rejected(tmp_path):
    """Only a version 1 (float32) body can hold a negative, NaN or infinite count."""
    p = tmp_path / "neg.rmns"
    raw = v1_stack(p, _BLOCK + 2)
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
    p = tmp_path / "bad.rmns"
    raw = v1_stack(p, _BLOCK + 2)
    raw[-4:] = struct.pack("<f", value)  # last anti-Stokes pixel of the short last block
    p.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="finite and non-negative"):
        read_stack(p)
    with pytest.raises(ValueError, match="finite and non-negative"):
        _, _, _, _, blocks = iter_stack_blocks(p)
        list(blocks)


def test_count_of_2_24_is_rejected(tmp_path):
    """A count of 2**24 or more fails a float32 (v1) body, which rounds it, and a u32 body."""
    p = tmp_path / "big.rmns"
    raw = v1_stack(p, _BLOCK + 2)
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
    write(p, small_frames(n=_BLOCK + 2), np.uint32)
    raw = bytearray(p.read_bytes())
    raw[-4:] = struct.pack("<I", 2**24)
    p.write_bytes(bytes(raw))
    with pytest.raises(OverflowError, match=r"2\*\*24"):
        _, _, _, _, frames = iter_stack(p)
        list(frames)


def test_fractional_count_is_rejected(tmp_path):
    """A version 1 (float32) body can hold a fraction, which would make the moment sums inexact."""
    p = tmp_path / "frac.rmns"
    raw = v1_stack(p, _BLOCK + 2)
    raw[-4:] = struct.pack("<f", 3.1)  # last anti-Stokes pixel of the short last block
    p.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="whole numbers"):
        read_stack(p)
    with pytest.raises(ValueError, match="whole numbers"):
        _, _, _, _, blocks = iter_stack_blocks(p)
        list(blocks)


def test_negative_zero_count_is_accepted(tmp_path):
    p = tmp_path / "zero.rmns"
    raw = v1_stack(p, 2)
    raw[-4:] = struct.pack("<f", -0.0)
    p.write_bytes(bytes(raw))
    assert read_stack(p).anti_stokes[-1, -1, -1] == 0.0


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
