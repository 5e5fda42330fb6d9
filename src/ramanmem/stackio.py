"""Binary frame-stack format.

Layout (all little endian):

    magic   4 bytes  b"RMNS"
    version u16      2 (version 1 is still read)
    width   u32      pane width in pixels
    height  u32      pane height in pixels
    count   u32      number of frames
    pitch   f64      pixel pitch in metres
    f3      f64      far-field lens focal length in metres
    seed    u64      run seed
    config  u64      config checksum
    width   u16      bytes per count: 2 (u16 counts) or 4 (u32 counts)
    body    count frame records, each: the readout angle (theta_x, theta_y)
            in urad as two f64, then the frame's (2, H, W) counts
            (`Frame.counts`, Stokes pane first, row-major) as unsigned
            integers of the header's width; nothing follows them

A version 1 header has no count width, and its records are the (2, H, W)
counts as float32 alone; its frames read with readout angles (0, 0).

Each block of records is read with one `np.fromfile`, and every count read
passes `scattering.check_counts`, which scans no u16 body at all; a version 1
body's float32 counts must also be whole numbers.  A writer
never wraps a count: one past its width raises OverflowError.  Writing the
same stack twice produces byte-identical files.
"""

from __future__ import annotations

import os
import struct
from itertools import chain
from operator import itemgetter
from typing import Iterator

import numpy as np

from .geometry import CameraGeometry
from .scattering import Frame, FrameStack, check_counts

__all__ = [
    "MAGIC", "VERSION", "StackWriter", "read_stack", "iter_stack_blocks", "iter_stack",
]

MAGIC = b"RMNS"
VERSION = 2
_HEADER = struct.Struct("<4sHIIIddQQ")  # the header of every version starts so
_COUNT_WIDTH = struct.Struct("<H")  # version 2 appends the bytes per count
COUNT_DTYPES = (np.dtype("<u2"), np.dtype("<u4"))


def count_dtype(bound: float) -> np.dtype:
    """The narrower body width whose range holds every count up to bound."""
    narrow, wide = COUNT_DTYPES
    return narrow if bound <= np.iinfo(narrow).max else wide


def _record_dtype(camera: CameraGeometry, counts) -> np.dtype:
    """One version 2 frame record: its readout angle pair, then its counts.

    `geometry.PANE_PIXELS_MAX` keeps the widest record within the C int numpy sizes it in.
    """
    shape = (2, camera.height_px, camera.width_px)
    return np.dtype([("angle", "<f8", (2,)), ("counts", counts, shape)])


class StackWriter:
    """Incremental writer so large runs never need to sit in memory.

    `count_dtype` is the body width, one of COUNT_DTYPES; `cmd_simulate`
    picks it with `count_dtype(bound)` from the config's pixel count bound.  Used as a context
    manager, it deletes the file it created when the block exits on an
    exception, so a failed or interrupted run leaves no truncated stack
    behind.
    """

    def __init__(
        self, path, camera: CameraGeometry, n_frames: int, seed: int, config_checksum: int,
        count_dtype,
    ):
        if n_frames < 1:
            raise ValueError("n_frames must be >= 1")
        counts = np.dtype(count_dtype).newbyteorder("<")
        if counts not in COUNT_DTYPES:
            raise ValueError(f"stack counts must be u16 or u32, got {counts}")
        # built before the open: a record or header the format cannot hold leaves no file behind
        self._record = np.zeros(1, dtype=_record_dtype(camera, counts))
        self._angle = self._record["angle"][0]
        self._counts = self._record["counts"][0]
        header = _HEADER.pack(
            MAGIC,
            VERSION,
            camera.width_px,
            camera.height_px,
            n_frames,
            camera.pixel_pitch_m,
            camera.f3_m,
            seed,
            config_checksum,
        ) + _COUNT_WIDTH.pack(counts.itemsize)
        self._path = path
        self._fh = open(path, "wb")
        self._expected = n_frames
        self._written = 0
        self._fh.write(header)

    def append(self, frame: Frame) -> None:
        counts = frame.counts
        if counts.shape != self._counts.shape:
            raise ValueError(
                f"frame counts shape {counts.shape} does not match header {self._counts.shape}"
            )
        if self._written >= self._expected:
            raise ValueError("stack already holds the declared number of frames")
        # `Frame` holds counts non-negative; any other dtype is checked for
        # counts past the width, which would wrap, and fractions, which would round
        exact = np.can_cast(counts.dtype, self._counts.dtype)
        if not exact and counts.max() > np.iinfo(self._counts.dtype).max:
            raise OverflowError(
                f"a count of {counts.max():.0f} does not fit the stack's "
                f"{self._counts.dtype.name} counts"
            )
        self._angle[...] = frame.readout_angle_urad
        self._counts[...] = counts
        if not (exact or np.array_equal(self._counts, counts)):
            raise ValueError("stack counts must be whole numbers")
        self._fh.write(self._record)
        self._written += 1

    def close(self) -> None:
        if self._fh.closed:
            return
        self._fh.close()
        if self._written != self._expected:
            raise ValueError(
                f"stack declared {self._expected} frames but {self._written} were written"
            )

    def __enter__(self) -> "StackWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
            return
        try:
            self._fh.close()
        finally:
            try:
                os.remove(self._path)
            except OSError:  # already gone, or not removable (a device): the first error matters
                pass


def _read_header(fh):
    """(camera, frame count, seed, config checksum, record dtype); fh is left at the body."""
    raw = fh.read(_HEADER.size)
    if len(raw) != _HEADER.size:
        raise ValueError("truncated header")
    magic, version, width, height, count, pitch, f3, seed, checksum = _HEADER.unpack(raw)
    if magic != MAGIC:
        raise ValueError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if version not in (1, VERSION):
        raise ValueError(f"unsupported version {version}")
    camera = CameraGeometry(width_px=width, height_px=height, pixel_pitch_m=pitch, f3_m=f3)
    if version == 1:
        record = np.dtype([("counts", "<f4", (2, height, width))])
    else:
        raw = fh.read(_COUNT_WIDTH.size)
        if len(raw) != _COUNT_WIDTH.size:
            raise ValueError("truncated header")
        (nbytes,) = _COUNT_WIDTH.unpack(raw)
        widths = {dt.itemsize: dt for dt in COUNT_DTYPES}
        if nbytes not in widths:
            raise ValueError(f"unsupported count width of {nbytes} bytes")
        record = _record_dtype(camera, widths[nbytes])
    return camera, count, seed, checksum, record


# frames per body read: the unit `iter_stack_blocks` hands out and the CLI folds.
# 8 frames halve the per-block Python and accumulator-add overhead of 4; 16 gain
# little more for twice the buffer (0.25 MB u16 read, 1 MB float64 fold at 64x128)
_BLOCK = 8


def _check_end(fh, count: int) -> None:
    if fh.read(1):
        raise ValueError(f"bytes past the {count} declared frames")


def _read_frames(fh, record: np.dtype, first: int, n: int, count: int):
    """Frames first .. first + n - 1 of a count-frame body, checked: (n, 2) angles, (n, 2, H, W) counts.

    A version 1 body stores no angles; its frames read with (0, 0).
    """
    data = np.fromfile(fh, dtype=record, count=n)
    if data.size != n:
        raise ValueError(f"truncated frame {first + data.size}")
    counts = data["counts"]
    check_counts(counts)
    if counts.dtype.kind == "f" and (counts % 1.0).any():  # only a version 1 body can hold a fraction
        raise ValueError("stack counts must be whole numbers")
    if first + n == count:
        _check_end(fh, count)
    angles = data["angle"] if "angle" in record.names else np.zeros((n, 2))
    return angles, counts


def read_stack(path) -> FrameStack:
    """Load a whole stack into memory: its counts and angles are views of the body as read."""
    with open(path, "rb") as fh:
        camera, count, seed, checksum, record = _read_header(fh)
        angles, counts = _read_frames(fh, record, 0, count, count)
    return FrameStack(
        counts=counts,
        readout_angles_urad=angles,
        camera=camera,
        seed=seed,
        config_checksum=checksum,
    )


def _iter_records(path):
    """Header plus a lazy iterator over (angles, counts) blocks of `_BLOCK` frames."""
    with open(path, "rb") as fh:
        camera, count, seed, checksum, record = _read_header(fh)
        body = fh.tell()

    def blocks() -> Iterator[tuple[np.ndarray, np.ndarray]]:
        with open(path, "rb") as fh:
            fh.seek(body)
            if count == 0:  # no block reads up to the end
                _check_end(fh, count)
            for start in range(0, count, _BLOCK):
                yield _read_frames(fh, record, start, min(_BLOCK, count - start), count)

    return camera, count, seed, checksum, blocks()


def iter_stack_blocks(path) -> tuple[CameraGeometry, int, int, int, Iterator[np.ndarray]]:
    """Header plus a lazy iterator over (n, 2, H, W) blocks of frame counts.

    Returns (camera, n_frames, seed, config_checksum, blocks).  Every block
    holds `_BLOCK` frames but the last, read with one call; each is a view
    of a fresh record array the iterator keeps no reference to, of the
    body's dtype (u16 or u32, float32 for version 1).  A body that ends
    early raises "truncated frame i" for its first incomplete frame, bytes
    past the last frame raise, and so does a count `check_counts` rejects.
    The iterator opens the file only when iteration starts, so a caller
    that never iterates holds no open handle.
    """
    camera, count, seed, checksum, records = _iter_records(path)
    # map, not a generator expression, whose frame would hold the last block
    return camera, count, seed, checksum, map(itemgetter(1), records)


def iter_stack(path) -> tuple[CameraGeometry, int, int, int, Iterator[Frame]]:
    """Header plus a lazy frame iterator, for streaming consumers.

    Returns (camera, n_frames, seed, config_checksum, frames).  Each frame's
    counts are a row of a block `iter_stack_blocks` would hand out, and its
    readout angle the stored one.  Like `iter_stack_blocks`, it opens the
    file only when iteration starts.
    """
    camera, count, seed, checksum, records = _iter_records(path)

    def frames() -> Iterator[Frame]:
        rows = chain.from_iterable(zip(angles.tolist(), counts) for angles, counts in records)
        for i, (angle, counts) in enumerate(rows):
            yield Frame(counts=counts, shot_index=i, readout_angle_urad=tuple(angle))

    return camera, count, seed, checksum, frames()
