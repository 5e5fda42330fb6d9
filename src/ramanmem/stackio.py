"""Binary frame-stack format.

Layout (all little endian):

    magic   4 bytes  b"RMNS"
    version u16      2
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

A stack is read in blocks of `_BLOCK` frames by `iter_stack_blocks`, or
whole by `read_stack`.  The header's frame count and record size fix the
body length, which both check against the file's size before they read or
allocate a frame.  Each block of records is read with one `np.fromfile` and
handed out as stored: its unsigned counts need no check.  A writer never
wraps a count: it takes only frames of a count type its width holds, and the
renderer fails on a count past that width.  Writing the same stack twice
produces byte-identical files.
"""

from __future__ import annotations

import os
import struct
from typing import Iterator

import numpy as np

from .geometry import CameraGeometry, require_within
from .scattering import COUNT_DTYPES, Frame, FrameStack

__all__ = ["MAGIC", "VERSION", "StackWriter", "read_stack", "iter_stack_blocks"]

MAGIC = b"RMNS"
VERSION = 2
_HEADER = struct.Struct("<4sHIIIddQQH")
# the header's frame count is a u32 and its seed a u64; a seed is the entropy of
# its run's SeedSequence (one PCG64 child per shot)
N_FRAMES_MAX = 2**32 - 1
SEED_MAX = 2**64 - 1


def _record_dtype(camera: CameraGeometry, counts) -> np.dtype:
    """One frame record: its readout angle pair, then its counts.

    `geometry.PANE_PIXELS_MAX` keeps the widest record within the C int numpy sizes it in.
    """
    shape = (2, camera.height_px, camera.width_px)
    return np.dtype([("angle", "<f8", (2,)), ("counts", counts, shape)])


class StackWriter:
    """Incremental writer so large runs never need to sit in memory.

    `count_dtype` is the body width, one of `scattering.COUNT_DTYPES`;
    `cmd_simulate` passes `scattering.count_dtype(cfg)`, the width its frames
    render in.  A frame appended must hold counts the width can cast to
    exactly.  Used as a context manager, it deletes the file it created when
    the block exits on an exception or its close fails (a short frame count,
    a failed final write), so a failed or interrupted run leaves no truncated
    stack behind.
    """

    def __init__(
        self, path, camera: CameraGeometry, n_frames: int, seed: int, config_checksum: int,
        count_dtype,
    ):
        require_within("n_frames", n_frames, 1, N_FRAMES_MAX)
        require_within("seed", seed, 0, SEED_MAX)
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
            counts.itemsize,
        )
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
        self._angle[...] = frame.readout_angle_urad
        # counts wider than the stack's raise TypeError instead of wrapping; none is scanned
        np.copyto(self._counts, counts, casting="safe")
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
        kept = False
        try:
            if exc_type is None:
                self.close()  # a short frame count or a failed final write raises here
                kept = True
            else:
                self._fh.close()
        finally:
            if not kept:
                try:
                    os.remove(self._path)
                except OSError:  # already gone, or not removable (a device): the first error matters
                    pass


def _read_header(fh):
    """(camera, frame count, seed, config checksum, record dtype); fh is left at the body.

    The bytes after the header must be the declared frames exactly, so no
    read is sized by a header the file cannot back.
    """
    raw = fh.read(_HEADER.size)
    if len(raw) != _HEADER.size:
        raise ValueError("truncated header")
    magic, version, width, height, count, pitch, f3, seed, checksum, nbytes = _HEADER.unpack(raw)
    if magic != MAGIC:
        raise ValueError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise ValueError(f"unsupported version {version}")
    camera = CameraGeometry(width_px=width, height_px=height, pixel_pitch_m=pitch, f3_m=f3)
    widths = {dt.itemsize: dt for dt in COUNT_DTYPES}
    if nbytes not in widths:
        raise ValueError(f"unsupported count width of {nbytes} bytes")
    record = _record_dtype(camera, widths[nbytes])
    body = os.fstat(fh.fileno()).st_size - fh.tell()
    if body < count * record.itemsize:
        raise ValueError(f"truncated frame {body // record.itemsize}")
    if body > count * record.itemsize:
        raise ValueError(f"bytes past the {count} declared frames")
    return camera, count, seed, checksum, record


# frames per body read: the unit `iter_stack_blocks` hands out and the CLI folds.
# 8 frames halve the per-block Python and accumulator-add overhead of 4; 16 gain
# little more for twice the buffer (0.25 MB u16 read, 1 MB float64 fold at 64x128)
_BLOCK = 8


def _read_frames(fh, record: np.dtype, first: int, n: int):
    """Frames first .. first + n - 1 of the body: (n, 2) angles, (n, 2, H, W) unsigned counts."""
    data = np.fromfile(fh, dtype=record, count=n)
    if data.size != n:  # the file shrank after its header was checked
        raise ValueError(f"truncated frame {first + data.size}")
    return data["angle"], data["counts"]


def read_stack(path) -> FrameStack:
    """Load a whole stack into memory: its counts and angles are views of the body as read."""
    with open(path, "rb") as fh:
        camera, count, seed, checksum, record = _read_header(fh)
        angles, counts = _read_frames(fh, record, 0, count)
    return FrameStack(
        counts=counts,
        readout_angles_urad=angles,
        camera=camera,
        seed=seed,
        config_checksum=checksum,
    )


def iter_stack_blocks(path) -> tuple[CameraGeometry, int, int, int, Iterator[np.ndarray]]:
    """Header plus a lazy iterator over (n, 2, H, W) blocks of frame counts.

    Returns (camera, n_frames, seed, config_checksum, blocks).  Every block
    holds `_BLOCK` frames but the last, read with one call; each is a view
    of a fresh record array the iterator keeps no reference to, of the
    body's dtype (u16 or u32).  A body that ends early raises "truncated
    frame i" for its first incomplete frame, and bytes past the last frame
    raise; both are found at the header, before any frame is read.
    The iterator opens the file only when iteration starts, so a caller
    that never iterates holds no open handle.
    """
    with open(path, "rb") as fh:
        camera, count, seed, checksum, record = _read_header(fh)
        body = fh.tell()

    def blocks() -> Iterator[np.ndarray]:
        with open(path, "rb") as fh:
            fh.seek(body)
            for start in range(0, count, _BLOCK):
                # yielded unbound, so the generator holds no block while the caller folds it
                yield _read_frames(fh, record, start, min(_BLOCK, count - start))[1]

    return camera, count, seed, checksum, blocks()


# a name perfbench/tracing.py still wraps; no program path calls it (ROADMAP item 1 removes it)
iter_stack = iter_stack_blocks
