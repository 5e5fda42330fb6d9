"""Binary frame-stack format.

Layout (all little endian):

    magic   4 bytes  b"RMNS"
    version u16      currently 1
    width   u32      pane width in pixels
    height  u32      pane height in pixels
    count   u32      number of frames
    pitch   f64      pixel pitch in metres
    f3      f64      far-field lens focal length in metres
    seed    u64      run seed
    config  u64      config checksum
    body    count frames, each: Stokes pane then anti-Stokes pane,
            row-major float32

Writing the same stack twice produces byte-identical files.
"""

from __future__ import annotations

import struct
from itertools import chain
from typing import Iterator

import numpy as np

from .geometry import CameraGeometry
from .scattering import Frame, FrameStack

__all__ = [
    "MAGIC", "VERSION", "StackWriter", "write_stack", "read_stack", "iter_stack_blocks",
    "iter_stack",
]

MAGIC = b"RMNS"
VERSION = 1
_HEADER = struct.Struct("<4sHIIIddQQ")


class StackWriter:
    """Incremental writer so large runs never need to sit in memory."""

    def __init__(self, path, camera: CameraGeometry, n_frames: int, seed: int, config_checksum: int):
        if n_frames < 1:
            raise ValueError("n_frames must be >= 1")
        # packed before the open: a value the header cannot hold leaves no file behind
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
        )
        self._fh = open(path, "wb")
        self._camera = camera
        self._expected = n_frames
        self._written = 0
        self._fh.write(header)

    def append(self, frame: Frame) -> None:
        shape = (self._camera.height_px, self._camera.width_px)
        if frame.stokes.shape != shape:
            raise ValueError(f"frame pane shape {frame.stokes.shape} does not match header {shape}")
        if self._written >= self._expected:
            raise ValueError("stack already holds the declared number of frames")
        # written through the buffer protocol: a float32 pane is not copied
        self._fh.write(np.ascontiguousarray(frame.stokes, dtype="<f4"))
        self._fh.write(np.ascontiguousarray(frame.anti_stokes, dtype="<f4"))
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
        else:
            self._fh.close()


def write_stack(path, stack: FrameStack) -> None:
    with StackWriter(path, stack.camera, stack.n_frames, stack.seed, stack.config_checksum) as w:
        for frame in stack:
            w.append(frame)


def _read_header(fh):
    raw = fh.read(_HEADER.size)
    if len(raw) != _HEADER.size:
        raise ValueError("truncated header")
    magic, version, width, height, count, pitch, f3, seed, checksum = _HEADER.unpack(raw)
    if magic != MAGIC:
        raise ValueError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise ValueError(f"unsupported version {version}")
    camera = CameraGeometry(width_px=width, height_px=height, pixel_pitch_m=pitch, f3_m=f3)
    return camera, count, seed, checksum


# frames per body read: the unit `iter_stack_blocks` hands out and the CLI folds
_BLOCK = 4


def _read_frames(fh, camera: CameraGeometry, first: int, n: int) -> np.ndarray:
    """Frames first .. first + n - 1 of the body as one (n, 2, H, W) float32 array."""
    size = 2 * camera.height_px * camera.width_px
    data = np.fromfile(fh, dtype="<f4", count=n * size)
    if data.size != n * size:
        raise ValueError(f"truncated frame {first + data.size // size}")
    if (data < 0).any():
        raise ValueError("pane intensities must be non-negative")
    return data.reshape(n, 2, camera.height_px, camera.width_px)


def read_stack(path) -> FrameStack:
    """Load a whole stack into memory; the body is checked as `iter_stack_blocks` checks it."""
    with open(path, "rb") as fh:
        camera, count, seed, checksum = _read_header(fh)
        frames = _read_frames(fh, camera, 0, count)
    return FrameStack(
        stokes=np.ascontiguousarray(frames[:, 0]),
        anti_stokes=np.ascontiguousarray(frames[:, 1]),
        readout_angles_urad=np.zeros((count, 2)),
        camera=camera,
        seed=seed,
        config_checksum=checksum,
    )


def iter_stack_blocks(path) -> tuple[CameraGeometry, int, int, int, Iterator[np.ndarray]]:
    """Header plus a lazy iterator over (n, 2, H, W) float32 blocks of frames.

    Returns (camera, n_frames, seed, config_checksum, blocks).  Every block
    holds `_BLOCK` frames but the last, read with one call; each is a fresh
    array.  A body that ends early raises "truncated frame i" for its first
    incomplete frame; a negative count raises too.  The iterator opens the
    file only when iteration starts, so a caller that never iterates holds no
    open handle.
    """
    with open(path, "rb") as fh:
        camera, count, seed, checksum = _read_header(fh)

    def blocks() -> Iterator[np.ndarray]:
        with open(path, "rb") as fh:
            fh.seek(_HEADER.size)
            for start in range(0, count, _BLOCK):
                yield _read_frames(fh, camera, start, min(_BLOCK, count - start))

    return camera, count, seed, checksum, blocks()


def iter_stack(path) -> tuple[CameraGeometry, int, int, int, Iterator[Frame]]:
    """Header plus a lazy frame iterator, for streaming consumers.

    Returns (camera, n_frames, seed, config_checksum, frames).  Frames are
    views of the blocks `iter_stack_blocks` reads.  Readout angles are not
    part of the format, so iterated frames carry (0, 0) there.  The iterator
    opens the file only when iteration starts, so a caller that never
    iterates holds no open handle.
    """
    camera, count, seed, checksum, blocks = iter_stack_blocks(path)

    def frames() -> Iterator[Frame]:
        for i, both in enumerate(chain.from_iterable(blocks)):
            yield Frame(
                stokes=both[0],
                anti_stokes=both[1],
                shot_index=i,
                readout_angle_urad=(0.0, 0.0),
            )

    return camera, count, seed, checksum, frames()
