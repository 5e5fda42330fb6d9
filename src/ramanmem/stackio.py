"""Binary frame-stack format and per-frame CSV export.

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
from typing import Iterator

import numpy as np

from .geometry import CameraGeometry
from .scattering import Frame, FrameStack

__all__ = ["MAGIC", "VERSION", "StackWriter", "write_stack", "read_stack", "iter_stack", "export_frame_csv"]

MAGIC = b"RMNS"
VERSION = 1
_HEADER = struct.Struct("<4sHIIIddQQ")


class StackWriter:
    """Incremental writer so large runs never need to sit in memory."""

    def __init__(self, path, camera: CameraGeometry, n_frames: int, seed: int, config_checksum: int):
        if n_frames < 1:
            raise ValueError("n_frames must be >= 1")
        self._fh = open(path, "wb")
        self._camera = camera
        self._expected = n_frames
        self._written = 0
        self._fh.write(
            _HEADER.pack(
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
        )

    def append(self, frame: Frame) -> None:
        shape = (self._camera.height_px, self._camera.width_px)
        if frame.stokes.shape != shape:
            raise ValueError(f"frame pane shape {frame.stokes.shape} does not match header {shape}")
        if self._written >= self._expected:
            raise ValueError("stack already holds the declared number of frames")
        self._fh.write(np.ascontiguousarray(frame.stokes, dtype="<f4").tobytes())
        self._fh.write(np.ascontiguousarray(frame.anti_stokes, dtype="<f4").tobytes())
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


def _read_header(fh, path):
    raw = fh.read(_HEADER.size)
    if len(raw) != _HEADER.size:
        raise ValueError(f"{path}: truncated header")
    magic, version, width, height, count, pitch, f3, seed, checksum = _HEADER.unpack(raw)
    if magic != MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise ValueError(f"{path}: unsupported version {version}")
    camera = CameraGeometry(width_px=width, height_px=height, pixel_pitch_m=pitch, f3_m=f3)
    return camera, count, seed, checksum


def read_stack(path) -> FrameStack:
    """Load a whole stack into memory."""
    with open(path, "rb") as fh:
        camera, count, seed, checksum = _read_header(fh, path)
        pane = camera.height_px * camera.width_px
        data = np.fromfile(fh, dtype="<f4", count=count * 2 * pane)
    if data.size != count * 2 * pane:
        raise ValueError(f"{path}: truncated body ({data.size} of {count * 2 * pane} values)")
    frames = data.reshape(count, 2, camera.height_px, camera.width_px)
    return FrameStack(
        stokes=np.ascontiguousarray(frames[:, 0]),
        anti_stokes=np.ascontiguousarray(frames[:, 1]),
        readout_angles_urad=np.zeros((count, 2)),
        camera=camera,
        seed=seed,
        config_checksum=checksum,
    )


def iter_stack(path) -> tuple[CameraGeometry, int, int, int, Iterator[Frame]]:
    """Header plus a lazy frame iterator, for streaming consumers.

    Returns (camera, n_frames, seed, config_checksum, frames).  Readout angles
    are not part of the format, so iterated frames carry (0, 0) there.  The
    iterator opens the file only when iteration starts, so a caller that never
    iterates holds no open handle.
    """
    with open(path, "rb") as fh:
        camera, count, seed, checksum = _read_header(fh, path)
    pane = camera.height_px * camera.width_px

    def frames() -> Iterator[Frame]:
        with open(path, "rb") as fh:
            fh.seek(_HEADER.size)
            for i in range(count):
                data = np.fromfile(fh, dtype="<f4", count=2 * pane)
                if data.size != 2 * pane:
                    raise ValueError(f"{path}: truncated frame {i}")
                both = data.reshape(2, camera.height_px, camera.width_px)
                yield Frame(
                    stokes=both[0],
                    anti_stokes=both[1],
                    shot_index=i,
                    readout_angle_urad=(0.0, 0.0),
                )

    return camera, count, seed, checksum, frames()


def export_frame_csv(frame: Frame, camera: CameraGeometry, path, seed: int, config_checksum: int) -> None:
    """One frame as CSV rows (pane, theta_x_urad, theta_y_urad, count)."""
    ax, ay = camera.pixel_angle_axes()
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"# seed={seed} config_checksum={config_checksum:016x} shot={frame.shot_index}\n")
        fh.write("pane,theta_x_urad,theta_y_urad,count\n")
        for name, pane in (("stokes", frame.stokes), ("anti_stokes", frame.anti_stokes)):
            for iy in range(camera.height_px):
                for ix in range(camera.width_px):
                    fh.write(f"{name},{float(ax[ix])!r},{float(ay[iy])!r},{pane[iy, ix]:.0f}\n")
