"""Version 1 `.rmns` bytes for tests: the writer writes version 2 only.

A version 1 stack is the version 2 header without its count width, then
each frame's (2, H, W) counts as float32 and no readout angles.
"""

from ramanmem.stackio import _HEADER, MAGIC, read_stack


def v1_bytes(path) -> bytes:
    """The stack at path decoded, then encoded as version 1."""
    stack = read_stack(path)
    cam = stack.camera
    header = _HEADER.pack(
        MAGIC, 1, cam.width_px, cam.height_px, stack.n_frames, cam.pixel_pitch_m, cam.f3_m,
        stack.seed, stack.config_checksum,
    )
    return header + stack.counts.astype("<f4").tobytes()
