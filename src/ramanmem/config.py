"""Experiment configuration: flat sectioned key=value files.

Grammar (documented here and in the README):

* full-line comments start with '#' or ';'
* sections are '[name]', keys are 'key = value'
* every key outside [metadata] is validated against the schema below and
  unknown keys are rejected with a file:line anchored error
* [metadata] is free-form and carried verbatim into output headers; it never
  influences the simulation

Every value has a default, so a config file only needs the keys it overrides.
The checksum of the normalized dump travels in every output file header.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from .control import HeraldConfig
from .geometry import BeamGeometry, CameraGeometry, OpticalChain
from .scattering import RetrievalModel, mode_set_from_config

__all__ = [
    "ConfigError",
    "ModeGridParams",
    "RunParams",
    "ExperimentConfig",
    "default_config",
    "parse_config",
    "load_config",
    "dump_config",
]


class ConfigError(Exception):
    """Configuration problem, anchored to a file and line where possible."""

    def __init__(self, message: str, path: str = "<config>", line: int = 0):
        self.path = path
        self.line = line
        super().__init__(f"{path}:{line}: {message}" if line else f"{path}: {message}")


@dataclass(frozen=True)
class ModeGridParams:
    gain_shrink: float = 2.0
    envelope_fwhm_urad: float = 758.946695
    readout_envelope_fwhm_urad: float = 536.656315
    mean_photons_per_mode: float = 1000.0
    spot_constant: float = 0.754212
    grid_spacing_sigma: float = 1.5
    grid_margin_sigma: float = 3.0


# seeds key counter-based Philox streams and are stored as u64 in stack headers
SEED_MAX = 2**64 - 1
# stack headers store the frame count as u32
N_FRAMES_MAX = 2**32 - 1


@dataclass(frozen=True)
class RunParams:
    seed: int = 12345
    n_frames: int = 10000

    def __post_init__(self) -> None:
        if not 0 <= self.seed <= SEED_MAX:
            raise ValueError(f"seed must lie in [0, 2**64 - 1], got {self.seed}")
        if not 1 <= self.n_frames <= N_FRAMES_MAX:
            raise ValueError(f"n_frames must lie in [1, 2**32 - 1], got {self.n_frames}")


@dataclass(frozen=True)
class ExperimentConfig:
    geometry: BeamGeometry
    chain: OpticalChain
    modes: ModeGridParams
    retrieval: RetrievalModel
    camera: CameraGeometry
    run: RunParams
    herald: HeraldConfig
    metadata: dict = field(default_factory=dict)

    def checksum(self) -> int:
        """64-bit checksum of the normalized config text."""
        digest = hashlib.sha256(dump_config(self).encode("ascii")).digest()
        return int.from_bytes(digest[:8], "little")

    def mode_set(self):
        return mode_set_from_config(self)

    def with_seed(self, seed: int) -> "ExperimentConfig":
        return replace(self, run=replace(self.run, seed=seed))


_DEFAULT_METADATA = {
    "detuning_write_ghz": "1.0",
    "detuning_read_ghz": "1.0",
    "pump_pulse_us": "350.0",
    "write_pulse_us": "8.0",
    "read_pulse_us": "8.0",
    "storage_delay_us": "1.0",
    "write_power_mw": "16.0",
    "read_power_mw": "16.0",
    "pump_power_mw": "70.0",
    "aod_input_waist_um": "250.0",
}


def default_config() -> ExperimentConfig:
    return ExperimentConfig(
        geometry=BeamGeometry(
            w0_write_m=3.5e-3,
            w0_read_m=3.5e-3,
            w0_pump_m=6.0e-3,
            cell_length_m=0.1,
            lambda_write_m=795e-9,
            lambda_read_m=780e-9,
        ),
        chain=OpticalChain(
            f1_m=0.05,
            f2_m=0.75,
            f3_m=0.5,
            base_freq_hz=80e6,
            aod_slope_rad_per_hz=3e-10,
            freq_min_hz=70e6,
            freq_max_hz=90e6,
            steer_axes=("y",),
        ),
        modes=ModeGridParams(),
        retrieval=RetrievalModel(
            eta0=0.85,
            d_diff_m2_s=0.12,
            tau_storage_s=1.0e-6,
            aberration_scale_urad=600.0,
            noise_floor=2.0,
        ),
        camera=CameraGeometry(
            width_px=128,
            height_px=64,
            pixel_pitch_m=7.5e-6,
            f3_m=0.5,
        ),
        run=RunParams(),
        herald=HeraldConfig(
            modes=20,
            zeta=0.01,
            eta_retrieve=0.6,
            eta_detect=0.55,
            switch_latency_s=1.0e-7,
            memory_lifetime_s=1.0e-6,
        ),
        metadata=dict(_DEFAULT_METADATA),
    )


# ---------------------------------------------------------------------------
# schema


def _float(raw: str) -> float:
    v = float(raw)
    if math.isnan(v):
        raise ValueError("nan is not a valid value")
    return v


def _int(raw: str) -> int:
    return int(raw, 10)


def _axes(raw: str) -> tuple[str, ...]:
    axes = tuple(part.strip() for part in raw.split(",") if part.strip())
    if not axes or any(a not in ("x", "y") for a in axes):
        raise ValueError(f"steer_axes must list 'x' and/or 'y', got {raw!r}")
    return axes


# section -> key -> converter
_SCHEMA: dict[str, dict[str, Callable]] = {
    "geometry": {
        "w0_write_m": _float,
        "w0_read_m": _float,
        "w0_pump_m": _float,
        "cell_length_m": _float,
        "lambda_write_m": _float,
        "lambda_read_m": _float,
    },
    "chain": {
        "f1_m": _float,
        "f2_m": _float,
        "f3_m": _float,
        "base_freq_hz": _float,
        "aod_slope_rad_per_hz": _float,
        "freq_min_hz": _float,
        "freq_max_hz": _float,
        "steer_axes": _axes,
    },
    "modes": {
        "gain_shrink": _float,
        "envelope_fwhm_urad": _float,
        "readout_envelope_fwhm_urad": _float,
        "mean_photons_per_mode": _float,
        "spot_constant": _float,
        "grid_spacing_sigma": _float,
        "grid_margin_sigma": _float,
    },
    "retrieval": {
        "eta0": _float,
        "d_diff_m2_s": _float,
        "tau_storage_s": _float,
        "aberration_scale_urad": _float,
        "noise_floor": _float,
    },
    "camera": {
        "pane_width_px": _int,
        "pane_height_px": _int,
        "pixel_pitch_m": _float,
    },
    "run": {
        "seed": _int,
        "n_frames": _int,
    },
    "herald": {
        "modes": _int,
        "zeta": _float,
        "p": _float,
        "eta_retrieve": _float,
        "eta_detect": _float,
        "switch_latency_s": _float,
        "memory_lifetime_s": _float,
    },
}


def _tokenize(text: str, path: str):
    """Yield (line_no, section, key, raw_value) entries, validating shape."""
    section = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("["):
            if not line.endswith("]") or len(line) < 3:
                raise ConfigError(f"malformed section header {line!r}", path, line_no)
            section = line[1:-1].strip()
            if section != "metadata" and section not in _SCHEMA:
                raise ConfigError(f"unknown section [{section}]", path, line_no)
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", path, line_no)
        if section is None:
            raise ConfigError("key outside any [section]", path, line_no)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError("empty key", path, line_no)
        yield line_no, section, key, value


def parse_config(text: str, path: str = "<config>") -> ExperimentConfig:
    """Parse and validate a config, starting from built-in defaults."""
    values: dict[str, dict[str, object]] = {s: {} for s in _SCHEMA}
    metadata = dict(_DEFAULT_METADATA)
    seen: set[tuple[str, str]] = set()

    for line_no, section, key, raw in _tokenize(text, path):
        if section == "metadata":
            metadata[key] = raw
            continue
        schema = _SCHEMA[section]
        if key not in schema:
            raise ConfigError(f"unknown key '{key}' in [{section}]", path, line_no)
        if (section, key) in seen:
            raise ConfigError(f"duplicate key '{key}' in [{section}]", path, line_no)
        seen.add((section, key))
        try:
            values[section][key] = schema[key](raw)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad value for '{key}': {exc}", path, line_no) from None

    base = default_config()
    try:
        geometry = replace(base.geometry, **values["geometry"])
        chain = replace(base.chain, **values["chain"])
        modes = replace(base.modes, **values["modes"])
        retrieval = replace(base.retrieval, **values["retrieval"])
        cam_kw = {
            "width_px": values["camera"].get("pane_width_px", base.camera.width_px),
            "height_px": values["camera"].get("pane_height_px", base.camera.height_px),
            "pixel_pitch_m": values["camera"].get("pixel_pitch_m", base.camera.pixel_pitch_m),
            "f3_m": chain.f3_m,
        }
        camera = CameraGeometry(**cam_kw)
        run = replace(base.run, **values["run"])
        herald_kw = values["herald"]
        if "zeta" in herald_kw or "p" in herald_kw:
            herald_kw.setdefault("zeta", None)
            herald_kw.setdefault("p", None)
        herald = replace(base.herald, **herald_kw)
    except ValueError as exc:
        raise ConfigError(str(exc), path) from None
    return ExperimentConfig(
        geometry=geometry,
        chain=chain,
        modes=modes,
        retrieval=retrieval,
        camera=camera,
        run=run,
        herald=herald,
        metadata=metadata,
    )


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", str(path)) from None
    return parse_config(text, str(path))


def _fmt(value) -> str:
    if isinstance(value, tuple):
        return ",".join(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def dump_config(cfg: ExperimentConfig) -> str:
    """Emit the normalized full config; parse(dump(cfg)) == cfg."""
    g, ch, mo, rt, cam, run, he = (
        cfg.geometry,
        cfg.chain,
        cfg.modes,
        cfg.retrieval,
        cfg.camera,
        cfg.run,
        cfg.herald,
    )
    lines = ["[geometry]"]
    for key in _SCHEMA["geometry"]:
        lines.append(f"{key} = {_fmt(getattr(g, key))}")
    lines.append("")
    lines.append("[chain]")
    for key in _SCHEMA["chain"]:
        lines.append(f"{key} = {_fmt(getattr(ch, key))}")
    lines.append("")
    lines.append("[modes]")
    for key in _SCHEMA["modes"]:
        lines.append(f"{key} = {_fmt(getattr(mo, key))}")
    lines.append("")
    lines.append("[retrieval]")
    for key in _SCHEMA["retrieval"]:
        lines.append(f"{key} = {_fmt(getattr(rt, key))}")
    lines.append("")
    lines.append("[camera]")
    lines.append(f"pane_width_px = {cam.width_px}")
    lines.append(f"pane_height_px = {cam.height_px}")
    lines.append(f"pixel_pitch_m = {_fmt(cam.pixel_pitch_m)}")
    lines.append("")
    lines.append("[run]")
    for key in _SCHEMA["run"]:
        lines.append(f"{key} = {_fmt(getattr(run, key))}")
    lines.append("")
    lines.append("[herald]")
    for key in _SCHEMA["herald"]:
        lines.append(f"{key} = {_fmt(getattr(he, key))}")
    lines.append("")
    lines.append("[metadata]")
    for key, value in cfg.metadata.items():
        lines.append(f"{key} = {value}")
    lines.append("")
    return "\n".join(lines)
