"""Experiment configuration: flat sectioned key=value files.

Grammar (documented here and in the README):

* the file is UTF-8 text; a leading byte-order mark is skipped
* full-line comments start with '#' or ';'
* sections are '[name]', keys are 'key = value'
* each section but [metadata] is one field of ExperimentConfig, and its keys
  are the fields of that section's dataclass, parsed by their annotated
  types; unknown keys are rejected with a file:line anchored error
* [metadata] is free-form UTF-8 text; it never influences the simulation and
  is written to no output, but it enters the config checksum

Every value has a default, so a config file only needs the keys it overrides.
The checksum of the normalized dump travels in every output file header.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from typing import get_type_hints

from .control import HeraldConfig
from .geometry import BeamGeometry, CameraGeometry, OpticalChain
from .scattering import ModeGridParams, RetrievalModel, check_pixel_photons, mode_set_from_config

__all__ = [
    "ConfigError",
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


# seeds are the entropy of each run's SeedSequence (one PCG64 child per shot)
# and are stored as u64 in stack headers
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
        digest = hashlib.sha256(dump_config(self).encode("utf-8")).digest()
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


# field type -> parser of its value text
_PARSERS = {float: _float, int: _int, tuple[str, ...]: _axes}
# a pane key names the pane it sizes; CameraGeometry describes one pane
_KEYS = {("camera", "width_px"): "pane_width_px", ("camera", "height_px"): "pane_height_px"}
# the camera's far-field lens is the chain's last lens, so it has no key of its own
_KEYLESS = {("camera", "f3_m")}


# section -> key -> (field name, parser): each section of ExperimentConfig is
# filled from the section of its name, and each field of it from the key of its
# name unless _KEYS renames it, in field order
_SCHEMA = {
    section: {
        _KEYS.get((section, name), name): (name, _PARSERS[kind])
        for name, kind in get_type_hints(cls).items()
        if (section, name) not in _KEYLESS
    }
    for section, cls in get_type_hints(ExperimentConfig).items()
    if section != "metadata"
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

    for line_no, section, key, raw in _tokenize(text, path):
        if section == "metadata":
            metadata[key] = raw
            continue
        if key not in _SCHEMA[section]:
            raise ConfigError(f"unknown key '{key}' in [{section}]", path, line_no)
        name, parse = _SCHEMA[section][key]
        if name in values[section]:
            raise ConfigError(f"duplicate key '{key}' in [{section}]", path, line_no)
        try:
            values[section][name] = parse(raw)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad value for '{key}': {exc}", path, line_no) from None

    base = default_config()
    values["camera"]["f3_m"] = values["chain"].get("f3_m", base.chain.f3_m)
    try:
        cfg = ExperimentConfig(
            **{s: replace(getattr(base, s), **values[s]) for s in _SCHEMA}, metadata=metadata
        )
        # values the mode grid rejects, and pixels too coarse for its modes
        check_pixel_photons(mode_set_from_config(cfg), cfg.camera)
    except ValueError as exc:
        raise ConfigError(str(exc), path) from None
    return cfg


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", str(path)) from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config is not UTF-8 text: {exc}", str(path)) from None
    return parse_config(text, str(path))


def _fmt(value) -> str:
    if isinstance(value, tuple):
        return ",".join(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def dump_config(cfg: ExperimentConfig) -> str:
    """Emit the normalized full config; parse(dump(cfg)) == cfg."""
    lines = []
    for section, keys in _SCHEMA.items():
        part = getattr(cfg, section)
        lines += [f"[{section}]"]
        lines += [f"{key} = {_fmt(getattr(part, name))}" for key, (name, _) in keys.items()]
        lines += [""]
    lines += ["[metadata]", *(f"{key} = {value}" for key, value in cfg.metadata.items()), ""]
    return "\n".join(lines)
