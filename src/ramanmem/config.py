"""Experiment configuration: flat sectioned key=value files.

Grammar (documented here and in the README):

* the file is UTF-8 text; a leading byte-order mark is skipped
* full-line comments start with '#' or ';'
* sections are '[name]', keys are 'key = value'
* each section but [metadata] is one field of ExperimentConfig, and its keys
  are the fields of that section's dataclass, parsed by their annotated
  types; unknown keys are rejected with a file:line anchored error
* a field's "key" metadata, where it has one, renames its key or (None)
  leaves it without one; its "within" metadata is the interval its section
  checks it against (`geometry.require_fields_within`), naming it by its key
* [metadata] is free-form UTF-8 text; it never influences the simulation and
  is written to no output, but it enters the config checksum

Every value has a default, stated once on its section's field, so a config
file only needs the keys it overrides.
The checksum of the normalized dump travels in every output file header.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields, replace
from typing import get_type_hints

from .control import HeraldConfig
from .geometry import BeamGeometry, CameraGeometry, OpticalChain, bounded, require_fields_within
from .scattering import ModeGridParams, RetrievalModel, check_pixel_photons, mode_set_from_config
from .stackio import N_FRAMES_MAX, SEED_MAX

__all__ = [
    "ConfigError",
    "RunParams",
    "ExperimentConfig",
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
class RunParams:
    seed: int = bounded(12345, 0, SEED_MAX)
    n_frames: int = bounded(10000, 1, N_FRAMES_MAX)

    def __post_init__(self) -> None:
        require_fields_within(self)


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


@dataclass(frozen=True)
class ExperimentConfig:
    """The whole setup; each section's defaults are its fields' defaults."""

    geometry: BeamGeometry = BeamGeometry()
    chain: OpticalChain = OpticalChain()
    modes: ModeGridParams = ModeGridParams()
    retrieval: RetrievalModel = RetrievalModel()
    camera: CameraGeometry = CameraGeometry()
    run: RunParams = RunParams()
    herald: HeraldConfig = HeraldConfig()
    metadata: dict = field(default_factory=_DEFAULT_METADATA.copy)

    def checksum(self) -> int:
        """64-bit checksum of the normalized config text."""
        digest = hashlib.sha256(dump_config(self).encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "little")

    def mode_set(self):
        return mode_set_from_config(self)

    def with_seed(self, seed: int) -> "ExperimentConfig":
        return replace(self, run=replace(self.run, seed=seed))


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
    """The comma-separated axis names; `OpticalChain` checks them."""
    return tuple(part.strip() for part in raw.split(",") if part.strip())


# field type -> parser of its value text
_PARSERS = {float: _float, int: _int, tuple[str, ...]: _axes}


# section -> its dataclass: each section of ExperimentConfig but metadata
_SECTIONS = {s: cls for s, cls in get_type_hints(ExperimentConfig).items() if s != "metadata"}


def _keys(cls) -> dict:
    """key -> (field name, parser) of each field of cls with a key: its "key" metadata, else its name."""
    hints = get_type_hints(cls)
    keyed = ((f.metadata.get("key", f.name), f.name) for f in fields(cls))
    return {key: (name, _PARSERS[hints[name]]) for key, name in keyed if key is not None}


# section -> key -> (field name, parser): each section is filled from the section
# of its name, and each field of it from its key, in field order
_SCHEMA = {section: _keys(cls) for section, cls in _SECTIONS.items()}


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

    values["camera"]["f3_m"] = values["chain"].get("f3_m", OpticalChain.f3_m)
    try:
        cfg = ExperimentConfig(
            **{s: cls(**values[s]) for s, cls in _SECTIONS.items()}, metadata=metadata
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
