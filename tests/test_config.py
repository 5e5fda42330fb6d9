"""Config parsing, normalization round trip and checksum behaviour."""

import dataclasses
import hashlib
import math
import re
from pathlib import Path

import numpy as np
import pytest

from ramanmem.config import (
    _SCHEMA,
    _SECTIONS,
    ConfigError,
    ExperimentConfig,
    RunParams,
    _int,
    dump_config,
    load_config,
    parse_config,
)
from ramanmem.control import HeraldConfig
from ramanmem.geometry import PANE_PIXELS_MAX, BeamGeometry, CameraGeometry, OpticalChain, _interval
from ramanmem.scattering import ModeGridParams, RetrievalModel
from ramanmem.stackio import _record_dtype


def test_dump_parse_round_trip():
    cfg = ExperimentConfig()
    assert parse_config(dump_config(cfg)) == cfg


def test_empty_text_gives_defaults():
    assert parse_config("") == ExperimentConfig()


@pytest.mark.parametrize(
    "section, cls",
    [
        ("geometry", BeamGeometry),
        ("chain", OpticalChain),
        ("modes", ModeGridParams),
        ("retrieval", RetrievalModel),
        ("camera", CameraGeometry),
        ("run", RunParams),
        ("herald", HeraldConfig),
    ],
)
def test_each_section_defaults_to_its_fields_defaults(section, cls):
    """A section built with no arguments is that section of the default config."""
    assert cls() == getattr(ExperimentConfig(), section)


def test_camera_focal_length_defaults_to_the_chains():
    assert CameraGeometry().f3_m == OpticalChain().f3_m


def test_partial_override_keeps_other_defaults():
    cfg = parse_config("[run]\nseed = 7\n")
    base = ExperimentConfig()
    assert cfg.run.seed == 7
    assert cfg.run.n_frames == base.run.n_frames
    assert cfg.geometry == base.geometry
    assert cfg.camera == base.camera


def test_comments_and_blank_lines_ignored():
    text = "# leading comment\n\n[run]\n; another\nseed = 9\n"
    assert parse_config(text).run.seed == 9


def test_camera_keys_map_to_pane_shape():
    cfg = parse_config("[camera]\npane_width_px = 32\npane_height_px = 16\n")
    assert cfg.camera.width_px == 32
    assert cfg.camera.height_px == 16


def test_pane_bound_is_the_widest_stack_record():
    """The largest pane a config loads still has a u32 stack record numpy can size; one pixel more fails.

    Checked by value: neither pane is allocated.
    """
    half = PANE_PIXELS_MAX // 2
    cfg = parse_config(f"[camera]\npane_width_px = {half}\npane_height_px = 2\n")
    record = _record_dtype(cfg.camera, np.dtype("<u4"))
    assert record.itemsize == 16 + 8 * 2 * half <= 2**31 - 1
    with pytest.raises(ConfigError, match=f"a {half + 1}x2 pane is too large to store"):
        parse_config(f"[camera]\npane_width_px = {half + 1}\npane_height_px = 2\n")


def test_camera_focal_length_follows_chain():
    cfg = parse_config("[chain]\nf3_m = 0.25\n")
    assert cfg.camera.f3_m == 0.25
    # halving f3 doubles the angular pitch of a pixel
    assert cfg.camera.pitch_urad == pytest.approx(2 * ExperimentConfig().camera.pitch_urad)


def test_steer_axes_list():
    cfg = parse_config("[chain]\nsteer_axes = x,y\n")
    assert cfg.chain.steer_axes == ("x", "y")
    with pytest.raises(ConfigError, match="steer_axes"):
        parse_config("[chain]\nsteer_axes = z\n")


def test_metadata_is_free_form_and_carried():
    cfg = parse_config("[metadata]\noperator = rk\nnote = warm cell, day 3\n")
    assert cfg.metadata["operator"] == "rk"
    assert cfg.metadata["note"] == "warm cell, day 3"
    # defaults still present unless overridden
    assert cfg.metadata["pump_power_mw"] == "70.0"
    # and the round trip keeps them
    assert parse_config(dump_config(cfg)) == cfg


def test_unknown_section_is_anchored():
    with pytest.raises(ConfigError) as ei:
        parse_config("[typo]\nkey = 1\n", path="exp.ini")
    assert str(ei.value) == "exp.ini:1: unknown section [typo]"
    assert ei.value.line == 1


def test_unknown_key_is_anchored():
    with pytest.raises(ConfigError) as ei:
        parse_config("[run]\nseeed = 1\n", path="exp.ini")
    assert "exp.ini:2:" in str(ei.value)
    assert "seeed" in str(ei.value)


@pytest.mark.parametrize("key, value", [("f3_m", "0.3"), ("width_px", "32")])
def test_camera_fields_without_their_own_key_are_unknown(key, value):
    # the camera's f3_m follows [chain] f3_m, and its pane size has pane_* keys
    with pytest.raises(ConfigError) as ei:
        parse_config(f"[camera]\npixel_pitch_m = 7.5e-06\n{key} = {value}\n", path="exp.ini")
    assert str(ei.value) == f"exp.ini:3: unknown key '{key}' in [camera]"


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config("[run]\nseed = 1\nseed = 2\n")


def test_malformed_line_rejected():
    with pytest.raises(ConfigError, match="key = value"):
        parse_config("[run]\njust some words\n")


def test_key_outside_section_rejected():
    with pytest.raises(ConfigError, match="outside any"):
        parse_config("seed = 1\n")


def test_bad_value_reports_key_and_line():
    with pytest.raises(ConfigError) as ei:
        parse_config("[run]\nseed = twelve\n", path="exp.ini")
    msg = str(ei.value)
    assert msg.startswith("exp.ini:2:")
    assert "seed" in msg


def test_nan_rejected():
    with pytest.raises(ConfigError, match="nan"):
        parse_config("[retrieval]\neta0 = nan\n")


def test_semantic_errors_become_config_errors():
    with pytest.raises(ConfigError):
        parse_config("[run]\nn_frames = 0\n")
    with pytest.raises(ConfigError, match=r"p must lie in \[0, 1\)"):
        parse_config("[herald]\nzeta = 1e300\n")


def test_seed_must_fit_in_64_bits():
    assert parse_config(f"[run]\nseed = {2**64 - 1}\n").run.seed == 2**64 - 1
    for bad in (-1, 2**64):
        with pytest.raises(ConfigError, match="seed must lie in"):
            parse_config(f"[run]\nseed = {bad}\n")
    with pytest.raises(ValueError, match="seed must lie in"):
        ExperimentConfig().with_seed(2**64)


def test_frame_count_must_fit_in_32_bits():
    assert parse_config(f"[run]\nn_frames = {2**32 - 1}\n").run.n_frames == 2**32 - 1
    for bad in (0, 2**32):
        with pytest.raises(ConfigError, match="n_frames must lie in"):
            parse_config(f"[run]\nn_frames = {bad}\n")


def test_herald_zeta_override_recomputes_p():
    cfg = parse_config("[herald]\nzeta = 0.25\n")
    assert cfg.herald.zeta == 0.25
    assert cfg.herald.p == pytest.approx(0.2)
    # p follows from zeta and is not a key
    with pytest.raises(ConfigError, match=r"exp.ini:2: unknown key 'p' in \[herald\]"):
        parse_config("[herald]\np = 0.5\n", path="exp.ini")


def test_checksum_is_stable_and_sensitive():
    base = ExperimentConfig()
    again = parse_config(dump_config(base))
    assert base.checksum() == again.checksum()
    assert base.checksum() != base.with_seed(54321).checksum()
    tweaked = parse_config("[metadata]\nnote = x\n")
    assert tweaked.checksum() != base.checksum()


def test_with_seed_only_touches_run():
    cfg = ExperimentConfig().with_seed(99)
    assert cfg.run.seed == 99
    assert cfg.run.n_frames == ExperimentConfig().run.n_frames
    assert cfg.geometry == ExperimentConfig().geometry


def test_default_mode_grid_size():
    assert len(ExperimentConfig().mode_set().centers_urad) == 121


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(tmp_path / "nope.ini")


def test_load_config_reads_file(tmp_path):
    p = tmp_path / "exp.ini"
    p.write_text("[run]\nseed = 33\nn_frames = 12\n")
    cfg = load_config(p)
    assert cfg.run.seed == 33
    assert cfg.run.n_frames == 12


def test_load_config_skips_a_byte_order_mark(tmp_path):
    text = b"[run]\nseed = 33\n[metadata]\nlab = caf\xc3\xa9\n"
    plain, marked = tmp_path / "plain.ini", tmp_path / "marked.ini"
    plain.write_bytes(text)
    marked.write_bytes(b"\xef\xbb\xbf" + text)
    cfg = load_config(marked)
    assert cfg == load_config(plain)
    assert cfg.checksum() == load_config(plain).checksum()


def test_shipped_default_config_is_the_dump_of_the_defaults():
    shipped = Path(__file__).parents[1] / "configs" / "default.ini"
    assert shipped.read_bytes() == dump_config(ExperimentConfig()).encode("utf-8")


# overrides at least one key in every section, both renamed camera keys, a
# two-axis chain, the herald zeta (that of p = 0.02) and a metadata key
_EVERY_SECTION = """\
[geometry]
cell_length_m = 0.08

[chain]
f3_m = 0.4
steer_axes = x,y

[modes]
mean_photons_per_mode = 500.0

[retrieval]
noise_floor = 1.5

[camera]
pane_width_px = 96
pane_height_px = 48
pixel_pitch_m = 6e-06

[run]
seed = 77
n_frames = 250

[herald]
zeta = 0.020408163265306124

[metadata]
pump_power_mw = 65.0
operator = rk
"""


@pytest.mark.parametrize(
    "text, dump_sha256, checksum",
    [
        (_EVERY_SECTION,
         "0850e4e417245aafb43b543db40b15da8ee0a860e703f6e8171575a9ff7e3eda", 0xAF5A2417E4E45008),
        ("[herald]\nzeta = 0.25\n",
         "41af2bd68813ab89052787b7c0444541566a0a0fc34c128ce6658f03831e0cf0", 0x89AB1388D62BAF41),
    ],
    ids=["every-section", "herald-zeta"],
)
def test_config_dump_and_checksum_are_pinned(text, dump_sha256, checksum):
    """The normalized text is hashed into every output header: a moved byte is an output change."""
    cfg = parse_config(text)
    assert hashlib.sha256(dump_config(cfg).encode("utf-8")).hexdigest() == dump_sha256
    assert cfg.checksum() == checksum
    assert parse_config(dump_config(cfg)) == cfg


def _bounded_keys():
    """(section, key, is_int, low, high, bounds) of each config key whose field declares an interval."""
    for section, keys in _SCHEMA.items():
        by_name = {f.name: f for f in dataclasses.fields(_SECTIONS[section])}
        for key, (name, parse) in keys.items():
            if "within" in by_name[name].metadata:
                yield (section, key, parse is _int, *by_name[name].metadata["within"])


def _interval_edges():
    """A one-key config at each finite end of each key's interval, inside when closed, and one step past it."""
    for section, key, is_int, low, high, bounds in _bounded_keys():
        message = f"{key} must lie in {_interval(low, high, bounds)}, got "
        for end, closed, outward in ((low, bounds[0] == "[", -1), (high, bounds[1] == "]", 1)):
            if math.isinf(end):
                continue
            past = end + outward if is_int else math.nextafter(float(end), outward * math.inf)
            for value, inside in ((end if is_int else float(end), closed), (past, False)):
                yield pytest.param(f"[{section}]\n{key} = {value!r}\n", message, inside, id=f"{key}={value!r}")


@pytest.mark.parametrize("text, message, inside", list(_interval_edges()))
def test_each_interval_end_and_one_step_past_it(text, message, inside):
    """A value past its key's interval is rejected naming the key; a closed end is not (another rule may still)."""
    if inside:
        try:
            parse_config(text)
        except ConfigError as exc:
            assert message not in str(exc)
    else:
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(text)


def _readme_interval_rows():
    """(section, key, interval) of each key of each row of the README's config interval table."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| Section | Keys | Interval |\n|---|---|---|\n", 1)[1].split("\n\n", 1)[0]
    for row in table.splitlines():
        section, keys, interval = (cell.strip() for cell in row.strip().strip("|").split("|"))
        for key in re.findall(r"`(\w+)`", keys):
            yield section.strip("`[]"), key, interval


def test_readme_interval_table_is_the_fields_metadata():
    """Every row of the README's interval table is a field's interval, printed as `require_within` prints it, and
    every field's interval has its row."""
    expected = [(s, k, _interval(low, high, bounds)) for s, k, _, low, high, bounds in _bounded_keys()]
    assert sorted(_readme_interval_rows()) == sorted(expected)
