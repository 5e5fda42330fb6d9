"""Config parsing, normalization round trip and checksum behaviour."""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from ramanmem.config import (
    ConfigError,
    default_config,
    dump_config,
    load_config,
    parse_config,
)
from ramanmem.geometry import PANE_PIXELS_MAX
from ramanmem.stackio import _record_dtype


def test_dump_parse_round_trip():
    cfg = default_config()
    assert parse_config(dump_config(cfg)) == cfg


def test_empty_text_gives_defaults():
    assert parse_config("") == default_config()


def test_partial_override_keeps_other_defaults():
    cfg = parse_config("[run]\nseed = 7\n")
    base = default_config()
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
    assert cfg.camera.pitch_urad == pytest.approx(2 * default_config().camera.pitch_urad)


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
    with pytest.raises(ConfigError, match="inconsistent"):
        parse_config("[herald]\nzeta = 0.25\np = 0.5\n")


def test_seed_must_fit_in_64_bits():
    assert parse_config(f"[run]\nseed = {2**64 - 1}\n").run.seed == 2**64 - 1
    for bad in (-1, 2**64):
        with pytest.raises(ConfigError, match="seed must lie in"):
            parse_config(f"[run]\nseed = {bad}\n")
    with pytest.raises(ValueError, match="seed must lie in"):
        default_config().with_seed(2**64)


def test_frame_count_must_fit_in_32_bits():
    assert parse_config(f"[run]\nn_frames = {2**32 - 1}\n").run.n_frames == 2**32 - 1
    for bad in (0, 2**32):
        with pytest.raises(ConfigError, match="n_frames must lie in"):
            parse_config(f"[run]\nn_frames = {bad}\n")


def test_herald_zeta_override_recomputes_p():
    cfg = parse_config("[herald]\nzeta = 0.25\n")
    assert cfg.herald.zeta == 0.25
    assert cfg.herald.p == pytest.approx(0.2)
    cfg2 = parse_config("[herald]\np = 0.5\n")
    assert cfg2.herald.zeta == pytest.approx(1.0)


def test_checksum_is_stable_and_sensitive():
    base = default_config()
    again = parse_config(dump_config(base))
    assert base.checksum() == again.checksum()
    assert base.checksum() != base.with_seed(54321).checksum()
    tweaked = parse_config("[metadata]\nnote = x\n")
    assert tweaked.checksum() != base.checksum()


def test_with_seed_only_touches_run():
    cfg = default_config().with_seed(99)
    assert cfg.run.seed == 99
    assert cfg.run.n_frames == default_config().run.n_frames
    assert cfg.geometry == default_config().geometry


def test_default_mode_grid_size():
    assert len(default_config().mode_set().centers_urad) == 121


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(tmp_path / "nope.ini")


def test_load_config_reads_file(tmp_path):
    p = tmp_path / "exp.ini"
    p.write_text("[run]\nseed = 33\nn_frames = 12\n")
    cfg = load_config(p)
    assert cfg.run.seed == 33
    assert cfg.run.n_frames == 12


def test_shipped_default_config_is_the_dump_of_the_defaults():
    shipped = Path(__file__).parents[1] / "configs" / "default.ini"
    assert shipped.read_bytes() == dump_config(default_config()).encode("utf-8")


# overrides at least one key in every section, both renamed camera keys, a
# two-axis chain, the herald p side of the zeta/p lock and a metadata key
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
p = 0.02

[metadata]
pump_power_mw = 65.0
operator = rk
"""


@pytest.mark.parametrize(
    "text, dump_sha256, checksum",
    [
        (_EVERY_SECTION,
         "0b8674ac6177a64d63a080ee7125f25379c31548c15f4f36a609a4c5453c23ab", 0x4DA67761AC74860B),
        ("[herald]\nzeta = 0.25\n",
         "2353b71f8212fc09d27bc984d627750ee570a138a95f4baba41a4fa572e72b31", 0x09FC12821FB75323),
    ],
    ids=["every-section", "herald-zeta"],
)
def test_config_dump_and_checksum_are_pinned(text, dump_sha256, checksum):
    """The normalized text is hashed into every output header: a moved byte is an output change."""
    cfg = parse_config(text)
    assert hashlib.sha256(dump_config(cfg).encode("utf-8")).hexdigest() == dump_sha256
    assert cfg.checksum() == checksum
    assert parse_config(dump_config(cfg)) == cfg
