"""Command line front end: simulate | correlate | steer | herald.

Exit codes: 0 ok, 2 config or input problem (counts too large to keep exact
among them), 3 at least one unreachable steering target, 4 at least one
requested spot fit failed to converge.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from contextlib import contextmanager, suppress
from itertools import islice
from typing import Iterable, Iterator, Optional

import numpy as np

from . import __version__, analysis, control, scattering, stackio
from .config import ConfigError, ExperimentConfig, load_config
from .geometry import Angle2D

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_UNREACHABLE = 3
EXIT_FIT_FAILED = 4


@contextmanager
def _input(source: str, prefix: str = ""):
    """The one exit-2 boundary: a ValueError raised while taking in `source` becomes a ConfigError naming it."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(prefix + str(exc), path=source) from None


def _load_config(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    run = cfg.run
    for flag, name in (("seed", "seed"), ("frames", "n_frames")):
        if getattr(args, flag, None) is not None:
            with _input(f"--{flag}"):
                run = dataclasses.replace(run, **{name: getattr(args, flag)})
    return dataclasses.replace(cfg, run=run)


def _require_map_frames(count: int, args) -> None:
    """A map needs two frames; the error names what set the count: --stack, --frames or the config."""
    if count < 2:
        source = getattr(args, "stack", None) or ("--frames" if args.frames is not None else args.config)
        raise ConfigError(f"a correlation map needs at least 2 frames, got {count}", path=source)


def _rendered_blocks(frames: Iterable[scattering.Frame]) -> Iterator[np.ndarray]:
    """Rendered frames packed `stackio._BLOCK` at a time into (n, 2, H, W) count blocks."""
    frames = iter(frames)
    while chunk := list(islice(frames, stackio._BLOCK)):
        yield np.stack([f.counts for f in chunk])


def _correlate_frames(
    blocks: Iterable[np.ndarray], references: list[analysis.Reference]
) -> list[analysis.CorrelationMap]:
    """One pass over the count blocks, on the references' camera, into one map per reference."""
    moments = analysis.MomentSet.empty(references)
    blocks = iter(blocks)
    with suppress(StopIteration):
        while True:  # passed unbound, so accumulate_block's float64 copy frees the block
            analysis.accumulate_block(moments, next(blocks))
    return [analysis.correlation_map(moments, k) for k in range(len(references))]


def _twin_fits(
    cfg: ExperimentConfig, refs: list[analysis.Reference], schedule=None,
) -> list[analysis.GaussianSpotFit]:
    """Render cfg's run at the readout schedule, map it against each reference, fit each twin."""
    frames = scattering.iter_simulated_frames(cfg, schedule=schedule)
    maps = _correlate_frames(_rendered_blocks(frames), refs)
    return [analysis.locate_twin_spot(cmap) for cmap in maps]


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    with _input(args.schedule):  # unknown columns, a bad cell, a tone outside the band or a row count
        schedule = control.load_schedule(args.schedule, cfg.chain) if args.schedule else None
        frames = scattering.iter_simulated_frames(cfg, schedule=schedule)
    checksum = cfg.checksum()
    with stackio.StackWriter(
        args.out, cfg.camera, cfg.run.n_frames, cfg.run.seed, checksum, scattering.count_dtype(cfg)
    ) as writer:
        for frame in frames:
            writer.append(frame)
    print(
        f"wrote {args.out}: {cfg.run.n_frames} frames, seed={cfg.run.seed}, "
        f"config_checksum={checksum:016x}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# correlate


def _stack_blocks(path: str):
    """iter_stack_blocks with a bad header or body as a ConfigError."""
    with _input(path):  # bad magic or version, a truncated header, or a bad body length
        camera, count, seed, checksum, blocks = stackio.iter_stack_blocks(path)

    def checked() -> Iterator[np.ndarray]:
        with _input(path):  # a body cut short after its header was read
            yield from blocks

    return camera, count, seed, checksum, checked()


def cmd_correlate(args) -> int:
    if args.stack:  # the stack fixes its own frames, seed and config checksum
        for flag in ("seed", "frames", "config"):
            if getattr(args, flag) is not None:
                raise ConfigError("does not apply to a recorded --stack", path=f"--{flag}")
        camera, count, seed, checksum, blocks = _stack_blocks(args.stack)
    else:
        cfg = _load_config(args)
        camera, count, seed, checksum = cfg.camera, cfg.run.n_frames, cfg.run.seed, cfg.checksum()
        blocks = _rendered_blocks(scattering.iter_simulated_frames(cfg))
    _require_map_frames(count, args)
    with _input("--ref-x/--ref-y"):  # past the paraxial bound, off the pane, or an empty disc
        ref_angle = Angle2D(args.ref_x, args.ref_y)
        reference = analysis.Reference.place(camera, args.ref_pane, ref_angle, args.ref_radius)
    (cmap,) = _correlate_frames(blocks, [reference])

    prefix, stamp = args.out, analysis.provenance(seed, checksum)
    for pane in analysis.PANES:
        analysis.map_to_csv(cmap, pane, f"{prefix}_{pane}.csv", stamp)
        analysis.map_to_pgm(cmap, pane, f"{prefix}_{pane}.pgm", stamp)
    twin_pane = "anti_stokes" if args.ref_pane == "stokes" else "stokes"
    fit = analysis.locate_twin_spot(cmap, pane=twin_pane)
    analysis.fit_to_csv(fit, f"{prefix}_fit.csv", stamp)
    print(
        f"reference {args.ref_pane} ({ref_angle.theta_x:g}, {ref_angle.theta_y:g}) urad, "
        f"{cmap.n_frames} frames"
    )
    if fit.converged:
        print(
            f"twin spot on {twin_pane}: centre ({fit.center_x_urad:.2f}, "
            f"{fit.center_y_urad:.2f}) urad, FWHM ({fit.fwhm_x_urad:.1f}, "
            f"{fit.fwhm_y_urad:.1f}) urad, peak C = {fit.amplitude + fit.offset:.4f}"
        )
        return EXIT_OK
    print("twin spot fit did not converge", file=sys.stderr)
    return EXIT_FIT_FAILED


# ---------------------------------------------------------------------------
# steer


def _fiber_grid(args, cfg: ExperimentConfig) -> list[Angle2D]:
    """Stokes-side fiber positions served by the steered (y) axis.

    The x coordinate defaults to x_S = -target_x (lambda_w/lambda_r), the
    angle that conjugation, x_S -> -(lambda_r/lambda_w) x_S, maps onto
    target_x.  A radius-0 fiber reads the pixel nearest x_S, so its twin lands
    off target_x by that pixel's offset (-60 against -55.04 urad at the
    defaults).
    """
    if args.fiber_x is not None:
        x = args.fiber_x
    else:
        ratio = cfg.geometry.lambda_read_m / cfg.geometry.lambda_write_m
        x = -args.target_x / ratio
    # a lone fiber sits at the centre of the span, not at its lower edge
    half = args.fiber_span / 2.0
    ys = np.linspace(-half, half, args.fibers) if args.fibers > 1 else [0.0]
    return [Angle2D(x, float(y)) for y in ys]


def cmd_steer(args) -> int:
    cfg = _load_config(args)
    _require_map_frames(cfg.run.n_frames, args)
    if args.fibers > cfg.camera.height_px:  # the fibers share one pixel column, one reference each
        raise ConfigError(f"more fibers than the {cfg.camera.height_px} pixels of a column", path="--fibers")
    write_angle = Angle2D(*cfg.mode_set().write_angle_urad)
    with _input("--target-*/--fiber-*"):  # past the paraxial bound, off the pane, or an empty disc
        target = Angle2D(args.target_x, args.target_y)
        fibers = _fiber_grid(args, cfg)
        refs = [analysis.Reference.place(cfg.camera, "stokes", f, args.fiber_radius) for f in fibers]
    # each compensated pass runs on its own seed, set by --seed or else the config
    with _input("--seed" if args.seed is not None else args.config, "per-fiber seed out of range: "):
        run_cfgs = [cfg.with_seed(cfg.run.seed + 1000 * (i + 1)) for i in range(len(fibers))]

    # baseline pass, no compensation: one run, every fiber as a reference
    baseline_fits = _twin_fits(cfg, refs)
    fit_failed = any(not f.converged for f in baseline_fits)

    good = [i for i, f in enumerate(baseline_fits) if f.converged]
    nan = float("nan")
    slope = intercept = nan
    # a line needs converged fibers that fold two different sets of pixel rows: fibers
    # closer than a pixel fold the same rows (a set, as np.unique would load numpy.ma)
    if len({tuple(refs[i].pixel_rows.tolist()) for i in good}) >= 2:
        ys = [fibers[i].theta_y for i in good]
        ts = [baseline_fits[i].center_y_urad for i in good]
        slope, intercept = map(float, np.polyfit(ys, ts, 1))

    # compensated passes: one run per fiber at its solved readout tilt, none when no twin
    # can land on the target because it lies off the anti-Stokes pane
    on_pane = cfg.camera.contains(*cfg.camera.angle_to_pixel(target))
    rows = []
    for i, fiber in enumerate(fibers):
        cmd = control.compensating_readout(fiber, write_angle, target, cfg.chain, cfg.geometry)
        note = cmd.note if on_pane or not cmd.reachable else "target off the anti-Stokes pane"
        fit = _twin_fits(run_cfgs[i], [refs[i]], cmd.theta_read)[0] if cmd.reachable and on_pane else None
        landed = fit is not None and fit.converged
        fit_failed |= cmd.reachable and not landed
        twin_x, twin_y, fwhm_x, fwhm_y = (
            (fit.center_x_urad, fit.center_y_urad, fit.fwhm_x_urad, fit.fwhm_y_urad) if landed else (nan,) * 4
        )
        dist = float(np.hypot(twin_x - target.theta_x, twin_y - target.theta_y))  # NaN without a landed twin
        rows.append({
            "fiber": i,
            "stokes_x_urad": fiber.theta_x,
            "stokes_y_urad": fiber.theta_y,
            "reachable": cmd.reachable,
            "drive_freq_hz": cmd.drive_freq_hz,
            "readout_x_urad": cmd.theta_read.theta_x,
            "readout_y_urad": cmd.theta_read.theta_y,
            "baseline_twin_y_urad": baseline_fits[i].center_y_urad if baseline_fits[i].converged else nan,
            "twin_x_urad": twin_x,
            "twin_y_urad": twin_y,
            "fwhm_x_urad": fwhm_x,
            "fwhm_y_urad": fwhm_y,
            "target_dist_urad": dist,
            "within_quarter_fwhm": bool(dist < 0.5 * (fwhm_x + fwhm_y) / 4.0),  # False for NaN
            "note": note,
        })

    if args.out:
        analysis.write_table(
            args.out,
            f"{analysis.provenance(cfg.run.seed, cfg.checksum())} "
            f"target=({target.theta_x!r},{target.theta_y!r}) "
            f"baseline_slope={slope!r} baseline_intercept={intercept!r}",
            rows,
        )
    print(f"baseline conjugate slope along y: {slope:.6f} (intercept {intercept:.2f} urad)")
    for row in rows:
        if not row["reachable"]:
            print(
                f"fiber {row['fiber']} at ({row['stokes_x_urad']:.2f}, "
                f"{row['stokes_y_urad']:.2f}) urad: UNREACHABLE ({row['note']})"
            )
        elif np.isnan(row["twin_y_urad"]):
            print(f"fiber {row['fiber']}: {row['note'] or 'fit failed'}")
        else:
            verdict = "ok" if row["within_quarter_fwhm"] else "MISSED"
            print(
                f"fiber {row['fiber']} at ({row['stokes_x_urad']:.2f}, "
                f"{row['stokes_y_urad']:.2f}) urad: twin at "
                f"({row['twin_x_urad']:.2f}, {row['twin_y_urad']:.2f}) urad, "
                f"{row['target_dist_urad']:.2f} urad from target [{verdict}]"
            )
    if not all(row["reachable"] for row in rows):
        return EXIT_UNREACHABLE
    if fit_failed:
        return EXIT_FIT_FAILED
    return EXIT_OK


# ---------------------------------------------------------------------------
# herald


def cmd_herald(args) -> int:
    cfg = _load_config(args)
    sweep = args.sweep_m or [cfg.herald.modes]
    rows = []
    for modes in sweep:
        hc = dataclasses.replace(cfg.herald, modes=modes)
        stats = control.run_herald_protocol(hc, args.shots, cfg.run.seed)
        closed = control.herald_probability(modes, hc.p_detect)
        rows.append(
            {"modes": modes, "p": hc.p, **dataclasses.asdict(stats), "closed_form_herald_prob": closed}
        )
        print(
            f"M={modes}: herald rate {stats.heralds / stats.shots:.5f} "
            f"(closed form {closed:.5f}), success_prob {stats.success_prob:.5f}, "
            f"multi|herald {stats.multi_given_herald:.5f}"
        )
    if args.out:
        analysis.write_table(args.out, analysis.provenance(cfg.run.seed, cfg.checksum()), rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


_positive_int = _int_at_least(1)


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not abs(value) < float("inf"):  # false for inf and nan
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text}")
    return value


def _radius(text: str) -> float:
    if not (value := _finite(text)) >= 0.0:
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text}")
    return value


def _mode_counts(text: str) -> list[int]:
    return [_positive_int(m) for m in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ramanmem",
        description="Multimode Raman memory simulator: thermal speckle frames, "
        "correlation maps, readout steering, herald statistics.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, frames: bool = True) -> None:
        p.add_argument("--config", help="INI-style config file (defaults built in)")
        p.add_argument("--seed", type=_int_at_least(0), help="override the run seed")
        if frames:
            p.add_argument("--frames", type=_positive_int, help="override the frame count")

    p_sim = sub.add_parser("simulate", help="render a frame stack to a binary file")
    common(p_sim)
    p_sim.add_argument("--out", required=True, help="output stack path (.rmns)")
    p_sim.add_argument("--schedule", help="per-shot readout schedule CSV")
    p_sim.set_defaults(func=cmd_simulate)

    p_cor = sub.add_parser("correlate", help="correlation map against a reference angle")
    common(p_cor)
    p_cor.add_argument("--stack", help="existing stack file (otherwise simulate)")
    p_cor.add_argument("--ref-x", type=float, default=0.0, help="reference angle x, urad")
    p_cor.add_argument("--ref-y", type=float, default=0.0, help="reference angle y, urad")
    p_cor.add_argument(
        "--ref-pane", choices=analysis.PANES, default="stokes", help="pane holding the reference"
    )
    p_cor.add_argument(
        "--ref-radius", type=_radius, default=0.0,
        help="virtual fiber radius in urad (0 = single pixel)",
    )
    p_cor.add_argument("--out", required=True, help="output prefix for CSV/PGM/fit files")
    p_cor.set_defaults(func=cmd_correlate)

    p_steer = sub.add_parser(
        "steer", help="solve and verify readout tilts that park twins on one target"
    )
    common(p_steer)
    p_steer.add_argument("--target-x", type=float, default=54.0, help="target angle x, urad")
    p_steer.add_argument("--target-y", type=float, default=6.0, help="target angle y, urad")
    p_steer.add_argument(
        "--fibers", type=_positive_int, default=5, help="number of Stokes fibers"
    )
    p_steer.add_argument(
        "--fiber-span", type=_finite, default=300.0,
        help="spread of fiber y positions, urad (centred on 0)",
    )
    p_steer.add_argument(
        "--fiber-x", type=float, default=None,
        help="fiber column x, urad (default: -target_x * lambda_w/lambda_r, whose "
        "conjugate is target_x; a radius-0 fiber reads the pixel nearest it)",
    )
    p_steer.add_argument(
        "--fiber-radius", type=_radius, default=0.0,
        help="reference fiber radius in urad (0 = single pixel)",
    )
    p_steer.add_argument("--out", help="per-fiber report CSV")
    p_steer.set_defaults(func=cmd_steer)

    p_her = sub.add_parser("herald", help="Monte Carlo herald statistics")
    common(p_her, frames=False)
    p_her.add_argument("--shots", type=_positive_int, default=100_000, help="number of shots")
    p_her.add_argument(
        "--sweep-m", type=_mode_counts, help="comma-separated mode counts, e.g. 10,100,1000"
    )
    p_her.add_argument("--out", help="statistics CSV")
    p_her.set_defaults(func=cmd_herald)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # OverflowError: a count or moment sum past the range the program keeps exact
    except (ConfigError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
