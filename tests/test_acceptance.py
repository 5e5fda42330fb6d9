"""Acceptance suite: one test per shipping criterion, one PASS/FAIL line each.

Every test prints a single summary line (visible with -rA) before asserting,
so a red run still reports the measured numbers for all criteria.
"""

import dataclasses
import math
import time

import numpy as np

from ramanmem import analysis, control, scattering
from ramanmem.cli import _rendered_blocks
from ramanmem.cli import main as cli_main
from ramanmem.config import RunParams, default_config
from ramanmem.geometry import Angle2D

CARRIER_RATIO = 780.0 / 795.0  # anti-Stokes vs Stokes carrier wavelengths


def _no_diffusion(cfg):
    return dataclasses.replace(
        cfg, retrieval=dataclasses.replace(cfg.retrieval, d_diff_m2_s=0.0)
    )


def _run_of(cfg, n_frames, seed):
    """cfg with a run of n_frames frames seeded with seed."""
    return dataclasses.replace(cfg, run=RunParams(seed=seed, n_frames=n_frames))


def _fold(moments, frames):
    """Fold rendered frames into moments in `stackio._BLOCK`-frame count blocks, as the CLI does."""
    for block in _rendered_blocks(frames):
        analysis.accumulate_block(moments, block)
    return moments


def _max_abs_c(cmap) -> float:
    vals = cmap.values[np.isfinite(cmap.values)]
    return float(np.max(np.abs(vals))) if vals.size else 0.0


def _multi_reference_run(cfg, ref_ys, n_frames, seed):
    """One simulated pass accumulated against several Stokes references.

    Returns (cmaps, twin fits, worst |C|) in ref_ys order.
    """
    refs = [
        analysis.Reference.place(cfg.camera, "stokes", Angle2D(0.0, float(y)), 0.0)
        for y in ref_ys
    ]
    frames = scattering.iter_simulated_frames(_run_of(cfg, n_frames, seed))
    moments = _fold(analysis.MomentSet.empty(refs), frames)
    cmaps = [analysis.correlation_map(moments, k) for k in range(len(refs))]
    fits = [analysis.locate_twin_spot(c) for c in cmaps]
    worst = max(_max_abs_c(c) for c in cmaps)
    return cmaps, fits, worst


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion} {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_1_conjugate_spot_law():
    t0 = time.perf_counter()
    cfg = _no_diffusion(default_config())
    ref_ys = np.array([-300.0, -150.0, 0.0, 150.0, 300.0])
    _, fits, _ = _multi_reference_run(cfg, ref_ys, n_frames=2000, seed=11)
    elapsed = time.perf_counter() - t0

    converged = all(f.converged for f in fits)
    centers = np.array([f.center_y_urad for f in fits])
    slope, intercept = np.polyfit(ref_ys, centers, 1)
    expected = -CARRIER_RATIO
    residuals = centers - (slope * ref_ys + intercept)
    fwhm = float(np.mean([(f.fwhm_x_urad + f.fwhm_y_urad) / 2.0 for f in fits]))

    ok = (
        converged
        and abs(slope - expected) < 0.02
        and float(np.max(np.abs(residuals))) < fwhm / 4.0
        and elapsed < 60.0
    )
    _report(
        1,
        ok,
        f"slope {slope:.5f} vs {expected:.5f} (|err| {abs(slope - expected):.5f} < 0.02), "
        f"max residual {np.max(np.abs(residuals)):.2f} urad < FWHM/4 = {fwhm / 4.0:.1f}, "
        f"runtime {elapsed:.1f} s < 60",
    )
    assert converged
    assert abs(slope - expected) < 0.02
    assert float(np.max(np.abs(residuals))) < fwhm / 4.0
    assert elapsed < 60.0


def test_criterion_2_twin_spot_width():
    cfg = default_config()
    widths = []
    for seed in (101, 102, 103):
        _, fits, _ = _multi_reference_run(cfg, [0.0], n_frames=1500, seed=seed)
        assert fits[0].converged
        widths.append((fits[0].fwhm_x_urad + fits[0].fwhm_y_urad) / 2.0)
    lo, hi = 240.0 * 0.8, 240.0 * 1.2
    ok = all(lo < w < hi for w in widths)
    _report(
        2,
        ok,
        "fitted FWHM " + ", ".join(f"{w:.1f}" for w in widths)
        + f" urad across 3 seeds, all within 240 +/- 20% ({lo:.0f}..{hi:.0f})",
    )
    assert ok


def test_criterion_3_steering(tmp_path):
    cfg = default_config()
    ref = analysis.Reference.place(cfg.camera, "stokes", Angle2D(0.0, 0.0), 0.0)
    deltas = (-200.0, 0.0, 200.0)
    self_centers, twin_ys, twin_fwhms = [], [], []
    for delta in deltas:
        frames = scattering.iter_simulated_frames(_run_of(cfg, 1500, 41), schedule=Angle2D(0.0, delta))
        cmap = analysis.correlation_map(_fold(analysis.MomentSet.empty([ref]), frames), 0)
        self_fit = analysis.locate_twin_spot(cmap, pane="stokes")
        twin_fit = analysis.locate_twin_spot(cmap)
        assert self_fit.converged and twin_fit.converged
        self_centers.append((self_fit.center_x_urad, self_fit.center_y_urad))
        twin_ys.append(twin_fit.center_y_urad)
        twin_fwhms.append((twin_fit.fwhm_x_urad + twin_fit.fwhm_y_urad) / 2.0)

    fwhm = float(np.mean(twin_fwhms))
    self_arr = np.asarray(self_centers)
    self_motion = float(
        np.max(np.linalg.norm(self_arr - self_arr.mean(axis=0), axis=1))
    )
    track_errs = [
        abs((twin_ys[i] - twin_ys[1]) - deltas[i]) for i in (0, 2)
    ]
    ok_b = self_motion < fwhm / 8.0 and max(track_errs) < fwhm / 4.0

    # compensated fibers, end to end through the CLI
    report = tmp_path / "steer.csv"
    rc = cli_main(["steer", "--frames", "1500", "--seed", "50", "--out", str(report)])
    rows = [ln.split(",") for ln in report.read_text().splitlines()[2:]]
    dists = [float(r[12]) for r in rows]
    ok_c = rc == 0 and len(rows) == 5 and all(r[3] == "1" and r[13] == "1" for r in rows)

    _report(
        3,
        ok_b and ok_c,
        f"self spot moved {self_motion:.2f} urad < FWHM/8 = {fwhm / 8.0:.1f}; twin tracked "
        f"+-200 urad with error {max(track_errs):.2f} < FWHM/4 = {fwhm / 4.0:.1f}; "
        f"5 compensated fibers landed {min(dists):.1f}..{max(dists):.1f} urad from target "
        f"(all < FWHM/4), exit code {rc}",
    )
    assert ok_b
    assert ok_c


def test_criterion_4_mode_counting():
    cfg = default_config()
    ms = cfg.mode_set()
    spot = ms.spot_fwhm_urad
    write_env = cfg.modes.envelope_fwhm_urad
    read_env = cfg.modes.readout_envelope_fwhm_urad
    m_write = analysis.count_modes(write_env, spot)
    m_read = analysis.count_modes(read_env, spot)
    scaling = (
        analysis.count_modes(2.0 * write_env, spot) == 4 * m_write
        and analysis.count_modes(2.0 * read_env, spot) == 4 * m_read
    )
    ok = m_write == 20 and m_read == 10 and scaling
    _report(
        4,
        ok,
        f"write envelope -> M={m_write} (want 20), readout envelope -> M={m_read} "
        f"(want 10), doubling either envelope quadruples M: {scaling}",
    )
    assert ok


def test_criterion_5_diffusion_droop():
    ref_ys = [-300.0, -150.0, 0.0, 150.0, 300.0]
    n = 6000

    def peaks_for(cfg, seed):
        _, fits, _ = _multi_reference_run(cfg, ref_ys, n_frames=n, seed=seed)
        assert all(f.converged for f in fits)
        return np.array([f.amplitude + f.offset for f in fits])

    def fold(values):
        """Average the symmetric +-|angle| pairs: [0, 150, 300] order."""
        return np.array(
            [values[2], (values[1] + values[3]) / 2.0, (values[0] + values[4]) / 2.0]
        )

    droop = peaks_for(default_config(), seed=21)
    # group-wise non-increasing in |angle|: each outer group's max stays at or
    # below the inner group's min
    ok_droop = max(droop[1], droop[3]) <= droop[2] and max(droop[0], droop[4]) <= min(
        droop[1], droop[3]
    )

    flat = peaks_for(_no_diffusion(default_config()), seed=31)
    se = (1.0 - flat**2) / math.sqrt(n)
    flat_fold, se_fold = fold(flat), np.array(
        [se[2], math.hypot(se[1], se[3]) / 2.0, math.hypot(se[0], se[4]) / 2.0]
    )
    ok_flat = True
    worst = 0.0
    for i in range(3):
        for j in range(i + 1, 3):
            gap = abs(flat_fold[i] - flat_fold[j])
            gate = 3.0 * math.hypot(se_fold[i], se_fold[j])
            worst = max(worst, gap / gate)
            ok_flat = ok_flat and gap < gate

    ok = ok_droop and ok_flat
    _report(
        5,
        ok,
        "peaks with diffusion " + ", ".join(f"{p:.4f}" for p in droop)
        + f" non-increasing in |angle|: {ok_droop}; without diffusion "
        + ", ".join(f"{p:.4f}" for p in flat_fold)
        + f" agree within 3 SE (worst gap/gate {worst:.2f})",
    )
    assert ok_droop
    assert ok_flat


def test_criterion_6_estimator_correctness():
    cfg = default_config()
    frames = list(scattering.iter_simulated_frames(_run_of(cfg, 100, 61)))
    ref = analysis.Reference.place(cfg.camera, "stokes", Angle2D(0.0, 0.0), 0.0)
    streamed = analysis.correlation_map(_fold(analysis.MomentSet.empty([ref]), frames), 0)

    # naive two-pass oracle in float64
    counts = np.stack([frame.counts for frame in frames])
    ry, rx = int(ref.pixel_rows[0]), int(ref.pixel_cols[0])
    r = counts[:, 0, ry, rx].astype(np.float64)
    rd = r - r.mean()
    naive = np.empty_like(streamed.values)
    for k, pane_arr in enumerate((counts[:, 0], counts[:, 1])):
        x = pane_arr.astype(np.float64)
        xd = x - x.mean(axis=0)
        cov = np.tensordot(rd, xd, axes=(0, 0))
        denom = np.sqrt((xd * xd).sum(axis=0) * (rd * rd).sum())
        with np.errstate(invalid="ignore", divide="ignore"):
            naive[k] = np.where(denom > 0.0, cov / denom, np.nan)

    nan_match = bool(np.array_equal(np.isnan(streamed.values), np.isnan(naive)))
    finite = np.isfinite(naive)
    diff = np.abs(streamed.values[finite] - naive[finite])
    bound = 1e-12 * np.abs(naive[finite]) + 1e-13
    max_excess = float(np.max(diff / np.maximum(bound, 1e-300)))
    ok_match = nan_match and bool(np.all(diff <= bound))

    peak_c = _max_abs_c(streamed)
    ok_bound = peak_c <= 1.0 + 1e-9

    # chunk-merge bit stability under partition reordering
    bounds = (0, 17, 57, 80, 100)
    a, b, c, d = (
        _fold(analysis.MomentSet.empty([ref]), frames[lo:hi])
        for lo, hi in zip(bounds[:-1], bounds[1:])
    )
    order1 = analysis.merge(analysis.merge(analysis.merge(a, b), c), d)
    order2 = analysis.merge(analysis.merge(d, c), analysis.merge(b, a))
    map1 = analysis.correlation_map(order1, 0)
    map2 = analysis.correlation_map(order2, 0)
    ok_merge = bool(
        np.array_equal(map1.values, streamed.values, equal_nan=True)
        and np.array_equal(map2.values, streamed.values, equal_nan=True)
    )

    ok = ok_match and ok_bound and ok_merge
    _report(
        6,
        ok,
        f"streaming vs two-pass max diff {max_excess:.3f}x of the 1e-12 budget, "
        f"NaN sets match: {nan_match}; max |C| {peak_c:.9f} <= 1 + 1e-9; "
        f"merge order invariance bitwise: {ok_merge}",
    )
    assert ok_match
    assert ok_bound
    assert ok_merge


def test_criterion_7_statistics_oracles():
    # (a) the per-mode intensities drawn by the sampler are exponential
    mean = 1000.0
    ms4 = scattering.ModeSet(
        x_urad=np.array([0.0, 110.0]),
        y_urad=np.array([0.0, 110.0]),
        sigma_urad=72.75,
        mean_photons=mean,
        grid_spacing_urad=110.0,
        spot_fwhm_urad=240.0,
        lambda_write_m=795e-9,
        lambda_read_m=780e-9,
    )
    rm = scattering.RetrievalModel(
        eta0=0.85, d_diff_m2_s=0.0, tau_storage_s=1e-6,
        aberration_scale_urad=600.0, noise_floor=0.0,
    )
    eta = scattering.retrieval_efficiencies(ms4, rm, (0.0, 0.0))
    n_draws = 100_000
    draws = np.concatenate(
        [
            scattering.sample_shot(ms4, eta, scattering.shot_rng(71, i))[0]
            for i in range(n_draws // 4)
        ]
    )
    mean_err = abs(float(draws.mean()) - mean)
    mean_gate = 3.0 * mean / math.sqrt(n_draws)
    var_err = abs(float(draws.var()) - mean**2)
    var_gate = 3.0 * math.sqrt(8.0) * mean**2 / math.sqrt(n_draws)
    ok_exp = mean_err < mean_gate and var_err < var_gate

    # (b) measured map value at the twin centre vs the analytic Pearson value
    cfg = default_config()
    cam = dataclasses.replace(cfg.camera, width_px=32, height_px=32)
    cfg = dataclasses.replace(cfg, camera=cam)
    n_frames = 20_000
    ref = analysis.Reference.place(cam, "stokes", Angle2D(0.0, 0.0), 0.0)
    frames = scattering.iter_simulated_frames(_run_of(cfg, n_frames, 72))
    cmap = analysis.correlation_map(_fold(analysis.MomentSet.empty([ref]), frames), 0)
    measured = cmap.value_at("anti_stokes", Angle2D(0.0, 0.0))

    ms = cfg.mode_set()
    mu = ms.mean_photons
    nf = cfg.retrieval.noise_floor
    centers = ms.centers_urad
    sig = ms.sigma_urad

    def deposits(mode_centers, px_angle):
        """Per-mode deposit weight at one pixel, zero for off-pane modes."""
        half = cam.pitch_urad / 2.0
        ox, oy = cam.origin_px
        lo_x, hi_x = -ox * cam.pitch_urad, (cam.width_px - 1 - ox) * cam.pitch_urad
        lo_y, hi_y = -oy * cam.pitch_urad, (cam.height_px - 1 - oy) * cam.pitch_urad
        on = (
            (mode_centers[:, 0] >= lo_x - half)
            & (mode_centers[:, 0] < hi_x + half)
            & (mode_centers[:, 1] >= lo_y - half)
            & (mode_centers[:, 1] < hi_y + half)
        )
        alpha = cam.pitch_urad**2 / (2.0 * math.pi * sig**2)
        d2 = ((mode_centers - np.asarray(px_angle)) ** 2 / sig**2).sum(axis=1)
        return np.where(on, alpha * np.exp(-0.5 * d2), 0.0)

    # retrieval efficiencies, recomputed from the closed form
    k = np.linalg.norm(centers, axis=1) * (2.0 * math.pi * 1e-6 / 795e-9)
    eta = cfg.retrieval.eta0 * np.exp(
        -cfg.retrieval.d_diff_m2_s * k**2 * cfg.retrieval.tau_storage_s
    )
    a = deposits(centers, (0.0, 0.0))
    b = deposits(ms.anti_stokes_centers_urad((0.0, 0.0)), (0.0, 0.0)) * eta
    cov = float((a * b * mu**2).sum())
    var_s = float((a**2 * mu**2).sum() + (a * mu).sum() + nf)
    var_a = float((b**2 * mu**2).sum() + (b * mu).sum() + nf)
    rho = cov / math.sqrt(var_s * var_a)
    rho_gate = 3.0 * (1.0 - rho**2) / math.sqrt(n_frames)
    ok_rho = abs(measured - rho) < rho_gate

    ok = ok_exp and ok_rho
    _report(
        7,
        ok,
        f"exponential draws: |mean err| {mean_err:.2f} < {mean_gate:.2f}, "
        f"|var err| {var_err:.0f} < {var_gate:.0f}; map value {measured:.4f} vs "
        f"analytic {rho:.4f} (|diff| {abs(measured - rho):.4f} < {rho_gate:.4f})",
    )
    assert ok_exp
    assert ok_rho


def test_criterion_8_herald_protocol():
    cases = [(10, 0.01, 81), (100, 0.01, 82), (1000, 0.004, 83)]
    shots = 120_000
    rate_lines = []
    ok_rates = True
    for modes, p, seed in cases:
        hc = control.HeraldConfig(modes=modes, p=p)
        stats = control.run_herald_protocol(hc, shots, seed=seed)
        expect = control.herald_probability(modes, p)
        se = math.sqrt(expect * (1.0 - expect) / shots)
        rate = stats.heralds / stats.shots
        ok_rates = ok_rates and abs(rate - expect) < 3.0 * se
        rate_lines.append(f"M={modes}: {rate:.5f} vs {expect:.5f} (3SE {3 * se:.5f})")

    hc = control.HeraldConfig(modes=20, zeta=0.01)
    stats = control.run_herald_protocol(hc, 200_000, seed=84)
    exact = control.multi_given_herald_exact(hc.zeta)
    se_multi = math.sqrt(exact * (1.0 - exact) / stats.heralds)
    ok_multi = abs(stats.multi_given_herald - exact) < 3.0 * se_multi

    gated = control.run_herald_protocol(
        control.HeraldConfig(
            modes=20, zeta=0.05, switch_latency_s=2e-6, memory_lifetime_s=1e-6
        ),
        5_000,
        seed=85,
    )
    ok_gate = gated.success_prob == 0.0 and gated.heralds > 0

    ok = ok_rates and ok_multi and ok_gate
    _report(
        8,
        ok,
        "; ".join(rate_lines)
        + f"; multi|herald {stats.multi_given_herald:.5f} vs exact {exact:.5f} "
        f"(3SE {3 * se_multi:.5f}); latency-gated success_prob == "
        f"{gated.success_prob}",
    )
    assert ok_rates
    assert ok_multi
    assert ok_gate
