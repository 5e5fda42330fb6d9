"""Steering solver, readout schedules and the herald Monte Carlo."""

import math
import statistics
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramanmem import control
from ramanmem.control import (
    HeraldConfig,
    HeraldStats,
    compensating_readout,
    herald_probability,
    load_schedule,
    multi_given_herald_exact,
    run_herald_protocol,
)
from ramanmem.geometry import Angle2D, BeamGeometry, OpticalChain, aod_chain_angle, phase_match

GEOM = BeamGeometry(3.5e-3, 3.5e-3, 6.0e-3, 0.1, 795e-9, 780e-9)
CHAIN = OpticalChain(0.05, 0.75, 0.5, 80e6, 3e-10, 70e6, 90e6)
RATIO = 780.0 / 795.0

chain_xy = OpticalChain(0.05, 0.75, 0.5, 80e6, 3e-10, 70e6, 90e6, steer_axes=("x", "y"))


# --- compensating readout ------------------------------------------------------


def test_axial_everything_is_trivial():
    cmd = compensating_readout(Angle2D(0, 0), Angle2D(0, 0), Angle2D(0, 0), CHAIN, GEOM)
    assert cmd.reachable
    assert cmd.theta_read == Angle2D(0.0, 0.0)
    assert cmd.drive_freq_hz == 80e6
    assert cmd.expected_theta_as == Angle2D(0.0, 0.0)
    assert cmd.note == ""


def test_solution_reproduces_target_exactly():
    fiber = Angle2D(-54.0 / RATIO, 100.0)
    target = Angle2D(54.0, 6.0)
    cmd = compensating_readout(fiber, Angle2D(0, 0), target, CHAIN, GEOM)
    assert cmd.reachable
    out = phase_match(Angle2D(0, 0), fiber, cmd.theta_read, GEOM)
    assert out.theta_x == pytest.approx(target.theta_x, abs=1e-10)
    assert out.theta_y == pytest.approx(target.theta_y, abs=1e-10)


@given(
    st.floats(min_value=-190.0, max_value=190.0),
    st.floats(min_value=-150.0, max_value=150.0),
)
@settings(max_examples=50)
def test_round_trip_identity(target_y, fiber_y):
    """phase_match applied to the solved command lands on the target (1e-10)."""
    fiber = Angle2D(0.0, fiber_y)
    target = Angle2D(0.0, target_y)
    cmd = compensating_readout(fiber, Angle2D(0, 0), target, CHAIN, GEOM)
    needed = target_y + RATIO * fiber_y
    if abs(needed) > 200.0:
        assert not cmd.reachable
        return
    assert cmd.reachable
    out = phase_match(Angle2D(0, 0), fiber, cmd.theta_read, GEOM)
    assert out.theta_y == pytest.approx(target_y, abs=1e-10)
    # the drive tone reproduces the commanded tilt through the AOD model
    realized = aod_chain_angle(cmd.drive_freq_hz, CHAIN)
    assert realized.theta_y == pytest.approx(cmd.theta_read.theta_y, rel=1e-12, abs=1e-12)


def test_unreachable_is_clamped_to_band_edge():
    # needs theta_read_y = 250 urad, span ends at 200
    cmd = compensating_readout(
        Angle2D(0.0, 0.0), Angle2D(0, 0), Angle2D(0.0, 250.0), CHAIN, GEOM
    )
    assert not cmd.reachable
    assert "outside span" in cmd.note
    assert cmd.drive_freq_hz == pytest.approx(90e6)
    assert cmd.theta_read.theta_y == pytest.approx(200.0)
    assert cmd.expected_theta_as.theta_y == pytest.approx(200.0)


@pytest.mark.parametrize("target_y", [250.0, -250.0])
def test_clamped_tilt_is_the_tilt_of_its_tone(target_y):
    cmd = compensating_readout(Angle2D(0.0, 0.0), Angle2D(0, 0), Angle2D(0.0, target_y), CHAIN, GEOM)
    assert not cmd.reachable
    assert aod_chain_angle(cmd.drive_freq_hz, CHAIN) == cmd.theta_read
    # the band is the tone law at the band-edge tones
    assert cmd.theta_read == aod_chain_angle(90e6 if target_y > 0 else 70e6, CHAIN)


def test_unsteerable_axis_is_flagged():
    # an x-component is required but the chain only steers y
    cmd = compensating_readout(
        Angle2D(0.0, 0.0), Angle2D(0, 0), Angle2D(54.0, 0.0), CHAIN, GEOM
    )
    assert not cmd.reachable
    assert "not steerable" in cmd.note
    assert cmd.theta_read.theta_x == 0.0


def test_two_axis_chain_reaches_diagonal_targets():
    cmd = compensating_readout(
        Angle2D(0.0, 0.0), Angle2D(0, 0), Angle2D(54.0, 6.0), chain_xy, GEOM
    )
    assert cmd.reachable
    assert cmd.theta_read.theta_x == pytest.approx(54.0)
    assert cmd.theta_read.theta_y == pytest.approx(6.0)


# --- herald config and closed forms ------------------------------------------------

# a unit-efficiency detector and memory with an instant switch and no decay; the
# protocol tests below state it, since HeraldConfig defaults to the config's values
IDEAL = dict(eta_retrieve=1.0, eta_detect=1.0, switch_latency_s=0.0, memory_lifetime_s=math.inf)


def ideal_herald(**kwargs) -> HeraldConfig:
    """A HeraldConfig over IDEAL, with `kwargs` replacing any of its values."""
    return HeraldConfig(**{**IDEAL, **kwargs})



def test_zeta_p_mapping():
    """p = zeta / (1 + zeta) follows from zeta, the one input."""
    assert HeraldConfig(modes=10, zeta=0.25).p == pytest.approx(0.2, rel=1e-12, abs=0.0)
    assert HeraldConfig(modes=10, zeta=0.010101010101010102).p == pytest.approx(0.01, rel=1e-12, abs=0.0)
    assert HeraldConfig(modes=10, zeta=0.0).p == 0.0
    # p is not an input
    with pytest.raises(TypeError):
        HeraldConfig(modes=3, zeta=0.25, p=0.2)


def test_herald_config_validation():
    with pytest.raises(ValueError, match="modes must lie in"):
        HeraldConfig(modes=0, zeta=0.1)
    with pytest.raises(ValueError, match="eta_detect"):
        HeraldConfig(modes=5, zeta=0.1, eta_detect=1.2)
    with pytest.raises(ValueError, match="switch_latency_s must lie in"):
        HeraldConfig(modes=5, zeta=0.1, switch_latency_s=-1.0)
    with pytest.raises(ValueError, match="memory_lifetime_s must lie in"):
        HeraldConfig(modes=5, zeta=0.1, memory_lifetime_s=0.0)
    # a negative, infinite or NaN zeta: no p in [0, 1) maps to one
    for zeta in (-0.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="zeta must lie in"):
            HeraldConfig(modes=5, zeta=zeta)
    # a zeta so large that p = zeta / (1 + zeta) rounds to 1
    with pytest.raises(ValueError, match=r"p must lie in \[0, 1\), got 1.0"):
        HeraldConfig(modes=5, zeta=1e300)


def test_herald_probability_closed_form():
    assert herald_probability(1000, 0.004) == pytest.approx(0.9818306904644105, rel=1e-12, abs=0.0)
    assert herald_probability(10, 0.01) == pytest.approx(0.09561792499119559, rel=1e-12, abs=0.0)
    assert herald_probability(1, 0.3) == pytest.approx(0.3)
    # 1 - (1 - p)^M cancels: it gives 9.99978e-13 here
    assert herald_probability(1, 1e-12) == pytest.approx(1e-12, rel=1e-14, abs=0.0)
    assert herald_probability(1, 1.0) == herald_probability(10**9, 1.0) == 1.0
    assert str(herald_probability(5, 0.0)) == "0.0"
    with pytest.raises(ValueError):
        herald_probability(0, 0.5)


def test_multi_given_herald_exact_values():
    assert multi_given_herald_exact(0.0) == 0.0
    assert multi_given_herald_exact(0.01) == pytest.approx(0.00990099009900991, rel=1e-12, abs=0.0)
    assert multi_given_herald_exact(0.01, eta_detect=0.55) == pytest.approx(
        0.014312322321340942, rel=1e-12, abs=0.0
    )
    # unit-efficiency limit is the thermal P(n >= 2 | n >= 1) = zeta / (1 + zeta)
    assert multi_given_herald_exact(0.3) == pytest.approx(0.3 / 1.3, rel=1e-12, abs=0.0)


@given(st.floats(min_value=1e-4, max_value=0.5), st.floats(min_value=0.05, max_value=1.0))
@settings(max_examples=40)
def test_multi_given_herald_against_series(zeta, eta):
    pn = [zeta**n / (1 + zeta) ** (n + 1) for n in range(200)]
    p_fire = sum(p * (1 - (1 - eta) ** n) for n, p in enumerate(pn))
    p_multi = sum(p * (1 - (1 - eta) ** n) for n, p in enumerate(pn) if n >= 2)
    assert multi_given_herald_exact(zeta, eta) == pytest.approx(
        p_multi / p_fire, rel=1e-9
    )


# --- herald Monte Carlo --------------------------------------------------------------


def test_protocol_is_deterministic():
    hc = ideal_herald(modes=10, zeta=0.02)
    a = run_herald_protocol(hc, 20_000, seed=5)
    b = run_herald_protocol(hc, 20_000, seed=5)
    assert a == b
    c = run_herald_protocol(hc, 20_000, seed=6)
    assert a != c


def test_latency_gate_kills_success_not_heralds():
    hc = ideal_herald(
        modes=10, zeta=0.05, switch_latency_s=2e-6, memory_lifetime_s=1e-6
    )
    stats = run_herald_protocol(hc, 30_000, seed=1)
    assert stats.success_prob == 0.0
    assert stats.routed_successes == 0
    assert stats.heralds > 0
    assert stats.multi_given_herald > 0.0


def test_single_mode_low_gain_success_rate():
    # M=1, eta=1: success per shot is P(n >= 1) = zeta / (1 + zeta)
    zeta = 0.002
    hc = ideal_herald(modes=1, zeta=zeta)
    shots = 100_000
    stats = run_herald_protocol(hc, shots, seed=7)
    expect = zeta / (1 + zeta)
    se = math.sqrt(expect * (1 - expect) / shots)
    assert abs(stats.success_prob - expect) < 3 * se
    # with eta = 1 every herald retrieves, so success tracks the herald count
    assert stats.routed_successes == stats.heralds


def test_detection_thinning_lowers_herald_rate():
    hc_full = ideal_herald(modes=50, zeta=0.01)
    hc_thin = ideal_herald(modes=50, zeta=0.01, eta_detect=0.3)
    full = run_herald_protocol(hc_full, 40_000, seed=2)
    thin = run_herald_protocol(hc_thin, 40_000, seed=2)
    assert thin.heralds < full.heralds


def test_retrieval_efficiency_lowers_success_not_heralds():
    hc = ideal_herald(modes=20, zeta=0.02, eta_retrieve=0.4)
    stats = run_herald_protocol(hc, 40_000, seed=3)
    assert 0 < stats.routed_successes < stats.heralds


def test_protocol_stream_is_pinned():
    # digest of the sampler's random stream: a change here is a stream change.
    # 70 000 shots are two full chunks and a partial one, so the chunk keying is pinned too
    assert 2 * control.HERALD_CHUNK < 70_000 < 3 * control.HERALD_CHUNK
    hc = ideal_herald(modes=20, zeta=0.05, eta_detect=0.55, eta_retrieve=0.6)
    stats = run_herald_protocol(hc, 70_000, seed=11)
    assert stats == HeraldStats(
        shots=70_000,
        heralds=29_328,
        routed_successes=18_117,
        multi_excitation_events=1_959,
        success_prob=18_117 / 70_000,
        multi_given_herald=1_959 / 29_328,
    )


@pytest.mark.parametrize("kwargs", [{"zeta": 0.0}, {"zeta": 0.5, "eta_detect": 0.0}])
def test_protocol_without_detections_never_heralds(kwargs):
    stats = run_herald_protocol(ideal_herald(modes=10, **kwargs), 1_000, seed=1)
    assert (stats.heralds, stats.routed_successes, stats.multi_excitation_events) == (0, 0, 0)
    assert stats.success_prob == 0.0 and stats.multi_given_herald == 0.0


class _CallRecorder:
    """Generator stand-in that records, in order, the distributions a chunk draws."""

    def __init__(self, rng, calls):
        self._rng, self._calls = rng, calls

    def __getattr__(self, name):
        self._calls.append(name)
        return getattr(self._rng, name)


def _record_chunk_draws(monkeypatch):
    """Patch control.shot_rng; the returned list gains one list of draws per chunk."""
    chunks = []
    real = control.shot_rng

    def recording(seed, i):
        chunks.append([])
        return _CallRecorder(real(seed, i), chunks[-1])

    monkeypatch.setattr(control, "shot_rng", recording)
    return chunks


def test_unit_detection_skips_undetected_draw(monkeypatch):
    # at unit efficiencies a chunk draws its herald count, how many heralded shots have
    # D >= 2, and their D, and nothing else: a draw of U, by any sampler, is one more call
    chunks = _record_chunk_draws(monkeypatch)
    zeta, shots = 0.3, 60_000
    stats = run_herald_protocol(ideal_herald(modes=5, zeta=zeta), shots, seed=21)
    assert chunks == [["binomial", "binomial", "geometric"]] * 2
    exact = multi_given_herald_exact(zeta)
    se = math.sqrt(exact * (1 - exact) / stats.heralds)
    assert abs(stats.multi_given_herald - exact) < 3 * se

    # below unit detection the recorder sees U drawn: NegBin(3, u) for the D = 2 shots,
    # NegBin(D + 1, u) only in a chunk that has a D > 2 shot (there is one at zeta = 0.3,
    # none at 0.02), then the count of D = 1 shots with U >= 1, their G0 >= 1 coins and
    # two geometric counts
    single = ["binomial", "random", "geometric", "geometric"]
    for zeta, more in ((0.3, ["negative_binomial"]), (0.02, [])):
        chunks.clear()
        run_herald_protocol(ideal_herald(modes=5, zeta=zeta, eta_detect=0.9), 100, seed=21)
        assert chunks == [["binomial", "binomial", "geometric", "negative_binomial", *more, *single]]


@pytest.mark.parametrize("eta_retrieve", [0.0, 1.0])
def test_edge_retrieval_efficiencies(eta_retrieve):
    # eta_r = 0 retrieves nothing and draws nothing (geometric(0) would raise);
    # eta_r = 1 retrieves from every heralded shot.  The retrieval is a chunk's last
    # draw, so the herald and multi-excitation counts match those at eta_r = 0.6
    base = dict(modes=20, zeta=0.05, eta_detect=0.55)
    stats = run_herald_protocol(ideal_herald(eta_retrieve=eta_retrieve, **base), 70_000, seed=13)
    mid = run_herald_protocol(ideal_herald(eta_retrieve=0.6, **base), 70_000, seed=13)
    assert stats.heralds == mid.heralds > 0
    assert stats.multi_excitation_events == mid.multi_excitation_events
    assert stats.routed_successes == (stats.heralds if eta_retrieve else 0)


def _success_given_herald_series(zeta, eta_detect, eta_retrieve, terms=400):
    """P(>= 1 retrieved | >= 1 detected) for one thermal mode, summed over n."""
    pn = [zeta**n / (1 + zeta) ** (n + 1) for n in range(terms)]
    fire = [p * (1 - (1 - eta_detect) ** n) for n, p in enumerate(pn)]
    both = [f * (1 - (1 - eta_retrieve) ** n) for n, f in enumerate(fire)]
    return sum(both) / sum(fire)


def test_protocol_laws_at_imperfect_efficiencies():
    zeta, eta_d, eta_r, modes, shots = 0.2, 0.55, 0.6, 8, 200_000
    hc = ideal_herald(modes=modes, zeta=zeta, eta_detect=eta_d, eta_retrieve=eta_r)
    stats = run_herald_protocol(hc, shots, seed=31)
    h = stats.heralds

    q = zeta * eta_d / (1 + zeta * eta_d)
    rate = herald_probability(modes, q)
    assert abs(h / shots - rate) < 3 * math.sqrt(rate * (1 - rate) / shots)

    multi = multi_given_herald_exact(zeta, eta_d)
    assert abs(stats.multi_given_herald - multi) < 3 * math.sqrt(multi * (1 - multi) / h)

    success = _success_given_herald_series(zeta, eta_d, eta_r)
    got = stats.routed_successes / h
    assert abs(got - success) < 3 * math.sqrt(success * (1 - success) / h)


def test_protocol_laws_at_low_undetected_probability():
    # u = 1 - p (1 - eta_d) = 0.53: 1 - u^2 = 72 % of the D = 1 shots carry undetected
    # excitations, and G0 >= 1 has probability 1 / (1 + u) = 0.65 among those, so a
    # sampler that drew that split at even odds would retrieve too rarely
    zeta, eta_d, eta_r, modes, shots = 2.0, 0.3, 0.5, 3, 1_000_000
    hc = ideal_herald(modes=modes, zeta=zeta, eta_detect=eta_d, eta_retrieve=eta_r)
    stats = run_herald_protocol(hc, shots, seed=61)
    h = stats.heralds

    rate = herald_probability(modes, zeta * eta_d / (1 + zeta * eta_d))
    assert abs(h / shots - rate) < 3 * math.sqrt(rate * (1 - rate) / shots)

    multi = multi_given_herald_exact(zeta, eta_d)
    assert abs(stats.multi_given_herald - multi) < 3 * math.sqrt(multi * (1 - multi) / h)

    success = _success_given_herald_series(zeta, eta_d, eta_r)
    got = stats.routed_successes / h
    assert abs(got - success) < 3 * math.sqrt(success * (1 - success) / h)


def test_chunk_herald_count_is_binomial():
    # One chunk's herald count must have the binomial spread, not only its mean: a
    # count fixed at round(size * P) would pass every rate gate and fail here.  Over
    # n seeds (n - 1) S^2 / var is chi-square with n - 1 degrees of freedom (the
    # count is near normal at this size).  Each one-sided bound has a false-alarm
    # rate of 1e-6, by the Wilson-Hilferty quantile for the variance.
    size, modes, zeta, alpha = control.HERALD_CHUNK, 10, 0.05, 1e-6
    counts = [
        run_herald_protocol(ideal_herald(modes=modes, zeta=zeta), size, seed=seed).heralds
        for seed in range(5_000, 5_400)
    ]
    rate = herald_probability(modes, zeta / (1 + zeta))
    var = size * rate * (1 - rate)
    dof = len(counts) - 1
    z = statistics.NormalDist().inv_cdf(1 - alpha)

    def chi2_quantile(zq):
        return dof * (1 - 2 / (9 * dof) + zq * math.sqrt(2 / (9 * dof))) ** 3

    ratio = dof * statistics.variance(counts) / var
    assert chi2_quantile(-z) < ratio < chi2_quantile(z)
    assert abs(statistics.fmean(counts) - size * rate) < z * math.sqrt(var / len(counts))


def test_chunk_multi_excitation_count_is_binomial():
    # Each shot is a heralded multi-excitation shot with probability P * multi|herald,
    # so one chunk's count is binomial.  At eta_d = 0.1 most of those shots have D = 1
    # and undetected excitations: a count of them fixed at its mean would keep every
    # rate right and shrink the spread.  The bounds are those of the herald count test.
    size, modes, zeta, eta_d, alpha = control.HERALD_CHUNK, 10, 0.05, 0.1, 1e-6
    hc = ideal_herald(modes=modes, zeta=zeta, eta_detect=eta_d)
    counts = [
        run_herald_protocol(hc, size, seed=seed).multi_excitation_events
        for seed in range(6_000, 6_400)
    ]
    rate = herald_probability(modes, zeta * eta_d / (1 + zeta * eta_d))
    rate *= multi_given_herald_exact(zeta, eta_d)
    var = size * rate * (1 - rate)
    dof = len(counts) - 1
    z = statistics.NormalDist().inv_cdf(1 - alpha)

    def chi2_quantile(zq):
        return dof * (1 - 2 / (9 * dof) + zq * math.sqrt(2 / (9 * dof))) ** 3

    ratio = dof * statistics.variance(counts) / var
    assert chi2_quantile(-z) < ratio < chi2_quantile(z)
    assert abs(statistics.fmean(counts) - size * rate) < z * math.sqrt(var / len(counts))


def test_saturated_herald_probability_heralds_every_shot():
    # P rounds to 1 at M = 1e9: every shot heralds, over several chunks
    hc = ideal_herald(modes=10**9, zeta=0.01)
    assert herald_probability(hc.modes, hc.p) == 1.0
    stats = run_herald_protocol(hc, 70_000, seed=51)
    assert stats.heralds == stats.shots == 70_000


def test_protocol_memory_does_not_grow_with_modes():
    modes, shots = 10**6, 20_000
    hc = ideal_herald(modes=modes, zeta=1e-6, eta_detect=0.5, eta_retrieve=0.5)
    tracemalloc.start()
    try:
        stats = run_herald_protocol(hc, shots, seed=41)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    rate = herald_probability(modes, 0.5e-6 / (1 + 0.5e-6))
    assert abs(stats.heralds / shots - rate) < 3 * math.sqrt(rate * (1 - rate) / shots)


def test_dense_regime_stays_in_chunk_memory():
    # at zeta = 1e9 a routed mode holds ~1e9 excitations, so every heralded shot is a
    # multi-excitation shot and D is too large to draw U as D + 1 geometric counts
    hc = ideal_herald(modes=20, zeta=1e9, eta_detect=0.5, eta_retrieve=0.5)
    tracemalloc.start()
    try:
        stats = run_herald_protocol(hc, 70_000, seed=71)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert stats.heralds == stats.multi_excitation_events == stats.routed_successes == 70_000


def test_protocol_argument_validation():
    hc = ideal_herald(modes=2, zeta=0.1)
    with pytest.raises(ValueError):
        run_herald_protocol(hc, 0, seed=1)


# --- schedule files ---------------------------------------------------------------


def test_schedule_round_trip(tmp_path):
    sched = np.array([[0.0, -120.0], [0.0, 0.0], [12.5, 87.5]])
    path = tmp_path / "sched.csv"
    path.write_text(
        "shot,theta_read_x_urad,theta_read_y_urad\n"
        + "".join(f"{i},{tx!r},{ty!r}\n" for i, (tx, ty) in enumerate(sched.tolist()))
    )
    back = load_schedule(path, CHAIN)
    np.testing.assert_allclose(back, sched, rtol=1e-15)


@pytest.mark.parametrize(
    "text",
    [
        "# plan: 80 MHz \u00b1 0.25 MHz\nshot,theta_read_x_urad,theta_read_y_urad\n"
        "0,0.0,30.0\n1,0.0,10.0\n",
        "shot,theta_read_x_urad,theta_read_y_urad\n0,0.0,30.0\n# second tone\n1,0.0,10.0\n",
    ],
    ids=["before-header", "between-rows"],
)
def test_schedule_skips_comment_lines(tmp_path, text):
    path = tmp_path / "sched.csv"
    path.write_text(text, encoding="utf-8")
    np.testing.assert_array_equal(load_schedule(path, CHAIN), [[0.0, 30.0], [0.0, 10.0]])


def test_schedule_may_start_with_a_byte_order_mark(tmp_path):
    """A spreadsheet "CSV UTF-8" export: the mark is not part of the first column's name."""
    path = tmp_path / "sched.csv"
    path.write_bytes(b"\xef\xbb\xbftheta_read_x_urad,theta_read_y_urad\n0.0,30.0\n0.0,10.0\n")
    np.testing.assert_array_equal(load_schedule(path, CHAIN), [[0.0, 30.0], [0.0, 10.0]])
    path.write_bytes(b"\xef\xbb\xbfshot,theta_read_x_urad,theta_read_y_urad\n1,0.0,30.0\n0,0.0,10.0\n")
    with pytest.raises(ValueError, match="shot column"):
        load_schedule(path, CHAIN)


def test_schedule_from_drive_frequencies(tmp_path):
    path = tmp_path / "freqs.csv"
    path.write_text("shot,drive_freq_hz\n0,80e6\n1,90e6\n2,75e6\n")
    back = load_schedule(path, CHAIN)
    np.testing.assert_allclose(back[:, 1], [0.0, 200.0, -100.0], rtol=1e-12, atol=1e-12)


def test_schedule_rejects_unknown_columns(tmp_path):
    """Columns beside shot are the two tilts or the one tone, never an ignored extra or a mix."""
    path = tmp_path / "bad.csv"
    for text, found in [
        ("a,b\n1,2\n", "a, b"),
        ("shot,drive_freq_hz,foo\n0,80e6,1\n", "drive_freq_hz, foo"),
        ("theta_read_x_urad,theta_read_y_urad,drive_freq_hz\n0,10,95e6\n",
         "theta_read_x_urad, theta_read_y_urad, drive_freq_hz"),
        ("theta_read_x_urad,drive_freq_hz\n5,80e6\n", "theta_read_x_urad, drive_freq_hz"),
        ("shot\n0\n", "none"),
    ]:
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^schedule needs .*, got {found}$"):
            load_schedule(path, CHAIN)


@pytest.mark.parametrize(
    "text",
    [
        "theta_read_x_urad,theta_read_y_urad,theta_read_y_urad\n0,10,20\n",
        "shot,drive_freq_hz,drive_freq_hz\n0,80e6,85e6\n",
    ],
    ids=["tilt", "tone"],
)
def test_schedule_rejects_a_column_named_twice(tmp_path, text):
    """A repeated column would otherwise be read from its last cell without a word."""
    path = tmp_path / "twice.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match="more than once"):
        load_schedule(path, CHAIN)
