import ast
import math
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from distdetect import analysis, detection, network, prob, signals
from distdetect.errors import DistDetectError

from conftest import (UNINFORMATIVE_2, cycle_graph, exp_gap_sums, random_mixing_matrix, rate_slope,
                      scenario)


def bound_scenario(B, I, m, n, delta, sigma2_w, eta=1.0):
    """A stand-in for a checked `analysis.Scenario`, holding only what the bounds read."""
    return SimpleNamespace(B=B, rate=I, model=SimpleNamespace(m=m, n=n), delta=delta,
                           sigma2=sigma2_w, eta=eta)


class TestTheorem1Bound:
    def test_hand_arithmetic(self):
        rep = analysis.theorem1_bound(
            bound_scenario(B=1, I=0.5, m=2, n=4, delta=0.1, sigma2_w=0.5))
        assert rep["terms"]["concentration"] == pytest.approx(610.9402589451771)
        assert rep["terms"]["network"] == pytest.approx(716.8309920146273)
        assert rep["total"] == pytest.approx(1327.7712509598045)

    def test_total_is_sum_of_terms(self):
        rep = analysis.theorem1_bound(
            bound_scenario(B=2, I=0.2, m=5, n=10, delta=0.05, sigma2_w=0.8))
        assert rep["total"] == pytest.approx(sum(rep["terms"].values()), abs=1e-12)

    def test_larger_rate_shrinks_bound_in_kl_regime(self):
        # stay in the regime where the max picks the 1/I branch
        lo = analysis.theorem1_bound(bound_scenario(B=1, I=0.4, m=2, n=4, delta=0.1, sigma2_w=0.5))
        hi = analysis.theorem1_bound(bound_scenario(B=1, I=0.8, m=2, n=4, delta=0.1, sigma2_w=0.5))
        assert hi["total"] < lo["total"]
        assert hi["terms"]["concentration"] < lo["terms"]["concentration"]
        assert hi["terms"]["network"] < lo["terms"]["network"]

    def test_shrinking_delta_blows_up(self):
        vals = [
            analysis.theorem1_bound(
                bound_scenario(B=1, I=1.0, m=2, n=4, delta=d, sigma2_w=0.5))["total"]
            for d in (1e-2, 1e-6, 1e-12)
        ]
        assert vals[0] < vals[1] < vals[2]

    def test_monotone_in_spectral_gap(self):
        totals = [
            analysis.theorem1_bound(
                bound_scenario(B=1, I=0.5, m=2, n=4, delta=0.1, sigma2_w=s))["total"]
            for s in (0.2, 0.5, 0.9)
        ]
        assert totals[0] < totals[1] < totals[2]

    def test_degenerate_inputs(self):
        with pytest.raises(DistDetectError, match=r"sigma2 must lie in \[0, 1\), got 1.0"):
            analysis.theorem1_bound(bound_scenario(B=1, I=0.5, m=2, n=4, delta=0.1, sigma2_w=1.0))

    def test_zero_rate_refused_by_the_scenario(self):
        # the rows of agent 0 differ by 2e-12, so the rate computes to exactly 0
        model = signals.SignalModel([[[0.05, 0.95], [0.050000000002, 0.949999999998]],
                                     [[0.5, 0.5], [0.5, 0.5]]])
        assert signals.second_state(model) == (1, 0.0)
        with pytest.raises(DistDetectError,
                           match=r"hardest false state 1 has pairwise rate I = 0\.0"):
            scenario(model, network.gossip_process(2, [(0, 1)]), 5)


class TestLearningRate:
    def test_hand_value(self):
        assert analysis.theorem1_learning_rate(1.0, 2, 0.0) == pytest.approx(
            1 / (16 * math.log(2))
        )

    def test_monotone_in_gap(self):
        etas = [analysis.theorem1_learning_rate(1.0, 4, s) for s in (0.0, 0.3, 0.6, 0.9)]
        assert all(b < a for a, b in zip(etas, etas[1:]))

    def test_degenerate_inputs(self):
        with pytest.raises(DistDetectError, match="need n >= 2, got 1"):
            analysis.theorem1_learning_rate(1.0, 1, 0.5)
        with pytest.raises(DistDetectError, match=r"sigma2 must lie in \[0, 1\), got 1.0"):
            analysis.theorem1_learning_rate(1.0, 4, 1.0)


class TestProp1Bound:
    def test_hand_arithmetic(self):
        rep = analysis.prop1_log_tv_bound(
            bound_scenario(B=1, I=0.1, m=2, n=2, delta=0.1, sigma2_w=0.0), 100
        )
        assert rep["terms"]["rate"] == pytest.approx(-10.0)
        assert rep["terms"]["fluctuation"] == pytest.approx(24.477468306808163)
        assert rep["terms"]["network"] == pytest.approx(5.545177444479562)
        assert rep["terms"]["log_m"] == pytest.approx(math.log(2))
        assert rep["total"] == pytest.approx(20.71579293184767)

    def test_total_is_sum_of_terms(self):
        rep = analysis.prop1_log_tv_bound(
            bound_scenario(B=1.6, I=0.05, m=3, n=4, delta=0.1, sigma2_w=0.75), 300
        )
        assert rep["total"] == pytest.approx(sum(rep["terms"].values()), abs=1e-12)

    def test_asymptotic_slope_is_minus_I(self):
        I = 0.37
        sc = bound_scenario(B=1, I=I, m=3, n=4, delta=0.1, sigma2_w=0.5)
        diffs = [
            analysis.prop1_log_tv_bound(sc, t + 1)["total"]
            - analysis.prop1_log_tv_bound(sc, t)["total"]
            for t in (10**3, 10**5, 10**7)
        ]
        assert diffs[-1] == pytest.approx(-I, abs=1e-3)
        # increments decrease toward -I from above
        assert diffs[0] > diffs[1] > diffs[2] > -I

    def test_rejects_bad_t(self):
        with pytest.raises(DistDetectError, match="t must be >= 1, got 0"):
            analysis.prop1_log_tv_bound(
                bound_scenario(B=1, I=0.1, m=2, n=2, delta=0.1, sigma2_w=0.0), 0)

    def test_potential_gap_terms_scale_with_eta(self):
        # log TV <= log m + eta * (bound on the potential gap)
        args = dict(B=1.6, I=0.05, m=3, n=4, delta=0.1, sigma2_w=0.75)
        unit = analysis.prop1_log_tv_bound(bound_scenario(**args), 300)
        half = analysis.prop1_log_tv_bound(bound_scenario(**args, eta=0.5), 300)
        for name in ("rate", "fluctuation", "network"):
            assert half["terms"][name] == 0.5 * unit["terms"][name]
        assert half["terms"]["log_m"] == unit["terms"]["log_m"] == math.log(3)
        assert half["inputs"] == unit["inputs"]


class TestRateSlope:
    def test_exact_exponential(self):
        t = np.arange(1, 201)
        assert rate_slope(np.exp(-0.3 * t), (10, 200)) == pytest.approx(-0.3, abs=1e-9)

    def test_constant_tv(self):
        assert rate_slope(np.full(50, 0.25), (1, 50)) == pytest.approx(0.0, abs=1e-12)

    def test_underflow_rejected(self):
        tv = np.full(20, 0.5)
        tv[12] = 0.0
        with pytest.raises(ValueError):
            rate_slope(tv, (1, 20))


class TestMonteCarlo:
    def test_deterministic_given_seed(self, reference_model, reference_process):
        sc = scenario(reference_model, reference_process, 50, (50,))
        [a] = analysis.monte_carlo_verify(sc, "prop1", R=20, base_seed=5)
        [b] = analysis.monte_carlo_verify(sc, "prop1", R=20, base_seed=5)
        assert a["violations"] == b["violations"]
        assert a["violation_rate"] == b["violation_rate"]

    def test_reports_name_seed_checkpoint_and_horizon(self, reference_model,
                                                      reference_process):
        sc = scenario(reference_model, reference_process, 30, (10, 20))
        reports = analysis.monte_carlo_verify(sc, "prop1", R=2, base_seed=3)
        assert [(r["seed"], r["checkpoint"], r["horizon"]) for r in reports] == [
            (3, 10, None), (3, 20, None)]
        [rep] = analysis.monte_carlo_verify(sc, "theorem1", R=2, base_seed=4)
        assert (rep["seed"], rep["checkpoint"], rep["horizon"]) == (4, None, 30)

    def test_huge_delta_trivially_passes(self, reference_model, reference_process):
        sc = scenario(reference_model, reference_process, 30, (30,), delta=0.99)
        [rep] = analysis.monte_carlo_verify(sc, "prop1", R=20, base_seed=6)
        assert rep["verdict"] == "pass"

    def test_rate_equals_violations_over_trials(self, reference_model, reference_process):
        sc = scenario(reference_model, reference_process, 30, (30,))
        [rep] = analysis.monte_carlo_verify(sc, "prop1", R=25, base_seed=7)
        assert rep["violation_rate"] == rep["violations"] / 25

    def test_disconnected_process_rejected(self, reference_model):
        with pytest.raises(DistDetectError, match=r"not connected in expectation \(A3"):
            scenario(reference_model, network.fixed_process(np.eye(4)), 30, (30,))

    def test_trial_prefix_stability(self, reference_model, reference_process):
        sc = scenario(reference_model, reference_process, 30, (30,))
        first = analysis.prop1_statistics(sc, 9, range(5))
        again = analysis.prop1_statistics(sc, 9, range(10))
        assert first.tolist() == again[:5].tolist()

    def test_nonfinite_statistic_fails_closed(self, reference_model, reference_process,
                                              monkeypatch):
        # a Scenario refuses a NaN learning rate, so one is set after the checks
        sc = scenario(reference_model, reference_process, 30, (30,), delta=0.99)
        monkeypatch.setattr(sc, "eta", math.nan)
        for which in ("prop1", "theorem1"):
            [rep] = analysis.monte_carlo_verify(sc, which, R=4, base_seed=10)
            assert rep["verdict"] == "fail"
            assert rep["violations"] == 4
            assert rep["trial_stats"]["nonfinite_statistics"] == 4

    def test_log_zero_tv_is_not_a_failure(self, reference_model, reference_process):
        # at eta = 200 every belief is a point mass by step 300: TV underflows to 0,
        # while its log, read off the potentials, stays finite
        sc = scenario(reference_model, reference_process, 300, (300,), learning_rate=200.0)
        [rep] = analysis.monte_carlo_verify(sc, "prop1", R=4, base_seed=11)
        largest = rep["trial_stats"]["max_statistic"]
        assert math.isfinite(largest) and math.exp(largest) == 0.0
        assert rep["trial_stats"]["nonfinite_statistics"] == 0
        assert rep["verdict"] == "pass"


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.integers(0, 4),
       st.floats(0.1, 2000.0), st.floats(0.01, 10.0))
def test_log_beliefs_and_kl_match_oracle(seed, m, true, spread, eta):
    # potentials spread around a common offset, as a trial's potentials drift
    # together: 6 steps of 4 agents and of the centralized engine
    rng = np.random.default_rng(seed)
    offset = rng.uniform(-1e4, 1e4)
    dec = rng.uniform(-spread, spread, size=(6, 4, m)) + offset
    cen = rng.uniform(-spread, spread, size=(6, m)) + offset
    true %= m
    gaps, log_tv, log_mu = analysis._log_beliefs(dec, eta, true)
    kl, agents_log_tv, centralized_log_tv = analysis._kl_to_centralized(dec, cen, eta, true)
    assert np.array_equal(agents_log_tv, log_tv)
    assert np.array_equal(centralized_log_tv, analysis._log_beliefs(cen, eta, true)[1])
    assert np.all(log_tv <= 0) and np.all(np.array(log_mu) <= 0) and np.all(kl >= 0)
    false = [k for k in range(m) if k != true]
    for g, k in zip(gaps, false):
        assert np.array_equal(g, eta * dec[..., k] - eta * dec[..., true])
    # each reads the exponents eta phi, with rounding of a few ulps of the
    # largest |eta phi| it reads; compared where the oracle's beliefs are
    # normal numbers, so that their logs keep their precision
    eps, held = np.finfo(float).eps, 1e-300
    for (t, i), got in np.ndenumerate(log_tv):
        mu, mu_c = prob.gibbs_belief(dec[t, i], eta), prob.gibbs_belief(cen[t], eta)
        tol = 16 * eps * (1.0 + np.abs(eta * dec[t, i]).max())
        if mu[false].sum() > held:
            assert abs(got - np.log(mu[false].sum())) <= tol
        for k in range(m):
            if mu[k] > held:
                assert abs(log_mu[k][t, i] - np.log(mu[k])) <= tol
        if np.all(mu_c[mu > 0] > held):
            tol = 16 * eps * (1.0 + max(np.abs(eta * dec[t, i]).max(), np.abs(eta * cen[t]).max()))
            assert abs(kl[t, i] - prob.kl_divergence(mu, mu_c)) <= tol


def _log_softmax(phi):
    """log(e^phi_k / sum_j e^phi_j) over the last axis in long double, centred on the
    largest phi and summing the others' e^(phi_j - max) apart from the max's exact 1."""
    y = phi.astype(np.longdouble)
    top = np.argmax(y, axis=-1)[..., None]
    y -= np.take_along_axis(y, top, axis=-1)
    rest = y.copy()
    np.put_along_axis(rest, top, -np.inf, axis=-1)
    return y - np.log1p(np.exp(rest).sum(axis=-1, keepdims=True))


def test_cumulative_cost_matches_long_double(reference_model, reference_process):
    # the shipped reference_long.yaml (T = 5000, eta = 1), 16 trials at seed 7:
    # every agent's cumulative cost is within 1e-13 relative of the KL sums of
    # the same potentials in extended precision
    if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
        pytest.skip("long double is no wider than double on this platform")
    sc = scenario(reference_model, reference_process, 5000)
    cost = analysis.simulate_trials(sc, 7, range(16))[1].sum(axis=1)
    want = np.zeros(cost.shape, np.longdouble)
    for rows, _, dec, cen in analysis.potential_blocks(sc, sc.horizon, 7, range(16)):
        mu, mu_c = _log_softmax(dec), _log_softmax(cen)[..., None, :]
        want[rows] += (np.exp(mu) * (mu - mu_c)).sum(axis=(0, 3))
    assert np.all(np.abs(cost - want) <= 1e-13 * want)


def test_work_cap_is_checked_before_any_block(reference_model, reference_process):
    # the check runs when potential_blocks is called, before a caller allocates
    # its per-trial arrays, not when the first block is drawn
    sc = scenario(reference_model, reference_process, 30)
    with pytest.raises(DistDetectError, match="is above ENGINE_WORK_CAP"):
        analysis.potential_blocks(sc, 2**62, 0, range(1))


class TestSimulateTrial:
    def test_shapes_and_ranges(self, reference_model, reference_process):
        log_tv, kl_increment, centralized_log_tv, _ = analysis.simulate_trials(
            scenario(reference_model, reference_process, 40), 11, [0])
        tv_error, centralized_tv = np.exp(log_tv), np.exp(centralized_log_tv)
        assert tv_error.shape == (1, 40, 4)
        assert np.all(tv_error >= 0) and np.all(tv_error <= 1)
        assert np.all(kl_increment >= 0)
        assert np.all(centralized_tv >= 0)

    def test_connection_identity(self, reference_model, reference_process):
        *_, max_potential_gap = analysis.simulate_trials(
            scenario(reference_model, reference_process, 500), 12, [0])
        assert max_potential_gap <= 1e-8

    def test_e2_inequality_along_trajectory(self, reference_model, reference_process):
        sc = scenario(reference_model, reference_process, 300)
        tv_error = np.exp(analysis.simulate_trials(sc, 13, [0])[0])
        gaps = exp_gap_sums(sc, 13, [0])
        assert np.all(tv_error <= gaps + 1e-12)


class TestBatchedEngine:
    @pytest.mark.parametrize("block_elements", [analysis.BLOCK_ELEMENTS, 1])
    def test_trial_record_independent_of_batch(
            self, reference_model, reference_process, monkeypatch, block_elements):
        # each trial's record is the same alone, in a batch of R and in one of
        # R + 3, on a small model and on a wide one (n x m > 512), whose R + 3
        # trials fill more than one group
        monkeypatch.setattr(analysis, "BLOCK_ELEMENTS", block_elements)
        wide_model, wide_process = _wide_ring()
        for model, process, horizon, R in ((reference_model, reference_process, 70, 4),
                                           (wide_model, wide_process, 13, 8)):
            sc = scenario(model, process, horizon, (7, horizon))

            def records(trials):
                *series, gap = analysis.simulate_trials(sc, 3, trials)
                return (*series, analysis.theorem1_statistics(sc, 3, trials),
                        analysis.prop1_statistics(sc, 3, trials)), gap

            batch, gap = records(range(R))
            more, _ = records(range(R + 3))
            alone = [records([r]) for r in range(R)]
            names = ("tv_error", "kl_increment", "centralized_tv", "theorem1", "prop1")
            for f, name in enumerate(names):
                assert np.array_equal(more[f][:R], batch[f]), name
                assert np.array_equal(np.concatenate([a[f] for a, _ in alone]), batch[f]), name
            assert gap == max(g for _, g in alone)

    @pytest.mark.parametrize("block_elements, groups", [(analysis.BLOCK_ELEMENTS, 1), (1, 4)])
    def test_network_advanced_once_per_block(
            self, reference_model, reference_process, monkeypatch, block_elements, groups):
        # one advance call per block of each trial group: on a small model a
        # block is STEP_BLOCK steps of every trial, never one call per step;
        # a bound of one value leaves room for one step of one trial
        monkeypatch.setattr(analysis, "BLOCK_ELEMENTS", block_elements)
        calls = _count_advance_calls(monkeypatch)
        analysis.simulate_trials(scenario(reference_model, reference_process, 130), 3, range(4))
        assert math.ceil(130 / analysis.STEP_BLOCK) == 3
        steps = [64, 64, 2] if groups == 1 else [1] * 130
        assert calls == [(s, 4 // groups) for s in steps] * groups

    @pytest.mark.parametrize("R", [1, 8, 9, 10])
    def test_wide_model_advances_its_trials_together(self, monkeypatch, R):
        # n x m = 600 > 512: blocks of 6 steps with room for 9 trials, so up
        # to 9 trials advance in one call per block, and a block never holds
        # more than BLOCK_ELEMENTS values
        model, process = _wide_ring()
        assert model.n * model.m == 600
        assert analysis.block_shape(model.n, model.m) == (6, 9)
        calls = _count_advance_calls(monkeypatch)
        analysis.prop1_statistics(scenario(model, process, 20, (20,)), 3, range(R))
        groups = [R] if R <= 9 else [9, R - 9]
        assert calls == [(s, g) for g in groups for s in (6, 6, 6, 2)]
        assert max(s * g for s, g in calls) * 600 <= analysis.BLOCK_ELEMENTS

    @pytest.mark.parametrize("kind", ["gossip", "fixed"])
    def test_prop1_checkpoints_in_one_pass(self, reference_model, kind):
        # mid-block, on the STEP_BLOCK = 64 boundary, just past it, and later,
        # in order and not: columns follow the checkpoints' order
        assert analysis.STEP_BLOCK == 64
        g = cycle_graph(4)
        process = (network.gossip_process(*g) if kind == "gossip"
                   else network.fixed_process(network.metropolis_matrix(*g)))
        for checkpoints in ((10, 64, 65, 150), (150, 10, 65, 64)):
            together = analysis.prop1_statistics(
                scenario(reference_model, process, 150, checkpoints), 4, range(5))
            assert together.shape == (5, 4) and np.isfinite(together).all()
            for c, t in enumerate(checkpoints):
                alone = analysis.prop1_statistics(
                    scenario(reference_model, process, 150, (t,)), 4, range(5))
                assert np.array_equal(together[:, c], alone[:, 0]), t

    def test_unreached_checkpoint_fails_closed(self, reference_model, reference_process):
        sc = scenario(reference_model, reference_process, 30, (0, 30))
        stats = analysis.prop1_statistics(sc, 4, range(3))
        assert np.isnan(stats[:, 0]).all() and np.isfinite(stats[:, 1]).all()


@st.composite
def engine_cases(draw):
    return {
        "n": draw(st.integers(2, 6)),
        "m": draw(st.integers(2, 4)),
        "kind": draw(st.sampled_from(["fixed", "gossip", "finite_support"])),
        "horizon": draw(st.integers(1, 2 * analysis.STEP_BLOCK + 5)),
        "trials": draw(st.integers(1, 4)),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


def _random_model(rng, n, m):
    """n agents and m states, with alphabet sizes from 2 to 4."""
    anchor = [[b, 1 - b] for b in np.linspace(0.15, 0.85, m)]  # distinct rows
    tables = [anchor]
    for _ in range(n - 1):
        t = rng.uniform(0.1, 1.0, size=(m, int(rng.integers(2, 5))))
        tables.append(t / t.sum(axis=1, keepdims=True))
    return signals.SignalModel(tables)


def _random_case(n, m, kind, seed):
    """A model with mixed alphabet sizes and a connected process of the given kind."""
    rng = np.random.default_rng(seed)
    model = _random_model(rng, n, m)
    if kind == "fixed":
        return model, network.fixed_process(random_mixing_matrix(rng, n))
    if kind == "gossip":
        edges = {(i, i + 1) for i in range(n - 1)}
        edges |= {(i, j) for i in range(n) for j in range(i + 2, n) if rng.random() < 0.4}
        return model, network.gossip_process(n, edges)
    probs = rng.uniform(0.1, 1.0, 3)
    probs /= probs.sum()
    probs[-1] = 1.0 - probs[:-1].sum()
    mats = [random_mixing_matrix(rng, n) for _ in range(3)]
    return model, network.finite_support_process(list(zip(mats, probs)))


def _wide_ring(n=200, m=3, seed=11):
    """A gossip ring of n agents with a random model of mixed alphabet sizes."""
    model = _random_model(np.random.default_rng(seed), n, m)
    return model, network.gossip_process(*cycle_graph(n))


def _count_advance_calls(monkeypatch) -> list:
    """A list that gets (steps, trials) of each `NetworkProcess.advance` call."""
    calls = []

    def counted(self, phi, u, psi, _advance=network.NetworkProcess.advance):
        calls.append(psi.shape[:2])
        return _advance(self, phi, u, psi)
    monkeypatch.setattr(network.NetworkProcess, "advance", counted)
    return calls


def _oracle_replay(model, process, horizon, base_seed, trial):
    """A trial's matrices and symbols read from its generator by the documented
    layout (the network's draw, then one uniform per agent), using the slow draws."""
    rng = analysis.trial_rng(base_seed, trial)
    matrices, samples = [], []
    for _ in range(horizon):
        matrices.append(detection.draw_mixing(process, rng))
        samples.append(signals.sample_step(model, rng))
    return matrices, samples


@settings(max_examples=60, deadline=None)
@given(engine_cases())
def test_batched_potentials_match_oracle(case):
    model, process = _random_case(case["n"], case["m"], case["kind"], case["seed"])
    _check_against_oracle(model, process, case["horizon"], case["trials"], case["seed"])


def test_wide_model_matches_oracle():
    # n x m = 600 > 512: 6-step blocks of both trials, padded tables of
    # alphabets 2 to 4 on 200 agents, and a horizon across 11 block edges;
    # the slow per-agent metrics are checked on every 7th agent
    model, process = _wide_ring()
    assert analysis.block_shape(model.n, model.m)[0] == 6
    assert set(model.alphabet.tolist()) == {2, 3, 4}
    _check_against_oracle(model, process, 70, 2, 5, agents=slice(None, None, 7))


class _LastUniform:
    """A generator stand-in whose every uniform is 1 - 2^-53, the largest `random()` value."""

    def random(self, size):
        return np.full(size, 1.0 - 2.0**-53)


def test_last_uniform_draws_the_last_symbol_in_both_engines(monkeypatch):
    # agent 0's true-state CDF ends at 1 - 2^-53, a rounding error short of 1,
    # so the last uniform lies on its last entry and must draw symbol 9
    model = signals.SignalModel([[[0.1] * 10, [0.19] * 5 + [0.01] * 5], UNINFORMATIVE_2])
    assert np.cumsum(model.lik[0, 0])[-1] == 1.0 - 2.0**-53
    process = network.fixed_process(np.full((2, 2), 0.5))
    monkeypatch.setattr(analysis, "trial_rng", lambda base_seed, trial: _LastUniform())
    [(_, _, dec, _)] = analysis.potential_blocks(scenario(model, process, 1), 1, 0, range(1))
    [w], [sample] = _oracle_replay(model, process, 1, 0, 0)
    assert sample.tolist() == [9, 1]
    d = detection.decentralized_step(detection.initial_decentralized(2, 2, 1.0), w, sample, model)
    np.testing.assert_array_equal(dec[0, 0], d.phi)


def _check_against_oracle(model, process, horizon, trials, seed, agents=slice(None)):
    """The engine's potentials equal the oracle's on every trial, step and
    agent, and its TV errors, KL increments (at eta = 0.7) and closed-form
    potentials on the given agents, all to 1e-8."""
    eta = 0.7
    sc = scenario(model, process, horizon, learning_rate=eta)
    blocks = list(analysis.potential_blocks(sc, horizon, seed, range(trials)))
    dec = np.concatenate([d for _, _, d, _ in blocks])   # T x R x n x m
    cen = np.concatenate([c for _, _, _, c in blocks])   # T x R x m
    assert dec.shape == (horizon, trials, model.n, model.m)
    log_tv, kl_increment, centralized_log_tv, _ = analysis.simulate_trials(
        sc, seed, range(trials))
    tv_error, centralized_tv = np.exp(log_tv), np.exp(centralized_log_tv)
    truth = np.eye(model.m)[model.true_index]
    for r in range(trials):
        matrices, samples = _oracle_replay(model, process, horizon, seed, r)
        d = detection.initial_decentralized(model.n, model.m, eta=eta)
        c = detection.initial_centralized(model.m, eta=eta)
        for t, (w, sample) in enumerate(zip(matrices, samples)):
            d = detection.decentralized_step(d, w, sample, model)
            c = detection.centralized_step(c, sample, model)
            assert np.abs(dec[t, r] - d.phi).max() <= 1e-8
            assert np.abs(cen[t, r] - c.phi).max() <= 1e-8
            mu_c = detection.centralized_belief(c)
            assert abs(centralized_tv[r, t] - 0.5 * np.abs(mu_c - truth).sum()) <= 1e-8
            for i, mu in list(enumerate(detection.beliefs(d)))[agents]:
                assert abs(tv_error[r, t, i] - 0.5 * np.abs(mu - truth).sum()) <= 1e-8
                assert abs(kl_increment[r, t, i] - prob.kl_divergence(mu, mu_c)) <= 1e-8
        psis = np.array([detection.log_marginal_matrix(model, s) for s in samples])
        for i in range(model.n)[agents]:
            closed = detection.closed_form_phi(matrices, psis, i)
            assert np.abs(dec[-1, r, i] - closed).max() <= 1e-8


# the modules the command loads; loads elsewhere, as in the oracle, are no use
COMMAND_MODULES = ["analysis", "signals", "config", "cli", "errors", "network", "trajectories"]
# public names that nothing in the command's modules loads, each kept on purpose
UNUSED_IN_SRC = {
    "sample_step": "the oracle's signal draw, which the batched sampler is checked against",
}


@pytest.mark.parametrize("module", COMMAND_MODULES)
def test_every_public_name_is_used_in_src(module):
    # a public function, class, constant or method that only tests or the
    # oracle reach fails here, unless UNUSED_IN_SRC keeps it
    def loads(tree):
        return Counter(node.id if isinstance(node, ast.Name) else node.attr
                       for node in ast.walk(tree)
                       if isinstance(node, (ast.Name, ast.Attribute))
                       and isinstance(node.ctx, ast.Load))

    src = Path(analysis.__file__).parent
    used = sum((loads(ast.parse((src / f"{m}.py").read_text())) for m in COMMAND_MODULES),
               Counter())
    definitions = []
    for node in ast.parse((src / f"{module}.py").read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            definitions.append((node.name, node))
        elif isinstance(node, ast.Assign):
            definitions += [(t.id, node) for t in node.targets if isinstance(t, ast.Name)]
        if isinstance(node, ast.ClassDef):
            definitions += [(f.name, f) for f in node.body if isinstance(f, ast.FunctionDef)]
    unused = [name for name, node in definitions
              # a recursive call is no use from elsewhere
              if not name.startswith("_") and used[name] <= loads(node)[name]
              and name not in UNUSED_IN_SRC]
    assert unused == []
