import math

import numpy as np
import pytest

from distdetect import detection, network, signals
from distdetect.errors import DistDetectError

from conftest import (INFORMATIVE, UNINFORMATIVE_2, cycle_graph, path_graph,
                      random_mixing_matrix)


@pytest.fixture
def sym_pair_model():
    """Two agents with identical informative tables."""
    return signals.SignalModel([INFORMATIVE, INFORMATIVE])


class TestCentralized:
    def test_one_step_hand_values(self, sym_pair_model):
        state = detection.initial_centralized(2, eta=1.0)
        state = detection.centralized_step(state, [0, 0], sym_pair_model)
        np.testing.assert_allclose(state.phi, [math.log(0.8), math.log(0.2)])
        np.testing.assert_allclose(
            detection.centralized_belief(state), [0.8, 0.2], atol=1e-15
        )

    def test_uninformative_agents_stay_uniform(self):
        # bypass model validation: an all-uninformative population is not
        # identifiable, but the engine itself must keep the belief flat
        from types import SimpleNamespace

        stub = SimpleNamespace(lik=np.array([UNINFORMATIVE_2] * 2), alphabet=np.array([2, 2]))
        state = detection.initial_centralized(2, eta=1.0)
        for _ in range(10):
            state = detection.centralized_step(state, [0, 1], stub)
        assert state.phi[0] == state.phi[1]
        np.testing.assert_allclose(detection.centralized_belief(state), 0.5)

    def test_additivity(self, sym_pair_model):
        s1 = detection.initial_centralized(2, eta=1.0)
        s1 = detection.centralized_step(s1, [0, 1], sym_pair_model)
        s2 = detection.centralized_step(s1, [0, 1], sym_pair_model)
        np.testing.assert_allclose(s2.phi, 2 * s1.phi, atol=1e-15)
        assert s2.t == 2


class TestDecentralized:
    def test_first_step_ignores_mixing(self, sym_pair_model):
        state = detection.initial_decentralized(2, 2, eta=1.0)
        for w in (np.eye(2), np.full((2, 2), 0.5)):
            out = detection.decentralized_step(state, w, [0, 1], sym_pair_model)
            np.testing.assert_allclose(
                out.phi,
                [[math.log(0.8), math.log(0.2)], [math.log(0.2), math.log(0.8)]],
            )

    def test_identity_mixing_isolates_agents(self, sym_pair_model):
        state = detection.initial_decentralized(2, 2, eta=1.0)
        for _ in range(5):
            state = detection.decentralized_step(state, np.eye(2), [0, 1], sym_pair_model)
        np.testing.assert_allclose(state.phi[0], 5 * np.log([0.8, 0.2]), atol=1e-12)
        np.testing.assert_allclose(state.phi[1], 5 * np.log([0.2, 0.8]), atol=1e-12)

    def test_full_mixing_hand_unrolled(self, sym_pair_model):
        w = np.full((2, 2), 0.5)
        state = detection.initial_decentralized(2, 2, eta=1.0)
        state = detection.decentralized_step(state, w, [0, 1], sym_pair_model)
        psi1 = state.phi.copy()
        state = detection.decentralized_step(state, w, [1, 0], sym_pair_model)
        psi2 = np.array([np.log([0.2, 0.8]), np.log([0.8, 0.2])])
        expected = psi2 + 0.5 * (psi1[0] + psi1[1])
        np.testing.assert_allclose(state.phi, expected, atol=1e-14)

    def test_dimension_mismatch(self, sym_pair_model):
        state = detection.initial_decentralized(2, 2, eta=1.0)
        with pytest.raises(DistDetectError, match=r"shape \(3, 3\) does not match 2 agents"):
            detection.decentralized_step(state, np.eye(3), [0, 1], sym_pair_model)


class TestBeliefs:
    def test_zero_potentials_uniform(self):
        state = detection.initial_decentralized(3, 4, eta=1.0)
        for mu in detection.beliefs(state):
            np.testing.assert_allclose(mu, 0.25)

    def test_single_row_example(self):
        state = detection.DecentralizedState(
            phi=np.array([[0.0, math.log(2)], [0.0, 0.0]]), t=1, eta=1.0
        )
        mus = detection.beliefs(state)
        np.testing.assert_allclose(mus[0], [1 / 3, 2 / 3], atol=1e-15)

    def test_eta_scaling_invariance(self):
        row = np.array([0.3, -1.2, 0.5])
        a = detection.DecentralizedState(phi=row[None, :].repeat(2, 0), t=1, eta=2.0)
        b = detection.DecentralizedState(phi=4 * row[None, :].repeat(2, 0), t=1, eta=0.5)
        np.testing.assert_allclose(
            detection.beliefs(a)[0], detection.beliefs(b)[0], atol=1e-12
        )


def _simulate_instance(model, process, horizon, rng):
    """Common-random-number run returning matrices, psis and the final states."""
    n, m = model.n, model.m
    matrices, psis = [], []
    dec = detection.initial_decentralized(n, m, eta=1.0)
    cen = detection.initial_centralized(m, eta=1.0)
    for _ in range(horizon):
        w = detection.draw_mixing(process, rng)
        sample = signals.sample_step(model, rng)
        matrices.append(w)
        psis.append(detection.log_marginal_matrix(model, sample))
        dec = detection.decentralized_step(dec, w, sample, model)
        cen = detection.centralized_step(cen, sample, model)
    return matrices, np.array(psis), dec, cen


class TestClosedForm:
    def test_t1_is_psi(self, sym_pair_model):
        psi = detection.log_marginal_matrix(sym_pair_model, [0, 1])
        out = detection.closed_form_phi([np.eye(2)], psi[None], 0)
        np.testing.assert_allclose(out, psi[0])

    def test_matches_recursion_gossip(self, reference_model, reference_process):
        rng = np.random.default_rng(21)
        matrices, psis, dec, _ = _simulate_instance(
            reference_model, reference_process, 20, rng
        )
        for i in range(reference_model.n):
            oracle = detection.closed_form_phi(matrices, psis, i)
            np.testing.assert_allclose(dec.phi[i], oracle, atol=1e-9)

    def test_average_reproduces_centralized(self, reference_model, reference_process):
        rng = np.random.default_rng(22)
        matrices, psis, dec, cen = _simulate_instance(
            reference_model, reference_process, 20, rng
        )
        avg = np.mean(
            [detection.closed_form_phi(matrices, psis, i) for i in range(4)], axis=0
        )
        np.testing.assert_allclose(avg, cen.phi, atol=1e-9)


class TestInvariants:
    def test_average_potential_identity_long_run(self, reference_model, reference_process):
        rng = np.random.default_rng(23)
        _, _, dec, cen = _simulate_instance(reference_model, reference_process, 1000, rng)
        assert np.abs(dec.phi.mean(axis=0) - cen.phi).max() <= 1e-8

    def test_potential_growth_bound(self, reference_model, reference_process):
        B = signals.log_bound_B(reference_model)
        rng = np.random.default_rng(24)
        horizon = 200
        _, _, dec, cen = _simulate_instance(reference_model, reference_process, horizon, rng)
        assert np.abs(dec.phi).max() <= B * horizon + 1e-9
        assert np.abs(cen.phi).max() <= B * horizon + 1e-9

    def test_beliefs_stay_positive(self, reference_model, reference_process):
        rng = np.random.default_rng(25)
        _, _, dec, _ = _simulate_instance(reference_model, reference_process, 100, rng)
        for mu in detection.beliefs(dec):
            assert np.all(mu > 0)

    def test_tv_bounded_by_exp_gap_sum(self, reference_model, reference_process):
        # TV(mu_i, e_true) <= sum_{k != true} exp(phi_ik - phi_i,true) at eta = 1
        rng = np.random.default_rng(26)
        dec = detection.initial_decentralized(4, 3, eta=1.0)
        for _ in range(300):
            w = detection.draw_mixing(reference_process, rng)
            sample = signals.sample_step(reference_model, rng)
            dec = detection.decentralized_step(dec, w, sample, reference_model)
            for row, mu in zip(dec.phi, detection.beliefs(dec)):
                tv = mu[1] + mu[2]
                gap_sum = math.exp(row[1] - row[0]) + math.exp(row[2] - row[0])
                assert tv <= gap_sum + 1e-12


def test_oracle_equivalence_random_instances():
    """Recursion vs closed form across fixed / gossip / finite-support processes."""
    rng = np.random.default_rng(30)
    for trial in range(10):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(2, 5))
        tables = [_random_table(rng, m) for _ in range(n)]
        tables[0] = _distinct_table(rng, m)  # guarantees identifiability
        model = signals.SignalModel(tables)
        process = _random_process(rng, n)
        horizon = int(rng.integers(1, 51))
        matrices, psis, dec, _ = _simulate_instance(model, process, horizon, rng)
        i = int(rng.integers(n))
        oracle = detection.closed_form_phi(matrices, psis, i)
        np.testing.assert_allclose(dec.phi[i], oracle, atol=1e-8)


def _random_table(rng, m, alphabet=3):
    t = rng.uniform(0.1, 1.0, size=(m, alphabet))
    return t / t.sum(axis=1, keepdims=True)


def _distinct_table(rng, m):
    # rows spread far apart so no two states look alike
    base = np.linspace(0.15, 0.85, m)
    return np.stack([[b, 1 - b] for b in base])


def _random_process(rng, n):
    kind = rng.integers(3)
    if kind == 0:
        return network.fixed_process(random_mixing_matrix(rng, n))
    if kind == 1:
        return network.gossip_process(*cycle_graph(n)) if n > 2 else \
            network.gossip_process(*path_graph(2))
    mats = [random_mixing_matrix(rng, n) for _ in range(3)]
    probs = rng.uniform(0.1, 1.0, 3)
    probs /= probs.sum()
    probs[-1] = 1.0 - probs[:-1].sum()  # exact unit sum
    return network.finite_support_process(list(zip(mats, probs)))
