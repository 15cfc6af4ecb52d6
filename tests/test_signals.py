import math

import numpy as np
import pytest

from distdetect import detection, signals
from distdetect.errors import DistDetectError
from distdetect.prob import kl_divergence

from conftest import INFORMATIVE, UNINFORMATIVE_2


class TestValidation:
    def test_valid_model_equivalence_sets(self, two_agent_model):
        # swap roles: agent 0 informative => its set is {true}; agent 1 sees everything alike
        assert signals.validate_model(two_agent_model) is None
        equiv = [signals.equivalent_states(two_agent_model, i) for i in range(2)]
        assert equiv[0] == {0}
        assert equiv[1] == {0, 1}
        assert set.intersection(*equiv) == {0}

    def test_uninformative_pair_not_identifiable(self):
        with pytest.raises(DistDetectError, match=r"states \[1\] are observationally equivalent"):
            signals.SignalModel([UNINFORMATIVE_2, UNINFORMATIVE_2])

    def test_zero_entry_rejected(self):
        with pytest.raises(DistDetectError, match="agent 0 table has a non-positive or NaN entry"):
            signals.SignalModel([[[1.0, 0.0], [0.5, 0.5]], INFORMATIVE])

    def test_bad_row_sum_rejected(self):
        with pytest.raises(DistDetectError, match=r"agent 0 rows \[0\] sum to"):
            signals.SignalModel([[[0.6, 0.6], [0.5, 0.5]], INFORMATIVE])

    @pytest.mark.parametrize("tables, true_index, message", [
        ([INFORMATIVE], 0, "need at least 2 agents, got 1"),
        ([[[0.5, 0.5]], [[0.5, 0.5]]], 0, "need at least 2 states, got m=1"),
        ([INFORMATIVE, INFORMATIVE], 2, r"true_index 2 outside \[0, 2\)"),
        ([INFORMATIVE, [0.5, 0.5]], 0, r"agent 1 table has shape \(2,\)"),
        ([[INFORMATIVE], INFORMATIVE], 0, r"agent 0 table has shape \(1, 2, 2\)"),
    ], ids=["one-agent", "one-state", "true-index-m", "1-d-table", "3-d-table"])
    def test_shape_and_index_checks(self, tables, true_index, message):
        with pytest.raises(DistDetectError, match=message):
            signals.SignalModel(tables, true_index)


class TestLogBound:
    def test_uniform_binary(self):
        m = signals.SignalModel([UNINFORMATIVE_2, INFORMATIVE])
        # bound dominated by |ln 0.2| from the informative agent
        assert signals.log_bound_B(m) == pytest.approx(abs(math.log(0.2)))

    def test_all_half(self):
        m = signals.SignalModel([UNINFORMATIVE_2, UNINFORMATIVE_2, INFORMATIVE])
        assert signals.log_bound_B(m) >= math.log(2)

    def test_uniform_quaternary(self):
        q = [[0.25] * 4, [0.25] * 4]
        m = signals.SignalModel([q, [[0.7, 0.1, 0.1, 0.1], [0.1, 0.1, 0.1, 0.7]]])
        assert abs(math.log(0.25)) == pytest.approx(math.log(4))
        assert signals.log_bound_B(m) == pytest.approx(abs(math.log(0.1)))


class TestEquivalentStates:
    def test_uninformative_sees_all(self):
        uninf3 = [[0.5, 0.5]] * 3
        inf3 = [[0.8, 0.2], [0.2, 0.8], [0.5, 0.5]]
        m = signals.SignalModel([uninf3, inf3])
        assert signals.equivalent_states(m, 0) == {0, 1, 2}

    def test_distinct_rows_single(self):
        inf3 = [[0.8, 0.2], [0.2, 0.8], [0.5, 0.5]]
        m = signals.SignalModel([[[0.5, 0.5]] * 3, inf3])
        assert signals.equivalent_states(m, 1) == {0}

    def test_duplicate_row(self):
        a = [[0.8, 0.2], [0.2, 0.8], [0.8, 0.2]]  # theta_3 row equals theta_1 row
        b = [[0.8, 0.2], [0.8, 0.2], [0.2, 0.8]]
        m = signals.SignalModel([a, b])
        assert signals.equivalent_states(m, 0) == {0, 2}


class TestPairwiseRate:
    def test_hand_value(self, two_agent_model):
        # (1/2) * (KL((0.8,0.2)||(0.2,0.8)) + 0) = (1/2) * 0.6 ln 4
        assert signals.pairwise_rates(two_agent_model)[1] == pytest.approx(
            0.3 * math.log(4), abs=1e-12
        )

    def test_duplication_invariance(self, two_agent_model):
        doubled = signals.SignalModel([INFORMATIVE, UNINFORMATIVE_2] * 2)
        assert signals.pairwise_rates(doubled)[1] == pytest.approx(
            signals.pairwise_rates(two_agent_model)[1]
        )

    def test_positive_for_all_false_states(self, reference_model):
        for k in (1, 2):
            assert signals.pairwise_rates(reference_model)[k] > 0


class TestSecondState:
    def test_binary_is_the_other_state(self, two_agent_model):
        k, rate = signals.second_state(two_agent_model)
        assert k == 1
        assert rate == pytest.approx(0.3 * math.log(4))

    def test_picks_minimum_rate(self):
        # theta_2 strongly separated, theta_3 weakly separated
        a = [[0.8, 0.2], [0.2, 0.8], [0.6, 0.4]]
        m = signals.SignalModel([a, [[0.5, 0.5]] * 3])
        k, rate = signals.second_state(m)
        assert k == 2
        assert rate == pytest.approx(signals.pairwise_rates(m)[2])

    def test_tie_breaks_to_smallest_index(self, reference_model):
        r1 = signals.pairwise_rates(reference_model)[1]
        r2 = signals.pairwise_rates(reference_model)[2]
        assert r1 == pytest.approx(r2)
        assert signals.second_state(reference_model)[0] == 1


class TestSampling:
    def test_deterministic_given_seed(self, reference_model):
        a = [signals.sample_step(reference_model, np.random.default_rng(7)) for _ in range(5)]
        b = [signals.sample_step(reference_model, np.random.default_rng(7)) for _ in range(5)]
        # note: same fresh generator each call -> identical draws
        np.testing.assert_array_equal(a, b)

    def test_near_degenerate_row(self):
        eps = 1e-13
        t = [[1 - eps, eps], [0.5, 0.5]]
        m = signals.SignalModel([t, INFORMATIVE])
        rng = np.random.default_rng(0)
        draws = np.array([signals.sample_step(m, rng)[0] for _ in range(2000)])
        assert np.all(draws == 0)

    def test_empirical_frequency(self, two_agent_model):
        rng = np.random.default_rng(12345)
        draws = np.array([signals.sample_step(two_agent_model, rng)[0] for _ in range(100_000)])
        freq0 = np.mean(draws == 0)
        assert freq0 == pytest.approx(0.8, abs=0.01)  # 3 sigma ~ 0.0038


class TestLogMarginals:
    # row i of detection.log_marginal_matrix is (log l_i(s_i | theta_k))_k
    def test_uninformative(self):
        m = signals.SignalModel([UNINFORMATIVE_2, INFORMATIVE])
        np.testing.assert_allclose(
            detection.log_marginal_matrix(m, [0, 0])[0], [math.log(0.5)] * 2
        )

    def test_informative_symbol0(self):
        m = signals.SignalModel([UNINFORMATIVE_2, INFORMATIVE])
        np.testing.assert_allclose(
            detection.log_marginal_matrix(m, [0, 0])[1], [math.log(0.8), math.log(0.2)]
        )

    def test_bounded_by_B(self, reference_model):
        B = signals.log_bound_B(reference_model)
        assert {t.shape[1] for t in reference_model.tables} == {2}
        for s in range(2):
            v = detection.log_marginal_matrix(reference_model, [s] * reference_model.n)
            assert np.all(np.abs(v) <= B + 1e-12)


def test_law_of_large_numbers(two_agent_model):
    """Mean of psi(true) - psi(k) over many draws approaches the per-agent KL."""
    rng = np.random.default_rng(99)
    n_draws = 100_000
    gaps = np.empty(n_draws)
    table = np.asarray(INFORMATIVE)
    logtab = np.log(table)
    draws = rng.random(n_draws)
    symbols = (draws > table[0, 0]).astype(int)
    gaps = logtab[0, symbols] - logtab[1, symbols]
    expected = kl_divergence(table[0], table[1])
    se = gaps.std(ddof=1) / math.sqrt(n_draws)
    assert abs(gaps.mean() - expected) <= 3 * se
