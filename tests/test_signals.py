import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from distdetect import detection, signals
from distdetect.errors import DistDetectError
from distdetect.prob import kl_divergence

from conftest import INFORMATIVE, UNINFORMATIVE_2


class TestValidation:
    def test_valid_model_equivalence_sets(self, two_agent_model):
        # agent 0 tells state 1 from the truth and agent 1 does not: identifiable,
        # while two copies of agent 1 leave state 1 equivalent for every agent
        assert signals.validate_model(two_agent_model) is None
        with pytest.raises(DistDetectError, match=r"states \[1\] are observationally"):
            signals.SignalModel([UNINFORMATIVE_2, UNINFORMATIVE_2, UNINFORMATIVE_2])

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

    def test_shapes_checked_before_values(self):
        # agent 0 has a zero entry and agent 1 a missing row: the shape is reported
        with pytest.raises(DistDetectError, match="agent 1 table has 1 rows, model has 2 states"):
            signals.SignalModel([[[1.0, 0.0], [0.5, 0.5]], [[0.5, 0.5]]])


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
    # a state is equivalent to the true one for an agent whose two rows match;
    # the model loads iff no false state is equivalent for every agent
    def test_uninformative_sees_all(self):
        uninf3 = [[0.5, 0.5]] * 3
        with pytest.raises(DistDetectError, match=r"states \[1, 2\] are observationally"):
            signals.SignalModel([uninf3, uninf3])
        with pytest.raises(DistDetectError, match=r"states \[2\] are observationally"):
            signals.SignalModel([uninf3, [[0.8, 0.2], [0.2, 0.8], [0.8, 0.2]]])

    def test_distinct_rows_single(self):
        # one agent whose rows all differ identifies the truth for any partners
        inf3 = [[0.8, 0.2], [0.2, 0.8], [0.5, 0.5]]
        assert signals.SignalModel([[[0.5, 0.5]] * 3, inf3, [[0.25] * 4] * 3]).n == 3

    def test_duplicate_row(self):
        a = [[0.8, 0.2], [0.2, 0.8], [0.8, 0.2]]  # theta_3 row equals theta_1 row
        b = [[0.8, 0.2], [0.8, 0.2], [0.2, 0.8]]
        assert signals.SignalModel([a, b]).n == 2  # duplicated for agent 0 only
        with pytest.raises(DistDetectError, match=r"states \[2\] are observationally"):
            signals.SignalModel([a, a, [[0.3, 0.3, 0.4]] * 3])  # for every agent

    def test_within_tolerance_is_equivalent(self):
        # rows match when every entry is within EQUIV_TOL of the true row's
        a = [[0.8, 0.2], [0.2, 0.8], [0.8 + 5e-13, 0.2 - 5e-13]]
        with pytest.raises(DistDetectError, match=r"states \[2\] are observationally"):
            signals.SignalModel([a, a])
        a[2] = [0.8 + 2e-12, 0.2 - 2e-12]
        assert signals.SignalModel([a, a]).m == 3


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
        assert set(reference_model.alphabet.tolist()) == {2}
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


# Per-agent references for the stacked checks and quantities: each agent's
# own table, in agent order, with no padding.
def reference_message(tables, true):
    """The first value check a model fails, as its error message, or None."""
    for i, t in enumerate(tables):
        if not np.all(t > 0):
            return f"agent {i} table has a non-positive or NaN entry; log-bound would be infinite"
        sums = t.sum(axis=1)
        bad = np.abs(sums - 1.0) > signals.ROW_SUM_TOL
        if np.any(bad):
            return f"agent {i} rows {np.flatnonzero(bad).tolist()} sum to {sums[bad]}"
    common = set.intersection(*({k for k in range(len(t))
                                 if np.abs(t[k] - t[true]).max() <= signals.EQUIV_TOL}
                                for t in tables))
    if common != {true}:
        return (f"states {sorted(common - {true})} are observationally "
                "equivalent to the true state for every agent")
    return None


def reference_rates(tables, true):
    total = 0.0
    for t in tables:
        p = t[true]
        total = total + np.maximum((p * np.log(p / t)).sum(axis=1), 0.0)
    return total / len(tables)


@st.composite
def mixed_tables(draw):
    """Tables of 2 to 12 agents, 2 to 4 states and alphabets of 2 to 7 symbols.

    Each false state's row is copied from the true row for every agent, for
    all but one agent or for none, and a copy may be off by 5e-13 (within
    EQUIV_TOL) or 2e-12 (outside it), so both verdicts occur.
    """
    n, m = draw(st.integers(2, 12)), draw(st.integers(2, 4))
    true = draw(st.integers(0, m - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tables = []
    for _ in range(n):
        t = rng.uniform(0.05, 1.0, size=(m, draw(st.integers(2, 7))))
        tables.append(t / t.sum(axis=1, keepdims=True))
    for k in range(m):
        revealer = draw(st.integers(-1, n))  # -1: copied for all; n: copied for none
        for i, t in enumerate(tables):
            if k != true and revealer != n and i != revealer:
                t[k] = t[true]
                t[k, :2] += draw(st.sampled_from([0.0, 5e-13, 2e-12])) * np.array([1, -1])
    return tables, true


class TestStackedModel:
    @settings(max_examples=200, deadline=None)
    @given(mixed_tables())
    def test_matches_per_agent_reference(self, case):
        tables, true = case
        message = reference_message(tables, true)
        if message is not None:
            with pytest.raises(DistDetectError) as exc:
                signals.SignalModel(tables, true)
            assert str(exc.value) == message
            return
        model = signals.SignalModel(tables, true)
        assert signals.log_bound_B(model) == max(float(np.abs(np.log(t)).max()) for t in tables)
        assert np.array_equal(signals.pairwise_rates(model), reference_rates(tables, true))

    @settings(max_examples=200, deadline=None)
    @given(mixed_tables())
    def test_lik_holds_the_input_tables(self, case):
        # lik is the model's one copy of the tables: each agent's own symbols
        # hold its table bit for bit, and every padded entry is exactly 1
        tables, true = case
        if reference_message(tables, true) is not None:
            return
        model = signals.SignalModel(tables, true)
        assert model.lik.shape == (len(tables), len(tables[0]), max(t.shape[1] for t in tables))
        assert model.alphabet.tolist() == [t.shape[1] for t in tables]
        for lik, a, t in zip(model.lik, model.alphabet, tables):
            assert np.array_equal(lik[:, :a], t)
            assert (lik[:, a:] == 1.0).all()

    @settings(max_examples=200, deadline=None)
    @given(mixed_tables(), st.data())
    def test_corrupted_agents_report_the_first_fault(self, case, data):
        tables, true = case
        for _ in range(data.draw(st.integers(1, 3))):
            t = tables[data.draw(st.integers(0, len(tables) - 1))]
            k = data.draw(st.integers(0, t.shape[0] - 1))
            s = data.draw(st.integers(0, t.shape[1] - 1))
            t[k, s] = data.draw(st.sampled_from([0.0, -0.1, np.nan, 1.5 * t[k, s]]))
        message = reference_message(tables, true)
        assert message is not None and "observationally" not in message
        with pytest.raises(DistDetectError) as exc:
            signals.SignalModel(tables, true)
        assert str(exc.value) == message
