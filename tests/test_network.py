import math
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from distdetect import detection, network
from distdetect.errors import DistDetectError

from conftest import complete_graph, cycle_graph, pair_average_matrix, path_graph, star_graph


def draws(process, count, seed):
    """`count` i.i.d. W(t): one `advance` step of `count` trials on phi = I and psi = 0.

    Trial r's potentials after the step are W(t) I, so row r of the result is
    the matrix that trial r's uniform picked.
    """
    n = process.n
    u = np.random.default_rng(seed).random((1, count, process.uniforms))
    phi = np.broadcast_to(np.eye(n), (count, n, n))
    return process.advance(phi, u, np.zeros((1, count, n, n)))[0]


def given_uniforms(u):
    """A stand-in generator whose `random(k)` returns the first k entries of u."""
    return SimpleNamespace(random=lambda k: np.asarray(u, dtype=float)[:k])


class TestMetropolis:
    def test_path3_hand_values(self, path3_matrix):
        expected = np.array([
            [2 / 3, 1 / 3, 0.0],
            [1 / 3, 1 / 3, 1 / 3],
            [0.0, 1 / 3, 2 / 3],
        ])
        np.testing.assert_allclose(path3_matrix, expected, atol=1e-15)

    def test_complete2(self):
        w = network.metropolis_matrix(*complete_graph(2))
        np.testing.assert_allclose(w, 0.5, atol=1e-15)

    def test_edgeless_is_identity(self):
        w = network.metropolis_matrix(3, [])
        np.testing.assert_array_equal(w, np.eye(3))
        with pytest.raises(DistDetectError, match="A3"):
            network.sigma2(w)

    def test_positive_diagonal(self):
        for g in (cycle_graph(5), star_graph(6), path_graph(4)):
            assert np.all(np.diag(network.metropolis_matrix(*g)) > 0)


class TestGossip:
    def test_two_agents_deterministic(self):
        for w in draws(network.gossip_process(*path_graph(2)), 10, seed=3):
            np.testing.assert_allclose(w, 0.5)

    def test_draws_are_valid_matrices(self):
        for w in draws(network.gossip_process(*cycle_graph(5)), 200, seed=4):
            network.validate_mixing(w)

    def test_isolated_agent_rejected(self):
        with pytest.raises(DistDetectError, match="vertex 2 has no neighbors"):
            network.gossip_process(3, [(0, 1)])

    def test_triangle_pair_frequencies(self):
        # on a 3-cycle each unordered pair activates with probability 1/3
        p = network.gossip_process(*cycle_graph(3))
        n_draws = 100_000
        w = draws(p, n_draws, seed=5)
        assert np.all(np.count_nonzero(np.triu(w, 1), axis=(1, 2)) == 1)  # one pair each
        sigma = math.sqrt((1 / 3) * (2 / 3) / n_draws)
        for i, j in [(0, 1), (0, 2), (1, 2)]:
            assert np.mean(w[:, i, j] > 0) == pytest.approx(1 / 3, abs=3 * sigma)


def _degrees(n, edges):
    return [sum(1 for e in edges if i in e) for i in range(n)]


def _gossip_closed_form(n, edges):
    """E[W] of gossip written out edge by edge: a uniform agent averages with a
    uniform neighbour, so edge (i, j) fires with probability (1/n)(1/d_i + 1/d_j)."""
    w = np.eye(n)
    deg = _degrees(n, edges)
    for i, j in edges:
        q = (1.0 / n) * (1.0 / deg[i]) + (1.0 / n) * (1.0 / deg[j])
        w[i, i] -= q / 2
        w[j, j] -= q / 2
        w[i, j] += q / 2
        w[j, i] += q / 2
    return w


def _metropolis_closed_form(n, edges):
    """Metropolis weights written out edge by edge, then each diagonal entry
    takes what its row's off-diagonal weights leave of 1."""
    w = np.zeros((n, n))
    deg = _degrees(n, edges)
    for i, j in edges:
        w[i, j] = w[j, i] = 1.0 / (1.0 + max(deg[i], deg[j]))
    for i in range(n):
        w[i, i] = 1.0 - w[i].sum()
    return w


KITE = 5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)]
CLOSED_FORM_GRAPHS = [path_graph(2), cycle_graph(3), star_graph(4), star_graph(9), KITE,
                      complete_graph(6), cycle_graph(256)]


class TestAtoms:
    def test_gossip_atom_probabilities_on_irregular_graph(self):
        for n, edges in (star_graph(6), KITE):
            p = network.gossip_process(n, edges)
            deg = _degrees(n, edges)
            assert p.atoms.tolist() == sorted(list(e) for e in edges)
            for (i, j), q in zip(p.atoms, p.probs):
                assert q == pytest.approx((1 / n) * (1 / deg[i] + 1 / deg[j]), abs=1e-15)
            assert p.probs.sum() == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("g", CLOSED_FORM_GRAPHS, ids=lambda g: f"n{g[0]}e{len(g[1])}")
    def test_gossip_expected_matrix_matches_closed_form(self, g):
        w = network.expected_matrix(network.gossip_process(*g))
        assert np.abs(w - _gossip_closed_form(*g)).max() <= 1e-15

    @pytest.mark.parametrize("g", CLOSED_FORM_GRAPHS + [cycle_graph(8)],
                             ids=lambda g: f"n{g[0]}e{len(g[1])}")
    def test_metropolis_matrix_equals_closed_form(self, g):
        assert np.array_equal(network.metropolis_matrix(*g), _metropolis_closed_form(*g))

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_metropolis_matrix_equals_closed_form_on_random_graphs(self, data):
        n = data.draw(st.integers(2, 40))
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda e: e[0] != e[1])
        edges = data.draw(st.lists(pairs, max_size=3 * n))  # repeats and both orientations
        w = network.metropolis_matrix(n, edges)
        distinct = {tuple(sorted(e)) for e in edges}
        assert np.array_equal(w, _metropolis_closed_form(n, distinct))

    def test_one_atom_draw_spends_no_uniform(self, path3_matrix):
        for p in (network.fixed_process(path3_matrix),
                  network.finite_support_process([(path3_matrix, 1.0)]),
                  network.gossip_process(*path_graph(2))):
            rng = np.random.default_rng(1)
            before = rng.bit_generator.state
            detection.draw_mixing(p, rng)
            assert p.uniforms == 0
            assert rng.bit_generator.state == before

    def test_many_atoms_draw_spends_one_uniform(self, path3_matrix):
        for p in (network.gossip_process(*cycle_graph(4)),
                  network.finite_support_process([(path3_matrix, 0.5), (np.eye(3), 0.5)])):
            rng, twin = np.random.default_rng(2), np.random.default_rng(2)
            detection.draw_mixing(p, rng)
            twin.random()
            assert p.uniforms == 1
            assert rng.bit_generator.state == twin.bit_generator.state

    def test_advance_picks_atom_by_inverse_cdf(self):
        kite = network.gossip_process(*KITE)  # atoms (0,1) (0,2) (0,3) (0,4) (1,2)
        cdf = np.cumsum(kite.probs)
        # ten atoms of probability 0.1, whose running sum ends at 1 - 2^-53: the
        # largest uniform below 1 is past it and picks the last atom, (3, 4)
        complete = network.gossip_process(*complete_graph(5))
        assert complete.probs.tolist() == [0.1] * 10
        assert np.cumsum(complete.probs)[-1] == 1 - 2**-53
        for p, u, pair in ((kite, 0.0, (0, 1)), (kite, cdf[0], (0, 2)),
                           (kite, cdf[3] - 1e-12, (0, 4)), (kite, np.nextafter(1.0, 0.0), (1, 2)),
                           (complete, 1 - 2**-53, (3, 4))):
            want = pair_average_matrix(5, *pair)
            psi = np.zeros((1, 1, 5, 5))
            got = p.advance(np.eye(5)[None], np.array([[[u]]]), psi)
            assert np.array_equal(got[0, 0], want)
            assert np.array_equal(detection.draw_mixing(p, given_uniforms([u])), want)

    @pytest.mark.parametrize("process", [
        network.gossip_process(*KITE),
        network.gossip_process(*path_graph(2)),  # one edge: no uniform spent
        network.fixed_process(network.metropolis_matrix(*KITE)),
        network.finite_support_process([
            (network.metropolis_matrix(*KITE), 0.2),
            (pair_average_matrix(5, 1, 3), 0.3),
            (network.metropolis_matrix(*cycle_graph(5)), 0.5),
        ]),
    ], ids=["gossip", "single-edge", "fixed", "finite-support"])
    def test_advance_matches_per_step_replay(self, process):
        # a block of 70 steps for 3 trials, against W(t) x + psi[t] one trial
        # and one step at a time, W(t) drawn by the oracle from the same uniforms
        rng = np.random.default_rng(5)
        steps, R, n, m = 70, 3, process.n, 2
        phi = rng.normal(size=(R, n, m))
        u = rng.random((steps, R, process.uniforms))
        psi = rng.normal(size=(steps, R, n, m))
        phi0 = phi.copy()
        got = process.advance(phi, u, psi)
        assert np.array_equal(phi, phi0)
        want, x = np.empty_like(psi), phi.copy()
        for s in range(steps):
            for r in range(R):
                w = detection.draw_mixing(process, given_uniforms(u[s, r]))
                x[r] = w @ x[r] + psi[s, r]
            want[s] = x
        assert np.array_equal(got, want)


class TestExpectedMatrix:
    def test_fixed_returns_itself(self, path3_matrix):
        p = network.fixed_process(path3_matrix)
        np.testing.assert_array_equal(network.expected_matrix(p), path3_matrix)

    def test_gossip_triangle_closed_form(self):
        p = network.gossip_process(*cycle_graph(3))
        expected = np.full((3, 3), 1 / 6) + np.eye(3) * 0.5
        np.testing.assert_allclose(network.expected_matrix(p), expected, atol=1e-15)

    def test_gossip_two_agents(self):
        p = network.gossip_process(*path_graph(2))
        np.testing.assert_allclose(network.expected_matrix(p), 0.5, atol=1e-15)

    def test_gossip_matches_empirical_mean(self):
        p = network.gossip_process(*star_graph(4))  # irregular degrees
        n_draws = 100_000
        emp = draws(p, n_draws, seed=6).mean(axis=0)
        # entrywise 3-sigma: each entry is an average of bounded (0..1) terms
        np.testing.assert_allclose(emp, network.expected_matrix(p), atol=3 * 0.5 / math.sqrt(n_draws) * 3)

    def test_finite_support_weighted_sum(self, path3_matrix):
        other = np.full((3, 3), 1 / 3)
        p = network.finite_support_process([(path3_matrix, 0.25), (other, 0.75)])
        np.testing.assert_allclose(
            network.expected_matrix(p), 0.25 * path3_matrix + 0.75 * other
        )

    def test_finite_support_mixes_supports_for_connectivity(self):
        # two disconnected pair-averages whose union connects 4 agents
        w1 = pair_average_matrix(4, 0, 1)
        w2 = pair_average_matrix(4, 2, 3)
        w3 = pair_average_matrix(4, 1, 2)
        p = network.finite_support_process([(w1, 0.4), (w2, 0.4), (w3, 0.2)])
        assert network.sigma2(network.expected_matrix(p))[0] < 1


class TestSigma2:
    def test_uniform_projector_is_zero(self):
        assert network.sigma2(np.full((5, 5), 0.2))[0] == pytest.approx(0.0, abs=1e-10)

    def test_identity_is_one(self):
        # C = I - J/n has the eigenvalue 1 with multiplicity n - 1, so the
        # second singular value of I is 1 and sigma2 refuses it as A3 violated
        top, unit, _ = network._centred_spectrum(np.eye(4))
        assert top == pytest.approx(1.0, abs=1e-10)
        assert unit
        with pytest.raises(DistDetectError, match="A3"):
            network.sigma2(np.eye(4))

    def test_path3_metropolis(self, path3_matrix):
        # eigenvalues are {1, 2/3, 0}
        assert network.sigma2(path3_matrix)[0] == pytest.approx(2 / 3, abs=1e-9)

    def test_matches_svd_on_random_matrices(self):
        from conftest import random_mixing_matrix

        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            w = random_mixing_matrix(rng, n)
            ref = np.linalg.svd(w, compute_uv=False)[1]
            assert network.sigma2(w)[0] == pytest.approx(ref, abs=1e-9)

    @pytest.mark.parametrize("n", [16, 256])
    def test_gossip_ring_closed_form(self, n):
        # E[W] = I - L/(2n) on the n-ring, so sigma2 = 1 - (1 - cos(2 pi/n))/n;
        # the gap is written as 2 sin^2(pi/n)/n to avoid cancellation
        w = network.expected_matrix(network.gossip_process(*cycle_graph(n)))
        gap = 2.0 * math.sin(math.pi / n) ** 2 / n
        assert 1.0 - network.sigma2(w)[0] == pytest.approx(gap, rel=1e-9)


def lazy_pair(eps):
    """[[1-eps, eps], [eps, 1-eps]]: C = W - J/2 has eigenvalues 0 and 1 - 2 eps."""
    return np.array([[1 - eps, eps], [eps, 1 - eps]])


def near_swap(eps):
    """[[eps, 1-eps], [1-eps, eps]]: C = W - J/2 has eigenvalues 0 and 2 eps - 1."""
    return np.array([[eps, 1 - eps], [1 - eps, eps]])


class TestConnectivity:
    # A3 is read off the spectrum: W is connected iff no eigenvalue of
    # C = W - J/n lies within MATRIX_TOL = 1e-12 of 1
    def test_identity_disconnected(self):
        with pytest.raises(DistDetectError, match="A3"):
            network.sigma2(np.eye(3))

    def test_gossip_connected_base(self):
        w = network.expected_matrix(network.gossip_process(*cycle_graph(6)))
        assert 0 < network.sigma2(w)[0] < 1

    def test_connected_implies_subunit_sigma2(self):
        for g in (cycle_graph(5), star_graph(7)):
            assert network.sigma2(network.expected_matrix(network.gossip_process(*g)))[0] < 1

    def test_disjoint_pairs_disconnected(self):
        w = 0.5 * (pair_average_matrix(4, 0, 1) + pair_average_matrix(4, 2, 3))
        with pytest.raises(DistDetectError, match="A3"):
            network.sigma2(w)

    def test_lazy_pair_refused_within_tolerance(self):
        # a gap of 4e-13 is below the tolerance
        with pytest.raises(DistDetectError, match="A3"):
            network.sigma2(lazy_pair(2e-13))

    @pytest.mark.parametrize("eps", [8e-13, 5e-12])
    def test_lazy_pair_accepted_beyond_tolerance(self, eps):
        # the gap 2 eps decides, not whether the entries exceed 1e-12
        assert network.sigma2(lazy_pair(eps))[0] == pytest.approx(1 - 2 * eps, abs=1e-15)

    @pytest.mark.parametrize("eps, s2", [(2e-13, 1.0), (8e-13, 1 - 1.6e-12), (5e-12, 1 - 1e-11)])
    def test_near_swap_connected(self, eps, s2):
        # an eigenvalue near -1 leaves 1 simple: connected, however small eps
        # is; within the tolerance of -1 it counts as -1
        assert network.sigma2(near_swap(eps))[0] == pytest.approx(s2, abs=1e-15)

    def test_near_swap_read_as_periodic_by_both_readers(self):
        # within the tolerance of -1, sigma2 and mixing_deviation_sum agree the
        # network is periodic: sigma2 is exactly 1 and the deviation sum of a
        # huge t is finished in closed form at once
        w = near_swap(2e-13)
        assert network.sigma2(w)[0] == 1.0
        start = time.perf_counter()
        got = deviation_sum(w, [10**18])
        assert time.perf_counter() - start < 1.0
        assert got.shape == (1, 2) and np.isfinite(got).all()


def deviation_sum(w, t_values):
    """`network.mixing_deviation_sum` of w, given the spectrum `network.sigma2` reads."""
    return network.mixing_deviation_sum(w, t_values, *network.sigma2(w))


def row_deviation_oracle(w, i, t):
    """sum_{tau=1}^{t} sum_j |[W^{t-tau}]_ij - 1/n| for one agent, by repeated row products."""
    n = w.shape[0]
    row = np.zeros(n)
    row[i] = 1.0
    total = 0.0
    for _ in range(t):  # powers 0 .. t-1
        total += float(np.abs(row - 1.0 / n).sum())
        row = row @ w
    return total


def plain_deviation_sum(w, t):
    """The per-agent sums of |W^s - J/n| over s < t, one power of C = W - J/n per step."""
    n = w.shape[0]
    c = w - 1.0 / n
    power = np.eye(n)
    total = np.abs(power - 1.0 / n).sum(axis=1)
    for _ in range(t - 1):
        power = power @ c
        total += np.abs(power).sum(axis=1)
    return total


@st.composite
def deviation_cases(draw):
    """E[W] of a random connected graph, a t list (unsorted, with a repeat), two agents."""
    n = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    edges = {(i, i + 1) for i in range(n - 1)}  # a spanning path keeps it connected
    edges |= {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.15}
    if draw(st.booleans()):
        w = network.metropolis_matrix(n, edges)
    else:
        w = network.expected_matrix(network.gossip_process(n, edges))
    ts = draw(st.lists(st.integers(1, 3000), min_size=1, max_size=3))
    ts = draw(st.permutations(ts + [draw(st.sampled_from(ts))]))
    agents = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2, unique=True))
    return w, ts, agents


class TestMixingDeviation:
    def test_uniform_projector(self):
        w = np.full((4, 4), 0.25)
        # only the power-zero term survives: sum_j |I_ij - 1/n| = 2(n-1)/n
        assert deviation_sum(w, [1, 2, 10]) == pytest.approx(1.5)

    def test_t_equals_one(self, path3_matrix):
        assert deviation_sum(path3_matrix, [1])[0, 1] == pytest.approx(4 / 3)

    def test_nondecreasing_in_t(self, path3_matrix):
        vals = deviation_sum(path3_matrix, range(1, 30))[:, 0]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_t_zero_rejected(self, path3_matrix):
        with pytest.raises(DistDetectError, match=r"t must lie in \[1, \d+\], got 0"):
            deviation_sum(path3_matrix, [3, 0])

    def test_empty_t_list(self, path3_matrix):
        assert deviation_sum(path3_matrix, []).shape == (0, 3)

    def test_vertex_transitive_agents_agree_past_convergence(self):
        # every agent of a cycle sees the same deviations, so all sums agree
        # to the last ulp, however far past convergence t is
        w = network.metropolis_matrix(*cycle_graph(8))
        got = deviation_sum(w, [10**3, 10**5])
        assert np.ptp(got, axis=1).max() <= np.spacing(got.max())

    def test_largest_t_returns_converged_sums(self):
        w = network.metropolis_matrix(*cycle_graph(8))
        got = deviation_sum(w, [network.T_MAX, 10**4])
        assert np.array_equal(got[0], got[1])

    def test_periodic_network_never_converges(self):
        # the 2-agent swap has ||W - J/n||_2 = 1: each power adds 1 to each sum
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert deviation_sum(swap, [1000]).tolist() == [[1000.0, 1000.0]]

    def test_periodic_network_sums_in_closed_form(self):
        # once the part of C^s off the eigenvalues +-1 is below the sums' half
        # ulp, the powers alternate, so the largest t returns
        # at once: the swap's sums are t, and the 4-cycle with weight 1/2 on
        # each edge (eigenvalues 1, 0, 0, -1) adds 1.5 for power 0, then 1
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        ts = [network.T_MAX, 1, 2, 3, 4, 5, 1000]
        start = time.perf_counter()
        got = deviation_sum(swap, ts)
        assert time.perf_counter() - start < 1.0
        assert got.tolist() == [[float(t)] * 2 for t in ts]
        half = 0.5 * np.array([[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]])
        got = deviation_sum(half, ts)
        assert got.tolist() == [[1.5 + (t - 1)] * 4 for t in ts]

    def test_periodic_cycle_matches_plain_summation(self):
        # the zero-diagonal 32-cycle has eigenvalue -1 and powers that never
        # repeat exactly; its sums are finished in closed form
        n = 32
        w = 0.5 * (np.roll(np.eye(n), 1, axis=1) + np.roll(np.eye(n), -1, axis=1))
        assert deviation_sum(w, [5000])[0] == pytest.approx(
            plain_deviation_sum(w, 5000), rel=1e-12)

    @pytest.mark.parametrize("w", [
        network.metropolis_matrix(*cycle_graph(8)),
        network.expected_matrix(network.gossip_process(*cycle_graph(4))),
    ], ids=["metropolis-8-cycle", "gossip-4-cycle"])
    def test_shipped_networks_match_power_loop_exactly(self, w):
        # the loop stops only where every later term is below half an ulp
        assert np.array_equal(deviation_sum(w, [20_000])[0],
                              plain_deviation_sum(w, 20_000))

    @settings(max_examples=25, deadline=None)
    @given(deviation_cases())
    def test_matches_row_oracle(self, case):
        w, ts, agents = case
        got = deviation_sum(w, ts)
        assert got.shape == (len(ts), w.shape[0])
        for r, t in enumerate(ts):
            for i in agents:
                assert got[r, i] == pytest.approx(row_deviation_oracle(w, i, t), rel=1e-9)


def test_product_of_draws_stays_doubly_stochastic():
    # 1000 steps of one trial from phi = I: the last potentials are W(1000) ... W(1)
    p = network.gossip_process(*cycle_graph(6))
    u = np.random.default_rng(10).random((1000, 1, p.uniforms))
    prod = p.advance(np.eye(6)[None], u, np.zeros((1000, 1, 6, 6)))[-1, 0]
    assert np.abs(prod.sum(axis=0) - 1).max() <= 1e-9
    assert np.abs(prod.sum(axis=1) - 1).max() <= 1e-9


def test_ones_is_stationary_for_expected_matrices():
    for p in (
        network.gossip_process(*star_graph(5)),
        network.fixed_process(network.metropolis_matrix(*cycle_graph(4))),
    ):
        w = network.expected_matrix(p)
        np.testing.assert_allclose(np.ones(w.shape[0]) @ w, 1.0, atol=1e-12)
