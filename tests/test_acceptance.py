"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import math
import time

import numpy as np
import pytest
import yaml

from distdetect import analysis, cli, detection, network, signals

from conftest import (complete_graph, cycle_graph, exp_gap_sums, path_graph,
                      random_mixing_matrix, rate_slope, scenario, star_graph)

UNINF3 = [[0.5, 0.5]] * 3
REF_TABLES = [
    [[0.8, 0.2], [0.5, 0.5], [0.8, 0.2]],
    [[0.8, 0.2], [0.8, 0.2], [0.5, 0.5]],
    UNINF3,
    UNINF3,
]
N_SEEDS = 20
BASE_SEED = 20260823


def _passline(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


@pytest.fixture(scope="module")
def ref_model():
    return signals.SignalModel(REF_TABLES)


@pytest.fixture(scope="module")
def ref_process():
    return network.gossip_process(*cycle_graph(4))


@pytest.fixture(scope="module")
def ref_long(ref_model, ref_process):
    """Reference scenario, eta = 1, T = 5000 (criteria 5, 8, 9)."""
    return scenario(ref_model, ref_process, 5000)


@pytest.fixture(scope="module")
def ref_long_trajectories(ref_long):
    """The reference scenario's batch over 20 seeds."""
    return analysis.simulate_trials(ref_long, BASE_SEED, range(N_SEEDS))


@pytest.fixture(scope="module")
def six_agent_trajectories():
    """n=6, m=3 gossip on a 6-cycle, T=1000, 20 seeds (criteria 1, 8).

    Returns the scenario, the batch and the seconds it took.
    """
    tables = [
        [[0.8, 0.2], [0.2, 0.8], [0.8, 0.2]],
        [[0.8, 0.2], [0.8, 0.2], [0.2, 0.8]],
    ] + [UNINF3] * 4
    sc = scenario(signals.SignalModel(tables), network.gossip_process(*cycle_graph(6)), 1000)
    start = time.monotonic()
    batch = analysis.simulate_trials(sc, BASE_SEED, range(N_SEEDS))
    return sc, batch, time.monotonic() - start


def test_criterion_1_connection_identity(six_agent_trajectories):
    _, batch, elapsed = six_agent_trajectories
    *_, worst = batch
    assert worst <= 1e-8, f"potential gap {worst} exceeds 1e-8"
    assert elapsed < 10.0, f"took {elapsed:.1f}s, limit 10s"
    _passline(1, f"connection identity: max gap {worst:.2e} over {N_SEEDS} seeds, {elapsed:.1f}s")


def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(BASE_SEED)
    start = time.monotonic()
    worst = 0.0
    for instance in range(50):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(2, 5))
        base = np.linspace(0.15, 0.85, m)
        anchor = [[b, 1 - b] for b in base]  # pairwise-distinct rows
        tables = [anchor]
        for _ in range(n - 1):
            t = rng.uniform(0.1, 1.0, size=(m, 3))
            tables.append(t / t.sum(axis=1, keepdims=True))
        model = signals.SignalModel(tables)
        kind = instance % 3
        if kind == 0:
            process = network.fixed_process(random_mixing_matrix(rng, n))
        elif kind == 1:
            graph = cycle_graph(n) if n > 2 else path_graph(2)
            process = network.gossip_process(*graph)
        else:
            mats = [random_mixing_matrix(rng, n) for _ in range(3)]
            probs = rng.uniform(0.1, 1.0, 3)
            probs /= probs.sum()
            probs[-1] = 1.0 - probs[:-1].sum()
            process = network.finite_support_process(list(zip(mats, probs)))

        horizon = int(rng.integers(1, 51))
        matrices, psis = [], []
        dec = detection.initial_decentralized(n, m, eta=1.0)
        for _ in range(horizon):
            w = detection.draw_mixing(process, rng)
            sample = signals.sample_step(model, rng)
            matrices.append(w)
            psis.append(detection.log_marginal_matrix(model, sample))
            dec = detection.decentralized_step(dec, w, sample, model)
        psis = np.array(psis)
        for i in range(n):
            gap = np.abs(
                dec.phi[i] - detection.closed_form_phi(matrices, psis, i)
            ).max()
            worst = max(worst, gap)
    elapsed = time.monotonic() - start
    assert worst <= 1e-8, f"oracle gap {worst} exceeds 1e-8"
    assert elapsed < 30.0, f"took {elapsed:.1f}s, limit 30s"
    _passline(2, f"oracle equivalence: max gap {worst:.2e} over 50 instances, {elapsed:.1f}s")


def test_criterion_3_prop1_verification(ref_model, ref_process):
    start = time.monotonic()
    sc = scenario(ref_model, ref_process, 300, (300,))
    [rep] = analysis.monte_carlo_verify(sc, "prop1", R=500, base_seed=BASE_SEED)
    elapsed = time.monotonic() - start
    threshold = 0.1 + 3 * math.sqrt(0.09 / 500)
    assert rep["violation_rate"] <= threshold, (
        f"violation rate {rep['violation_rate']} exceeds {threshold:.4f}"
    )
    assert rep["verdict"] == "pass"
    assert elapsed < 120.0, f"took {elapsed:.1f}s, limit 120s"
    _passline(3, f"anytime-bound check: rate {rep['violation_rate']:.4f} <= {threshold:.4f}, {elapsed:.1f}s")


def test_criterion_4_theorem1_verification():
    tables = [
        [[0.8, 0.2], [0.2, 0.8]] if i % 2 == 0 else [[0.5, 0.5], [0.5, 0.5]]
        for i in range(8)
    ]
    model = signals.SignalModel(tables)
    process = network.fixed_process(
        network.metropolis_matrix(*cycle_graph(8))
    )
    start = time.monotonic()
    sc = scenario(model, process, 2000, (2000,), learning_rate="theorem1")
    [rep] = analysis.monte_carlo_verify(sc, "theorem1", R=300, base_seed=BASE_SEED)
    elapsed = time.monotonic() - start
    threshold = 0.1 + 3 * math.sqrt(0.09 / 300)
    assert rep["violation_rate"] <= threshold, (
        f"violation rate {rep['violation_rate']} exceeds {threshold:.4f}"
    )
    assert elapsed < 180.0, f"took {elapsed:.1f}s, limit 180s"
    _passline(4, f"cost-bound check: rate {rep['violation_rate']:.4f} <= {threshold:.4f}, "
                 f"max cost {rep['trial_stats']['max_statistic']:.3g} vs bound "
                 f"{rep['bound']['total']:.3g}, {elapsed:.1f}s")


def test_criterion_5_asymptotic_rate(ref_model, ref_long_trajectories):
    _, rate = signals.second_state(ref_model)
    slopes = np.zeros(ref_model.n)
    log_tv, *_ = ref_long_trajectories
    for tv in np.exp(log_tv):
        for i in range(ref_model.n):
            stop = min(int(np.flatnonzero(tv[:, i] > 0)[-1]) + 1, 5000)
            slopes[i] += rate_slope(tv[:, i], (2500, stop))
    slopes /= N_SEEDS
    rel = slopes / (-rate)
    assert np.all((rel >= 0.8) & (rel <= 1.2)), (
        f"seed-averaged slopes {slopes} outside +/-20% of {-rate}"
    )
    _passline(5, f"asymptotic rate: slopes/-I in [{rel.min():.3f}, {rel.max():.3f}]")


def test_criterion_6_spectral_fixtures():
    path_w = network.metropolis_matrix(*path_graph(3))
    s_path = network.sigma2(path_w)[0]
    assert s_path == pytest.approx(2 / 3, abs=1e-9)
    s_proj = network.sigma2(np.full((5, 5), 0.2))[0]
    assert s_proj == pytest.approx(0.0, abs=1e-10)
    gossip = network.gossip_process(*cycle_graph(3))
    s_gossip = network.sigma2(network.expected_matrix(gossip))[0]
    assert s_gossip == pytest.approx(0.5, abs=1e-9)
    _passline(6, f"spectral fixtures: {s_path:.12f}, {s_proj:.2e}, {s_gossip:.12f}")


def test_criterion_7_mixing_deviation_bound():
    worst_margin = np.inf
    for n in range(2, 17):
        graphs = [complete_graph(n), star_graph(n)]
        if n >= 3:
            graphs += [path_graph(n), cycle_graph(n)]
        for g in graphs:
            w = network.metropolis_matrix(*g)
            s2, rho = network.sigma2(w)
            limit = 4.0 * math.log(n) / (1.0 - s2)
            # cumulative deviation for every agent and every t = 1..1000
            worst = network.mixing_deviation_sum(w, range(1, 1001), s2, rho).max()
            assert worst <= limit, f"deviation {worst:.3f} exceeds {limit:.3f} on n={n}"
            worst_margin = min(worst_margin, limit - worst)
    _passline(7, f"mixing-deviation bound holds on all fixtures (worst margin {worst_margin:.3f})")


def test_criterion_8_tv_exp_gap_inequality(ref_long, ref_long_trajectories,
                                           six_agent_trajectories):
    six_sc, six, _ = six_agent_trajectories
    runs = [(ref_long, ref_long_trajectories), (six_sc, six)]
    for sc, batch in runs:
        tv_error = np.exp(batch[0])
        gaps = exp_gap_sums(sc, BASE_SEED, range(N_SEEDS))
        assert np.all(tv_error <= gaps + 1e-12)
    _passline(8, f"TV <= exp-gap-sum at every step of {len(runs) * N_SEEDS} trajectories")


def test_criterion_9_strong_consistency(ref_long_trajectories):
    tv_error = np.exp(ref_long_trajectories[0])
    reached = (tv_error <= 1e-6).any(axis=1)
    assert reached.all(), "an agent never reached TV <= 1e-6 within T=5000"
    _passline(9, f"strong consistency: all agents below 1e-6 in all {N_SEEDS} seeds")


def test_criterion_10_deterministic_csv(tmp_path):
    raw = {
        "signal_model": {"true_state": 0, "agents": REF_TABLES},
        "network": {
            "kind": "gossip",
            "graph": {"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [3, 0]]},
        },
        "horizon": 60,
        "learning_rate": "unit",
        "delta": 0.1,
        "checkpoints": [60],
        "trials": 3,
        "seed": BASE_SEED,
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(raw))
    assert cli.main(["simulate", str(path)]) == 0
    first = (tmp_path / "out" / "trajectories.csv").read_bytes()
    assert cli.main(["simulate", str(path)]) == 0
    second = (tmp_path / "out" / "trajectories.csv").read_bytes()
    assert first == second
    _passline(10, f"byte-identical CSV across reruns ({len(first)} bytes)")
