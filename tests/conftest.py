import numpy as np
import pytest

from distdetect import analysis, network, signals

INFORMATIVE = [[0.8, 0.2], [0.2, 0.8]]
UNINFORMATIVE_2 = [[0.5, 0.5], [0.5, 0.5]]


# the graph constructors return (n, edges), the arguments of `network.gossip_process`
# and `network.metropolis_matrix`
def cycle_graph(n):
    return n, [(i, (i + 1) % n) for i in range(n)]


def path_graph(n):
    return n, [(i, i + 1) for i in range(n - 1)]


def complete_graph(n):
    return n, [(i, j) for i in range(n) for j in range(i + 1, n)]


def star_graph(n):
    return n, [(0, j) for j in range(1, n)]


def pair_average_matrix(n, i, j):
    """I - (1/2)(e_i - e_j)(e_i - e_j)^T: agents i and j average their state."""
    w = np.eye(n)
    w[i, i] = w[j, j] = 0.5
    w[i, j] = w[j, i] = 0.5
    return w


@pytest.fixture
def two_agent_model():
    """Agent 0 informative, agent 1 uninformative; m = 2."""
    return signals.SignalModel([INFORMATIVE, UNINFORMATIVE_2])


@pytest.fixture
def reference_model():
    """The reference scenario: n=4, m=3, binary alphabets, two informative agents."""
    uninf = [[0.5, 0.5]] * 3
    return signals.SignalModel([
        [[0.8, 0.2], [0.5, 0.5], [0.8, 0.2]],
        [[0.8, 0.2], [0.8, 0.2], [0.5, 0.5]],
        uninf,
        uninf,
    ])


@pytest.fixture
def reference_process():
    return network.gossip_process(*cycle_graph(4))


@pytest.fixture
def path3_matrix():
    return network.metropolis_matrix(*path_graph(3))


def random_mixing_matrix(rng, n):
    """A random symmetric doubly stochastic matrix (Metropolis on a random connected graph)."""
    edges = {(i, i + 1) for i in range(n - 1)}  # spanning path keeps it connected
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                edges.add((i, j))
    return network.metropolis_matrix(n, edges)


def scenario(model, process, horizon, checkpoints=(), learning_rate="unit", delta=0.1):
    """The checked `analysis.Scenario` of a model and process, with test defaults."""
    return analysis.Scenario(model=model, process=process, horizon=horizon,
                             learning_rate=learning_rate, delta=delta, checkpoints=checkpoints)


def exp_gap_sums(sc, base_seed, trials):
    """sum_{k != true} exp(phi_ik - phi_i,true) per trial, step and agent: (R, T, n).

    This is the eta = 1 bound on each agent's TV error, to Scenario `sc`'s
    horizon. The potentials come from `analysis.potential_blocks` with the
    seeds `simulate_trials` uses, so row r matches row r of its batch, and the
    gaps from `analysis._log_beliefs`, which its TV errors are read from.
    """
    out = np.empty((len(trials), sc.horizon, sc.model.n))
    for rows, t0, dec, _ in analysis.potential_blocks(sc, sc.horizon, base_seed, trials):
        gaps = analysis._log_beliefs(dec, 1.0, sc.model.true_index)[0]
        with np.errstate(over="ignore"):
            out[rows, t0:t0 + len(dec)] = sum(np.exp(g) for g in gaps).swapaxes(0, 1)
    return out


def rate_slope(tv, window):
    """Least-squares slope of ln(TV error) against t over steps t1..t2 inclusive.

    `tv` holds one agent's TV error by step, step t at index t-1. Raises
    ValueError on a window outside the steps or on a zero TV inside it.
    """
    t1, t2 = window
    if not 1 <= t1 < t2 <= len(tv):
        raise ValueError(f"bad window {window} for horizon {len(tv)}")
    tv = tv[t1 - 1:t2]
    if np.any(tv <= 0):
        raise ValueError(f"TV error reached 0 inside window {window}")
    return float(np.polyfit(np.arange(t1, t2 + 1, dtype=float), np.log(tv), 1)[0])
