"""Finite-alphabet signal models and the information quantities they induce.

A model is one likelihood table per agent (rows = states, columns = alphabet
symbols) and the index of the true state. All entries must be strictly
positive so the uniform log-likelihood bound B is finite, and the true state
must be globally identifiable: every false state is distinguished by at least
one agent.
"""

import numpy as np

from .errors import DistDetectError

ROW_SUM_TOL = 1e-12
EQUIV_TOL = 1e-12  # per-entry tolerance for observational equivalence


class SignalModel:
    """Row k of tables[i] is l_i(.|theta_k); n, m and each alphabet size are read off them."""

    def __init__(self, tables, true_index: int = 0):
        self.tables = tuple(np.asarray(t, dtype=float) for t in tables)
        self.true_index = true_index
        validate_model(self)

    @property
    def n(self) -> int:
        return len(self.tables)

    @property
    def m(self) -> int:
        return self.tables[0].shape[0]


def validate_model(model) -> None:
    """Check the assumptions in order and raise on the first one violated: n >= 2,
    2-d tables, m >= 2, the true index, one row per state, positive entries, rows
    summing to 1 and global identifiability."""
    if model.n < 2:
        raise DistDetectError(f"need at least 2 agents, got {model.n}")
    for i, t in enumerate(model.tables):
        if t.ndim != 2:
            raise DistDetectError(
                f"agent {i} table has shape {t.shape}; it must be 2-d (states x symbols)")
    m, true = model.m, model.true_index
    if m < 2:
        raise DistDetectError(f"need at least 2 states, got m={m}")
    if not 0 <= true < m:
        raise DistDetectError(f"true_index {true} outside [0, {m})")
    for i, t in enumerate(model.tables):
        if t.shape[0] != m:
            raise DistDetectError(
                f"agent {i} table has {t.shape[0]} rows, model has {m} states"
            )
        if not np.all(t > 0):
            raise DistDetectError(
                f"agent {i} table has a non-positive or NaN entry; log-bound would be infinite"
            )
        sums = t.sum(axis=1)
        bad = np.abs(sums - 1.0) > ROW_SUM_TOL
        if np.any(bad):
            raise DistDetectError(f"agent {i} rows {np.flatnonzero(bad).tolist()} sum to {sums[bad]}")

    common = set.intersection(*(equivalent_states(model, i) for i in range(model.n)))
    if common != {true}:
        raise DistDetectError(
            f"states {sorted(common - {true})} are observationally "
            "equivalent to the true state for every agent"
        )


def log_bound_B(model) -> float:
    """Tightest uniform bound B on |log l_i(s|theta_k)| over all i, k, s."""
    return max(float(np.abs(np.log(t)).max()) for t in model.tables)


def equivalent_states(model, agent: int):
    """State indices whose likelihood row matches the true state's row for this agent."""
    t = model.tables[agent]
    truth = t[model.true_index]
    close = np.abs(t - truth).max(axis=1) <= EQUIV_TOL
    return set(np.flatnonzero(close).tolist())


def pairwise_rates(model) -> np.ndarray:
    """I(theta_1, theta_k) = (1/n) sum_i D_KL(row_true || row_k) for every state k.

    Each agent's divergence is sum_s p log(p / q) over its row, clipped at 0
    as rounding noise, and the agents are added in order; agents are stacked
    by alphabet size, so one sweep covers all agents with the same size. The
    entry at the true state is 0.
    """
    true = model.true_index
    kl = np.empty((model.n, model.m))
    for size in {t.shape[1] for t in model.tables}:
        rows = [i for i, t in enumerate(model.tables) if t.shape[1] == size]
        tab = np.stack([model.tables[i] for i in rows])  # (agents, m, size)
        p = tab[:, [true]]
        kl[rows] = np.maximum((p * np.log(p / tab)).sum(axis=2), 0.0)
    return np.cumsum(kl, axis=0)[-1] / model.n  # cumsum adds in agent order


def second_state(model):
    """The hardest false state: argmin_k I(theta_1, theta_k), ties to the smallest index.

    Returns (state index, rate). This is the state whose signals look most
    like the true state's, hence the one that controls the convergence rate.
    """
    rates = pairwise_rates(model)
    rates[model.true_index] = np.inf
    k = int(np.argmin(rates))
    return k, float(rates[k])


def sample_step(model, rng) -> np.ndarray:
    """One synchronous draw: each agent samples a symbol from its true-state row."""
    u = rng.random(model.n)
    out = np.empty(model.n, dtype=np.int64)
    for i, t in enumerate(model.tables):
        out[i] = np.searchsorted(np.cumsum(t[model.true_index]), u[i], side="right")
    return out


def padded_tables(model):
    """Sampling tables for all agents at once, padded to the largest alphabet A.

    Returns the (n, A) true-state CDFs and the (n, A, m) log-likelihood
    tables indexed [agent, symbol, state]. CDF entries from each agent's last
    symbol on are +inf, so for a uniform u the count of entries <= u is the
    symbol `sample_step` draws for u, capped at the agent's last symbol.
    """
    width = max(t.shape[1] for t in model.tables)
    cdf = np.full((model.n, width), np.inf)
    logtab = np.zeros((model.n, width, model.m))
    for i, t in enumerate(model.tables):
        cdf[i, :t.shape[1] - 1] = np.cumsum(t[model.true_index])[:-1]
        logtab[i, :t.shape[1]] = np.log(t).T
    return cdf, logtab
