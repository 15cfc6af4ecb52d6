"""Finite-alphabet signal models and the information quantities they induce.

A model bundles one likelihood table per agent (rows = states, columns =
alphabet symbols). All entries must be strictly positive so the uniform
log-likelihood bound B is finite, and the true state must be globally
identifiable: every false state is distinguished by at least one agent.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadRowSum,
    DimensionMismatch,
    NotIdentifiable,
    ZeroLikelihoodEntry,
)

ROW_SUM_TOL = 1e-12
EQUIV_TOL = 1e-12  # per-entry tolerance for observational equivalence


@dataclass(frozen=True)
class StateSpace:
    m: int
    true_index: int = 0

    def __post_init__(self):
        if self.m < 2:
            raise ValueError(f"need at least 2 states, got m={self.m}")
        if not 0 <= self.true_index < self.m:
            raise ValueError(f"true_index {self.true_index} outside [0, {self.m})")


@dataclass(frozen=True, eq=False)
class AgentLikelihood:
    """m x |S_i| likelihood table for one agent; row k is l_i(.|theta_k)."""

    table: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "table", np.asarray(self.table, dtype=float))
        if self.table.ndim != 2:
            raise ValueError("likelihood table must be 2-d (states x symbols)")

    @property
    def alphabet_size(self) -> int:
        return self.table.shape[1]


@dataclass(frozen=True, eq=False)
class SignalModel:
    states: StateSpace
    agents: tuple
    # per-agent row-cumsum over the true state's row, for inverse-CDF sampling
    _true_cdfs: tuple = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "agents", tuple(self.agents))
        validate_model(self)
        k = self.states.true_index
        cdfs = tuple(np.cumsum(a.table[k]) for a in self.agents)
        object.__setattr__(self, "_true_cdfs", cdfs)

    @property
    def n(self) -> int:
        return len(self.agents)

    @property
    def m(self) -> int:
        return self.states.m


def validate_model(model) -> None:
    """Check positivity, row normalization, n >= 2 and global identifiability.

    Raises on any assumption violation.
    """
    if len(model.agents) < 2:
        raise ValueError(f"need at least 2 agents, got {len(model.agents)}")
    m = model.states.m
    for i, agent in enumerate(model.agents):
        t = agent.table
        if t.shape[0] != m:
            raise DimensionMismatch(
                f"agent {i} table has {t.shape[0]} rows, model has {m} states"
            )
        if not np.all(t > 0):
            raise ZeroLikelihoodEntry(
                f"agent {i} table has a non-positive or NaN entry; log-bound would be infinite"
            )
        sums = t.sum(axis=1)
        bad = np.abs(sums - 1.0) > ROW_SUM_TOL
        if np.any(bad):
            raise BadRowSum(f"agent {i} rows {np.flatnonzero(bad).tolist()} sum to {sums[bad]}")

    common = set.intersection(*(equivalent_states(model, i) for i in range(len(model.agents))))
    if common != {model.states.true_index}:
        raise NotIdentifiable(
            f"states {sorted(common - {model.states.true_index})} are observationally "
            "equivalent to the true state for every agent"
        )


def log_bound_B(model) -> float:
    """Tightest uniform bound B on |log l_i(s|theta_k)| over all i, k, s."""
    return max(float(np.abs(np.log(a.table)).max()) for a in model.agents)


def equivalent_states(model, agent: int):
    """State indices whose likelihood row matches the true state's row for this agent."""
    t = model.agents[agent].table
    truth = t[model.states.true_index]
    close = np.abs(t - truth).max(axis=1) <= EQUIV_TOL
    return set(np.flatnonzero(close).tolist())


def pairwise_rates(model) -> np.ndarray:
    """I(theta_1, theta_k) = (1/n) sum_i D_KL(row_true || row_k) for every state k.

    Each agent's divergence is sum_s p log(p / q) over its row, clipped at 0
    as rounding noise, and the agents are added in order; agents are stacked
    by alphabet size, so one sweep covers all agents with the same size. The
    entry at the true state is 0.
    """
    true = model.states.true_index
    kl = np.empty((model.n, model.m))
    for size in {a.alphabet_size for a in model.agents}:
        rows = [i for i, a in enumerate(model.agents) if a.alphabet_size == size]
        tab = np.stack([model.agents[i].table for i in rows])  # (agents, m, size)
        p = tab[:, [true]]
        kl[rows] = np.maximum((p * np.log(p / tab)).sum(axis=2), 0.0)
    return np.cumsum(kl, axis=0)[-1] / model.n  # cumsum adds in agent order


def second_state(model):
    """The hardest false state: argmin_k I(theta_1, theta_k), ties to the smallest index.

    Returns (state index, rate). This is the state whose signals look most
    like the true state's, hence the one that controls the convergence rate.
    """
    rates = pairwise_rates(model)
    rates[model.states.true_index] = np.inf
    k = int(np.argmin(rates))
    return k, float(rates[k])


def sample_step(model, rng) -> np.ndarray:
    """One synchronous draw: each agent samples a symbol from its true-state row."""
    u = rng.random(model.n)
    out = np.empty(model.n, dtype=np.int64)
    for i, cdf in enumerate(model._true_cdfs):
        out[i] = np.searchsorted(cdf, u[i], side="right")
    return out


def log_marginal_vector(model, agent: int, symbol: int) -> np.ndarray:
    """(log l_agent(symbol | theta_k))_k; every entry lies in [-B, B]."""
    return np.log(model.agents[agent].table[:, symbol])


def padded_tables(model):
    """Sampling tables for all agents at once, padded to the largest alphabet A.

    Returns the (n, A) true-state CDFs and the (n, A, m) log-likelihood
    tables indexed [agent, symbol, state]. CDF entries from each agent's last
    symbol on are +inf, so for a uniform u the count of entries <= u is the
    symbol `sample_step` draws for u, capped at the agent's last symbol.
    """
    width = max(a.alphabet_size for a in model.agents)
    cdf = np.full((model.n, width), np.inf)
    logtab = np.zeros((model.n, width, model.m))
    for i, (agent, c) in enumerate(zip(model.agents, model._true_cdfs)):
        cdf[i, :agent.alphabet_size - 1] = c[:-1]
        logtab[i, :agent.alphabet_size] = np.log(agent.table).T
    return cdf, logtab
