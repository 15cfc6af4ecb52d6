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
    """Row k of tables[i] is l_i(.|theta_k); n, m and each alphabet size are read off them.

    They are held only as `lik`, one (n, m, A) array, A the largest alphabet:
    agent i's is lik[i, :, :alphabet[i]], and its later symbols are padding of
    probability 1 under every state, so never drawn, of log 0 and telling no state apart.
    """

    def __init__(self, tables, true_index: int = 0):
        tables = [np.asarray(t, dtype=float) for t in tables]
        self.true_index = true_index
        self.alphabet = _check_shapes(tables, true_index)
        self.lik = np.ones((len(tables), tables[0].shape[0], self.alphabet.max()))
        self.n, self.m = self.lik.shape[:2]
        for lik, t in zip(self.lik, tables):
            lik[:, :t.shape[1]] = t
        validate_model(self)


def _check_shapes(tables, true: int) -> np.ndarray:
    """Raise on the first shape violated: n >= 2, 2-d tables, m >= 2, the true
    index and one row per state. Returns each agent's alphabet size."""
    if len(tables) < 2:
        raise DistDetectError(f"need at least 2 agents, got {len(tables)}")
    for i, t in enumerate(tables):
        if t.ndim != 2:
            raise DistDetectError(
                f"agent {i} table has shape {t.shape}; it must be 2-d (states x symbols)")
    m = tables[0].shape[0]
    if m < 2:
        raise DistDetectError(f"need at least 2 states, got m={m}")
    if not 0 <= true < m:
        raise DistDetectError(f"true_index {true} outside [0, {m})")
    for i, t in enumerate(tables):
        if t.shape[0] != m:
            raise DistDetectError(f"agent {i} table has {t.shape[0]} rows, model has {m} states")
    return np.array([t.shape[1] for t in tables])


def validate_model(model) -> None:
    """Check the values of a model on `lik` and raise on the first violation: the
    first agent with a non-positive entry or a row not summing to 1, in that
    order, then global identifiability."""
    lik, true = model.lik, model.true_index
    positive = (lik > 0).all(axis=(1, 2))
    real = np.arange(lik.shape[2]) < model.alphabet[:, None, None]
    with np.errstate(over="ignore", invalid="ignore"):  # reported below as inf or nan
        sums = np.where(real, lik, 0.0).sum(axis=2)
    bad = np.abs(sums - 1.0) > ROW_SUM_TOL
    failed = ~positive | bad.any(axis=1)
    if failed.any():
        i = int(np.argmax(failed))
        if not positive[i]:
            raise DistDetectError(
                f"agent {i} table has a non-positive or NaN entry; log-bound would be infinite")
        raise DistDetectError(
            f"agent {i} rows {np.flatnonzero(bad[i]).tolist()} sum to {sums[i, bad[i]]}")

    equivalent = (np.abs(lik - lik[:, [true]]).max(axis=2) <= EQUIV_TOL).all(axis=0)
    equivalent[true] = False
    if equivalent.any():
        raise DistDetectError(f"states {np.flatnonzero(equivalent).tolist()} are observationally "
                              "equivalent to the true state for every agent")


def log_bound_B(model) -> float:
    """Tightest uniform bound B on |log l_i(s|theta_k)| over all i, k, s."""
    return float(np.abs(np.log(model.lik)).max())


def pairwise_rates(model) -> np.ndarray:
    """I(theta_1, theta_k) = (1/n) sum_i D_KL(row_true || row_k) for every state k.

    Each agent's divergence is sum_s p log(p / q) over its row, clipped at 0
    as rounding noise, and the agents are added in order. A padded symbol
    adds exactly 0. The entry at the true state is 0.
    """
    p = model.lik[:, [model.true_index]]
    kl = np.maximum((p * np.log(p / model.lik)).sum(axis=2), 0.0)
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
    # the last symbol takes every u past the others: a CDF may end short of 1 by rounding
    return np.array([np.searchsorted(np.cumsum(lik[model.true_index, :a - 1]), x, side="right")
                     for lik, a, x in zip(model.lik, model.alphabet, u)])
