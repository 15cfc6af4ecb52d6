"""Centralized and decentralized belief-update engines.

Both engines accumulate log-likelihood potentials and materialize beliefs on
demand through the overflow-safe exponential-weights normalization. The
decentralized engine diffuses potentials through a mixing matrix each round;
averaging its potentials over agents reproduces the centralized potential
exactly when both are driven by the same signal stream.
"""

from dataclasses import dataclass, replace

import numpy as np

# re-exported: perfbench's theorem1 check reads the learning rate from the oracle
from .analysis import theorem1_learning_rate  # noqa: F401
from .errors import DistDetectError
from .prob import gibbs_belief


@dataclass(frozen=True, eq=False)
class CentralizedState:
    phi: np.ndarray  # length m
    t: int
    eta: float


@dataclass(frozen=True, eq=False)
class DecentralizedState:
    phi: np.ndarray  # n x m, row i = agent i's potential
    t: int
    eta: float


def initial_centralized(m: int, eta: float) -> CentralizedState:
    return CentralizedState(phi=np.zeros(m), t=0, eta=eta)


def initial_decentralized(n: int, m: int, eta: float) -> DecentralizedState:
    return DecentralizedState(phi=np.zeros((n, m)), t=0, eta=eta)


def log_marginal_matrix(model, sample) -> np.ndarray:
    """n x m matrix whose row i is (log l_i(s_i | theta_k))_k for agent i's symbol s_i."""
    return np.stack([np.log(lik[:, :a][:, int(s)])
                     for lik, a, s in zip(model.lik, model.alphabet, sample)])


def draw_mixing(process, rng) -> np.ndarray:
    """W(t) for one step of the process, spending `process.uniforms` uniforms of rng.

    The uniform picks the atom by inverse CDF; pair atom (i, j) is written
    out as I - (1/2)(e_i - e_j)(e_i - e_j)^T.
    """
    u = rng.random(process.uniforms)
    a = 0
    if process.uniforms:  # the CDF may end a rounding error short of 1
        a = min(np.searchsorted(np.cumsum(process.probs), u[0], side="right"),
                len(process.probs) - 1)
    if process.atoms.ndim == 3:
        return process.atoms[a]
    d = np.zeros(process.n)
    d[process.atoms[a]] = 1.0, -1.0
    return np.eye(process.n) - 0.5 * np.outer(d, d)


def centralized_step(state: CentralizedState, sample, model) -> CentralizedState:
    """phi <- phi + (1/n) sum_i psi_i; the fusion-center accumulation."""
    psi = log_marginal_matrix(model, sample).mean(axis=0)
    return replace(state, phi=state.phi + psi, t=state.t + 1)


def decentralized_step(state: DecentralizedState, w, sample, model) -> DecentralizedState:
    """phi <- W phi + Psi: neighbor-averaged potentials plus fresh log-marginals."""
    w = np.asarray(w, dtype=float)
    if w.shape != (state.phi.shape[0], state.phi.shape[0]):
        raise DistDetectError(
            f"mixing matrix shape {w.shape} does not match {state.phi.shape[0]} agents"
        )
    if len(sample) != state.phi.shape[0] or model.n != state.phi.shape[0]:
        raise DistDetectError("sample / model size does not match engine state")
    psi = log_marginal_matrix(model, sample)
    return replace(state, phi=w @ state.phi + psi, t=state.t + 1)


def centralized_belief(state: CentralizedState) -> np.ndarray:
    return gibbs_belief(state.phi, state.eta)


def beliefs(state: DecentralizedState):
    """Per-agent belief vectors from the current potentials."""
    return [gibbs_belief(row, state.eta) for row in state.phi]


def closed_form_phi(matrices, psis, i: int) -> np.ndarray:
    """Direct evaluation of the decentralized potential after t rounds.

    phi_{i,t} = sum_{tau=1}^{t} sum_j [W(t) W(t-1) ... W(tau+1)]_{ij} psi_{j,tau},
    with the empty product (tau = t) taken as the identity. Independent of the
    recursive engine; used as its oracle.
    """
    psis = np.asarray(psis, dtype=float)
    if psis.ndim != 3:
        raise DistDetectError("psis must be a t x n x m tensor")
    t, n, m = psis.shape
    if len(matrices) != t:
        raise DistDetectError(f"{len(matrices)} matrices for {t} rounds")
    if not 0 <= i < n:
        raise DistDetectError(f"agent index {i} outside [0, {n})")
    row = np.zeros(n)
    row[i] = 1.0
    phi = np.zeros(m)
    for tau in range(t, 0, -1):
        phi += row @ psis[tau - 1]
        row = row @ np.asarray(matrices[tau - 1], dtype=float)
    return phi
