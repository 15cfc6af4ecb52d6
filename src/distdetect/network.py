"""Doubly stochastic symmetric mixing matrices and random network processes.

Every process is an i.i.d. distribution over finitely many mixing atoms: a
fixed matrix is one atom, gossip (random pairwise averaging on a base graph)
has one pair-average atom per edge, and a finite-support process lists its
matrices. Spectral quantities are computed on the expected matrix.
"""

import math
import operator

import numpy as np

from .errors import DistDetectError

MATRIX_TOL = 1e-12
T_MAX = 2**63 - 1  # the largest step t, which int64 step counts can hold
# products x max(n, SPECTRAL_FLOOR_N)^3 per mixing_deviation_sum call: ~15 min at n = 256
# (0.83 ms a product on a Xeon core); at n = 2 one costs 5-7 us, the n^3 price of n = 52
SPECTRAL_WORK_CAP = 2**44
SPECTRAL_FLOOR_N = 64


def validate_mixing(entries) -> np.ndarray:
    """Check nonnegativity, symmetry and unit row sums where a matrix enters; return it."""
    w = np.asarray(entries, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise DistDetectError(f"mixing matrix must be square, got shape {w.shape}")
    if w.shape[0] < 2:
        raise DistDetectError("mixing matrix needs n >= 2")
    if not np.isfinite(w).all():
        raise DistDetectError("mixing matrix has non-finite entries")
    if w.min() < -MATRIX_TOL:
        raise DistDetectError("mixing matrix has negative entries")
    if np.abs(w - w.T).max() > MATRIX_TOL:
        raise DistDetectError("mixing matrix is not symmetric")
    if np.abs(w.sum(axis=1) - 1.0).max() > MATRIX_TOL:
        raise DistDetectError("mixing matrix rows do not sum to 1")
    return w


def _edge_pairs(n: int, edges):
    """The distinct undirected edges as a sorted (E, 2) array of i < j pairs, and the degrees."""
    norm = set()
    for i, j in edges:
        i, j = operator.index(i), operator.index(j)
        if i == j:
            raise DistDetectError(f"self-loop on vertex {i}")
        if not (0 <= i < n and 0 <= j < n):
            raise DistDetectError(f"edge ({i},{j}) outside vertex range [0,{n})")
        norm.add((min(i, j), max(i, j)))
    pairs = np.array(sorted(norm), dtype=np.intp).reshape(-1, 2)
    return pairs, np.bincount(pairs.ravel(), minlength=n)


class NetworkProcess:
    """I.i.d. draws W(t) from a distribution over K mixing atoms.

    `atoms` is either a (K, n, n) stack of matrices or a sorted (K, 2) array
    of agent pairs, each standing for the matrix that averages that pair;
    `probs` holds the K probabilities. A step spends `uniforms` uniforms:
    none when K = 1, else one, which picks the atom by inverse CDF. Use the
    factory functions below.
    """

    def __init__(self, n: int, probs: np.ndarray, atoms: np.ndarray):
        self.n = n
        self.probs = probs
        self.atoms = atoms
        # +inf at the end, as the engine's signal CDFs: the last atom takes every u past the rest
        self._cdf = np.append(np.cumsum(probs[:-1]), np.inf)

    @property
    def uniforms(self) -> int:
        return int(len(self.probs) > 1)

    def _pick(self, u):
        """Atom index for each row of the (..., uniforms) array u."""
        if len(self.probs) == 1:
            return 0
        return np.searchsorted(self._cdf, u[..., 0], side="right")

    def advance(self, phi, u, psi):
        """Return out with out[s] = W(t0+s) out[s-1] + psi[s], starting from out[-1] = phi.

        A block of steps: psi is (steps, R, n, m), u (steps, R, uniforms) and
        phi (R, n, m), left unchanged. Atoms are picked once per block; pair
        atoms are averaged on a copy of phi, without an n x n matrix.
        """
        steps, R, n, m = psi.shape
        out = np.empty_like(psi)
        a = np.broadcast_to(self._pick(u), (steps, R))
        if self.atoms.ndim == 3:
            fixed = self.atoms[0] if len(self.probs) == 1 else None
            for s in range(steps):
                w = self.atoms[a[s]] if fixed is None else fixed
                np.matmul(w, out[s - 1] if s else phi, out=out[s])
                out[s] += psi[s]
            return out
        # per step, a (2, R) index of rows r*n + i and r*n + j of the (R*n, m) view
        pairs = np.moveaxis(self.atoms[a], -1, 1) + np.arange(R) * n
        x = phi.reshape(R * n, m).copy()
        x3 = x.reshape(R, n, m)  # the same memory
        for s, rows in enumerate(pairs):
            half_i, half_j = 0.5 * x[rows]
            x[rows] = half_i + half_j  # both agents of a pair take 0.5 x_i + 0.5 x_j
            x3 += psi[s]
            out[s] = x3
        return out


def fixed_process(entries) -> NetworkProcess:
    return finite_support_process([(entries, 1.0)])


def gossip_process(n: int, edges) -> NetworkProcess:
    """Pair averages on the edges, edge (i, j) with probability (1/n)(1/d_i + 1/d_j).

    That is the law of a uniform agent averaging with a uniform neighbour.
    """
    pairs, deg = _edge_pairs(n, edges)
    if not deg.all():
        raise DistDetectError(f"vertex {int(np.argmin(deg))} has no neighbors")
    i, j = pairs.T
    probs = (1.0 / n) * (1.0 / deg[i]) + (1.0 / n) * (1.0 / deg[j])
    return NetworkProcess(n=n, probs=probs, atoms=pairs)


def finite_support_process(pairs) -> NetworkProcess:
    """pairs: iterable of (matrix, probability); probabilities must sum to 1."""
    support = [(validate_mixing(m), float(p)) for m, p in pairs]
    if not support:
        raise DistDetectError("finite-support process needs at least one matrix")
    n = support[0][0].shape[0]
    for w, p in support:
        if w.shape[0] != n:
            raise DistDetectError("finite-support matrices have inconsistent sizes")
        if not p > 0:
            raise DistDetectError(f"nonpositive probability {p}")
    probs = np.array([p for _, p in support])
    if not abs(probs.sum() - 1.0) <= MATRIX_TOL:
        raise DistDetectError(f"probabilities sum to {probs.sum()!r}, not 1")
    return NetworkProcess(n=n, probs=probs, atoms=np.stack([w for w, _ in support]))


def metropolis_matrix(n: int, edges) -> np.ndarray:
    """Metropolis weights: w_ij = 1/(1 + max(deg i, deg j)) on edges, diagonal absorbs."""
    pairs, deg = _edge_pairs(n, edges)
    i, j = pairs.T
    w = np.zeros((n, n))
    w[i, j] = w[j, i] = 1 / (1 + np.maximum(deg[i], deg[j]))
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    return w


def expected_matrix(p: NetworkProcess) -> np.ndarray:
    """E[W(t)] = sum_a p_a W_a, added in atom order.

    Pair atoms add their p_a/2 to the four entries they touch of I, so no
    n x n matrix is built per atom.
    """
    if p.atoms.ndim == 3:
        return validate_mixing(sum(q * w for q, w in zip(p.probs, p.atoms)))
    w = np.eye(p.n)
    i, j = p.atoms.T
    for rows, cols, sign in ((i, i, -0.5), (j, j, -0.5), (i, j, 0.5), (j, i, 0.5)):
        np.add.at(w, (rows, cols), sign * p.probs)
    return validate_mixing(w)


def _centred_spectrum(w: np.ndarray):
    """C = W - J/n, symmetrised (validation allows asymmetry up to MATRIX_TOL), read once:
    (largest eigenvalue, any |eigenvalue| within MATRIX_TOL of 1, largest |eigenvalue| not)."""
    c = w - 1.0 / w.shape[0]
    eig = np.linalg.eigvalsh(0.5 * (c + c.T))
    unit = np.abs(eig) > 1 - MATRIX_TOL
    return float(eig[-1]), bool(unit.any()), float(np.abs(eig[~unit]).max(initial=0.0))


def sigma2(w):
    """(sigma2, rho) of a validated W, sigma2 its second-largest singular value.

    sigma2 is the spectral norm of C = W - J/n: rho, the largest |eigenvalue| of
    C not within MATRIX_TOL of -1, or exactly 1 if one is (a periodic W). Raises
    DistDetectError unless W is connected (A3), that is unless 1 is a simple
    eigenvalue of W: no eigenvalue of C within MATRIX_TOL of 1."""
    top, unit, rho = _centred_spectrum(w)
    if top > 1 - MATRIX_TOL:
        raise DistDetectError("network is not connected in expectation (A3 violated)")
    return (1.0 if unit else rho), rho


def mixing_deviation_sum(w, t_values, sigma2_w: float, rho: float) -> np.ndarray:
    """sum_{tau=1}^{t} sum_j |[W^{t-tau}]_ij - 1/n| for every t in t_values and agent i.

    Returns a (len(t_values), n) array whose rows follow t_values, which may
    come in any order and repeat. One pass over the powers of C = W - J/n
    (C^s = W^s - J/n for s >= 1, so no term cancels against 1/n) keeps a
    running per-agent sum, read off at each requested t. C is symmetric, so
    C^s = U^s + R^s: U, its part on the eigenvalues +-1 (within MATRIX_TOL, the
    tolerance of `validate_mixing`), repeats with period 2, and row i of R^s
    has l1 norm at most sqrt(n) rho^s, rho the spectral radius of R; for a
    validated w, (sigma2_w, rho) is `sigma2(w)`, and U = 0 unless sigma2_w is 1.
    From s = 2 the pass stops once sqrt(n) rho^(s-1) / (1 - rho) is below half
    an ulp of every sum. The powers s+1, s+2, ... then add what C^(s-1), C^s,
    C^(s-1), ... add, or nothing if U = 0, so any larger t is finished in closed form.
    Raises DistDetectError if the pass may need more than
    SPECTRAL_WORK_CAP / max(n, SPECTRAL_FLOOR_N)^3 products.
    """
    t_values = [operator.index(t) for t in t_values]
    for t in t_values:
        if not 1 <= t <= T_MAX:
            raise DistDetectError(f"t must lie in [1, {T_MAX}], got {t}")
    n = w.shape[0]
    wanted, rows = np.unique(t_values, return_inverse=True)
    snapshots = np.empty((len(wanted), n))
    # every sum is >= 2(n-1)/n >= 1, whose half ulp is >= 2^-53: the rule holds by this s
    last = 2 + int(math.log(2**-53 * (1 - rho) / n**0.5) / math.log(rho)) if rho else 2
    products = min(max(t_values, default=1) - 1, last)
    if products * max(n, SPECTRAL_FLOOR_N)**3 > SPECTRAL_WORK_CAP:
        raise DistDetectError(f"t = {max(t_values)} needs up to {products} products of {n} x {n} "
                              f"matrices, more than 2^44 / max(n, 64)^3 allow")
    c = w - 1.0 / n
    power, s, increment, stopped = np.eye(n), 0, None, False  # C^s and its |.| row sums
    total = np.abs(power - 1.0 / n).sum(axis=1)  # holds the powers 0 .. s
    for k, t in enumerate(wanted):
        while s < t - 1 and not stopped:
            power, s, before = power @ c, s + 1, increment
            increment = np.abs(power).sum(axis=1)
            total += increment
            stopped = s >= 2 and n**0.5 * rho ** (s - 1) / (1 - rho) < np.spacing(total.min()) / 2
        snapshots[k] = total
        if stopped and sigma2_w == 1:  # the powers s+1, s+2, ... alternate C^(s-1), C^s, ...
            later = t - 1 - s
            snapshots[k] += (later + 1) // 2 * before + later // 2 * increment
    return snapshots[rows]
