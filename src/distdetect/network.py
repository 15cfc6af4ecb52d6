"""Doubly stochastic symmetric mixing matrices and random network processes.

Three process kinds are supported: a fixed matrix, gossip (random pairwise
averaging on a base graph), and a finite-support i.i.d. distribution over
matrices. Spectral quantities are computed on the expected matrix.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, IsolatedAgent

MATRIX_TOL = 1e-12
POSITIVE_ENTRY_TOL = 1e-12  # threshold for "edge present" in connectivity checks


def validate_mixing(entries) -> np.ndarray:
    """Check nonnegativity, symmetry and unit row sums; return the array."""
    w = np.asarray(entries, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise DimensionMismatch(f"mixing matrix must be square, got shape {w.shape}")
    if w.shape[0] < 2:
        raise ValueError("mixing matrix needs n >= 2")
    if w.min() < -MATRIX_TOL:
        raise ValueError("mixing matrix has negative entries")
    if np.abs(w - w.T).max() > MATRIX_TOL:
        raise ValueError("mixing matrix is not symmetric")
    if np.abs(w.sum(axis=1) - 1.0).max() > MATRIX_TOL:
        raise ValueError("mixing matrix rows do not sum to 1")
    return w


@dataclass(frozen=True)
class Graph:
    n: int
    edges: frozenset  # frozenset of sorted (i, j) tuples, no self-loops

    def __post_init__(self):
        norm = set()
        for i, j in self.edges:
            if i == j:
                raise ValueError(f"self-loop on vertex {i}")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"edge ({i},{j}) outside vertex range [0,{self.n})")
            norm.add((min(i, j), max(i, j)))
        object.__setattr__(self, "edges", frozenset(norm))

    def degree(self, i: int) -> int:
        return sum(1 for e in self.edges if i in e)

    def neighbors(self, i: int):
        return sorted(j for e in self.edges for j in e if i in e and j != i)


def cycle_graph(n: int) -> Graph:
    return Graph(n, frozenset((i, (i + 1) % n) for i in range(n)))


def path_graph(n: int) -> Graph:
    return Graph(n, frozenset((i, i + 1) for i in range(n - 1)))


def complete_graph(n: int) -> Graph:
    return Graph(n, frozenset((i, j) for i in range(n) for j in range(i + 1, n)))


def star_graph(n: int) -> Graph:
    return Graph(n, frozenset((0, j) for j in range(1, n)))


@dataclass(frozen=True, eq=False)
class NetworkProcess:
    """I.i.d. distribution over mixing matrices; use the factory functions below."""

    n: int
    kind: str  # "fixed" | "gossip" | "finite_support"
    matrix: np.ndarray = None
    graph: Graph = None
    support: tuple = None  # ((matrix, prob), ...)
    _probs_cdf: np.ndarray = field(default=None, repr=False)

    def draw(self, rng) -> np.ndarray:
        if self.kind == "fixed":
            return self.matrix
        if self.kind == "gossip":
            return gossip_draw(self.graph, rng)
        idx = int(np.searchsorted(self._probs_cdf, rng.random(), side="right"))
        return self.support[min(idx, len(self.support) - 1)][0]


def fixed_process(entries) -> NetworkProcess:
    w = validate_mixing(entries)
    return NetworkProcess(n=w.shape[0], kind="fixed", matrix=w)


def gossip_process(graph: Graph) -> NetworkProcess:
    for i in range(graph.n):
        if graph.degree(i) == 0:
            raise IsolatedAgent(f"vertex {i} has no neighbors")
    return NetworkProcess(n=graph.n, kind="gossip", graph=graph)


def finite_support_process(pairs) -> NetworkProcess:
    """pairs: iterable of (matrix, probability); probabilities must sum to 1."""
    support = tuple((validate_mixing(m), float(p)) for m, p in pairs)
    if not support:
        raise ValueError("finite-support process needs at least one matrix")
    n = support[0][0].shape[0]
    for w, p in support:
        if w.shape[0] != n:
            raise DimensionMismatch("finite-support matrices have inconsistent sizes")
        if p <= 0:
            raise ValueError(f"nonpositive probability {p}")
    probs = np.array([p for _, p in support])
    if abs(probs.sum() - 1.0) > MATRIX_TOL:
        raise ValueError(f"probabilities sum to {probs.sum()!r}, not 1")
    return NetworkProcess(
        n=n, kind="finite_support", support=support, _probs_cdf=np.cumsum(probs)
    )


def metropolis_matrix(g: Graph) -> np.ndarray:
    """Metropolis weights: w_ij = 1/(1 + max(deg i, deg j)) on edges, diagonal absorbs."""
    w = np.zeros((g.n, g.n))
    deg = [g.degree(i) for i in range(g.n)]
    for i, j in g.edges:
        w[i, j] = w[j, i] = 1.0 / (1.0 + max(deg[i], deg[j]))
    for i in range(g.n):
        w[i, i] = 1.0 - w[i].sum()
    return validate_mixing(w)


def pair_average_matrix(n: int, i: int, j: int) -> np.ndarray:
    """I - (1/2)(e_i - e_j)(e_i - e_j)^T: agents i and j average their state."""
    w = np.eye(n)
    w[i, i] = w[j, j] = 0.5
    w[i, j] = w[j, i] = 0.5
    return w


def gossip_draw(g: Graph, rng) -> np.ndarray:
    """One gossip round: uniform agent picks a uniform neighbor and they average."""
    i = int(rng.integers(g.n))
    nbrs = g.neighbors(i)
    if not nbrs:
        raise IsolatedAgent(f"vertex {i} has no neighbors")
    j = nbrs[int(rng.integers(len(nbrs)))]
    return pair_average_matrix(g.n, i, j)


def batch_mixer(p: NetworkProcess):
    """Batched form of `NetworkProcess.draw` followed by the product W @ phi.

    Returns (k, mix): each trial spends k uniforms per step, and
    mix(phi, u) applies one step's mixing to the (R, n, m) potentials phi
    given the (R, k) uniforms u, and returns the result. A fixed network
    uses no uniforms; a finite-support process picks its matrix by inverse
    CDF from one; gossip picks agent floor(u0 * n) and its neighbour number
    floor(u1 * deg) in sorted order, and averages that pair in place instead
    of building an n x n matrix.
    """
    if p.kind == "fixed":
        return 0, lambda phi, u: np.matmul(p.matrix, phi)
    if p.kind == "finite_support":
        mats = np.stack([w for w, _ in p.support])

        def mix_support(phi, u):
            pick = np.searchsorted(p._probs_cdf, u[:, 0], side="right")
            return np.matmul(mats[np.minimum(pick, len(mats) - 1)], phi)

        return 1, mix_support
    n = p.graph.n
    nbrs = [[] for _ in range(n)]
    for i, j in sorted(p.graph.edges):  # so every row comes out in increasing order
        nbrs[i].append(j)
        nbrs[j].append(i)
    deg = np.array([len(row) for row in nbrs])
    table = np.zeros((n, deg.max()), dtype=np.intp)
    for i, row in enumerate(nbrs):
        table[i, :len(row)] = row

    def mix_gossip(phi, u):
        # u < 1 keeps floor(u * d) <= d - 1 after rounding for any count d
        trial = np.arange(len(phi))
        i = (u[:, 0] * n).astype(np.intp)
        j = table[i, (u[:, 1] * deg[i]).astype(np.intp)]
        avg = 0.5 * phi[trial, i] + 0.5 * phi[trial, j]
        phi[trial, i] = avg
        phi[trial, j] = avg
        return phi

    return 2, mix_gossip


def expected_matrix(p: NetworkProcess) -> np.ndarray:
    """E[W(t)] of the process; exact closed form for gossip."""
    if p.kind == "fixed":
        return p.matrix
    if p.kind == "finite_support":
        return validate_mixing(sum(prob * w for w, prob in p.support))
    g = p.graph
    w = np.eye(g.n)
    deg = [g.degree(i) for i in range(g.n)]
    for i, j in g.edges:
        # edge activation prob under the two-stage uniform pick
        q = (1.0 / g.n) * (1.0 / deg[i]) + (1.0 / g.n) * (1.0 / deg[j])
        w[i, i] -= q / 2
        w[j, j] -= q / 2
        w[i, j] += q / 2
        w[j, i] += q / 2
    return validate_mixing(w)


def sigma2(w) -> float:
    """Second-largest singular value: the spectral norm of W - (1/n) * ones * ones^T.

    For symmetric doubly stochastic W this is the largest absolute eigenvalue
    of the centred matrix, taken from a symmetric eigensolver (symmetrised
    first, since validation allows asymmetry up to MATRIX_TOL).
    """
    w = validate_mixing(w)
    c = w - 1.0 / w.shape[0]
    eig = np.linalg.eigvalsh(0.5 * (c + c.T))
    return min(float(np.abs(eig).max()), 1.0)


def check_expected_connectivity(p: NetworkProcess) -> bool:
    """True iff the support graph of E[W] (off-diagonal entries > 1e-12) is connected."""
    w = expected_matrix(p)
    n = w.shape[0]
    adj = w > POSITIVE_ENTRY_TOL
    seen = np.zeros(n, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        i = stack.pop()
        for j in range(n):
            if j != i and adj[i, j] and not seen[j]:
                seen[j] = True
                stack.append(j)
    return bool(seen.all())


def mixing_deviation_sum(w, i: int, t: int) -> float:
    """sum_{tau=1}^{t} sum_j |[W^{t-tau}]_ij - 1/n|, computed by repeated row products."""
    w = validate_mixing(w)
    n = w.shape[0]
    if not 0 <= i < n:
        raise DimensionMismatch(f"agent index {i} outside [0, {n})")
    if t < 1:
        raise ValueError("t must be >= 1")
    row = np.zeros(n)
    row[i] = 1.0
    total = 0.0
    for _ in range(t):  # powers 0 .. t-1
        total += float(np.abs(row - 1.0 / n).sum())
        row = row @ w
    return total
