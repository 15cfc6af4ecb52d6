"""Probability-simplex primitives of the test oracle: KL and exponential-weights beliefs.

All logarithms are natural (nats). Beliefs are plain numpy arrays; use
``as_belief`` to validate one. Inputs outside the simplex tolerance are
rejected, never silently renormalized.
"""

import numpy as np

from .errors import DistDetectError

SIMPLEX_TOL = 1e-12


def as_belief(probs) -> np.ndarray:
    """Validate a length-m probability vector and return it as a float array."""
    mu = np.asarray(probs, dtype=float)
    if mu.ndim != 1 or mu.size < 1:
        raise DistDetectError(f"expected a 1-d vector, got shape {mu.shape}")
    if not np.all(np.isfinite(mu)):
        raise DistDetectError("belief contains non-finite entries")
    if np.any(mu < 0):
        raise DistDetectError(f"negative entry in belief: {mu}")
    if abs(mu.sum() - 1.0) > SIMPLEX_TOL:
        raise DistDetectError(f"belief sums to {mu.sum()!r}, not 1")
    return mu


def kl_divergence(mu, pi) -> float:
    """D_KL(mu || pi) in nats. Terms with mu(k) = 0 contribute zero."""
    mu = as_belief(mu)
    pi = as_belief(pi)
    if mu.shape != pi.shape:
        raise DistDetectError("KL divergence needs equal-length distributions")
    support = mu > 0
    if np.any(pi[support] == 0):
        raise DistDetectError("mu puts mass where pi is zero")
    d = float(np.sum(mu[support] * np.log(mu[support] / pi[support])))
    # tiny negatives are rounding noise on identical inputs
    return max(d, 0.0)


def gibbs_belief(phi, eta: float) -> np.ndarray:
    """Exponential-weights distribution exp(eta*phi(k)) / sum_z exp(eta*phi(z)).

    Max-shifted before exponentiation: potentials grow linearly in time, so a
    naive exp overflows long before the belief itself degenerates.
    """
    phi = np.asarray(phi, dtype=float)
    if not np.all(np.isfinite(phi)):
        raise DistDetectError("potential vector contains non-finite entries")
    if eta <= 0:
        raise DistDetectError(f"learning rate must be positive, got {eta}")
    z = eta * phi
    z -= z.max()
    w = np.exp(z)
    return w / w.sum()
