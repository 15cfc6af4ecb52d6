"""Decentralization cost, theoretical bound evaluation and Monte Carlo checks.

The two high-probability guarantees (a time-independent bound on cumulative
KL cost under fixed networks, and an anytime bound on the log TV error under
random networks) are evaluated here and verified empirically: we run many
independent seeded trials and require the violation frequency to stay below
delta plus three standard errors.
"""

import functools
import math

import numpy as np

from . import network, signals
from .errors import ConfigInvalid, DistDetectError


def trial_rng(base_seed: int, trial: int):
    """Generator for one trial: seeded from SeedSequence(base_seed, spawn_key=(trial,)).

    Fixed function of (base seed, trial index), so enlarging the trial count
    reuses earlier trials' outcomes as a prefix.
    """
    return np.random.default_rng(np.random.SeedSequence(base_seed, spawn_key=(trial,)))


STEP_BLOCK = 64            # steps drawn from each trial's generator at a time, at most
BLOCK_ELEMENTS = 1 << 15   # bound on trials x steps x n x m held per block
ENGINE_WORK_CAP = 1 << 50  # bound on trials x steps x n x m of one run: years of work
# trials every block has room for, while n x m allows. More trials per block
# mean fewer passes of the per-step network loop but shorter blocks, so more
# generator calls per trial; on 100- and 256-agent gossip rings (m = 3) at 8,
# 20 and 40 trials, engine time was flat within run-to-run noise from 4 to
# 16 and higher at 1, 2 and 32
GROUP_TRIALS = 8


def block_shape(n: int, m: int):
    """(steps, trials) of the blocks of a model with n agents and m states.

    The steps depend on n x m alone, never on the trial count: STEP_BLOCK
    while GROUP_TRIALS trials of that many steps fit in BLOCK_ELEMENTS, fewer
    on wider models, at least one. The trials fill the rest of the bound, so
    a block holds more than BLOCK_ELEMENTS values only when one step of one
    trial does.
    """
    steps = min(STEP_BLOCK, max(1, BLOCK_ELEMENTS // (GROUP_TRIALS * n * m)))
    return steps, max(1, BLOCK_ELEMENTS // (steps * n * m))


def potential_blocks(sc, horizon: int, base_seed: int, trials, centralized: bool = True):
    """Advance the given trials of Scenario `sc` together, yielding potentials block by block.

    `horizon` is the step count: the Scenario's, or prop1's last checkpoint.
    `trials` is a sequence of trial indices, such as a range. Yields
    (rows, t0, dec, cen) for consecutive blocks of `block_shape` steps:
    `rows` is the slice of `trials` being advanced, dec the
    (K, len(rows), n, m) decentralized potentials after steps t0+1 .. t0+K,
    and cen the (K, len(rows), m) centralized ones, or None unless
    `centralized`. Trials run in groups of `block_shape` trials, so working
    memory grows with neither the trial count nor the horizon.

    Trial r draws k + n uniforms per step from `trial_rng(base_seed, r)`: the
    process's k = `uniforms` first, then one per agent, turned into its
    signal by inverse CDF, as `detection.draw_mixing` then
    `signals.sample_step` would. Group and block sizes change neither the
    stream nor the arithmetic of any trial. Raises DistDetectError when called,
    before any block is drawn, if trials x horizon x n x m is above ENGINE_WORK_CAP.
    """
    n, m = sc.model.n, sc.model.m
    if len(trials) * horizon * n * m > ENGINE_WORK_CAP:
        raise DistDetectError(
            f"trials x horizon x n x m = {len(trials)} x {horizon} x {n} x {m} is above "
            f"ENGINE_WORK_CAP = 2^50 (prop1's horizon: last checkpoint)")
    return _blocks(sc, horizon, base_seed, trials, centralized)


def _blocks(sc, horizon, base_seed, trials, centralized):
    """The generator of `potential_blocks`, once its work is checked."""
    model, n, m = sc.model, sc.model.n, sc.model.m
    k, width = sc.process.uniforms, model.lik.shape[2]
    # true-state CDFs, +inf from each agent's last symbol on, where a draw stops
    cdf = np.where(np.arange(width) < model.alphabet[:, None] - 1,
                   np.cumsum(model.lik[:, model.true_index], axis=1), np.inf)
    table = np.log(model.lik).swapaxes(1, 2).reshape(n * width, m)  # row i * width + s
    first_rows = np.arange(n) * width
    block, group = block_shape(n, m)
    for g0 in range(0, len(trials), group):
        rngs = [trial_rng(base_seed, r) for r in trials[g0:g0 + group]]
        rows = slice(g0, g0 + len(rngs))
        phi = np.zeros((len(rngs), n, m))
        cen = np.zeros((1, len(rngs), m)) if centralized else None
        for t0 in range(0, horizon, block):
            steps = min(block, horizon - t0)
            u = np.stack([g.random((steps, k + n)) for g in rngs], axis=1)
            # an agent's symbol is the count of its CDF entries <= its uniform
            symbols = sum(_columns(cdf <= u[..., k:, None]), start=first_rows)
            psi = np.take(table, symbols, axis=0)
            dec = sc.process.advance(phi, u[..., :k], psi)
            phi = dec[-1]
            if centralized:
                # accumulate from the carried value so sums run in step order
                cen = np.cumsum(np.concatenate([cen[-1:], psi.mean(axis=2)]), axis=0)[1:]
            yield rows, t0, dec, cen


def _columns(x):
    """Views x[..., j] of the columns of a short last axis (states or symbols).

    Reducing by combining these elementwise is several times faster than
    NumPy's row-by-row reduction of a short last axis, and adds in the same
    order.
    """
    return np.moveaxis(x, -1, 0)


def _log_beliefs(phi, eta, true: int):
    """(gaps, log TV, log beliefs) of the beliefs exp(eta phi), finite wherever phi is.

    The false states' gaps g_k = eta phi_k - eta phi_true are each taken first, so
    close exponents cancel exactly. With L their log-sum-exp, TV = e^L / (1 + e^L),
    mu_true = 1 / (1 + e^L) and a false state holds e^(g_k - L) of the TV, read
    off its gap less the largest one: exact where a belief or the TV underflows.
    """
    z = _columns(eta * phi)
    gaps = [col - z[true] for k, col in enumerate(z) if k != true]
    top = functools.reduce(np.maximum, gaps)
    lse = np.log(sum(np.exp(gap - top) for gap in gaps))
    L = lse + top
    soft = np.log1p(np.exp(-np.abs(L)))
    log_tv = np.minimum(L, 0) - soft
    log_mu = [log_tv + (gap - top) - lse for gap in gaps]
    log_mu.insert(true, -np.maximum(L, 0) - soft)
    return gaps, log_tv, log_mu


def _kl_to_centralized(dec, cen, eta, true: int):
    """Per-agent D_KL(agent belief || centralized belief) and both beliefs' log TV.

    sum_k mu_k (log mu_k - log mu_c,k) over `_log_beliefs`' log beliefs; rounding
    noise on identical beliefs is clipped to 0.
    """
    _, log_tv, log_mu = _log_beliefs(dec, eta, true)
    _, log_ctv, log_mu_c = _log_beliefs(cen, eta, true)
    kl = sum(np.exp(a) * (a - b[..., None]) for a, b in zip(log_mu, log_mu_c))
    return np.maximum(kl, 0.0), log_tv, log_ctv


def simulate_trials(sc, base_seed: int, trials):
    """Run both engines of Scenario `sc` on common signal streams to its horizon.

    Returns (log_tv, kl_increment, centralized_log_tv, max_potential_gap): two
    R x T x n arrays, one R x T array and the largest gap over all trials and steps.
    """
    n, true, horizon = sc.model.n, sc.model.true_index, sc.horizon
    blocks = potential_blocks(sc, horizon, base_seed, trials)  # checks the work first
    log_tv, kl = np.empty((len(trials), horizon, n)), np.empty((len(trials), horizon, n))
    log_ctv = np.empty((len(trials), horizon))
    max_gap = 0.0
    for rows, t0, dec, cen in blocks:
        steps = slice(t0, t0 + len(dec))
        inc, agents, centralized = _kl_to_centralized(dec, cen, sc.eta, true)
        kl[rows, steps] = inc.swapaxes(0, 1)
        log_tv[rows, steps] = agents.swapaxes(0, 1)
        log_ctv[rows, steps] = centralized.T
        gap = functools.reduce(np.maximum, _columns(np.abs(dec.mean(axis=2) - cen)))
        max_gap = np.maximum(max_gap, gap.max())
    return log_tv, kl, log_ctv, float(max_gap)


def theorem1_bound(sc) -> dict:
    """High-probability, time-independent bound on the cumulative KL cost of Scenario `sc`.

    Returns the bound as its report object: {"total", "terms", "inputs", "notes"}.

    The printed statement's network denominator 1 - lambda_max(W) is read as
    the spectral gap 1 - sigma2(W): for these symmetric stochastic matrices
    lambda_max is identically 1, which would make the term degenerate.
    """
    B, I, m, n, delta, sigma2_w = sc.B, sc.rate, sc.model.m, sc.model.n, sc.delta, sc.sigma2
    _check_sigma2(sigma2_w, "and the bounds divide by that gap")
    concentration = (18.0 * B**2 / I**2) * max(
        math.log(6.0 * m / delta), 3.0 * B * math.sqrt(2.0) / I
    )
    net = (48.0 * B * math.log(n) / I) * (math.log(m) + 2.0) / (1.0 - sigma2_w)
    return _bound(sc, {"concentration": concentration, "network": net},
                  "network denominator evaluated as spectral gap 1 - sigma2(W)")


def theorem1_learning_rate(B: float, n: int, sigma2_w: float) -> float:
    """The spectral-gap-scaled learning rate (1 - sigma2) / (16 B log n)."""
    if n < 2:
        raise DistDetectError(f"need n >= 2, got {n}")
    _check_sigma2(sigma2_w, "so learning_rate: theorem1 would set eta = 0")
    if B <= 0:
        raise DistDetectError(f"log bound B must be positive, got {B}")
    return (1.0 - sigma2_w) / (16.0 * B * math.log(n))


def prop1_log_tv_bound(sc, t) -> dict:
    """Anytime high-probability bound on log ||mu_{i,t} - e_true||_TV (natural log).

    Returns the bound of Scenario `sc` at step t as `theorem1_bound` does, with empty notes.

    The rate, fluctuation and network terms bound max_k (phi_k - phi_true), and
    TV <= sum_{k != true} exp(eta (phi_k - phi_true)), so they scale with eta.
    """
    B, I, m, n, delta, sigma2_w = sc.B, sc.rate, sc.model.m, sc.model.n, sc.delta, sc.sigma2
    _check_sigma2(sigma2_w, "and the bounds divide by that gap")
    if t < 1:
        raise DistDetectError(f"t must be >= 1, got {t}")
    terms = {
        "rate": -sc.eta * I * t,
        "fluctuation": sc.eta * math.sqrt(2.0 * B**2 * t * math.log(m / delta)),
        "network": sc.eta * 8.0 * B * math.log(n) / (1.0 - sigma2_w),
        "log_m": math.log(m),
    }
    return _bound(sc, terms, "", t=t)


def _bound(sc, terms: dict, notes: str, **inputs) -> dict:
    """A bound's report object: the sum of its terms, the terms, its inputs and notes."""
    inputs = {"B": sc.B, "I": sc.rate, "m": sc.model.m, "n": sc.model.n, "delta": sc.delta,
              "sigma2": sc.sigma2, **inputs}
    return {"total": sum(terms.values()), "terms": terms, "inputs": inputs, "notes": notes}


def _check_sigma2(sigma2_w, consequence: str):
    """Raise unless 0 <= sigma2 < 1, naming a network with no spectral gap as the cause."""
    if not 0 <= sigma2_w < 1:
        cause = (f": the expected network has no spectral gap (sigma2 = 1), {consequence}"
                 if sigma2_w == 1 else "")
        raise DistDetectError(f"sigma2 must lie in [0, 1), got {sigma2_w}{cause}")


class Scenario:
    """A model, a network over the same agents and the settings of the bounds.

    Construction checks the network against the model (sizes, and A3 through
    `sigma2` of E[W], kept as `w_bar`, with the `rho` the mixing deviation reads)
    and derives the other inputs of the bounds once: `B`, the hardest false
    state `second_state`, its `rate`, `eta`, and checks each but the spectral gap, which
    only the bounds need; an eta at which the engine's costs could overflow is refused.
    """

    def __init__(self, model: signals.SignalModel, process: network.NetworkProcess,
                 horizon: int, learning_rate, delta: float, checkpoints: tuple):
        if process.n != model.n:
            raise DistDetectError(f"network has n={process.n} agents "
                                  f"but signal model has n={model.n}")
        if not 0 < delta < 1:
            raise DistDetectError(f"delta must lie in (0, 1), got {delta}")
        self.model = model
        self.process = process
        self.horizon = horizon              # T of the cost bound and of `simulate`
        self.delta = delta
        self.checkpoints = checkpoints      # the t of the anytime bound
        self.w_bar = network.expected_matrix(process)
        self.sigma2, self.rho = network.sigma2(self.w_bar)
        self.B = signals.log_bound_B(model)
        self.second_state, self.rate = signals.second_state(model)
        if not self.rate > 0:
            raise DistDetectError(f"the hardest false state {self.second_state} has pairwise "
                                  f"rate I = {self.rate!r}, but the bounds divide by I")
        if learning_rate == "theorem1":
            learning_rate = theorem1_learning_rate(self.B, model.n, self.sigma2)
        self.eta = eta = 1.0 if learning_rate == "unit" else float(learning_rate)
        if not eta > 0:
            raise DistDetectError(f"learning_rate must be 'unit', 'theorem1' or > 0, got {eta!r}")
        # |phi| <= B t, so a KL increment is at most 4 eta B t, a trial's cost at most
        # 4 eta B T^2 and a sum of R trials' costs, as R T <= ENGINE_WORK_CAP, at most this
        steps = max((horizon, *checkpoints))
        if not math.isfinite(4.0 * self.eta * self.B * steps * ENGINE_WORK_CAP):
            raise DistDetectError(
                f"learning_rate {self.eta!r} lets the KL costs overflow: 4 eta B T 2^50 is "
                f"not finite at B = {self.B!r} and T = {steps}, the horizon or last checkpoint")


def theorem1_statistics(sc: Scenario, base_seed, trials) -> np.ndarray:
    """Per trial, the largest cumulative KL cost over agents at horizon T."""
    blocks = potential_blocks(sc, sc.horizon, base_seed, trials)
    cost = np.zeros((len(trials), sc.model.n))
    for rows, _, dec, cen in blocks:
        cost[rows] += _kl_to_centralized(dec, cen, sc.eta, sc.model.true_index)[0].sum(axis=0)
    return cost.max(axis=1)


def prop1_statistics(sc: Scenario, base_seed, trials) -> np.ndarray:
    """Per trial and checkpoint, the largest log TV error over agents: (R, C)."""
    blocks = potential_blocks(sc, max(sc.checkpoints), base_seed, trials, centralized=False)
    # NaN until its checkpoint is reached, so an unreached one fails closed
    stats = np.full((len(trials), len(sc.checkpoints)), np.nan)
    order = np.argsort(sc.checkpoints)  # each block reads only those inside it
    ts = np.array(sc.checkpoints)[order]
    for rows, t0, dec, _ in blocks:
        lo, hi = np.searchsorted(ts, (t0, t0 + len(dec)), side="right")
        if lo < hi:
            log_tv = _log_beliefs(dec[ts[lo:hi] - t0 - 1], sc.eta, sc.model.true_index)[1]
            stats[rows, order[lo:hi]] = log_tv.max(axis=-1).T
    return stats


def monte_carlo_verify(sc: Scenario, which: str, R: int, base_seed: int) -> list:
    """Estimate the violation frequency of a bound over R independent trials.

    Returns one report dict for theorem1 (at the horizon) and one per
    checkpoint for prop1, all from one engine run. Each report names its
    `seed`, its `checkpoint` (None for theorem1) and its `horizon` (None for
    prop1, which runs only to its last checkpoint). Fails closed: a
    non-finite statistic counts as a violation and fails the verdict outright.
    """
    if which not in ("theorem1", "prop1"):
        raise DistDetectError(f"unknown verification target {which!r}")
    if which == "prop1" and not sc.checkpoints:
        raise ConfigInvalid("prop1 verification needs at least one checkpoint")
    if R < 1:
        raise DistDetectError("need at least one trial")
    if which == "theorem1":
        checkpoints, horizon = [None], sc.horizon
        bounds = [theorem1_bound(sc)]
        statistics = theorem1_statistics(sc, base_seed, range(R))[:, None]
    else:
        checkpoints, horizon = sc.checkpoints, None
        bounds = [prop1_log_tv_bound(sc, t) for t in checkpoints]
        statistics = prop1_statistics(sc, base_seed, range(R))

    slack = 3.0 * math.sqrt(sc.delta * (1.0 - sc.delta) / R)
    reports = []
    for t, bound, stats in zip(checkpoints, bounds, statistics.T):
        broken = ~np.isfinite(stats)
        violations = int(np.count_nonzero(broken | (stats > bound["total"])))
        rate = violations / R
        finite = stats[~broken]
        reports.append({
            "which": which, "trials": R, "violations": violations, "violation_rate": rate,
            "delta": sc.delta, "slack": slack, "bound": bound,
            "seed": base_seed, "checkpoint": t, "horizon": horizon,
            "verdict": "pass" if rate <= sc.delta + slack and not broken.any() else "fail",
            # over the finite statistics, None (JSON null) when there are none
            "trial_stats": {
                "eta": sc.eta,
                "max_statistic": float(np.max(finite)) if finite.size else None,
                "mean_finite_statistic": float(np.mean(finite)) if finite.size else None,
                "nonfinite_statistics": int(np.count_nonzero(broken)),
            },
        })
    return reports
