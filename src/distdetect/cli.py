"""Experiment runner CLI: simulate, verify, spectral.

Every run is reproducible from (config file, base seed): trial r uses the
generator seeded by SeedSequence(base_seed, spawn_key=(r,)) and takes k + n
uniforms from it per step. The network's k come first: every process is a
distribution over mixing atoms (one matrix for a fixed network, one pair
average per edge for gossip), and a step spends no uniform on a single atom
and otherwise one, which picks the atom by inverse CDF. Then comes one signal
uniform per agent. Enlarging the trial count therefore keeps earlier trials'
outcomes as a prefix, and reruns with the same config and seed produce
byte-identical output files.

The command runs BLAS and LAPACK on the calling thread: it sets
OPENBLAS_NUM_THREADS=1 unless the variable is already set. Its n x n
products and eigensolves then wake no idle worker thread, and every result
is independent of the machine's core count; an exported value overrides the
default.
"""

import argparse
import functools
import json
import os
import sys

# read once when OpenBLAS loads, so before numpy
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import analysis, network
from .config import load_config
from .errors import ConfigInvalid, DistDetectError


CSV_HEADER = b"trial,t,agent,tv_error,log_tv_error,kl_increment,centralized_tv_error\r\n"
CSV_CHUNK = 8192  # rows formatted at a time, which bounds the text held in memory


@functools.cache
def _tables():
    """`_format17`'s lookup tables, built on its first call rather than at import.

    By j = 308 - e10 for each decimal exponent e10 of a finite nonzero double:
    c = floor(10^k 2^-b) in [2^63, 2^64) for k = 16 - e10, 53 - b, the text
    before the first digit and after the last, and the digits before the point.
    By four digits: their text and trailing zeros. By word i of bytes 8-23 and
    n in [0, 17]: its bytes before byte 8 + n. The text of 0, inf and nan.
    """
    c, sb, pre, suf, width = [], [], [], [], []
    for e in range(308, -325, -1):
        k, fixed, p = 16 - e, -4 <= e < 17, 10 ** abs(16 - e)
        b = p.bit_length() - 64 if k >= 0 else -63 - p.bit_length()
        c.append(p << 64 >> 64 + b if k >= 0 else (1 << -b) // p)
        sb.append(53 - b)
        pre.append(int.from_bytes(b"0." + b"0" * (-e - 1), "little") << 8 if -4 <= e < 0 else 0)
        suf.append(0 if fixed else int.from_bytes(b"e%+03d" % e, "little") << 8)
        width.append(max(e + 1, 0) if fixed else 1)
    i = np.arange(10000)
    quad = sum((i // 10**t % 10 + 48) << 24 - 8 * t for t in range(4))
    below = [[(1 << 8 * min(max(n - 8 * i, 0), 8)) - 1 for n in range(18)] for i in (0, 1)]
    special = [int.from_bytes(t, "little") for t in (b"0", b"-0", b"inf", b"-inf", b"nan", b"nan")]
    return (np.array(c, np.uint64), np.array(sb), np.array(width),
            *(np.array(t, np.uint64) for t in (pre, suf, quad, below, special)),
            sum(i % 10**t == 0 for t in range(1, 5)))


def _round17(a):
    """(D, j, certain) for finite a > 0: D = round(a 10^k), 17 digits, j = 308 - e10.

    With a = m 2^(q-53), e10 = floor(log10 a), k = 16 - e10 and c = floor(10^k 2^-b),
    a 10^k 2^s lies in [P, P + m) for P = m c and s = 53 - q - b, since c is
    below 10^k 2^-b by less than 1. With P = D' 2^s + r, D is D' if
    r + m <= 2^(s-1) and D' + 1 if r > 2^(s-1). It is not certain in between
    (exact ties among them), for D' outside [10^16, 10^17) (log10 off by one at
    a power of ten) or for s outside [53, 63]. No double lies close enough below
    a power of ten for D' + 1 to reach 10^17.
    """
    c_tab, sb = _tables()[:2]
    frac, q = np.frexp(a)
    m = (frac * 2.0**53).astype(np.uint64)
    j = 308 - np.floor(np.log10(a)).astype(np.intp)
    c, s = c_tab[j], sb[j] - q
    certain = (s >= 53) & (s <= 63)
    s = np.clip(s, 53, 63).astype(np.uint64)
    lo32 = np.uint64(0xFFFFFFFF)  # P = hi 2^64 + lo from the 32-bit halves of m and c
    mid = (m & lo32) * (c >> 32) + ((m & lo32) * (c & lo32) >> 32)
    hi = (m >> 32) * (c >> 32) + (mid >> 32) + ((m >> 32) * (c & lo32) + (mid & lo32) >> 32)
    lo = m * c  # modulo 2^64
    d, r, half = (hi << 64 - s) | (lo >> s), lo & (1 << s) - 1, 1 << s - 1
    up = r > half
    certain &= (up | (r + m <= half)) & (d >= 10**16) & (d < 10**17)
    return (d + up).astype(np.int64), j, certain


def _format17(x, sep):
    """The text of '%.17g' % v and then `sep` for each v of the float array x.

    Returns (len(x), 4) uint64 words: 32 little-endian bytes per value, NUL
    where no character goes: the sign, then bytes 1-6 the text before the first
    digit, 7-23 the digits with trailing zeros blanked and the point inserted
    (which moves the rest one byte on), 25-29 the exponent and 30-31 `sep`.
    Python formats the values whose digits `_round17` leaves uncertain.
    """
    width_tab, pre, suf, quad, below, special, zeros = _tables()[2:]
    sep = int.from_bytes(sep, "little") << 48
    out = np.zeros((4, len(x)), np.uint64)
    out[3] = sep
    odd = ~np.isfinite(x) | (x == 0)
    y = x[odd]
    out[0, odd] = special[np.signbit(y) + 2 * np.isinf(y) + 4 * np.isnan(y)]
    idx = np.flatnonzero(~odd)
    v = x[idx]
    d, j, certain = _round17(np.abs(v))
    p = [d // 10**16, d // 10**12, d // 10**8, d // 10**4, d]
    g = [p[i] - 10**4 * p[i - 1] for i in range(1, 5)]  # the digits after the first, by four
    z = [zeros[gi] for gi in g]
    nd = 17 - z[3] - (z[3] == 4) * (z[2] + (z[2] == 4) * (z[1] + (z[1] == 4) * z[0]))
    width = width_tab[j]  # the digits before the point, zeros among them kept
    at = np.where((nd > width) & (width > 0), width - 1, 16)  # the point's byte from byte 8
    w = np.stack([quad[g[0]] | quad[g[1]] << 32, quad[g[2]] | quad[g[3]] << 32])
    w &= below[:, np.maximum(nd, width) - 1]
    moved = w & ~below[:, at]
    point = (below[:, at + 1] ^ below[:, at]) & 0x2E2E2E2E2E2E2E2E  # "." at byte 8 + at
    w = (w & below[:, at]) | moved << 8 | point
    w[1] |= moved[0] >> 56
    first = (v < 0) * np.uint64(ord("-")) | pre[j] | (p[0] + 48).astype(np.uint64) << 56
    out[:, idx] = [first, *w, moved[1] >> 56 | suf[j] | sep]
    slow = idx[~certain]
    text = np.array([b"%.17g" % f for f in x[slow].tolist()], "S24")
    out[:3, slow], out[3, slow] = text.view("<u8").reshape(-1, 3).T, sep
    return out.T


def _resolve(cfg, args):
    for flag, value, least in (("--seed", args.seed, 0), ("--trials", args.trials, 1)):
        if value is not None and value < least:
            raise ConfigInvalid(f"{flag} must be >= {least}, got {value}")
    seed = args.seed if args.seed is not None else cfg.seed
    trials = args.trials if args.trials is not None else cfg.trials
    outdir = args.output_dir if args.output_dir is not None else cfg.output_dir
    return seed, trials, outdir


def _artifact(outdir, name, mode="w"):
    """Open outdir/name for writing, making outdir only now: a failed run leaves none."""
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        raise ConfigInvalid(f"cannot create output directory {outdir!r}: {exc}") from exc
    return open(os.path.join(outdir, name), mode)


def cmd_simulate(cfg, args) -> int:
    seed, trials, outdir = _resolve(cfg, args)
    B, k2, rate, s2, eta = analysis.bound_inputs(cfg)
    tv, kl, ctv, max_gap = analysis.simulate_trials(cfg.model, cfg.process, eta,
                                                    cfg.horizon, seed, range(trials))

    with np.errstate(divide="ignore"):
        log_tv = np.log(tv)
    T, n = cfg.horizon, cfg.model.n
    rows = trials * T * n
    per_agent = (tv.ravel(), log_tv.ravel(), kl.ravel())
    # trial, t and agent: each value and a comma, as rows of NUL-padded words
    ints = [np.array([b"%d," % v for v in r]) for r in (range(trials), range(1, T + 1), range(n))]
    ints = [t.astype(f"S{-(-t.itemsize // 8) * 8}").view("<u8").reshape(len(t), -1) for t in ints]
    with _artifact(outdir, "trajectories.csv", "wb") as table:
        table.write(CSV_HEADER)
        for q0 in range(0, rows, CSV_CHUNK):
            q = np.arange(q0, min(q0 + CSV_CHUNK, rows))  # flat (trial, step, agent) index
            s0 = q0 // n  # flat (trial, step) index of the chunk's first row
            # formatted once per (trial, step), not once per agent
            centralized = _format17(ctv.ravel()[s0:q[-1] // n + 1], b"\r\n")
            words = np.concatenate(
                [w[i] for w, i in zip(ints, (q // (T * n), q // n % T, q % n))]
                + [_format17(c[q0:q0 + len(q)], b",") for c in per_agent]
                + [centralized[q // n - s0]], axis=1)
            text = words.astype("<u8", copy=False).view(np.uint8)
            table.write(text[text != 0].tobytes())

    final_tv = tv[:, -1]
    costs = kl.sum(axis=1)
    summary = {
        "config_digest": cfg.digest,
        "n": cfg.model.n,
        "m": cfg.model.m,
        "true_state": cfg.model.true_index,
        "log_bound_B": B,
        "second_state": k2,
        "pairwise_rate_I": rate,
        "sigma2": s2,
        "spectral_gap": 1.0 - s2,
        "eta": eta,
        "horizon": cfg.horizon,
        "trials": trials,
        "seed": seed,
        "final_tv_mean_per_agent": final_tv.mean(axis=0).tolist(),
        "final_tv_max": float(final_tv.max()),
        "total_cost_mean_per_agent": costs.mean(axis=0).tolist(),
        "total_cost_max": float(costs.max()),
        "max_potential_gap": max_gap,
    }
    with _artifact(outdir, "summary.json") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {table.name} and summary.json (final TV max {summary['final_tv_max']:.3e})")
    return 0


def cmd_verify(cfg, args) -> int:
    seed, trials, outdir = _resolve(cfg, args)
    which = args.which
    if which == "prop1" and not cfg.checkpoints:
        raise ConfigInvalid("prop1 verification needs at least one checkpoint")
    reports = analysis.monte_carlo_verify(cfg, which, trials, seed)
    docs = []
    for t, rep in zip(cfg.checkpoints if which == "prop1" else [None], reports):
        docs.append({
            "config_digest": cfg.digest, **rep, "seed": seed, "checkpoint": t,
            "horizon": cfg.horizon if which == "theorem1" else None,
        })
        label = which if t is None else f"{which} at t={t}"
        print(f"{label}: {rep['violations']}/{rep['trials']} violations "
              f"(rate {rep['violation_rate']:.4f}, "
              f"threshold {rep['delta'] + rep['slack']:.4f}) -> {rep['verdict']}")
    # the report is that of the first failing checkpoint, else of the last one,
    # so its verdict is the overall one; with several it lists them all
    doc = next((d for d in docs if d["verdict"] == "fail"), docs[-1])
    if len(docs) > 1:
        doc = dict(doc, per_checkpoint=docs)
    with _artifact(outdir, f"verify_{which}.json") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    return 0 if doc["verdict"] == "pass" else 1


def cmd_spectral(cfg, args) -> int:
    outdir = args.output_dir if args.output_dir is not None else cfg.output_dir
    s2 = network.sigma2(cfg.w_bar)
    t_values = args.t_values if args.t_values else list(cfg.checkpoints)
    deviation = network.mixing_deviation_sum(cfg.w_bar, t_values)
    doc = {
        "config_digest": cfg.digest,
        "expected_matrix": cfg.w_bar.tolist(),
        "sigma2": s2,
        "spectral_gap": 1.0 - s2,
        "connected_in_expectation": True,  # a config that fails A3 does not load
        "mixing_deviation": [
            {"t": t, "per_agent": row} for t, row in zip(t_values, deviation.tolist())
        ],
    }
    with _artifact(outdir, "spectral.json") as f:
        # one compact line: with indent, json falls back to its pure-Python
        # encoder over all n^2 entries of E[W]
        f.write(json.dumps(doc, sort_keys=True) + "\n")
    print(f"sigma2 = {s2:.12f}, spectral gap = {1.0 - s2:.12f}, "
          f"connected = {doc['connected_in_expectation']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="distdetect",
        description="Finite-time distributed detection experiments",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, fn in (("simulate", cmd_simulate), ("verify", cmd_verify),
                     ("spectral", cmd_spectral)):
        sp = sub.add_parser(name)
        sp.add_argument("config", help="path to a YAML scenario config")
        sp.add_argument("--output-dir", default=None)
        sp.set_defaults(fn=fn)
    for name in ("simulate", "verify"):
        sub.choices[name].add_argument("--seed", type=int, default=None)
        sub.choices[name].add_argument("--trials", type=int, default=None)
    sub.choices["verify"].add_argument(
        "--which", choices=["theorem1", "prop1"], required=True
    )
    sub.choices["spectral"].add_argument("--t-values", nargs="*", type=int, default=None)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        return args.fn(cfg, args)
    except ConfigInvalid as exc:
        print(f"config invalid: {exc}", file=sys.stderr)
        return 2
    except DistDetectError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
