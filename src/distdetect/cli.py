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
import json
import os
import sys

# read once when OpenBLAS loads, so before numpy
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import analysis, network
from .config import load_config
from .errors import ConfigInvalid, DistDetectError


CSV_HEADER = "trial,t,agent,tv_error,log_tv_error,kl_increment,centralized_tv_error\r\n"
CSV_ROW = "%d,%d,%d,%.17g,%.17g,%.17g,%s"  # the last field: CSV_CENTRALIZED
CSV_CENTRALIZED = "%.17g\r\n"  # formatted once per (trial, step), not once per agent
CSV_CHUNK = 8192  # rows formatted at a time, which bounds the text held in memory


def _resolve(cfg, args):
    for flag, value, least in (("--seed", args.seed, 0), ("--trials", args.trials, 1)):
        if value is not None and value < least:
            raise ConfigInvalid(f"{flag} must be >= {least}, got {value}")
    seed = args.seed if args.seed is not None else cfg.seed
    trials = args.trials if args.trials is not None else cfg.trials
    outdir = args.output_dir if args.output_dir is not None else cfg.output_dir
    return seed, trials, outdir


def _artifact(outdir, name, newline=None):
    """Open outdir/name for writing, making outdir only now: a failed run leaves none."""
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        raise ConfigInvalid(f"cannot create output directory {outdir!r}: {exc}") from exc
    return open(os.path.join(outdir, name), "w", newline=newline)


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
    centralized = ctv.ravel()
    with _artifact(outdir, "trajectories.csv", newline="") as table:
        table.write(CSV_HEADER)
        for q0 in range(0, rows, CSV_CHUNK):
            q = np.arange(q0, min(q0 + CSV_CHUNK, rows))  # flat (trial, step, agent) index
            s0 = q0 // n  # flat (trial, step) index of the chunk's first row
            text = np.array([CSV_CENTRALIZED % v for v in
                             centralized[s0:q[-1] // n + 1].tolist()], dtype=object)
            cols = (q // (T * n), q // n % T + 1, q % n, *(c[q] for c in per_agent),
                    text[q // n - s0])
            table.write("".join(CSV_ROW % row for row in zip(*(c.tolist() for c in cols))))

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
