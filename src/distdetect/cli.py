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

# read once when OpenBLAS loads, so before `analysis` imports numpy
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import analysis, network
from .config import _whole, load_config
from .errors import ConfigInvalid, DistDetectError


def _resolve(cfg, args):
    seed = cfg.seed if args.seed is None else _whole(args.seed, "--seed", 0)
    trials = (cfg.trials if args.trials is None
              else _whole(args.trials, "--trials", 1, analysis.ENGINE_WORK_CAP))
    return seed, trials


def _artifact(cfg, args, name, mode="w"):
    """Open `name` in the output directory, made only now: a failed run leaves none."""
    outdir = args.output_dir if args.output_dir is not None else cfg.output_dir
    try:
        os.makedirs(outdir, exist_ok=True)
        return open(os.path.join(outdir, name), mode)
    except OSError as exc:
        raise ConfigInvalid(f"cannot open {name} in output directory {outdir!r}: {exc}") from exc


def _write_json(cfg, args, name, doc, indent):
    text = json.dumps(doc, indent=indent, sort_keys=True, allow_nan=False)  # no NaN, Infinity
    with _artifact(cfg, args, name) as f:
        f.write(text + "\n")


def cmd_simulate(cfg, args) -> int:
    seed, trials = _resolve(cfg, args)
    log_tv, kl, log_ctv, max_gap = analysis.simulate_trials(cfg, seed, range(trials))
    from . import trajectories  # the CSV's formatter, which no other command needs
    with _artifact(cfg, args, "trajectories.csv", "wb") as table:
        trajectories.write(table, log_tv, kl, log_ctv)

    final_tv = trajectories.tv(log_tv[:, -1])
    costs = kl.sum(axis=1)
    summary = {
        "config_digest": cfg.digest,
        "n": cfg.model.n,
        "m": cfg.model.m,
        "true_state": cfg.model.true_index,
        "log_bound_B": cfg.B,
        "second_state": cfg.second_state,
        "pairwise_rate_I": cfg.rate,
        "sigma2": cfg.sigma2,
        "spectral_gap": 1.0 - cfg.sigma2,
        "eta": cfg.eta,
        "horizon": cfg.horizon,
        "trials": trials,
        "seed": seed,
        "final_tv_mean_per_agent": final_tv.mean(axis=0).tolist(),
        "final_tv_max": float(final_tv.max()),
        "total_cost_mean_per_agent": costs.mean(axis=0).tolist(),
        "total_cost_max": float(costs.max()),
        "max_potential_gap": max_gap,
    }
    _write_json(cfg, args, "summary.json", summary, indent=2)
    print(f"wrote {table.name} and summary.json (final TV max {summary['final_tv_max']:.3e})")
    return 0


def cmd_verify(cfg, args) -> int:
    seed, trials = _resolve(cfg, args)
    which = args.which
    docs = [{"config_digest": cfg.digest, **rep}
            for rep in analysis.monte_carlo_verify(cfg, which, trials, seed)]
    for doc in docs:
        label = which if doc["checkpoint"] is None else f"{which} at t={doc['checkpoint']}"
        print(f"{label}: {doc['violations']}/{doc['trials']} violations "
              f"(rate {doc['violation_rate']:.4f}, "
              f"threshold {doc['delta'] + doc['slack']:.4f}) -> {doc['verdict']}")
        if 1.0 <= doc["delta"] + doc["slack"]:
            print(f"note: {label} cannot fail on its violations at {doc['trials']} trials: "
                  f"a rate of 1 is within its threshold", file=sys.stderr)
    if which == "theorem1":  # its bound has checked that sigma2 < 1
        outside = ["a random network"] if cfg.process.uniforms else []
        if cfg.eta != analysis.theorem1_learning_rate(cfg.B, cfg.model.n, cfg.sigma2):
            outside.append(f"eta = {cfg.eta!r}, not the theorem's learning rate")
        if outside:
            print(f"note: theorem1 runs outside Theorem 1, which bounds the cost on a fixed "
                  f"network at its learning rate: {' and '.join(outside)}", file=sys.stderr)
    # the report is that of the first failing checkpoint, else of the last one,
    # so its verdict is the overall one; with several it lists them all
    doc = next((d for d in docs if d["verdict"] == "fail"), docs[-1])
    if len(docs) > 1:
        doc = dict(doc, per_checkpoint=docs)
    _write_json(cfg, args, f"verify_{which}.json", doc, indent=2)
    return 0 if doc["verdict"] == "pass" else 1


def cmd_spectral(cfg, args) -> int:
    s2 = cfg.sigma2
    t_values = args.t_values if args.t_values else list(cfg.checkpoints)
    deviation = network.mixing_deviation_sum(cfg.w_bar, t_values, s2, cfg.rho)
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
    # one compact line: with indent, json falls back to its pure-Python
    # encoder over all n^2 entries of E[W]
    _write_json(cfg, args, "spectral.json", doc, indent=None)
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
    except DistDetectError as exc:
        kind = "config invalid" if isinstance(exc, ConfigInvalid) else "error"
        print(f"{kind}: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's message names the size and the shape
        print(f"error: not enough memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
