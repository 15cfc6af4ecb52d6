"""Workload generation: one seeded scenario file plus the commands that run it.

Each workload is made from the benchmark seed alone. The program under test
receives only the generated YAML and the flags listed in `Command.argv`; the
benchmark sets nothing but `--seed`, `--trials`, `--output-dir` and
`--t-values`, so every other setting (the worker count among them) is the
program's own default.

Why these workloads (also recorded in BENCHMARK.json):

- theorem1-fixed8: the shipped fixed Metropolis 8-cycle. Nearly all time is
  the per-step loop of the trial engine; network draws are free and the
  output is one small JSON, so it isolates the engine.
- simulate-gossip4: the shipped gossip 4-cycle under `simulate`. Same engine,
  but full per-step arrays are kept and written as a CSV, so output
  formatting and memory show here.
- ring-gossip-large: a generated gossip ring of RING_N agents. The only
  workload where the network layer (spectral gap, connectivity, per-step
  gossip draws) and per-agent signal sampling carry large costs.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

# Sizes chosen so that one run of every workload fits several invocations in
# the benchmark's run time on a 2-core machine (see BENCHMARK.json).
THEOREM1_TRIALS = 16
GOSSIP4_TRIALS = 4
RING_N = 256  # at n = 512 one sigma2 call alone takes about 5.6 s on 2 cores
RING_M = 3
RING_ALPHABET = 3
RING_HORIZON = 200
RING_TRIALS = 8
RING_T_VALUES = ("16",)


@dataclass(frozen=True)
class Command:
    """One CLI invocation: its arguments after the config path, and what it does."""

    argv: tuple           # e.g. ("verify", "--which", "theorem1", ...)
    trial_steps: int      # trials x horizon it simulates; 0 if it runs no trials

    def args(self, config: Path, outdir: Path) -> list:
        sub, *rest = self.argv
        return [sub, str(config), *rest, "--output-dir", str(outdir)]


# `spectral` with one t value does the set-up every command does (imports,
# config load and validation, expected matrix, sigma2, connectivity) and
# little else.
SETUP = Command(("spectral", "--t-values", "1"), 0)


@dataclass(frozen=True)
class Workload:
    name: str
    config: Path          # the generated scenario file
    seed: int
    commands: tuple       # Commands of one iteration, run in order

    @property
    def trial_steps(self) -> int:
        return sum(c.trial_steps for c in self.commands)


def _shipped(root: Path, name: str) -> dict:
    with open(root / "scenarios" / name) as f:
        return yaml.safe_load(f)


def ring_likelihoods(rng, n: int, m: int, alphabet: int) -> list:
    """Per-agent m x alphabet tables, strictly positive and identifiable.

    Entries lie in [0.2, 1.2] before normalization, so every probability is
    at least 0.2 / (1.2 * alphabet) and the log-bound B stays small. Each
    false state k gets its row from a cyclic shift of the true row for agent
    k, which differs from the true row whenever the true row is not constant,
    and the true row is built with one heavier symbol, so it never is.
    """
    tables = []
    for i in range(n):
        raw = 0.2 + rng.random((m, alphabet))
        raw[0, int(rng.integers(alphabet))] += 0.5
        if i < m - 1:
            raw[i + 1] = np.roll(raw[0], 1)
        tables.append((raw / raw.sum(axis=1, keepdims=True)).tolist())
    return tables


def _ring(rng) -> dict:
    n = RING_N
    return {
        "signal_model": {
            "true_state": 0,
            "agents": ring_likelihoods(rng, n, RING_M, RING_ALPHABET),
        },
        "network": {
            "kind": "gossip",
            "graph": {"n": n, "edges": [[i, (i + 1) % n] for i in range(n)]},
        },
        "horizon": RING_HORIZON,
        "learning_rate": "unit",
        "delta": 0.1,
        "checkpoints": [RING_HORIZON],
        "trials": RING_TRIALS,
    }


def generate(name: str, seed: int, root: Path, workdir: Path) -> Workload:
    """Write the scenario for workload `name` under `workdir` and describe its commands."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    s = str(seed)
    if name == "theorem1-fixed8":
        raw = _shipped(root, "theorem1_8cycle.yaml")
        commands = (Command(("verify", "--which", "theorem1", "--seed", s,
                             "--trials", str(THEOREM1_TRIALS)),
                            THEOREM1_TRIALS * raw["horizon"]),)
    elif name == "simulate-gossip4":
        raw = _shipped(root, "reference_long.yaml")
        commands = (Command(("simulate", "--seed", s,
                             "--trials", str(GOSSIP4_TRIALS)),
                            GOSSIP4_TRIALS * raw["horizon"]),)
    elif name == "ring-gossip-large":
        raw = _ring(rng)
        commands = (
            Command(("spectral", "--t-values", *RING_T_VALUES), 0),
            Command(("verify", "--which", "prop1", "--seed", s,
                     "--trials", str(RING_TRIALS)),
                    RING_TRIALS * RING_HORIZON),
        )
    else:
        raise ValueError(f"unknown workload {name!r}")
    raw["seed"] = seed
    raw["output_dir"] = str(workdir / "out")
    workdir.mkdir(parents=True, exist_ok=True)
    config = workdir / f"{name}.yaml"
    with open(config, "w") as f:
        yaml.safe_dump(raw, f)
    return Workload(name=name, config=config, seed=seed, commands=commands)


NAMES = ("theorem1-fixed8", "simulate-gossip4", "ring-gossip-large")
