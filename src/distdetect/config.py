"""Declarative experiment configs (YAML) and their validation.

A config is an `analysis.Scenario` plus its run settings (trials, seed,
output directory, digest). The signal model checks its own assumptions, the
scenario checks the network against the model (sizes, A3 connectivity) and
the inputs of the bounds, and this module the types of the values and the
run settings; each failure is raised as ConfigInvalid naming the specific
violation.
"""

import hashlib
import json
import math

import yaml

from . import analysis, network, signals
from .errors import ConfigInvalid, DistDetectError


class ScenarioConfig(analysis.Scenario):
    """A checked `analysis.Scenario` and the settings of one run."""

    def __init__(self, trials: int, seed: int, output_dir: str, digest: str, **scenario):
        super().__init__(**scenario)
        self.trials = trials
        self.seed = seed
        self.output_dir = output_dir
        self.digest = digest


def config_digest(raw: dict) -> str:
    """SHA-256 of the canonical JSON serialization of the config tree."""
    canon = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


# the one key each network kind takes besides `kind`
NETWORK_KEYS = {"fixed": "matrix", "finite_support": "support", "gossip": "graph",
                "metropolis": "graph"}


def _build_process(spec, n: int) -> network.NetworkProcess:
    kind = _node(spec, "network", ("kind", "matrix", "support", "graph")).get("kind")
    if not isinstance(kind, str) or kind not in NETWORK_KEYS:
        raise ConfigInvalid(f"network kind must be one of {', '.join(NETWORK_KEYS)}, got {kind!r}")
    value = _node(spec, f"{kind} network", ("kind", NETWORK_KEYS[kind]))[NETWORK_KEYS[kind]]
    if kind == "fixed":
        return network.fixed_process(_rows(value, "matrix"))
    if kind == "finite_support":
        support = [_node(item, "support entry", ("matrix", "prob"))
                   for item in _node(value, "support")]
        pairs = [(_rows(item["matrix"], "matrix"), _finite(item["prob"], "prob"))
                 for item in support]
        return network.finite_support_process(pairs)
    g = _node(value, "graph", ("n", "edges"))
    if _whole(g["n"], "graph n", 1) != n:  # before anything is sized by it
        raise ConfigInvalid(f"graph n must equal the number of agents, {n}, got {g['n']!r}")
    edges = g["edges"]
    if not isinstance(edges, list) or not all(isinstance(e, list) and len(e) == 2
                                              for e in edges):
        raise ConfigInvalid("edges must be a list of two-element lists")
    edges = [[_whole(v, "edges endpoint", 0) for v in e] for e in edges]
    if kind == "gossip":
        return network.gossip_process(n, edges)
    return network.fixed_process(network.metropolis_matrix(n, edges))


def _node(value, name: str, keys=None):
    """`value` if it is a mapping whose keys are all among `keys`, or for keys None a list."""
    if not isinstance(value, list if keys is None else dict):
        what = "a list" if keys is None else "a mapping"
        raise ConfigInvalid(f"{name} must be {what}, got {type(value).__name__}")
    for key in value if keys is not None else ():
        if key not in keys:
            raise ConfigInvalid(f"{name} has unknown key {key!r} (known: {', '.join(keys)})")
    return value


def _whole(value, name: str, minimum: int, maximum=math.inf) -> int:
    """A whole number in [minimum, maximum]; floats are accepted only when integral."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int) or not minimum <= value <= maximum:
        raise ConfigInvalid(
            f"{name} must be a whole number in [{minimum}, {maximum}], got {value!r}")
    return value


def _finite(value, name: str) -> float:
    """A finite int or float, as a float. YAML booleans are Python ints, but not numbers here."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an int beyond the float range
            pass
    raise ConfigInvalid(f"{name} must be a finite number, got {value!r}")


def _rows(rows, name: str) -> list:
    """A table given as a list of equal-length lists, each entry checked by `_finite`."""
    if (not isinstance(rows, list) or not all(isinstance(row, list) for row in rows)
            or len({len(row) for row in rows}) > 1):
        raise ConfigInvalid(f"{name} must be a list of equal-length lists of numbers")
    return [[_finite(x, f"{name} entry") for x in row] for row in rows]


def load_config(path) -> ScenarioConfig:
    try:
        with open(path) as f:
            raw = yaml.load(f, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except (OSError, UnicodeDecodeError, yaml.YAMLError) as exc:
        raise ConfigInvalid(f"cannot read {path}: {exc}") from exc
    try:
        return _build_config(raw)
    except ConfigInvalid:
        raise
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        prefix = "" if isinstance(exc, DistDetectError) else f"{type(exc).__name__}: "
        raise ConfigInvalid(prefix + str(exc)) from exc


def _build_config(raw) -> ScenarioConfig:
    _node(raw, "config", ("signal_model", "network", "horizon", "trials", "seed", "delta",
                          "learning_rate", "output_dir", "checkpoints"))
    spec = _node(raw["signal_model"], "signal_model", ("agents", "true_state"))
    model = signals.SignalModel([_rows(t, "agents") for t in _node(spec["agents"], "agents")],
                                _whole(spec.get("true_state", 0), "true_state", 0))
    process = _build_process(raw["network"], model.n)
    horizon = _whole(raw.get("horizon", 1), "horizon", 1, network.T_MAX)
    # a run costs the engine at least trials x 1 x 2 x 2, so no more trials can run
    trials = _whole(raw.get("trials", 1), "trials", 1, analysis.ENGINE_WORK_CAP)
    seed = _whole(raw.get("seed", 0), "seed", 0)
    delta = _finite(raw.get("delta", 0.1), "delta")
    lr = raw.get("learning_rate", "unit")
    if lr not in ("unit", "theorem1"):
        lr = _finite(lr, "learning_rate other than 'unit' or 'theorem1'")
    output_dir = raw.get("output_dir", "out")
    if not isinstance(output_dir, str):
        raise ConfigInvalid(f"output_dir must be a string, got {output_dir!r}")
    checkpoints = tuple(_whole(t, "checkpoints", 1)
                        for t in _node(raw.get("checkpoints", []), "checkpoints"))
    ordered = sorted(checkpoints)
    if ordered and ordered[-1] > horizon:
        raise ConfigInvalid(f"checkpoint {ordered[-1]} outside [1, horizon={horizon}]")
    for t, after in zip(ordered, ordered[1:]):
        if t == after:
            raise ConfigInvalid(f"checkpoint {t} is listed more than once")

    return ScenarioConfig(
        model=model,
        process=process,
        horizon=horizon,
        learning_rate=lr,
        delta=delta,
        checkpoints=checkpoints,
        trials=trials,
        seed=seed,
        output_dir=output_dir,
        digest=config_digest(raw),
    )
