"""Output checks, the theorem1 oracle and the self-test of the checks.

Every check fails closed: it returns a list of problems, and anything it
cannot positively confirm (a NaN, a missing key, a short file) is a problem.
"""

import hashlib
import json
import math
import shutil
from pathlib import Path

import numpy as np

CSV_HEADER = ("trial,t,agent,tv_error,log_tv_error,kl_increment,"
              "centralized_tv_error")
# The repository's oracle tolerance (tests/test_acceptance.py), taken relative:
# the theorem1 statistic is about 3e-3, where an absolute 1e-8 would leave the
# last five of its significant digits unchecked.
ORACLE_TOL = 1e-8


def digest(outdir: Path) -> dict:
    """SHA-256 of every file in an output directory, by file name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(outdir.iterdir()) if p.is_file()}


def _load_json(path: Path):
    try:
        with open(path) as f:
            return json.load(f), []
    except (OSError, ValueError) as exc:
        return None, [f"{path.name}: unreadable ({exc})"]


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def check_verify(path: Path, which: str, trials: int) -> list:
    doc, problems = _load_json(path)
    if doc is None:
        return problems
    stats = doc.get("trial_stats") or {}
    if not _finite(stats.get("max_statistic")):
        problems.append(f"max_statistic is {stats.get('max_statistic')!r}, not finite")
    if doc.get("verdict") != "pass":
        problems.append(f"verdict is {doc.get('verdict')!r}, not 'pass'")
    if doc.get("which") != which or doc.get("trials") != trials:
        problems.append(f"report is for {doc.get('which')!r} x {doc.get('trials')!r}")
    return problems


def check_spectral(path: Path, n: int, t_values) -> list:
    doc, problems = _load_json(path)
    if doc is None:
        return problems
    s2 = doc.get("sigma2")
    if not (_finite(s2) and 0 <= s2 < 1):
        problems.append(f"sigma2 is {s2!r}, not in [0, 1)")
    if doc.get("connected_in_expectation") is not True:
        problems.append("not connected in expectation")
    dev = doc.get("mixing_deviation") or []
    if [d.get("t") for d in dev] != [int(t) for t in t_values]:
        problems.append("mixing_deviation t values differ from --t-values")
    elif not all(len(d["per_agent"]) == n and all(map(_finite, d["per_agent"]))
                 for d in dev):
        problems.append("mixing_deviation has missing or non-finite entries")
    return problems


def check_csv(path: Path, trials: int, horizon: int, n: int) -> list:
    try:
        with open(path) as f:
            header = f.readline().rstrip("\r\n")
            data = np.loadtxt(f, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        return [f"{path.name}: unreadable ({exc})"]
    problems = []
    if header != CSV_HEADER:
        problems.append(f"header is {header!r}")
    rows = trials * horizon * n
    if data.shape != (rows, 7):
        return problems + [f"shape {data.shape}, expected ({rows}, 7)"]
    expect = np.stack(np.meshgrid(np.arange(trials), np.arange(1, horizon + 1),
                                  np.arange(n), indexing="ij"), axis=-1)
    if not np.array_equal(data[:, :3], expect.reshape(-1, 3)):
        problems.append("trial/t/agent columns out of order")
    tv, kl, ctv = data[:, 3], data[:, 5], data[:, 6]
    # written as positive tests so that NaN fails them
    if not np.all((tv >= 0) & (tv <= 1)) or not np.all((ctv >= 0) & (ctv <= 1)):
        problems.append("TV outside [0, 1] or NaN")
    if not np.all(kl >= 0):
        problems.append("KL increment negative or NaN")
    return problems


def check_summary(path: Path) -> list:
    doc, problems = _load_json(path)
    if doc is None:
        return problems
    if not (_finite(doc.get("final_tv_max")) and 0 <= doc["final_tv_max"] <= 1):
        problems.append(f"final_tv_max is {doc.get('final_tv_max')!r}")
    return problems


def check_outputs(argv, outdir: Path, exit_code: int, cfg) -> list:
    """Check the artifacts one command wrote; `cfg` is the loaded ScenarioConfig."""
    sub = argv[0]
    trials = int(argv[argv.index("--trials") + 1]) if "--trials" in argv else cfg.trials
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    if sub == "verify":
        which = argv[argv.index("--which") + 1]
        return check_verify(outdir / f"verify_{which}.json", which, trials)
    if sub == "spectral":
        t_values = argv[argv.index("--t-values") + 1:]
        return check_spectral(outdir / "spectral.json", cfg.model.n, t_values)
    return (check_csv(outdir / "trajectories.csv", trials, cfg.horizon, cfg.model.n)
            + check_summary(outdir / "summary.json"))


def theorem1_oracle(cfg, w, seed: int, trials: int, eta: float):
    """Per-trial theorem1 statistics recomputed with the slow reference engines.

    Valid for a fixed network `w` only: it draws no randomness, so
    `signals.sample_step` consumes a trial's generator exactly as the
    production engine does.
    """
    from distdetect import detection, prob, signals

    model = cfg.model
    stats = []
    for r in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(r,)))
        dec = detection.initial_decentralized(model.n, model.m, eta)
        cen = detection.initial_centralized(model.m, eta)
        cost = np.zeros(model.n)
        for _ in range(cfg.horizon):
            sample = signals.sample_step(model, rng)
            dec = detection.decentralized_step(dec, w, sample, model)
            cen = detection.centralized_step(cen, sample, model)
            mu_c = detection.centralized_belief(cen)
            for i, mu in enumerate(detection.beliefs(dec)):
                cost[i] += prob.kl_divergence(mu, mu_c)
        stats.append(float(cost.max()))
    return stats


def oracle_problems(cfg, seed: int, trials: int, report_path: Path) -> list:
    """Compare a theorem1 report's statistics with `theorem1_oracle`."""
    from distdetect import detection, network, signals

    doc, problems = _load_json(report_path)
    if doc is None:
        return problems
    # eta from an exact SVD, independent of the program's spectral-gap routine
    w = network.expected_matrix(cfg.process)
    s2 = float(np.linalg.svd(w - 1.0 / cfg.model.n, compute_uv=False)[0])
    eta = detection.theorem1_learning_rate(signals.log_bound_B(cfg.model), cfg.model.n, s2)
    stats = theorem1_oracle(cfg, w, seed, trials, eta)
    got = doc.get("trial_stats") or {}
    want = {"eta": eta, "max_statistic": max(stats),
            "mean_finite_statistic": float(np.mean(stats))}
    for key, value in want.items():
        g = got.get(key)
        if not (_finite(g) and abs(g - value) <= ORACLE_TOL * abs(value)):
            problems.append(f"oracle {key}: program {g!r}, oracle {value!r}")
    return problems


def self_test(artifacts: dict, cfg) -> list:
    """Corrupt copies of real artifacts and require the checks to reject them.

    `artifacts` maps a command's argv to the directory holding its checked
    output. Returns the corruptions that went undetected.
    """
    undetected = []
    for argv, outdir in artifacts.items():
        for name, corrupt in _corruptions(argv):
            scratch = outdir.with_name(outdir.name + "-corrupt")
            shutil.copytree(outdir, scratch)
            corrupt(scratch)
            if not check_outputs(argv, scratch, 0, cfg):
                undetected.append(f"{argv[0]}: {name}")
            shutil.rmtree(scratch)
    return undetected


def _edit_json(path: Path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def _corruptions(argv):
    sub = argv[0]
    if sub == "verify":
        which = argv[argv.index("--which") + 1]
        report = f"verify_{which}.json"
        yield "NaN statistic", lambda d: _edit_json(
            d / report, lambda doc: doc["trial_stats"].update(max_statistic=math.nan))
        yield "missing verdict", lambda d: _edit_json(
            d / report, lambda doc: doc.pop("verdict"))
    elif sub == "simulate":
        def truncate(d):  # as if the writer died part-way
            p = d / "trajectories.csv"
            data = p.read_bytes()
            p.write_bytes(data[:2 * len(data) // 3])

        def nan_tv(d):
            p = d / "trajectories.csv"
            lines = p.read_bytes().splitlines(keepends=True)
            cols = lines[1].split(b",")
            cols[3] = b"nan"
            lines[1] = b",".join(cols)
            p.write_bytes(b"".join(lines))

        yield "truncated CSV", truncate
        yield "NaN TV in CSV", nan_tv
    elif sub == "spectral":
        yield "NaN sigma2", lambda d: _edit_json(
            d / "spectral.json", lambda doc: doc.update(sigma2=math.nan))
