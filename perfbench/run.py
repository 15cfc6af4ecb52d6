"""Benchmark of the distdetect command line, end to end or traced per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is run from `src/`
through the `distdetect` entry point named in pyproject.toml, exactly as the
installed command would run it. Work files go to `.perfbench_out/`.

With `--trace 0` a run first makes SETUP_PROBES set-up probes (`spectral`
with a single t value: imports, config load and validation, expected matrix,
sigma2 and connectivity), then runs the workload's commands as child
processes with the program's default flags, again and again until the time
is up. It reports medians over the probes or iterations of:

  wall_s             wall time of the workload's commands, process start to exit
  setup_s            wall time of the set-up probe
  cpu_s              user + system CPU of the commands and their worker processes
  peak_rss_mb        peak resident memory of the largest process of a command
                     (per child from wait4, never the cumulative RUSAGE_CHILDREN)
  trial_steps_per_s  trials x horizon over the wall time of the command running them

Failed invocations (an unexpected exit code, a failed output check, or
artifacts that differ from the first invocation's) are counted in the
`failed` / `attempted` fields of the result rather than as a metric, so every
metric stays non-zero.

With `--trace 1` the commands run in this process with pools made inline, and
alternate between untraced and traced iterations; it reports per-module self
times and counts (medians over traced iterations) and `trace.overhead_s`, the
traced minus the untraced median wall time.

Every run also checks the theorem1 statistic of a two-trial invocation
against the slow reference engines (theorem1-fixed8 only) and self-tests its
own checks on corrupted copies of the artifacts. The last line of stdout is
the result JSON; the line before it holds the provenance. Both, with every
sample, are also written to `.perfbench_out/`.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import tomllib
from pathlib import Path

import numpy as np

import checks
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
INVOCATION_TIMEOUT_S = 150
ORACLE_TRIALS = 2
SETUP_PROBES = 3

# (metric, span, field, unit); each value is the median over traced iterations
# of the per-iteration total. "s" is inclusive time, "self_s" excludes child spans.
SPAN_METRICS = (
    ("analysis.simulate_trial.self_s", "analysis.simulate_trial", "self_s", "s"),
    ("analysis.simulate_trial.calls", "analysis.simulate_trial", "calls", "count"),
    ("network.draw.s", "network.draw", "s", "s"),
    ("network.draw.calls", "network.draw", "calls", "count"),
    ("network.sigma2.s", "network.sigma2", "s", "s"),
    ("network.sigma2.calls", "network.sigma2", "calls", "count"),
    ("network.check_expected_connectivity.s", "network.check_expected_connectivity",
     "s", "s"),
    ("network.check_expected_connectivity.calls", "network.check_expected_connectivity",
     "calls", "count"),
    ("network.expected_matrix.calls", "network.expected_matrix", "calls", "count"),
    ("network.mixing_deviation_sum.s", "network.mixing_deviation_sum", "s", "s"),
    ("config.load_config.s", "config.load_config", "s", "s"),
    ("signals.validate_model.s", "signals.validate_model", "s", "s"),
    ("signals.validate_model.calls", "signals.validate_model", "calls", "count"),
    ("analysis.monte_carlo_verify.self_s", "analysis.monte_carlo_verify", "self_s", "s"),
    ("cli.output.s", "cli.output", "self_s", "s"),
)
# Work each command needs once; further calls are redundant, reported as the
# ratio of useful (one per command) to attempted calls.
ONCE_PER_COMMAND = ("network.sigma2", "network.check_expected_connectivity",
                    "network.expected_matrix")


def entry_point():
    """(module, function) of the `distdetect` console script."""
    with open(ROOT / "pyproject.toml", "rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["distdetect"]
    module, func = target.split(":")
    return module, func


def _kill_group(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Runner:
    """Runs program invocations and keeps the tallies of one benchmark run."""

    def __init__(self, wl, cfg, workdir: Path):
        self.wl, self.cfg, self.workdir = wl, cfg, workdir
        self.attempted = 0
        self.problems = []         # (args, problems, log tail) per failed invocation
        self.reference = {}        # command slot -> artifact digest of its first run
        self.kept = {}             # command argv -> copy of its first checked artifacts
        module, func = entry_point()
        self.launch = f"import sys; from {module} import {func}; sys.exit({func}())"
        self.main = getattr(__import__(module, fromlist=[func]), func)
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))

    def spawn(self, args, log_path: Path):
        """Run one child process; returns (exit code, wall s, cpu s, peak RSS MB)."""
        with open(log_path, "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-c", self.launch, *args],
                                    cwd=ROOT, env=self.env, stdout=log,
                                    stderr=subprocess.STDOUT, start_new_session=True)
            timer = threading.Timer(INVOCATION_TIMEOUT_S, _kill_group, (proc,))
            timer.start()
            try:
                _, status, ru = os.wait4(proc.pid, 0)
            except BaseException:
                _kill_group(proc)
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        # wait4 reports the child together with the workers it reaped
        return proc.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0

    def run(self, key, cmd, tracer=None, in_process=False):
        """Run `cmd` in a fresh output directory and check what it wrote.

        `key` names the command slot; its first successful artifacts become
        the reference that later runs must match byte for byte.
        """
        outdir = self.workdir / f"out-{key}"
        shutil.rmtree(outdir, ignore_errors=True)
        outdir.mkdir(parents=True)
        args = cmd.args(self.wl.config, outdir)
        self.attempted += 1
        if in_process:
            code, wall, log = spans.invoke(self.main, args, tracer)
            usage = None
        else:
            code, wall, cpu, rss = self.spawn(args, self.workdir / f"log-{key}")
            log = (self.workdir / f"log-{key}").read_text(errors="replace")
            usage = (cpu, rss)
        problems = self._check(key, cmd, outdir, code)
        if problems:
            self.problems.append((args, problems, log[-2000:]))
        return wall, usage, outdir

    def _check(self, key, cmd, outdir, code):
        digest = checks.digest(outdir) if outdir.is_dir() else {}
        if key not in self.reference:
            problems = checks.check_outputs(cmd.argv, outdir, code, self.cfg)
            if not problems:
                self.reference[key] = digest
                kept = self.workdir / f"first-{key}"
                shutil.copytree(outdir, kept)
                self.kept[cmd.argv] = kept
            return problems
        if code != 0:
            return [f"exit code {code}"]
        if digest != self.reference[key]:
            return ["artifacts differ from the first invocation's"]
        return []


def _median(values):
    return float(statistics.median(values))


def end_to_end(runner, wl, deadline):
    """Set-up probes, then the workload's commands until the deadline; medians."""
    setup = [runner.run("setup", workloads.SETUP)[0] for _ in range(SETUP_PROBES)]
    samples = []
    while True:
        t0 = time.perf_counter()
        wall = cpu = rss = trial_wall = 0.0
        for k, cmd in enumerate(wl.commands):
            w, (c, r), _ = runner.run(k, cmd)
            wall, cpu, rss = wall + w, cpu + c, max(rss, r)
            if cmd.trial_steps:
                trial_wall += w
        samples.append({"wall_s": wall, "cpu_s": cpu,
                        "peak_rss_mb": rss,
                        "trial_steps_per_s": wl.trial_steps / trial_wall,
                        "iteration_s": time.perf_counter() - t0})
        typical = _median([s["iteration_s"] for s in samples])
        if time.perf_counter() + typical > deadline:
            break
    units = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "trial_steps_per_s": "1/s"}
    metrics = {name: {"value": _median([s[name] for s in samples]), "unit": unit}
               for name, unit in units.items()}
    metrics["setup_s"] = {"value": _median(setup), "unit": "s"}
    return metrics, {"setup_s": setup, "iterations": samples}


def per_module(runner, wl, deadline):
    """Alternate untraced and traced in-process iterations until the deadline."""
    untraced, traced = [], []
    while True:
        t0 = time.perf_counter()
        untraced.append(sum(runner.run(k, cmd, in_process=True)[0]
                            for k, cmd in enumerate(wl.commands)))
        tracer = spans.Tracer()
        walls, output_bytes = 0.0, 0
        for k, cmd in enumerate(wl.commands):
            w, _, outdir = runner.run(k, cmd, tracer=tracer, in_process=True)
            walls += w
            output_bytes += sum(p.stat().st_size for p in outdir.iterdir())
        traced.append((walls, output_bytes, spans.summarize(tracer.spans)))
        if time.perf_counter() + (time.perf_counter() - t0) > deadline:
            break

    def stat(name, field):
        return _median([s.get(name, {}).get(field, 0) for _, _, s in traced])

    values = {metric: (stat(name, field), unit)
              for metric, name, field, unit in SPAN_METRICS}
    for name in ONCE_PER_COMMAND:
        calls = stat(name, "calls")
        values[f"{name}.useful_ratio"] = (len(wl.commands) / calls if calls else 1.0,
                                          "ratio")
    values["analysis.simulate_trial.step_us"] = (
        1e6 * values["analysis.simulate_trial.self_s"][0] / wl.trial_steps, "us")
    values["cli.output.bytes"] = (_median([b for _, b, _ in traced]), "bytes")
    values["trace.overhead_s"] = (
        _median([w for w, _, _ in traced]) - _median(untraced), "s")
    metrics = {k: {"value": float(v), "unit": u} for k, (v, u) in values.items()}
    samples = {"untraced_wall_s": untraced,
               "traced": [{"wall_s": w, "bytes": b, "spans": s} for w, b, s in traced]}
    return metrics, samples


def oracle_check(runner, wl):
    """theorem1 statistic of a small invocation against the reference engines."""
    argv = list(wl.commands[0].argv)
    argv[argv.index("--trials") + 1] = str(ORACLE_TRIALS)
    cmd = workloads.Command(tuple(argv), 0)
    failed_before = len(runner.problems)
    runner.run("oracle", cmd)
    if len(runner.problems) > failed_before:
        return False
    report = runner.workdir / "out-oracle" / "verify_theorem1.json"
    problems = checks.oracle_problems(runner.cfg, wl.seed, ORACLE_TRIALS, report)
    if problems:
        runner.problems.append((cmd.argv, problems, ""))
        return False
    return True


def provenance(args):
    sha = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        sha = res.stdout.strip() or None
    src = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        src.update(p.relative_to(ROOT).as_posix().encode() + b"\0" + p.read_bytes())
    return {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "cores": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine(), "git_sha": sha,
            "src_sha256": src.hexdigest()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    missing = [d for d in ("src/distdetect", "scenarios") if not (ROOT / d).is_dir()]
    if missing or not (ROOT / "pyproject.toml").is_file():
        print(f"perfbench: not a distdetect checkout (missing {missing or 'pyproject.toml'})",
              file=sys.stderr)
        return 2

    workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    wl = workloads.generate(args.workload, args.seed, ROOT, workdir)
    sys.path.insert(0, str(ROOT / "src"))
    from distdetect.config import load_config
    from distdetect.errors import ConfigInvalid
    try:
        cfg = load_config(wl.config)
    except ConfigInvalid as exc:
        print(f"perfbench: generated scenario is invalid: {exc}", file=sys.stderr)
        return 1

    prov = provenance(args)
    runner = Runner(wl, cfg, workdir)
    deadline = time.perf_counter() + args.seconds
    if args.trace:
        metrics, samples = per_module(runner, wl, deadline)
    else:
        metrics, samples = end_to_end(runner, wl, deadline)

    oracle_ok = oracle_check(runner, wl) if wl.name == "theorem1-fixed8" else None
    undetected = checks.self_test(runner.kept, cfg)
    failed = len(runner.problems)
    result = {"correct": failed == 0 and not undetected and oracle_ok is not False,
              "attempted": runner.attempted, "failed": failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    record = {"provenance": prov, "result": result, "samples": samples,
              "oracle_ok": oracle_ok, "self_test_undetected": undetected,
              "problems": [{"argv": list(a), "problems": pr, "log": lg}
                           for a, pr, lg in runner.problems]}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    shutil.rmtree(workdir, ignore_errors=True)
    for a, pr, lg in runner.problems:
        print(f"perfbench: failed: {' '.join(map(str, a))}: {pr}\n{lg}", file=sys.stderr)
    for u in undetected:
        print(f"perfbench: self-test: corruption not detected: {u}", file=sys.stderr)
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
