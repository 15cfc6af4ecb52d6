import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from distdetect import analysis, cli, network, signals, trajectories
from distdetect.config import config_digest, load_config
from distdetect.errors import ConfigInvalid

SCENARIOS = sorted((Path(__file__).resolve().parents[1] / "scenarios").glob("*.yaml"))

SMALL_CONFIG = {
    "signal_model": {
        "true_state": 0,
        "agents": [
            [[0.8, 0.2], [0.5, 0.5], [0.8, 0.2]],
            [[0.8, 0.2], [0.8, 0.2], [0.5, 0.5]],
            [[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]],
            [[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]],
        ],
    },
    "network": {
        "kind": "gossip",
        "graph": {"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [3, 0]]},
    },
    "horizon": 40,
    "learning_rate": "unit",
    "delta": 0.1,
    "checkpoints": [40],
    "trials": 3,
    "seed": 11,
}


# Metropolis weights of the 4-cycle
RING4 = [[0.5, 0.25, 0, 0.25], [0.25, 0.5, 0.25, 0], [0, 0.25, 0.5, 0.25], [0.25, 0, 0.25, 0.5]]


def write_config(tmp_path, overrides=None, name="scenario.yaml"):
    raw = json.loads(json.dumps(SMALL_CONFIG))  # deep copy
    raw["output_dir"] = str(tmp_path / "out")
    for key, value in (overrides or {}).items():
        node = raw
        *parents, leaf = key.split(".")
        for p in parents:
            node = node[p]
        node[leaf] = value
    path = tmp_path / name
    path.write_text(yaml.safe_dump(raw))
    return path


class TestConfigLoading:
    def test_round_trip(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        assert cfg.model.n == 4 and cfg.model.m == 3
        assert cfg.process.atoms.tolist() == [[0, 1], [0, 3], [1, 2], [2, 3]]
        assert cfg.process.probs.tolist() == [0.25] * 4
        assert cfg.checkpoints == (40,)

    def test_largest_horizon_accepted(self, tmp_path):
        # horizons above it exit 2 (test_invalid_input_exits_2_without_traceback)
        assert load_config(write_config(tmp_path, {"horizon": 2**63 - 1})).horizon == 2**63 - 1

    def test_unidentifiable_model_rejected(self, tmp_path):
        uninf = [[[0.5, 0.5]] * 3] * 4
        path = write_config(tmp_path, {"signal_model.agents": uninf})
        with pytest.raises(ConfigInvalid, match="observationally equivalent"):
            load_config(path)

    def test_disconnected_network_rejected(self, tmp_path):
        path = write_config(tmp_path, {"network": {"kind": "fixed", "matrix": np.eye(4).tolist()}})
        with pytest.raises(ConfigInvalid, match="A3"):
            load_config(path)

    def test_dimension_mismatch_rejected(self, tmp_path):
        path = write_config(tmp_path, {"network.graph.n": 5})
        with pytest.raises(ConfigInvalid, match="graph n must equal the number of agents, 4"):
            load_config(path)

    @pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
    def test_digest_independent_of_yaml_parser(self, path):
        # libyaml, when present, must build the same tree as the pure-Python parser
        raw = yaml.load(path.read_text(), Loader=yaml.SafeLoader)
        assert load_config(path).digest == config_digest(raw)

    def test_bad_delta_rejected(self, tmp_path):
        path = write_config(tmp_path, {"delta": 1.5})
        with pytest.raises(ConfigInvalid):
            load_config(path)


class TestSimulateCommand:
    def test_exit_zero_and_outputs(self, tmp_path):
        path = write_config(tmp_path)
        assert cli.main(["simulate", str(path)]) == 0
        out = tmp_path / "out"
        assert (out / "trajectories.csv").exists()
        assert (out / "summary.json").exists()

    def test_invalid_model_exits_nonzero(self, tmp_path, capsys):
        uninf = [[[0.5, 0.5]] * 3] * 4
        path = write_config(tmp_path, {"signal_model.agents": uninf})
        assert cli.main(["simulate", str(path)]) == 2
        assert "observationally equivalent" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        path = write_config(tmp_path)
        cli.main(["simulate", str(path)])
        first = (tmp_path / "out" / "trajectories.csv").read_bytes()
        cli.main(["simulate", str(path)])
        assert (tmp_path / "out" / "trajectories.csv").read_bytes() == first

    def test_fewer_trials_give_csv_prefix(self, tmp_path):
        path = write_config(tmp_path)
        for trials in (2, 4):
            assert cli.main(["simulate", str(path), "--trials", str(trials),
                             "--output-dir", str(tmp_path / f"t{trials}")]) == 0
        two = (tmp_path / "t2" / "trajectories.csv").read_bytes()
        four = (tmp_path / "t4" / "trajectories.csv").read_bytes()
        assert len(four) > len(two) and four.startswith(two)

    def test_summary_consistent_with_model(self, tmp_path):
        path = write_config(tmp_path)
        cfg = load_config(path)
        cli.main(["simulate", str(path)])
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        k2, rate = signals.second_state(cfg.model)
        assert summary["second_state"] == k2
        assert summary["pairwise_rate_I"] == pytest.approx(rate, abs=1e-15)
        assert summary["config_digest"] == cfg.digest

    def test_csv_column_order(self, tmp_path):
        path = write_config(tmp_path)
        cli.main(["simulate", str(path)])
        with open(tmp_path / "out" / "trajectories.csv") as f:
            header = next(csv.reader(f))
        assert header == [
            "trial", "t", "agent", "tv_error", "log_tv_error",
            "kl_increment", "centralized_tv_error",
        ]

    def test_csv_bytes_match_reference_writer(self, tmp_path, monkeypatch):
        # rows are formatted in chunks; a chunk size that divides nothing
        # exercises rows split across chunks, trials and steps
        monkeypatch.setattr(trajectories, "CSV_CHUNK", 7)
        path = write_config(tmp_path, {"learning_rate": 1000.0})  # TV underflows, its log does not
        cfg = load_config(path)
        assert cli.main(["simulate", str(path)]) == 0
        log_tv, kl_increment, centralized_log_tv, _ = analysis.simulate_trials(
            cfg, cfg.seed, range(cfg.trials))
        tv_error, centralized_tv = np.exp(log_tv), np.exp(centralized_log_tv)
        ref = io.StringIO(newline="")
        wr = csv.writer(ref)
        wr.writerow(["trial", "t", "agent", "tv_error", "log_tv_error",
                     "kl_increment", "centralized_tv_error"])
        for r in range(cfg.trials):
            for t in range(cfg.horizon):
                for i in range(cfg.model.n):
                    wr.writerow([r, t + 1, i] + [format(float(x), ".17g") for x in (
                        tv_error[r, t, i], log_tv[r, t, i],
                        kl_increment[r, t, i], centralized_tv[r, t])])
        written = (tmp_path / "out" / "trajectories.csv").read_bytes()
        assert b",0," in written and b"inf" not in written
        assert written == ref.getvalue().encode()

    def test_csv_bytes_match_reference_writer_on_fixed_network(self, tmp_path, monkeypatch):
        # a fixed Metropolis 8-cycle (n = 8, m = 2), whose one atom takes no
        # uniform, written in a single chunk larger than the table
        monkeypatch.setattr(trajectories, "CSV_CHUNK", 10**6)
        path = write_config(tmp_path, {
            "signal_model.agents": [[[0.8, 0.2], [0.2, 0.8]], [[0.5, 0.5], [0.5, 0.5]]] * 4,
            "network": {"kind": "metropolis",
                        "graph": {"n": 8, "edges": [[i, (i + 1) % 8] for i in range(8)]}},
        })
        cfg = load_config(path)
        assert cfg.process.uniforms == 0
        assert cli.main(["simulate", str(path)]) == 0
        log_tv, kl_increment, centralized_log_tv, _ = analysis.simulate_trials(
            cfg, cfg.seed, range(cfg.trials))
        tv_error, centralized_tv = np.exp(log_tv), np.exp(centralized_log_tv)
        rows = [b"trial,t,agent,tv_error,log_tv_error,kl_increment,centralized_tv_error"]
        for (r, t, i), tv in np.ndenumerate(tv_error):
            rows.append(b"%d,%d,%d,%.17g,%.17g,%.17g,%.17g" % (
                r, t + 1, i, tv, log_tv[r, t, i], kl_increment[r, t, i], centralized_tv[r, t]))
        assert len(rows) - 1 == 3 * 40 * 8 < trajectories.CSV_CHUNK
        written = (tmp_path / "out" / "trajectories.csv").read_bytes()
        assert written == b"\r\n".join(rows) + b"\r\n"

    def test_csv_round_trips_floats(self, tmp_path):
        path = write_config(tmp_path)
        cli.main(["simulate", str(path)])
        with open(tmp_path / "out" / "trajectories.csv") as f:
            rows = list(csv.DictReader(f))
        # 3 trials x 40 steps x 4 agents
        assert len(rows) == 3 * 40 * 4
        for row in rows[:50]:
            tv = float(row["tv_error"])
            assert 0.0 <= tv <= 1.0
            assert float(row["kl_increment"]) >= 0.0

    def test_tv_capped_at_one(self, tmp_path):
        # at eta = 40 the true state's belief nears 0 early on, where a sum of
        # the false states' beliefs can round an ulp above 1; e^(log TV) cannot
        path = write_config(tmp_path, {"learning_rate": 40})
        assert cli.main(["simulate", str(path)]) == 0
        with open(tmp_path / "out" / "trajectories.csv") as f:
            rows = list(csv.DictReader(f))
        assert max(float(r["tv_error"]) for r in rows) <= 1.0
        assert max(float(r["centralized_tv_error"]) for r in rows) <= 1.0
        assert max(float(r["log_tv_error"]) for r in rows) <= 0.0


# '%.17g' edge cases: zeros, infinities and nan, the extreme doubles, every
# power of ten (as 10.0**k and correctly rounded) with both neighbours, the
# points where %g switches between fixed and exponent notation, and two
# exact ties (round half to even)
FLOAT_EDGES = [0.0, math.inf, math.nan, 5e-324, 2.2250738585072014e-308,
               1.7976931348623157e308, 1234567890123456.75, 1234567890123456.25]
FLOAT_EDGES += [v for p in [10.0**k for k in range(-323, 309)]
                + [float(f"1e{k}") for k in range(-323, 309)] + [1e-5, 1e-4, 1e16, 1e17]
                for v in (np.nextafter(p, 0), p, np.nextafter(p, math.inf))]


def format17_text(values, sep=b","):
    words = np.ascontiguousarray(trajectories._format17(np.asarray(values, np.float64), sep))
    return [bytes(row[row != 0]) for row in words.view(np.uint8)]


class TestFormat17:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(
        st.integers(0, 2**64 - 1).map(lambda b: float(np.array(b, np.uint64).view(np.float64))),
        st.floats()), min_size=1, max_size=40))
    def test_matches_python(self, values):
        assert format17_text(values) == [b"%.17g," % v for v in values]

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_python_on_random_doubles(self, seed):
        # random bit patterns, and magnitudes uniform in log scale
        rng = np.random.default_rng(seed)
        values = np.concatenate([rng.integers(0, 2**64, 20000, np.uint64).view(np.float64),
                                 np.exp(rng.uniform(-740, 709, 20000))])
        assert format17_text(values) == [b"%.17g," % v for v in values.tolist()]
        # Python formats only the few values whose 17 digits are in doubt
        finite = np.abs(values[np.isfinite(values) & (values != 0)])
        assert np.count_nonzero(~trajectories._round17(finite)[2]) < 0.01 * len(finite)

    def test_named_edges(self):
        values = FLOAT_EDGES + [-v for v in FLOAT_EDGES]
        assert format17_text(values, b"\r\n") == [b"%.17g\r\n" % v for v in values]

    def test_exact_ties_fall_back_to_python(self):
        ties = [1234567890123456.75, 1234567890123456.25]
        assert not trajectories._round17(np.array(ties))[2].any()
        assert format17_text(ties) == [b"1234567890123456.8,", b"1234567890123456.2,"]

    @pytest.mark.parametrize("off", [-1, 1])
    def test_exponent_off_by_one_falls_back_to_python(self, monkeypatch, off):
        # floor(log10 |v|) can miss by one next to a power of ten; every such
        # value must be left to Python, whichever way it misses
        rng = np.random.default_rng(7)
        values = np.exp(rng.uniform(-690, 690, 5000)) * rng.choice([-1, 1], 5000)
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda a: log10(a) + off)
        assert not trajectories._round17(np.abs(values))[2].any()
        assert format17_text(values) == [b"%.17g," % v for v in values.tolist()]


class TestVerifyCommand:
    def test_smoke_prop1(self, tmp_path):
        path = write_config(tmp_path, {"trials": 30})
        code = cli.main(["verify", str(path), "--which", "prop1"])
        report = json.loads((tmp_path / "out" / "verify_prop1.json").read_text())
        assert 0.0 <= report["violation_rate"] <= 1.0
        assert code == (0 if report["verdict"] == "pass" else 1)
        assert report["bound"]["total"] == pytest.approx(
            sum(report["bound"]["terms"].values())
        )

    def test_doubling_trials_reuses_prefix(self, tmp_path):
        path = write_config(tmp_path, {"trials": 10})
        cli.main(["verify", str(path), "--which", "prop1",
                  "--output-dir", str(tmp_path / "a")])
        cli.main(["verify", str(path), "--which", "prop1",
                  "--trials", "20", "--output-dir", str(tmp_path / "b")])
        a = json.loads((tmp_path / "a" / "verify_prop1.json").read_text())
        b = json.loads((tmp_path / "b" / "verify_prop1.json").read_text())
        # the first 10 trials are shared; the max statistic can only grow
        assert b["trial_stats"]["max_statistic"] >= a["trial_stats"]["max_statistic"]

    def test_every_prop1_checkpoint_is_checked(self, tmp_path, monkeypatch):
        real = analysis.prop1_log_tv_bound

        def broken_late(*args, **kwargs):  # a bound no statistic can meet, from t = 30 on
            rep = real(*args, **kwargs)
            return rep if args[-1] < 30 else dict(rep, total=-1e9)

        monkeypatch.setattr(analysis, "prop1_log_tv_bound", broken_late)
        path = write_config(tmp_path, {"checkpoints": [10, 40], "trials": 4})
        assert cli.main(["verify", str(path), "--which", "prop1"]) == 1
        report = json.loads((tmp_path / "out" / "verify_prop1.json").read_text())
        assert report["verdict"] == "fail" and report["checkpoint"] == 40
        assert [(c["checkpoint"], c["verdict"]) for c in report["per_checkpoint"]] == [
            (10, "pass"), (40, "fail")]
        assert report["which"] == "prop1" and report["trials"] == 4
        assert math.isfinite(report["trial_stats"]["max_statistic"])

    def test_prop1_at_theorem1_learning_rate_passes(self, tmp_path):
        # eta is far below 1 here; the bound scales with eta as the beliefs do
        path = next(p for p in SCENARIOS if p.stem == "theorem1_8cycle")
        assert cli.main(["verify", str(path), "--which", "prop1", "--trials", "40",
                         "--output-dir", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "verify_prop1.json").read_text())
        assert report["violations"] == 0 and report["trial_stats"]["eta"] < 0.01
        assert report["trial_stats"]["max_statistic"] < report["bound"]["total"]

    def test_theorem1_smoke(self, tmp_path):
        path = write_config(tmp_path, {"trials": 5, "learning_rate": "theorem1"})
        code = cli.main(["verify", str(path), "--which", "theorem1"])
        assert code == 0
        report = json.loads((tmp_path / "out" / "verify_theorem1.json").read_text())
        assert report["verdict"] == "pass"


REPORT_KEYS = {"config_digest", "which", "trials", "violations", "violation_rate", "delta",
               "slack", "verdict", "bound", "trial_stats", "seed", "checkpoint", "horizon"}


def test_report_schemas(tmp_path):
    # the reports are built as plain dicts, so a dropped or renamed key fails here
    path = write_config(tmp_path, {"checkpoints": [10, 40], "trials": 2})
    assert cli.main(["simulate", str(path)]) == 0
    for which in ("theorem1", "prop1"):
        assert cli.main(["verify", str(path), "--which", which]) in (0, 1)
    out = tmp_path / "out"
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary) == {
        "config_digest", "n", "m", "true_state", "log_bound_B", "second_state",
        "pairwise_rate_I", "sigma2", "spectral_gap", "eta", "horizon", "trials", "seed",
        "final_tv_mean_per_agent", "final_tv_max", "total_cost_mean_per_agent",
        "total_cost_max", "max_potential_gap"}
    theorem1 = json.loads((out / "verify_theorem1.json").read_text())
    prop1 = json.loads((out / "verify_prop1.json").read_text())
    assert set(theorem1) == REPORT_KEYS
    assert set(prop1) == REPORT_KEYS | {"per_checkpoint"}
    assert len(prop1["per_checkpoint"]) == 2
    assert all(set(entry) == REPORT_KEYS for entry in prop1["per_checkpoint"])
    inputs = {"B", "I", "m", "n", "delta", "sigma2"}
    for report in (theorem1, prop1, *prop1["per_checkpoint"]):
        assert set(report["bound"]) == {"total", "terms", "inputs", "notes"}
        assert set(report["trial_stats"]) == {
            "eta", "max_statistic", "mean_finite_statistic", "nonfinite_statistics"}
    assert set(theorem1["bound"]["terms"]) == {"concentration", "network"}
    assert set(theorem1["bound"]["inputs"]) == inputs
    for report in (prop1, *prop1["per_checkpoint"]):
        assert set(report["bound"]["terms"]) == {"rate", "fluctuation", "network", "log_m"}
        assert set(report["bound"]["inputs"]) == inputs | {"t"}


class TestSpectralCommand:
    def test_gossip_cycle(self, tmp_path):
        raw = {
            "signal_model": SMALL_CONFIG["signal_model"],
            "network": {
                "kind": "gossip",
                "graph": {"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [3, 0]]},
            },
            "horizon": 10,
            "trials": 1,
            "seed": 0,
            "output_dir": str(tmp_path / "out"),
        }
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(raw))
        assert cli.main(["spectral", str(path), "--t-values", "1", "5"]) == 0
        doc = json.loads((tmp_path / "out" / "spectral.json").read_text())
        assert doc["connected_in_expectation"] is True
        assert 0.0 < doc["sigma2"] < 1.0
        assert len(doc["mixing_deviation"]) == 2

    def test_bad_t_values_exit_2(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert cli.main(["spectral", str(path), "--t-values", "3", "0"]) == 2
        with pytest.raises(SystemExit) as exc:
            cli.main(["spectral", str(path), "--t-values", "ten"])
        assert exc.value.code == 2
        capsys.readouterr()
        # beyond int64: rejected by value before any work
        big = "99999999999999999999999"
        assert cli.main(["spectral", str(path), "--t-values", "5", big]) == 2
        assert big in capsys.readouterr().err
        assert not (tmp_path / "out" / "spectral.json").exists()

    @pytest.mark.parametrize("flag", ["--seed", "--trials"])
    def test_seed_and_trials_not_accepted(self, tmp_path, capsys, flag):
        # spectral draws nothing, so neither flag could change its output
        path = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(["spectral", str(path), flag, "3"])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unusable_output_dir_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path)
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert cli.main(["spectral", str(path), "--output-dir", str(blocker / "out")]) == 2
        assert "output directory" in capsys.readouterr().err

    def test_identity_disconnected(self, tmp_path, capsys):
        path = write_config(tmp_path, {"network": {"kind": "fixed", "matrix": np.eye(4).tolist()}})
        assert cli.main(["spectral", str(path)]) == 2  # rejected at config validation
        assert "A3" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["simulate"], ["spectral"], ["verify", "--which", "theorem1"],
    ["verify", "--which", "prop1"],
], ids=lambda c: c[-1])
def test_scenario_checked_and_derived_once(tmp_path, monkeypatch, command):
    calls = {}
    for owner, name in ((network, "expected_matrix"), (network, "sigma2"),
                        (signals, "validate_model"), (signals, "log_bound_B"),
                        (signals, "second_state")):
        def counted(*args, _fn=getattr(owner, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args)
        monkeypatch.setattr(owner, name, counted)
    path = write_config(tmp_path, {"checkpoints": [10, 40]})
    assert cli.main([command[0], str(path), *command[1:]]) in (0, 1)
    assert calls == {"expected_matrix": 1, "sigma2": 1, "validate_model": 1,
                     "log_bound_B": 1, "second_state": 1}


# the artifact each command opens first
FIRST_ARTIFACT = [(["simulate"], "trajectories.csv"), (["spectral"], "spectral.json"),
                  (["verify", "--which", "prop1"], "verify_prop1.json")]


@pytest.mark.parametrize("command, artifact", FIRST_ARTIFACT,
                         ids=["simulate", "spectral", "verify"])
def test_unopenable_artifact_exits_2(tmp_path, capsys, command, artifact):
    path = write_config(tmp_path)
    (tmp_path / "out" / artifact).mkdir(parents=True)
    assert cli.main([command[0], str(path), *command[1:]]) == 2
    err = capsys.readouterr().err
    assert artifact in err and str(tmp_path / "out") in err
    assert "Traceback" not in err


# the zero-diagonal 4-cycle with weight 1/2 per edge: connected, but E[W]
# has eigenvalue -1, so sigma2 = 1 and the spectral gap is 0
HALF_CYCLE4 = [[0, 0.5, 0, 0.5], [0.5, 0, 0.5, 0], [0, 0.5, 0, 0.5], [0.5, 0, 0.5, 0]]


@pytest.mark.parametrize("command", [
    ["simulate"], ["spectral"], ["verify", "--which", "theorem1"],
    ["verify", "--which", "prop1"],
], ids=lambda c: c[-1])
def test_zero_gap_theorem1_rate_refused_at_load(tmp_path, capsys, command):
    path = write_config(tmp_path, {"network": {"kind": "fixed", "matrix": HALF_CYCLE4},
                                   "learning_rate": "theorem1"})
    assert cli.main([command[0], str(path), *command[1:]]) == 2
    assert "config invalid: sigma2 must lie in [0, 1), got 1.0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# 2 agents that swap potentials: connected, period 2, so E[W] = W has no spectral gap
SWAP = {"signal_model.agents": [[[0.8, 0.2], [0.2, 0.8]], [[0.5, 0.5]] * 2],
        "network": {"kind": "fixed", "matrix": [[0, 1], [1, 0]]}}
NO_GAP = "the expected network has no spectral gap (sigma2 = 1)"


@pytest.mark.parametrize("command", [
    ["simulate"], ["spectral"], ["verify", "--which", "prop1"],
], ids=lambda c: c[-1])
def test_no_gap_theorem1_rate_names_the_network_and_key(tmp_path, capsys, command):
    path = write_config(tmp_path, {**SWAP, "learning_rate": "theorem1"})
    assert cli.main([command[0], str(path), *command[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config invalid: ") and NO_GAP in err
    assert "learning_rate: theorem1" in err


@pytest.mark.parametrize("which", ["prop1", "theorem1"])
def test_no_gap_bounds_name_the_network(tmp_path, capsys, which):
    path = write_config(tmp_path, SWAP)
    assert cli.main(["verify", str(path), "--which", which]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: sigma2 must lie in [0, 1), got 1.0: ") and NO_GAP in err


def test_zero_gap_spectral_reports_sigma2_one(tmp_path):
    path = write_config(tmp_path, {"network": {"kind": "fixed", "matrix": HALF_CYCLE4}})
    assert cli.main(["spectral", str(path)]) == 0
    doc = json.loads((tmp_path / "out" / "spectral.json").read_text())
    assert doc["sigma2"] == 1.0 and doc["spectral_gap"] == 0.0


def _strict_json(path):
    """The JSON document in `path`, refusing NaN, Infinity and -Infinity."""
    def refuse(constant):
        raise ValueError(f"{constant} in {path.name}")
    return json.loads(path.read_text(), parse_constant=refuse)


@pytest.mark.parametrize("which", ["prop1", "theorem1"])
def test_nonfinite_statistic_report_is_strict_json(tmp_path, monkeypatch, which):
    # a NaN statistic, as in TestMonteCarlo::test_nonfinite_statistic_fails_closed,
    # fails the check with exit 1, and the report is still strict JSON: its largest
    # and mean statistic are over the finite ones, and null when there are none
    real = getattr(analysis, f"{which}_statistics")

    def first_nan(*args):
        stats = real(*args)
        stats[0] = np.nan
        return stats

    path = write_config(tmp_path)
    finite = real(load_config(path), 11, range(3))[1:]
    monkeypatch.setattr(analysis, f"{which}_statistics", first_nan)
    for trials, largest, mean in ((3, float(finite.max()), float(finite.mean())),
                                  (1, None, None)):
        assert cli.main(["verify", str(path), "--which", which, "--trials", str(trials)]) == 1
        report = _strict_json(tmp_path / "out" / f"verify_{which}.json")
        assert report["verdict"] == "fail"
        assert report["trial_stats"]["nonfinite_statistics"] == 1
        assert report["trial_stats"]["max_statistic"] == largest
        assert report["trial_stats"]["mean_finite_statistic"] == pytest.approx(mean)


@pytest.mark.parametrize("eta, code", [(1.2e291, 0), (1.3e291, 2)])
def test_learning_rate_refused_where_costs_could_overflow(tmp_path, capsys, eta, code):
    # B = log 5 and T = 20, so 4 eta B T 2^50 passes the largest double at
    # eta = 1.24e291: every command runs with finite numbers just below it
    # and the config is refused just above it
    path = write_config(tmp_path, {
        "signal_model.agents": [[[0.8, 0.2], [0.2, 0.8]], [[0.5, 0.5]] * 2],
        "network.graph": {"n": 2, "edges": [[0, 1]]},
        "horizon": 20, "checkpoints": [20], "learning_rate": eta})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for command in (["simulate"], ["verify", "--which", "theorem1", "--trials", "100"],
                        ["verify", "--which", "prop1"]):
            assert cli.main([command[0], str(path), *command[1:]]) in (code, code + 1)
            err = capsys.readouterr().err
            assert (f"config invalid: learning_rate {eta!r} lets the KL costs overflow"
                    in err) == (code == 2)
    if code == 0:
        for name in ("summary.json", "verify_theorem1.json", "verify_prop1.json"):
            _strict_json(tmp_path / "out" / name)
        csv_text = (tmp_path / "out" / "trajectories.csv").read_text()
        assert "nan" not in csv_text and ",inf" not in csv_text
    else:
        assert not (tmp_path / "out").exists()


# agent 0's rows differ by 2e-12, so the pairwise rate computes to exactly 0
ZERO_RATE = {"signal_model.agents": [[[0.05, 0.95], [0.050000000002, 0.949999999998]],
                                     [[0.5, 0.5]] * 2],
             "network.graph": {"n": 2, "edges": [[0, 1]]}}


@pytest.mark.parametrize("command", [
    ["simulate"], ["spectral"], ["verify", "--which", "theorem1"],
    ["verify", "--which", "prop1"],
], ids=lambda c: c[-1])
def test_zero_rate_refused_at_load_by_every_command(tmp_path, capsys, command):
    path = write_config(tmp_path, ZERO_RATE)
    assert cli.main([command[0], str(path), *command[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config invalid: the hardest false state 1 has pairwise rate I = 0.0")
    assert not (tmp_path / "out").exists()


THEOREM1_SCOPE = "note: theorem1 runs outside Theorem 1"


@pytest.mark.parametrize("overrides, outside", [
    ({}, "a random network and eta = 1.0, not the theorem's learning rate"),
    ({"learning_rate": "theorem1"}, "a random network"),
    ({"network": {"kind": "fixed", "matrix": RING4}},
     "eta = 1.0, not the theorem's learning rate"),
    ({"network": {"kind": "fixed", "matrix": RING4}, "learning_rate": "theorem1"}, None),
], ids=["gossip-unit", "gossip-theorem1", "fixed-unit", "fixed-theorem1"])
def test_verify_names_a_theorem1_check_outside_the_theorem(tmp_path, capsys, overrides,
                                                           outside):
    path = write_config(tmp_path, overrides)
    for which in ("theorem1", "prop1"):
        assert cli.main(["verify", str(path), "--which", which]) == 0
        lines = [ln for ln in capsys.readouterr().err.splitlines() if THEOREM1_SCOPE in ln]
        assert lines == ([f"{THEOREM1_SCOPE}, which bounds the cost on a fixed network at its "
                          f"learning rate: {outside}"] if which == "theorem1" and outside else [])


def test_shipped_theorem1_check_is_inside_the_theorem(tmp_path, capsys):
    # perfbench's theorem1-fixed8 workload runs this config at seed 7
    path = next(p for p in SCENARIOS if p.stem == "theorem1_8cycle")
    assert cli.main(["verify", str(path), "--which", "theorem1", "--trials", "2", "--seed", "7",
                     "--output-dir", str(tmp_path)]) == 0
    assert THEOREM1_SCOPE not in capsys.readouterr().err


@pytest.mark.parametrize("trials, noted", [(1, True), (2, False)])
def test_verify_names_a_check_that_cannot_fail(tmp_path, capsys, trials, noted):
    # at delta = 0.1 the threshold delta + 3 sqrt(delta (1 - delta) / R) is
    # 1 at R = 1, so no violation count fails it, and 0.74 at R = 2
    path = write_config(tmp_path)
    for which, label in (("prop1", "prop1 at t=40"), ("theorem1", "theorem1")):
        assert cli.main(["verify", str(path), "--which", which, "--trials", str(trials)]) == 0
        err = capsys.readouterr().err
        assert (f"note: {label} cannot fail on its violations at {trials} trials" in err) == noted


def test_reference_prop1_fails_an_engine_that_does_not_mix(tmp_path, monkeypatch):
    # without mixing, each uninformative agent's belief stays uniform: log TV
    # = log(2/3) on every trial, under the bound at t = 300 (+130.7) and
    # above it at t = 11000 (-17.3)
    path = next(p for p in SCENARIOS if p.stem == "reference_prop1")
    argv = ["verify", str(path), "--which", "prop1", "--trials", "10", "--output-dir"]
    assert cli.main([*argv, str(tmp_path / "mixing")]) == 0
    monkeypatch.setattr(network.NetworkProcess, "advance",
                        lambda self, phi, u, psi: np.cumsum(psi, axis=0) + phi)
    assert cli.main([*argv, str(tmp_path / "no-mixing")]) == 1
    report = json.loads((tmp_path / "no-mixing" / "verify_prop1.json").read_text())
    assert report["verdict"] == "fail" and report["checkpoint"] == 11000
    assert [(c["checkpoint"], c["verdict"]) for c in report["per_checkpoint"]] == [
        (300, "pass"), (11000, "fail")]
    assert report["trial_stats"]["max_statistic"] == pytest.approx(math.log(2 / 3))


def ring_config(tmp_path, n):
    """A gossip ring of n agents where only agent 0 is informative."""
    return write_config(tmp_path, {
        "signal_model.agents": [[[0.8, 0.2], [0.2, 0.8]]] + [[[0.5, 0.5]] * 2] * (n - 1),
        "network.graph": {"n": n, "edges": [[i, (i + 1) % n] for i in range(n)]},
    }, name=f"ring{n}.yaml")


def test_spectral_validations_independent_of_n(tmp_path, monkeypatch):
    # the mixing deviation of all agents and t values is one call, not one per agent
    calls = []

    def counted(w, _fn=network.validate_mixing):
        calls.append(1)
        return _fn(w)
    monkeypatch.setattr(network, "validate_mixing", counted)
    counts = []
    for n in (8, 64):
        calls.clear()
        path = ring_config(tmp_path, n)
        assert cli.main(["spectral", str(path), "--t-values", "1", "5", "16"]) == 0
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_each_command_validates_and_solves_expected_network_once(tmp_path, monkeypatch):
    # a matrix is validated where it enters (a listed matrix in its process,
    # E[W] in expected_matrix) and E[W]'s spectrum is solved once, when the
    # Scenario is built; (validations, eigen-solves) per command
    calls = {"validate": 0, "eigvalsh": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper
    monkeypatch.setattr(network, "validate_mixing", counted("validate", network.validate_mixing))
    monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))

    def counts(argv):
        calls.update(validate=0, eigvalsh=0)
        assert cli.main([*argv, "--output-dir", str(tmp_path / "out")]) == 0
        return calls["validate"], calls["eigvalsh"]

    ring = str(ring_config(tmp_path, 256))
    assert counts(["spectral", ring, "--t-values", "16"]) == (1, 1)
    assert counts(["verify", ring, "--which", "prop1", "--trials", "2"]) == (1, 1)
    # the Metropolis 8-cycle: its one matrix, then E[W] = that matrix
    cycle = str(next(p for p in SCENARIOS if p.stem == "theorem1_8cycle"))
    for argv in (["spectral", cycle], ["verify", cycle, "--which", "theorem1", "--trials", "1"],
                 ["simulate", cycle, "--trials", "1"]):
        validations, solves = counts(argv)
        assert validations <= 2 and solves == 1, argv


def run_python(args, timeout=120, **env):
    """Run a fresh interpreter with the package on its path and capture its output.

    It must end within `timeout` seconds. Other keyword arguments set
    environment variables; a value of None unsets one.
    """
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path, **env}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=timeout, env={k: v for k, v in env.items() if v is not None})


def run_cli_process(args, timeout=120, **env):
    """Run the CLI in a fresh interpreter, as a user would, and capture its output."""
    return run_python(["-m", "distdetect.cli", *args], timeout=timeout, **env)


def test_package_import_leaves_numpy_unloaded():
    # so importing the library cannot run ahead of the CLI's OpenBLAS setting
    res = run_python(["-c", "import sys, distdetect; print('numpy' in sys.modules)"])
    assert res.stdout.split() == ["False"], res.stderr


def test_command_imports_no_oracle():
    # the slow reference engines are for tests; the command must not load them
    res = run_python(["-c", "import sys, distdetect.cli; print(*(m in sys.modules for m in "
                            "('distdetect.detection', 'distdetect.prob')))"])
    assert res.stdout.split() == ["False", "False"], res.stderr


# whether the CSV formatter's module is loaded after `import distdetect.cli`
# and after each command given in argv[2:], run in this process on argv[1]
FORMATTER_LOADS = """
import sys, distdetect.cli as cli
seen = ["distdetect.trajectories" in sys.modules]
for command in sys.argv[2:]:
    assert cli.main([*command.split(), sys.argv[1]]) in (0, 1)
    seen.append("distdetect.trajectories" in sys.modules)
print(*seen)
"""


def test_only_simulate_loads_the_csv_formatter(tmp_path):
    # its code and tables cost start-up time that only `simulate` needs
    path = write_config(tmp_path)
    res = run_python(["-c", FORMATTER_LOADS, str(path),
                      "verify --which prop1", "verify --which theorem1", "spectral", "simulate"])
    seen = res.stdout.splitlines()[-1:]  # the commands' own lines come before
    assert seen == ["False False False False True"], res.stderr


# whether NumPy's random module and the CSV formatter's module are loaded
# after `spectral --t-values 1` on argv[1], run in this process
SPECTRAL_LOADS = """
import sys, distdetect.cli as cli
assert cli.main(["spectral", sys.argv[1], "--t-values", "1"]) == 0
print(*(m in sys.modules for m in ("numpy.random", "distdetect.trajectories")))
"""


def test_spectral_loads_no_generator_or_formatter(tmp_path):
    # `spectral --t-values 1` is the set-up that every command pays, and it
    # draws nothing and writes no CSV: `numpy.random` alone takes about 14 ms
    # to import on a 2-core machine
    path = write_config(tmp_path)
    res = run_python(["-c", SPECTRAL_LOADS, str(path)])
    assert res.stdout.splitlines()[-1:] == ["False False"], res.stderr


def test_module_entry_point_exits_2_without_traceback(tmp_path):
    res = run_cli_process(["verify", str(tmp_path / "missing.yaml"), "--which", "prop1"])
    assert res.returncode == 2, res.stderr
    assert "missing.yaml" in res.stderr
    assert "Traceback" not in res.stderr


# prints OPENBLAS_NUM_THREADS as it is when numpy, and so OpenBLAS, first loads
NUMPY_LOAD_SPY = """
import os, sys
class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            print(os.environ.get("OPENBLAS_NUM_THREADS"))
sys.meta_path.insert(0, Spy())
import distdetect.cli
"""


@pytest.mark.parametrize("preset, seen", [(None, "1"), ("2", "2")])
def test_thread_count_set_before_numpy_loads(preset, seen):
    res = run_python(["-c", NUMPY_LOAD_SPY], OPENBLAS_NUM_THREADS=preset)
    assert res.stdout.split() == [seen], res.stderr


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_blas_runs_on_the_calling_thread():
    # OpenBLAS starts its workers at load, so a second task would be one of them
    res = run_python(["-c", "import os, distdetect.cli, numpy as np; a = np.ones((300, 300)); "
                            "a @ a; print(len(os.listdir('/proc/self/task')))"],
                     OPENBLAS_NUM_THREADS=None)
    assert res.stdout.split() == ["1"], res.stderr


def test_artifacts_independent_of_core_count(tmp_path):
    # the default against an exported single thread; at n = 256 eigvalsh's sigma2
    # moves in its last digits between 1 and 2 threads, smaller rings do not show it
    path = ring_config(tmp_path, 256)
    artifacts = []
    for preset in (None, "1"):
        out = tmp_path / f"out-{preset}"
        res = run_cli_process(["spectral", str(path), "--output-dir", str(out)],
                              OPENBLAS_NUM_THREADS=preset)
        assert res.returncode == 0, res.stderr
        artifacts.append((out / "spectral.json").read_bytes())
    assert artifacts[0] == artifacts[1]


@pytest.mark.parametrize("overrides, flags, field", [
    ({"seed": -5}, [], "seed"),
    ({"horizon": 10.7}, [], "horizon"),
    ({"trials": 2.5}, [], "trials"),
    ({"checkpoints": [20.5]}, [], "checkpoints"),
    ({"learning_rate": float("nan")}, [], "learning_rate"),
    ({"learning_rate": float("inf")}, [], "learning_rate"),
    ({"learning_rate": -1.0}, [], "learning_rate"),
    ({}, ["--trials", "0"], "--trials"),
    ({}, ["--seed", "-5"], "--seed"),
    ("missing", [], "missing.yaml"),
    ("malformed", [], "malformed.yaml"),
    ({"signal_model.agents": []}, [], "need at least 2 agents"),
    ({"learning_rate": True}, [], "learning_rate"),
    ({"delta": True}, [], "delta must be a finite number, got True"),
    ({"output_dir": [1, 2]}, [], "output_dir"),
    ({"output_dir": {"a": 1}}, [], "output_dir"),
    ({"output_dir": False}, [], "output_dir"),
    ({"output_dir": None}, [], "output_dir"),
    ({"horizon": 10**30}, [], "horizon"),  # prop1 runs only to its checkpoint
    ({"horizon": 2**63, "checkpoints": [1]}, [], "horizon"),
    ({"checkpoints": [2**63]}, [], "checkpoint"),
    # numbers given as YAML booleans or strings
    ({"network": {"kind": "finite_support", "support": [{"matrix": RING4, "prob": True}]}},
     [], "prob"),
    ({"network": {"kind": "finite_support", "support": [{"matrix": RING4, "prob": "1"}]}},
     [], "prob"),
    ({"network": {"kind": "finite_support", "support": [
        {"matrix": RING4, "prob": "0.5"}, {"matrix": RING4, "prob": 0.5}]}}, [], "prob"),
    ({"signal_model.agents": [[["0.8", 0.2], [0.5, 0.5], [0.8, 0.2]]]
      + SMALL_CONFIG["signal_model"]["agents"][1:]}, [], "agents entry"),
    ({"network": {"kind": "fixed", "matrix": [[str(x) for x in row] for row in RING4]}},
     [], "matrix entry"),
    ({"network": {"kind": "fixed", "matrix": [[x or False for x in row] for row in RING4]}},
     [], "matrix entry"),
    ({"network.graph.edges": [[False, True], [True, 2], [2, 3], [3, 0]]}, [], "edges endpoint"),
    # tables that are not a list of equal-length lists
    ({"signal_model.agents": [[0.5, 0.5]] + SMALL_CONFIG["signal_model"]["agents"][1:]},
     [], "agents must be a list of equal-length lists"),
    ({"signal_model.agents": [0.5] + SMALL_CONFIG["signal_model"]["agents"][1:]},
     [], "agents must be a list of equal-length lists"),
    ({"signal_model.agents": [[[0.8, 0.2], [0.5, 0.5], [1.0]]]
      + SMALL_CONFIG["signal_model"]["agents"][1:]},
     [], "agents must be a list of equal-length lists"),
    ({"network": {"kind": "fixed", "matrix": [0.5, 0.5]}},
     [], "matrix must be a list of equal-length lists"),
    # a package error's message stands alone; a built-in error keeps its class name
    ({"signal_model.agents": [[[0.5, 0.5], [0.5, 0.5]]] * 4}, [],
     "config invalid: states [1] are observationally equivalent to the true state"),
    ({"signal_model": {}}, [], "config invalid: KeyError: 'agents'"),
    # edges that are not pairs
    ({"network.graph.edges": [[0, 1, 2], [1, 2], [2, 3], [3, 0]]}, [], "edges"),
    ({"network.graph.edges": [[0], [1, 2], [2, 3], [3, 0]]}, [], "edges"),
    ({"network.graph.edges": [0, 1]}, [], "edges"),
    # a finite support that is not a list of mappings
    ({"network": {"kind": "finite_support", "support": [[0.5, 0.5]]}}, [], "support"),
    ({"network": {"kind": "finite_support", "support": 5}}, [], "support"),
    # a 2 x 2^16 table beside a 2^16 x 2 one: the row count is refused before
    # anything is sized by the largest rows and symbols (2 x 2^16 x 2^16 floats)
    ({"signal_model.agents": [[[2.0**-16] * 2**16] * 2, [[0.5, 0.5]] * 2**16]
      + SMALL_CONFIG["signal_model"]["agents"][2:]}, [],
     "agent 1 table has 65536 rows, model has 2 states"),
    # a scalar in place of a mapping or list names its field
    ({"signal_model": 5}, [], "signal_model must be a mapping, got int"),
    ({"network": 5}, [], "network must be a mapping, got int"),
    ({"network.graph": 5}, [], "graph must be a mapping, got int"),
    ({"signal_model.agents": 5}, [], "agents must be a list, got int"),
    ({"checkpoints": 5}, [], "checkpoints must be a list, got int"),
    # a misspelled key is refused, not ignored
    ({"horizonn": 10}, [], "config has unknown key 'horizonn'"),
    ({"signal_model.true_stat": 0}, [], "signal_model has unknown key 'true_stat'"),
    ({"network.graph.m": 3}, [], "graph has unknown key 'm'"),
    ({"network": {"kind": "finite_support", "support": [{"matrix": RING4, "p": 1.0}]}},
     [], "support entry has unknown key 'p'"),
    # each network kind takes one key besides `kind`; another kind's key is refused
    ({"network.matrix": [[1, 0], [0, 1]]}, [], "gossip network has unknown key 'matrix'"),
    ({"network.kind": "metropolis", "network.support": [{"matrix": RING4, "prob": 1.0}]},
     [], "metropolis network has unknown key 'support'"),
    ({"network": {"kind": "fixed", "matrix": RING4, "graph": SMALL_CONFIG["network"]["graph"]}},
     [], "fixed network has unknown key 'graph'"),
    ({"network": {"graph": SMALL_CONFIG["network"]["graph"]}}, [], "network kind"),
    ({"network.kind": ["gossip"]}, [], "network kind"),
    ({"network.kind": "ring"}, [], "network kind must be one of"),
    # the graph's size is checked against the model before anything is sized by it
    ({"network.graph.n": 10**15}, [], "graph n"),
])
def test_invalid_input_exits_2_without_traceback(tmp_path, capsys, overrides, flags, field):
    # an exception escaping main would fail the test: that is the traceback
    if overrides == "missing":
        path = tmp_path / "missing.yaml"
    elif overrides == "malformed":
        path = tmp_path / "malformed.yaml"
        path.write_text("signal_model: [unclosed\n")
    else:
        path = write_config(tmp_path, overrides)
    code = cli.main(["verify", str(path), "--which", "prop1", *flags])
    err = capsys.readouterr().err
    assert code == 2, err
    assert field in err
    assert "Traceback" not in err


def test_oversized_simulate_exits_2(tmp_path, capsys):
    # a horizon within [1, 2^63 - 1] whose work is above the cap, refused before
    # any array is allocated (a larger one is refused when the config loads)
    path = write_config(tmp_path, {"horizon": 2**62})
    code = cli.main(["simulate", str(path)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert "trials x horizon x n" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("trials", [10**30, 2**62], ids=["beyond-C-size", "beyond-numpy"])
@pytest.mark.parametrize("command", [
    ["simulate"], ["verify", "--which", "theorem1"], ["verify", "--which", "prop1"],
], ids=lambda c: c[-1])
def test_oversized_trial_count_exits_2(tmp_path, capsys, command, trials):
    # both counts are refused before anything is allocated or any directory made
    path = write_config(tmp_path)
    out = tmp_path / "new" / "out"
    code = cli.main([command[0], str(path), *command[1:], "--trials", str(trials),
                     "--output-dir", str(out)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert "trials" in err
    assert "Traceback" not in err
    assert not (tmp_path / "new").exists()


def cycle32_config(tmp_path):
    """The zero-diagonal 32-cycle with weight 1/2 per edge: C has eigenvalue -1."""
    n = 32
    matrix = [[0.5 if abs(i - j) in (1, n - 1) else 0.0 for j in range(n)] for i in range(n)]
    return write_config(tmp_path, {
        "signal_model.agents": [[[0.8, 0.2], [0.2, 0.8]]] + [[[0.5, 0.5]] * 2] * (n - 1),
        "network": {"kind": "fixed", "matrix": matrix},
    }, name="cycle32.yaml")


def lazy_pair_config(tmp_path):
    """Two agents on the fixed W = [[1 - 1e-9, 1e-9], [1e-9, 1 - 1e-9]]: gap 2e-9."""
    eps = 1e-9
    return write_config(tmp_path, {
        "signal_model.agents": [[[0.8, 0.2], [0.2, 0.8]], [[0.5, 0.5]] * 2],
        "network": {"kind": "fixed", "matrix": [[1 - eps, eps], [eps, 1 - eps]]},
    }, name="lazy_pair.yaml")


def pair_config(tmp_path):
    """One gossip edge between two agents, run to t = 10^18."""
    return write_config(tmp_path, {
        "signal_model.agents": [[[0.8, 0.2], [0.2, 0.8]], [[0.5, 0.5]] * 2],
        "network.graph": {"n": 2, "edges": [[0, 1]]},
        "horizon": 10**18, "checkpoints": [10**18],
    }, name="pair.yaml")


@pytest.mark.parametrize("make_config, command, fields", [
    (cycle32_config, ["spectral", "--t-values", str(10**18)], None),
    (lambda p: ring_config(p, 256), ["spectral", "--t-values", str(10**12)], [f"t = {10**12}"]),
    # ~3e10 products of 2 x 2 matrices: under an n^3 price, but about two days
    (lazy_pair_config, ["spectral", "--t-values", str(10**12)], [f"t = {10**12}"]),
    (pair_config, ["verify", "--which", "theorem1", "--trials", "1"], ["horizon", "trials"]),
    (pair_config, ["verify", "--which", "prop1", "--trials", "1"], ["horizon", "trials"]),
], ids=["spectral-cycle32-1e18", "spectral-ring256-1e12", "spectral-lazy-pair-1e12",
        "theorem1-1e18", "prop1-1e18"])
def test_unbounded_work_returns_or_exits_2_quickly(tmp_path, make_config, command, fields):
    # a periodic network, a tiny spectral gap and a huge horizon are each
    # finished in closed form or refused up front, not run for years
    res = run_cli_process([command[0], str(make_config(tmp_path)), *command[1:],
                           "--output-dir", str(tmp_path / "out")], timeout=2)
    assert res.returncode == (0 if fields is None else 2), res.stderr
    assert all(field in res.stderr for field in fields or ())
    assert "Traceback" not in res.stderr


def _node_paths(tree, path=()):
    """The path to every node of a config tree: mapping keys and list indices."""
    yield path
    if isinstance(tree, dict):
        children = tree.items()
    elif isinstance(tree, list):
        children = enumerate(tree)
    else:
        children = ()
    for key, child in children:
        yield from _node_paths(child, path + (key,))


JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 8), st.text(max_size=4),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0, 0.5, 2.5]),
    st.lists(st.integers(-3, 8), max_size=3),                          # empty or short
    st.lists(st.lists(st.floats(0, 1), max_size=3), max_size=3),      # ragged
    st.dictionaries(st.sampled_from(["n", "kind", "matrix"]), st.integers(0, 4), max_size=2),
)
COMMANDS = (["simulate"], ["spectral"], ["verify", "--which", "prop1"],
            ["verify", "--which", "theorem1"])
FINITE_SUPPORT_CONFIG = dict(SMALL_CONFIG, network={"kind": "finite_support", "support": [
    {"matrix": [[0.5, 0.5, 0, 0], [0.5, 0.5, 0, 0], [0, 0, 0.5, 0.5], [0, 0, 0.5, 0.5]],
     "prob": 0.5},
    {"matrix": [[1, 0, 0, 0], [0, 0.5, 0.5, 0], [0, 0.5, 0.5, 0], [0, 0, 0, 1]],
     "prob": 0.5},
]})


@st.composite
def junk_configs(draw):
    """A valid small config with one node (possibly the root) replaced by junk.

    Returns the config, the node that was replaced and the junk.
    """
    raw = json.loads(json.dumps(draw(st.sampled_from([SMALL_CONFIG, FINITE_SUPPORT_CONFIG]))))
    path = draw(st.sampled_from(list(_node_paths(raw))))
    junk = draw(JUNK)
    if not path:
        return junk, raw, junk
    node = raw
    for key in path[:-1]:
        node = node[key]
    replaced, node[path[-1]] = node[path[-1]], junk
    return raw, replaced, junk


@settings(max_examples=120, deadline=None)
@given(junk_configs(), st.sampled_from(COMMANDS))
def test_junk_config_node_exits_cleanly(case, command):
    # horizons and trial counts stay small: resource exhaustion is not probed here
    raw, replaced, junk = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "junk.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        code = cli.main([command[0], str(cfg), *command[1:], "--output-dir", tmp])
    assert code in (0, 1, 2)
    if isinstance(junk, float) and not math.isfinite(junk):
        assert code == 2  # no config field accepts a NaN or an infinity
    if (isinstance(replaced, (int, float)) and not isinstance(replaced, bool)
            and isinstance(junk, (bool, str))):
        assert code == 2  # a number given as a YAML boolean or string


@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[-1])
def test_repeated_checkpoint_exits_2(tmp_path, capsys, command):
    # distinct checkpoints keep prop1's per-trial row no longer than its last
    # checkpoint, so a run within the work cap holds no array numpy refuses
    path = write_config(tmp_path, {"checkpoints": [10, 40, 10]})
    assert cli.main([command[0], str(path), *command[1:]]) == 2
    err = capsys.readouterr().err
    assert err == "config invalid: checkpoint 10 is listed more than once\n"
    assert not (tmp_path / "out").exists()


def test_trial_count_above_the_work_cap_exits_2(tmp_path, capsys):
    # every run costs at least trials x 1 x 2 x 2, so more than 2^50 trials can
    # never run, and every command refuses such a config, spectral included
    cap = analysis.ENGINE_WORK_CAP
    assert cli.main(["spectral", str(write_config(tmp_path, {"trials": cap}))]) == 0
    path = write_config(tmp_path, {"trials": cap + 1})
    for command in COMMANDS:
        assert cli.main([command[0], str(path), *command[1:]]) == 2
        assert f"trials must be a whole number in [1, {cap}], got {cap + 1}" in (
            capsys.readouterr().err)
    for command in (["simulate"], ["verify", "--which", "theorem1"]):
        code = cli.main([command[0], str(write_config(tmp_path)), *command[1:],
                         "--trials", str(cap + 1)])
        assert code == 2
        assert f"--trials must be a whole number in [1, {cap}]" in capsys.readouterr().err


def test_oversized_simulate_is_refused_before_any_array(tmp_path, capsys):
    # the work cap is checked before simulate allocates its trials x horizon x n series
    path = write_config(tmp_path, {"horizon": 2**62})
    assert cli.main(["simulate", str(path)]) == 2
    assert "is above ENGINE_WORK_CAP = 2^50" in capsys.readouterr().err


def test_memory_error_exits_2_without_traceback(tmp_path, capsys, monkeypatch):
    message = ("Unable to allocate 32.0 TiB for an array with shape (1048576, 1048576, 4) "
               "and data type float64")

    def exhausted(*args):
        raise MemoryError(message)
    monkeypatch.setattr(network, "mixing_deviation_sum", exhausted)
    out = tmp_path / "new"
    code = cli.main(["spectral", str(write_config(tmp_path)), "--output-dir", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"error: not enough memory: {message}\n"
    assert not out.exists()
