"""Experiment driver: configs, exit statuses, and deterministic outputs."""

import csv
import importlib
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import poissonize
from poissonize.cli import main

TOY_LEARN = {
    "gmm": {
        "means": [[2.0, 0.0], [0.0, 3.0]],
        "weights": [0.5, 0.5],
        "covariance": [[0.0, 0.0], [0.0, 0.0]],
    },
    "samples": 20_000,
    "tau": 15,
    "trials": 2,
    "seed": 3,
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_rows(out_dir):
    with open(out_dir / "records.csv", newline="") as handle:
        return list(csv.DictReader(handle))


def read_summary(out_dir):
    return json.loads((out_dir / "summary.json").read_text())


def run_module(*args):
    """``python -m poissonize ARGS`` in a child process, without an install."""
    # A relative PYTHONPATH inherited from the parent would only resolve
    # from the repo root, so the package's own source directory goes first.
    src_dir = str(Path(poissonize.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([src_dir] + ([inherited] if inherited else [])),
    }
    return subprocess.run(
        [sys.executable, "-m", "poissonize", *args],
        capture_output=True,
        text=True,
        env=env,
    )


class TestLearnCommand:
    def test_success_schema(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TOY_LEARN)
        out = tmp_path / "out"
        assert main(["learn", "--config", cfg, "--out", str(out)]) == 0
        rows = read_rows(out)
        assert len(rows) == 2
        assert "aligned_error" in rows[0]
        assert all(row["failed"] == "false" for row in rows)
        summary = read_summary(out)
        assert summary["command"] == "learn"
        assert summary["seed"] == 3
        assert summary["config"]["samples"] == 20_000
        assert len(summary["aligned_errors"]) == 2
        assert summary["exit_status"] == 0
        assert "records.csv" in capsys.readouterr().out

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, TOY_LEARN)
        first, second = tmp_path / "one", tmp_path / "two"
        main(["learn", "--config", cfg, "--out", str(first)])
        main(["learn", "--config", cfg, "--out", str(second)])
        assert (first / "records.csv").read_bytes() == (second / "records.csv").read_bytes()

    def test_truncation_abort_exits_two(self, tmp_path):
        cfg = write_config(
            tmp_path, {**TOY_LEARN, "tau": 6, "samples": 5_000, "trials": 1}
        )
        out = tmp_path / "out"
        assert main(["learn", "--config", cfg, "--out", str(out)]) == 2
        (row,) = read_rows(out)
        assert row["failed"] == "true"
        assert row["reason"] == "truncation-abort"
        assert row["aligned_error"] == ""
        assert read_summary(out)["failure_count"] == 1

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, TOY_LEARN)
        out = tmp_path / "out"
        main(["learn", "--config", cfg, "--seed", "7", "--out", str(out)])
        assert read_summary(out)["seed"] == 7

    def test_trials_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, TOY_LEARN)
        out = tmp_path / "out"
        main(["learn", "--config", cfg, "--trials", "1", "--out", str(out)])
        assert len(read_rows(out)) == 1

    def test_single_component_succeeds(self, tmp_path):
        """One component leaves no eigenvalue gap to certify; the trials
        succeed and record an infinite gap."""
        cfg = write_config(tmp_path, {
            "generator": {"n": 2, "m": 1}, "samples": 20_000, "trials": 2,
        })
        out = tmp_path / "out"
        assert main(["learn", "--config", cfg, "--out", str(out)]) == 0
        rows = read_rows(out)
        assert [row["failed"] for row in rows] == ["false", "false"]
        assert all(row["eigengap"] == "inf" for row in rows)
        assert all(float(row["aligned_error"]) < 0.1 for row in rows)

    def test_schedule_tau_is_usage_error(self, tmp_path):
        """The certified cutoff is the one default truncation: a tau of
        "schedule" is refused by name, in one line, with no records."""
        cfg = write_config(tmp_path, {
            "tau": "schedule", "samples": 2000, "generator": {"n": 2, "m": 2},
        })
        out = tmp_path / "out"
        proc = run_module("learn", "--config", cfg, "--out", str(out))
        assert proc.returncode == 1
        err = proc.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("poissonize: error: bad config value")
        assert "'schedule'" in err[0]
        assert not (out / "records.csv").exists()

    def test_eps_has_no_effect(self, tmp_path):
        """eps is accepted and range-checked, but changes no record and is
        not echoed in the resolved config."""
        outputs = []
        for index, extra in enumerate(({}, {"eps": 1e40})):
            cfg = write_config(tmp_path, {**TOY_LEARN, **extra}, name=f"c{index}.json")
            out = tmp_path / f"out{index}"
            assert main(["learn", "--config", cfg, "--out", str(out)]) == 0
            assert "eps" not in read_summary(out)["config"]
            outputs.append((out / "records.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_degenerate_model_fails_as_modeled(self, tmp_path):
        """Four 1-D means give a rank-deficient order-4 cumulant: the trial
        fails with exit 2 and a recorded reason, not a traceback."""
        cfg = write_config(tmp_path, {
            "gmm": {"means": [[0.5], [1.0], [1.5], [2.0]],
                    "weights": [0.25, 0.25, 0.25, 0.25],
                    "covariance": [[0.01]]},
            "samples": 20_000, "tau": 30,
        })
        out = tmp_path / "out"
        proc = run_module("learn", "--config", cfg, "--out", str(out))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        (row,) = read_rows(out)
        assert row["failed"] == "true"
        assert row["reason"].startswith("DegenerateModelError: ")
        assert read_summary(out)["errors"] == [row["reason"]]

    def test_mean_at_origin_succeeds(self, tmp_path):
        """A mean at the origin has norm 0, but its lifted mean (0, 1) does
        not, so the derived conditioning floor is positive and the trial
        runs."""
        cfg = write_config(tmp_path, {
            "gmm": {"means": [[0.0, 0.0]], "weights": [1.0],
                    "covariance": [[0.01, 0.0], [0.0, 0.01]]},
            "samples": 2000,
        })
        out = tmp_path / "out"
        assert main(["learn", "--config", cfg, "--out", str(out)]) == 0
        (row,) = read_rows(out)
        assert row["failed"] == "false"

    def test_coincident_means_at_origin_fail_as_modeled(self, tmp_path):
        """Two means at the origin give a lifted conditioning of 0: the trial
        fails with exit 2 and a FeasibilityError reason."""
        cfg = write_config(tmp_path, {
            "gmm": {"means": [[0.0, 0.0], [0.0, 0.0]], "weights": [0.5, 0.5],
                    "covariance": [[0.01, 0.0], [0.0, 0.01]]},
            "samples": 2000,
        })
        out = tmp_path / "out"
        assert main(["learn", "--config", cfg, "--out", str(out)]) == 2
        (row,) = read_rows(out)
        assert row["failed"] == "true"
        assert row["reason"].startswith("FeasibilityError: ")

    def test_gmm_and_generator_conflict(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**TOY_LEARN, "generator": {"n": 3}})
        assert main(["learn", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "not both" in capsys.readouterr().err

    def test_unknown_generator_key(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {"generator": {"n": 3, "kurtosis": 1.0}, "samples": 1000}
        )
        assert main(["learn", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "kurtosis" in capsys.readouterr().err


class TestConfigErrors:
    def test_malformed_json_line_numbered(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"seed": 0,\n  broken}\n')
        assert main(["learn", "--config", str(path), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert f"{path}:2:" in err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"seeed": 1})
        assert main(["learn", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "seeed" in capsys.readouterr().err

    def test_non_object_config_rejected(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        assert main(["learn", "--config", str(path), "--out", str(tmp_path)]) == 1
        assert "JSON object" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["learn", "--config", missing, "--out", str(tmp_path)]) == 1
        assert "cannot read config" in capsys.readouterr().err

    @pytest.mark.parametrize("command, payload, fragment", [
        ("learn", {**TOY_LEARN, "samples": "many"}, "'many'"),
        ("learn", {**TOY_LEARN, "gmm": {**TOY_LEARN["gmm"], "weights": [0.5, 0.6]}},
         "sum to 1"),
        ("learn", {"tau": "large"}, "'large'"),
        ("learn", {**TOY_LEARN, "seed": "one"}, "'one'"),
        ("smoothed", {"n": "ten"}, "'ten'"),
        ("hardness", {"h_values": ["tenth"]}, "'tenth'"),
        ("hardness", {"mode": "pigeonhole", "k": [5]}, "list"),
        ("ica-bench", {"trials": None}, "NoneType"),
        ("reduction-check", {"lam": "five"}, "'five'"),
        ("learn", {**TOY_LEARN, "d": 5}, "d must be one of (4, 6)"),
        ("learn", {**TOY_LEARN, "samples": 0}, "samples must be at least 1"),
        ("learn", {**TOY_LEARN, "chunk": 0}, "chunk must be at least 1"),
        ("learn", {"generator": {"n": "six"}}, "'six'"),
        ("learn", {**TOY_LEARN, "gmm": {"weights": [0.5, 0.5],
                                        "covariance": [[0.0, 0.0], [0.0, 0.0]]}},
         "gmm block lacks means"),
        ("learn", {**TOY_LEARN, "with_weights": "false"}, "with_weights must be true"),
        ("learn", {**TOY_LEARN, "trials": 0}, "trials must be at least 1"),
        ("smoothed", {"trials": 0}, "trials must be at least 1"),
        ("hardness", {"mode": "pigeonhole", "instances": 0}, "instances must be at least 1"),
        ("hardness", {"h_values": []}, "h_values must not be empty"),
        ("ica-bench", {"trials": 0}, "trials must be at least 1"),
        ("ica-bench", {"d": 5}, "d must be one of (4, 6)"),
        ("reduction-check", {"samples": 0}, "samples must be at least 1"),
        ("learn", {**TOY_LEARN, "delta": 0}, "delta must lie in (0, 1)"),
        ("learn", {**TOY_LEARN, "delta": 1.5}, "delta must lie in (0, 1)"),
        ("learn", {**TOY_LEARN, "eps": 0}, "eps must be positive"),
        ("learn", {"generator": {"n": 0}}, "generator n must be at least 1"),
        ("hardness", {"mode": "pigeonhole", "dimension": 2, "l1_samples": 0},
         "l1_samples must be at least 1"),
        ("hardness", {"mode": "pigeonhole", "k": 1}, "k must be at least 2"),
        ("smoothed", {"n": 2}, "n must be at least 3"),
        ("reduction-check", {"probs": []}, "probs must not be empty"),
        ("reduction-check", {"lam": -1}, "lam must be positive"),
        ("reduction-check", {"lam": 0}, "lam must be positive"),
        ("learn", {"generator": {"noise": -1}}, "generator noise must be nonnegative"),
        ("ica-bench", {"n": 0}, "n must be at least 1"),
        ("ica-bench", {"m": 0}, "m must be at least 1"),
        ("smoothed", {"sigma": 0}, "sigma must be positive"),
        ("hardness", {"h_values": [0.3]}, "h must equal 1/(2k)"),
        ("reduction-check", {"probs": [0.5]}, "probs must be nonnegative and sum to 1"),
        ("reduction-check", {"grid_taus": [-1]}, "grid_taus must be nonnegative"),
        ("hardness", {"mode": "pigeonhole", "dimension": 0},
         "dimension must be at least 1"),
        ("learn", {"generator": {"m": 0}}, "generator m must be at least 1"),
        ("reduction-check", {"grid_taus": []}, "grid_taus must not be empty"),
        ("reduction-check", {"grid_lams": []}, "grid_lams and grid_taus must not be empty"),
        ("reduction-check", {"grid_lams": [2, -1]}, "grid_lams must be nonnegative"),
        ("reduction-check", {"delta": 2}, "delta must lie in (0, 1)"),
        ("reduction-check", {"delta": 0}, "delta must lie in (0, 1)"),
        ("ica-bench", {"cum_low": 0, "cum_high": 0, "trials": 1},
         "need 0 < cum_low <= cum_high"),
        ("ica-bench", {"cum_low": 2, "cum_high": 1}, "need 0 < cum_low <= cum_high"),
        ("learn", {"tau": 1, "samples": 2000, "generator": {"n": 2, "m": 2}},
         "tau must be finite and exceed e * m = 5.43656"),
        ("learn", {**TOY_LEARN, "tau": 5}, "tau must be finite and exceed e * m"),
        ("learn", {**TOY_LEARN, "tau": math.inf}, "tau must be finite"),
        ("learn", {"samples": 2000, "generator": {"n": 2, "m": 2, "norm_low": 2,
                                                   "norm_high": 1}},
         "need 0 < generator norm_low <= norm_high, got 2.0 and 1.0"),
        ("learn", {"samples": 2000, "generator": {"n": 2, "m": 2, "norm_low": 0,
                                                   "norm_high": 0}},
         "need 0 < generator norm_low <= norm_high"),
        ("learn", {"samples": 2000, "generator": {"n": 2, "m": 2, "norm_low": -2,
                                                   "norm_high": -1}},
         "need 0 < generator norm_low <= norm_high"),
        ("reduction-check", {"grid_lams": "12", "grid_taus": "34"},
         "grid_lams must be a JSON array, got '12'"),
        ("reduction-check", {"grid_taus": "34"}, "grid_taus must be a JSON array"),
        ("reduction-check", {"probs": "1"}, "probs must be a JSON array"),
        ("smoothed", {"families": "zero"}, "families must be a JSON array, got 'zero'"),
        ("hardness", {"h_values": "0.1"}, "h_values must be a JSON array"),
        ("learn", {"generator": [2, 2]}, "generator must be a JSON object"),
        ("learn", {"samples": 10**400, "generator": {"n": 2, "m": 2}},
         "int too large to convert to float"),
        ("reduction-check", {"samples": 1}, "samples must be at least 2"),
    ])
    def test_bad_config_value_is_usage_error(self, tmp_path, capsys, command,
                                             payload, fragment):
        """A value that fails to convert or validate before the first trial
        is one usage-error line, exit 1 and no records."""
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("poissonize: error: bad config value")
        assert fragment in err[0]
        assert not (out / "records.csv").exists()

    @pytest.mark.parametrize("key", ["w", "u", "r", "b"])
    def test_unknown_bounds_key_rejected(self, tmp_path, capsys, key):
        """``learn`` measures the mixture's conditioning itself, so a bounds
        block is an unknown key, whatever it holds: the floor b or the
        retired w, u and r."""
        cfg = write_config(tmp_path, {**TOY_LEARN, "bounds": {key: 1.0, "b": 1.0}})
        out = tmp_path / "out"
        assert main(["learn", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["poissonize: error: unknown config keys: bounds"]
        assert not (out / "records.csv").exists()

    @pytest.mark.parametrize("command", ["learn", "smoothed", "hardness",
                                         "ica-bench", "reduction-check"])
    def test_zero_trials_flag_is_usage_error(self, tmp_path, command):
        """``--trials 0`` stops every command, in a child process, with one
        usage-error line and no traceback."""
        out = tmp_path / "out"
        result = run_module(command, "--trials", "0", "--out", str(out))
        assert result.returncode == 1
        err = result.stderr.splitlines()
        assert err == ["poissonize: error: bad config value: trials must be at least 1, got 0"]
        assert not (out / "records.csv").exists()

    def test_unknown_command(self, capsys):
        assert main(["transmogrify"]) == 1
        assert "error" in capsys.readouterr().err


_GRID = st.integers(-1, 1)
_NORMS = st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0])


@st.composite
def learn_configs(draw):
    """Small `learn` configs whose mixtures come from an integer grid or
    from generator norms that may be zero, negative or swapped, so means at
    the origin and coincident means occur."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))
    noise = draw(st.sampled_from([0.0, 0.01]))
    config = {
        "d": draw(st.sampled_from([4, 6])),
        "samples": draw(st.integers(1, 3000)),
        "tau": draw(st.sampled_from(["certified", "schedule", 30])),
        "with_weights": draw(st.booleans()),
        "seed": draw(st.integers(0, 1000)),
    }
    if draw(st.booleans()):
        config["generator"] = {
            "n": n, "m": m, "noise": noise,
            "norm_low": draw(_NORMS), "norm_high": draw(_NORMS),
        }
    else:
        config["gmm"] = {
            "means": [[draw(_GRID) for _ in range(n)] for _ in range(m)],
            "weights": [1.0 / m] * m,
            "covariance": (noise * np.eye(n)).tolist(),
        }
    return config


@st.composite
def reduction_check_configs(draw):
    """Small `reduction-check` configs, valid and invalid values mixed."""
    probs = draw(st.sampled_from([[1.0], [0.5, 0.5], [0.2, 0.3, 0.5], [0.5, 0.6], []]))
    return {
        "lam": draw(st.sampled_from([-1.0, 0.0, 0.1, 5.0, 30.0, 40.0])),
        "probs": probs,
        "samples": draw(st.integers(0, 500)),
        "delta": draw(st.sampled_from([0.0, 1e-12, 0.5, 1.0])),
        "grid_lams": draw(st.lists(st.sampled_from([0.0, 0.5, 3.0, 40.0]), max_size=3)),
        "grid_taus": draw(st.lists(st.integers(-1, 60), max_size=3)),
        "seed": draw(st.integers(0, 1000)),
    }


class TestFuzzedConfigs:
    """Every run ends in success (0), a usage error (1) or a modeled
    failure (2), never in a traceback."""

    @given(data=st.one_of(
        st.tuples(st.just("learn"), learn_configs()),
        st.tuples(st.just("reduction-check"), reduction_check_configs()),
    ))
    @settings(max_examples=60, deadline=None)
    def test_never_raises(self, data):
        command, config = data
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "config.json")
            with open(path, "w") as handle:
                json.dump(config, handle)
            status = main([command, "--config", path, "--out",
                           os.path.join(directory, "out")])
        assert status in (0, 1, 2)


class TestSmoothedCommand:
    def test_pinned_columns_and_pass_counts(self, tmp_path):
        cfg = write_config(tmp_path, {"n": 6, "trials": 2})
        out = tmp_path / "out"
        assert main(["smoothed", "--config", cfg, "--out", str(out)]) == 0
        header = (out / "records.csv").read_text().splitlines()[0]
        assert header == "family,n,sigma,seed,sigma_min_kr2,sigma_min_kr_odot2,bound,passed"
        rows = read_rows(out)
        assert len(rows) == 6
        assert all(row["passed"] == "true" for row in rows)
        summary = read_summary(out)
        assert summary["odot_dominates"] is True
        assert summary["passed_per_family"] == {"zero": 2, "gaussian": 2, "rank1": 2}

    def test_unknown_family_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"families": ["cauchy"]})
        assert main(["smoothed", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "cauchy" in capsys.readouterr().err


class TestHardnessCommand:
    def test_decay_writes_pairs_and_shrinks(self, tmp_path):
        cfg = write_config(tmp_path, {"mode": "decay", "h_values": [0.1, 0.05]})
        out = tmp_path / "out"
        assert main(["hardness", "--config", cfg, "--out", str(out)]) == 0
        rows = read_rows(out)
        gaps = [float(row["l1_distance"]) for row in rows]
        assert gaps[1] < gaps[0] / 10.0
        assert (out / "pair_decay_0.json").exists()
        assert (out / "pair_decay_1.json").exists()
        exported = json.loads((out / "pair_decay_0.json").read_text())
        assert set(exported) == {
            "centers_p", "weights_p", "centers_q", "weights_q",
            "l1_distance", "fill", "kernel_condition",
        }

    def test_pigeonhole_instances(self, tmp_path):
        cfg = write_config(tmp_path, {
            "mode": "pigeonhole", "k": 2, "dimension": 1,
            "instances": 2, "l1_samples": 20_000,
        })
        out = tmp_path / "out"
        assert main(["hardness", "--config", cfg, "--out", str(out)]) == 0
        rows = read_rows(out)
        assert all(row["built"] == "true" for row in rows)
        assert all(row["equal_counts"] == "true" for row in rows)

    def test_unknown_mode_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"mode": "interpolate"})
        assert main(["hardness", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "mode" in capsys.readouterr().err

    @pytest.mark.parametrize("payload, unknown", [
        ({"mode": "decay", "k": 3, "dimension": 2, "l1_samples": 5},
         "dimension, k, l1_samples"),
        ({"instances": 2}, "instances"),
        ({"mode": "pigeonhole", "h_values": [0.3]}, "h_values"),
        ({"mode": ["decay"]}, None),
    ])
    def test_keys_of_the_other_mode_rejected(self, tmp_path, capsys, payload, unknown):
        """Each mode accepts only its own keys (plus mode, seed, out and
        trials): a key the mode would ignore is one usage-error line and
        no records.  A mode that is not a string is refused as a mode."""
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["hardness", "--config", cfg, "--out", str(out)]) == 1
        message = (f"unknown config keys: {unknown}" if unknown
                   else "mode must be 'decay' or 'pigeonhole'")
        assert capsys.readouterr().err.splitlines() == [f"poissonize: error: {message}"]
        assert not (out / "records.csv").exists()

    @pytest.mark.parametrize("payload", [
        {"mode": "decay", "h_values": [0.5], "seed": 2, "trials": 3},
        {"mode": "pigeonhole", "k": 2, "instances": 1, "l1_samples": 10, "seed": 2},
    ])
    def test_shared_keys_accepted_in_both_modes(self, tmp_path, payload):
        cfg = write_config(tmp_path, {**payload, "out": str(tmp_path / "out")})
        assert main(["hardness", "--config", cfg]) == 0
        assert read_summary(tmp_path / "out")["config"]["seed"] == 2


class TestIcaBenchCommand:
    def test_oracle_errors_near_zero(self, tmp_path):
        cfg = write_config(tmp_path, {"trials": 3})
        out = tmp_path / "out"
        assert main(["ica-bench", "--config", cfg, "--out", str(out)]) == 0
        summary = read_summary(out)
        assert summary["max_aligned_error"] < 1e-6
        assert summary["all_below_1e-6"] is True


class TestReductionCheckCommand:
    def test_default_config_flags_out_of_regime_lemma(self, tmp_path):
        """At the default lam = 5, delta = 1e-6 the closed-form tail
        threshold misses its target (the certified one does not); the
        report records that honestly instead of passing everything."""
        out = tmp_path / "out"
        assert main(["reduction-check", "--out", str(out)]) == 0
        rows = read_rows(out)
        assert {row["check"] for row in rows} >= {
            "marginal_tv", "pair_correlation",
            "truncation_identity_max_gap", "tail_threshold",
        }
        by_index = {
            (row["check"], row["index"]): row["passed"] for row in rows
        }
        assert by_index[("tail_threshold", "lemma")] == "false"
        assert by_index[("tail_threshold", "certified")] == "true"
        others = [
            row for row in rows
            if (row["check"], row["index"]) != ("tail_threshold", "lemma")
        ]
        assert all(row["passed"] == "true" for row in others)
        assert read_summary(out)["all_passed"] is False

    def test_constant_split_column_records_no_correlation(self, tmp_path):
        """At lam = 0.1 and seed 0 both draws are 0, so both split columns
        are constant and have no correlation: the pair records an empty
        value and fails, and numpy is never asked for one (warnings are
        errors here)."""
        cfg = write_config(tmp_path, {"lam": 0.1, "probs": [0.5, 0.5], "samples": 2})
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["reduction-check", "--config", cfg, "--out", str(out)]) == 0
        (pair,) = [row for row in read_rows(out) if row["check"] == "pair_correlation"]
        assert pair["value"] == ""
        assert pair["passed"] == "false"
        assert read_summary(out)["all_passed"] is False

    def test_in_regime_delta_all_pass(self, tmp_path):
        """With lam >= ln(1/delta) the closed-form threshold is sound and
        every check passes."""
        cfg = write_config(tmp_path, {"lam": 4.0, "delta": 0.05})
        out = tmp_path / "out"
        assert main(["reduction-check", "--config", cfg, "--out", str(out)]) == 0
        assert read_summary(out)["all_passed"] is True
        assert all(row["passed"] == "true" for row in read_rows(out))


class TestOutputHygiene:
    def test_writes_stay_in_output_directory(self, tmp_path, monkeypatch):
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        cfg = write_config(tmp_path, {"n": 6, "trials": 1})
        out = tmp_path / "elsewhere"
        assert main(["smoothed", "--config", cfg, "--out", str(out)]) == 0
        assert list(cwd.iterdir()) == []
        assert sorted(p.name for p in out.iterdir()) == ["records.csv", "summary.json"]


class TestInstalledEntryPoint:
    def test_help_runs(self):
        proc = run_module("--help")
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: poissonize")
        assert "reduction-check" in proc.stdout

    def test_console_script_target_resolves(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        assert scripts["poissonize"] == "poissonize.cli:main"
        module_name, attr = scripts["poissonize"].split(":")
        assert getattr(importlib.import_module(module_name), attr) is main

    @pytest.mark.skipif(
        shutil.which("poissonize") is None, reason="console script not installed"
    )
    def test_installed_script_help_runs(self):
        proc = subprocess.run(["poissonize", "--help"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "reduction-check" in proc.stdout
