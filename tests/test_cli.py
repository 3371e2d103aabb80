"""Experiment driver: configs, exit statuses, and deterministic outputs."""

import csv
import importlib
import itertools
import json
import math
import os
import re
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
from poissonize import cli, gmm_learner, poissonization
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


def run_module(*args, timeout=None, env=None):
    """``python -m poissonize ARGS`` in a child process, without an install,
    with ``env`` added to the environment; past ``timeout`` seconds the
    child is killed and the call raises."""
    # A relative PYTHONPATH inherited from the parent would only resolve
    # from the repo root, so the package's own source directory goes first.
    src_dir = str(Path(poissonize.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = {
        **os.environ,
        **(env or {}),
        "PYTHONPATH": os.pathsep.join([src_dir] + ([inherited] if inherited else [])),
    }
    return subprocess.run(
        [sys.executable, "-m", "poissonize", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
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

    def test_summary_reports_the_counts_each_trial_saw(self, tmp_path):
        """``largest_counts`` and ``zero_count_shares`` hold one entry per
        trial, null for an aborted one, and stay out of records.csv."""
        cfg = write_config(tmp_path, TOY_LEARN)
        out = tmp_path / "out"
        assert main(["learn", "--config", cfg, "--out", str(out)]) == 0
        summary = read_summary(out)
        assert len(summary["largest_counts"]) == len(summary["zero_count_shares"]) == 2
        for largest, share in zip(summary["largest_counts"], summary["zero_count_shares"]):
            assert isinstance(largest, int) and 2 <= largest <= TOY_LEARN["tau"]
            # R = 0 has probability exp(-2) at lambda = m = 2
            assert share == pytest.approx(math.exp(-2.0), abs=0.02)
        assert not {"largest_counts", "zero_count_shares"} & set(read_rows(out)[0])
        aborted = tmp_path / "aborted"
        cfg = write_config(tmp_path, {**TOY_LEARN, "tau": 6, "samples": 5_000, "trials": 1})
        assert main(["learn", "--config", cfg, "--out", str(aborted)]) == 2
        summary = read_summary(aborted)
        assert summary["largest_counts"] == summary["zero_count_shares"] == [None]

    @pytest.mark.parametrize("error", ["IllConditionedError", "DegenerateModelError",
                                       "FeasibilityError"])
    def test_counts_kept_when_recovery_fails(self, tmp_path, monkeypatch, error):
        """A trial whose recovery raises a modeled error after sampling still
        reports the counts it saw; a truncation abort still reads null."""
        exc_type = getattr(gmm_learner, error)

        def recover_from_cumulants(*args):
            raise exc_type("forced")

        monkeypatch.setattr(gmm_learner, "recover_from_cumulants", recover_from_cumulants)
        cfg = write_config(tmp_path, TOY_LEARN)
        out = tmp_path / "out"
        assert main(["learn", "--config", cfg, "--out", str(out)]) == 2
        assert [row["reason"] for row in read_rows(out)] == [f"{error}: forced"] * 2
        summary = read_summary(out)
        assert len(summary["largest_counts"]) == len(summary["zero_count_shares"]) == 2
        for largest, share in zip(summary["largest_counts"], summary["zero_count_shares"]):
            assert isinstance(largest, int) and 2 <= largest <= TOY_LEARN["tau"]
            assert share == pytest.approx(math.exp(-2.0), abs=0.02)
        aborted = tmp_path / "aborted"
        cfg = write_config(tmp_path, {**TOY_LEARN, "tau": 6, "samples": 5_000, "trials": 1})
        assert main(["learn", "--config", cfg, "--out", str(aborted)]) == 2
        summary = read_summary(aborted)
        assert summary["largest_counts"] == summary["zero_count_shares"] == [None]

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

    def test_certified_tau_is_found_once_per_run(self, tmp_path, monkeypatch):
        """The certified cutoff is walked once, while the config is read, and
        every trial truncates at it."""
        walks = []
        walk = poissonization.certified_tail_threshold
        monkeypatch.setattr(poissonization, "certified_tail_threshold",
                            lambda *args: walks.append(args) or walk(*args))
        cfg = write_config(tmp_path, {**TOY_LEARN, "tau": "certified", "trials": 3})
        out = tmp_path / "out"
        assert main(["learn", "--config", cfg, "--out", str(out)]) == 0
        assert len(walks) == 1
        assert [float(row["tau"]) for row in read_rows(out)] == [walk(*walks[0])] * 3

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
        """eps is accepted, range-checked and echoed with its value in the
        resolved config, but changes no record."""
        outputs = []
        for index, (extra, echoed) in enumerate((({}, 0.25), ({"eps": 1e40}, 1e40))):
            cfg = write_config(tmp_path, {**TOY_LEARN, **extra}, name=f"c{index}.json")
            out = tmp_path / f"out{index}"
            assert main(["learn", "--config", cfg, "--out", str(out)]) == 0
            assert read_summary(out)["config"]["eps"] == echoed
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

    def test_nan_weight_is_usage_error_not_a_hang(self, tmp_path):
        """A NaN weight used to pass the mixture checks and leave the Poisson
        sampler rejecting forever; in a child process with a time limit, it
        is one usage-error line within seconds."""
        gmm = {**TOY_LEARN["gmm"], "weights": [math.nan, 0.5]}
        cfg = write_config(tmp_path, {**TOY_LEARN, "gmm": gmm})
        out = tmp_path / "out"
        result = run_module("learn", "--config", cfg, "--out", str(out), timeout=60)
        assert result.returncode == 1
        assert result.stderr.splitlines() == [
            "poissonize: error: bad config value: "
            "means, weights and covariance must be finite"]
        assert not (out / "records.csv").exists()

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


# the learn columns that must agree exactly between a trial of a
# multi-trial run and the single-trial run at its seed
_EXACT_LEARN_COLUMNS = ("seed", "failed", "reason", "lam", "tau", "samples_used")
_FLOAT_LEARN_COLUMNS = ("aligned_error", "weight_max_error", "weight_sum",
                        "tv_gap", "eigengap")
_BLAS = cli._openblas_thread_controls()
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
needs_pinned_blas = pytest.mark.skipif(
    not _BLAS or _CPUS < 2, reason="trials run one at a time without OpenBLAS and two CPUs")
needs_blas = pytest.mark.skipif(not _BLAS, reason="no OpenBLAS thread controls found")


class TestConcurrentTrials:
    """Trials run side by side, each on one BLAS thread, and are written in
    trial order."""

    def test_rows_match_single_trial_runs(self, tmp_path):
        """Trial i of a 3-trial run is the 1-trial run at seed root + i: the
        same stream, whatever ran beside it."""
        config = {"generator": {"n": 4, "m": 4}, "samples": 40_000, "seed": 21}
        cfg = write_config(tmp_path, {**config, "trials": 3})
        out = tmp_path / "all"
        assert main(["learn", "--config", cfg, "--out", str(out)]) == 0
        rows = read_rows(out)
        assert [row["trial"] for row in rows] == ["0", "1", "2"]
        summary = read_summary(out)
        assert summary["workers"] == (min(3, _CPUS) if _BLAS else 1)
        assert summary["blas_threads"] == (1 if summary["workers"] > 1 else None)
        for trial, row in enumerate(rows):
            single = tmp_path / f"single{trial}"
            cfg = write_config(tmp_path, {**config, "seed": 21 + trial, "trials": 1},
                               name=f"single{trial}.json")
            assert main(["learn", "--config", cfg, "--out", str(single)]) == 0
            (alone,) = read_rows(single)
            assert read_summary(single)["workers"] == 1
            assert read_summary(single)["blas_threads"] is None
            for column in _EXACT_LEARN_COLUMNS:
                assert row[column] == alone[column], column
            for column in _FLOAT_LEARN_COLUMNS:
                assert math.isclose(float(row[column]), float(alone[column]),
                                    rel_tol=1e-12), column

    @needs_pinned_blas
    def test_records_identical_across_blas_thread_counts(self, tmp_path):
        """With two trials, records.csv has the same bytes under one and two
        BLAS threads, in child processes that read the count at start-up."""
        cfg = write_config(tmp_path, {"generator": {"n": 4, "m": 4}, "samples": 40_000,
                                      "trials": 2, "seed": 5})
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            proc = run_module("learn", "--config", cfg, "--out", str(out), timeout=300,
                              env={"OPENBLAS_NUM_THREADS": threads})
            assert proc.returncode == 0, proc.stderr
            outputs.append((out / "records.csv").read_bytes())
        assert outputs[0] == outputs[1]

    @needs_pinned_blas
    def test_blas_threads_pinned_then_restored(self, tmp_path, monkeypatch):
        """Every trial sees one BLAS thread, and each library's own count is
        back after learn returns, also when a trial raises."""
        real_learn_means = cli.learn_means
        seen = []

        def learn_means(*args, **kwargs):
            seen.append([getter() for _, getter in _BLAS])
            if args[4].seed == 101:
                raise RuntimeError("trial 1 broke")
            return real_learn_means(*args, **kwargs)

        monkeypatch.setattr(cli, "learn_means", learn_means)
        before = [getter() for _, getter in _BLAS]
        try:
            for setter, _ in _BLAS:
                setter(2)
            ambient = [getter() for _, getter in _BLAS]
            cfg = write_config(tmp_path, {**TOY_LEARN, "seed": 100, "trials": 2})
            with pytest.raises(RuntimeError, match="trial 1 broke"):
                main(["learn", "--config", cfg, "--out", str(tmp_path / "broken")])
            assert [getter() for _, getter in _BLAS] == ambient
            cfg = write_config(tmp_path, {**TOY_LEARN, "seed": 200, "trials": 2},
                               name="whole.json")
            assert main(["learn", "--config", cfg, "--out", str(tmp_path / "whole")]) == 0
            assert [getter() for _, getter in _BLAS] == ambient
        finally:
            for (setter, _), count in zip(_BLAS, before):
                setter(count)
        assert len(seen) == 4
        assert all(counts == [1] * len(_BLAS) for counts in seen)

    def test_modeled_failures_keep_trial_order(self, tmp_path):
        """Trials that abort on truncation and trials that succeed, run side
        by side, exit 2 with their rows in trial order, each as it fails or
        succeeds alone."""
        config = {**TOY_LEARN, "tau": 9, "samples": 5_000, "seed": 31}
        cfg = write_config(tmp_path, {**config, "trials": 4})
        out = tmp_path / "all"
        assert main(["learn", "--config", cfg, "--out", str(out)]) == 2
        rows = read_rows(out)
        assert [row["trial"] for row in rows] == ["0", "1", "2", "3"]
        assert [row["seed"] for row in rows] == ["31", "32", "33", "34"]
        failed = [row["failed"] for row in rows]
        assert failed == ["false", "true", "true", "false"]
        assert read_summary(out)["failure_count"] == failed.count("true")
        for trial, row in enumerate(rows):
            single = tmp_path / f"single{trial}"
            cfg = write_config(tmp_path, {**config, "seed": 31 + trial, "trials": 1},
                               name=f"single{trial}.json")
            status = main(["learn", "--config", cfg, "--out", str(single)])
            (alone,) = read_rows(single)
            assert status == (2 if row["failed"] == "true" else 0)
            assert (row["failed"], row["reason"]) == (alone["failed"], alone["reason"])


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
        ("hardness", {"mode": "pigeonhole", "dimension": 4},
         "dimension must be at most 3 for the L1 distance, got 4"),
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
        ("smoothed", {"families": ["cauchy", "zero"]}, "unknown families: cauchy"),
        ("ica-bench", {"n": 2, "m": 5, "d": 6},
         "m must be at most C(n + d/2 - 1, d/2) = 4 for n = 2, d = 6, got 5"),
        ("reduction-check", {"grid_lams": [1, math.nan]}, "grid_lams must be finite, got nan"),
        ("reduction-check", {"grid_lams": [math.inf]}, "grid_lams must be finite, got inf"),
        ("ica-bench", {"cum_high": math.inf, "trials": 1}, "cum_high must be finite, got inf"),
        ("learn", {"samples": 2000, "generator": {"n": 2, "m": 2, "noise": math.inf}},
         "generator noise must be finite, got inf"),
        ("learn", {**TOY_LEARN, "gmm": {**TOY_LEARN["gmm"],
                                        "means": [[math.nan, 0.0], [0.0, 3.0]]}},
         "means, weights and covariance must be finite"),
        ("smoothed", {"sigma": math.inf}, "sigma must be finite, got inf"),
        ("reduction-check", {"marginal_tol": math.nan}, "marginal_tol must be finite, got nan"),
        ("learn", {**TOY_LEARN, "tau": "nan"}, "tau must be finite, got nan"),
        ("learn", {"generator": {"norm_high": math.inf}},
         "generator norm_high must be finite, got inf"),
        ("hardness", {"h_values": [-math.inf]}, "h_values must be finite, got -inf"),
        ("reduction-check", {"probs": [math.nan]}, "probs must be finite, got nan"),
        ("smoothed", {"families": []}, "families must not be empty"),
        ("reduction-check", {"lam": 1e300}, "lam must be at most 1e6, got 1e+300"),
        ("reduction-check", {"lam": 1e17}, "lam must be at most 1e6, got 1e+17"),
        ("reduction-check", {"grid_lams": [1e12], "grid_taus": [3]},
         "grid_lams must be at most 1e6, got [1000000000000.0]"),
        ("reduction-check", {"grid_taus": [3, 10**12]},
         "grid_taus must be at most 1e6, got [3, 1000000000000]"),
        ("ica-bench", {"cum_low": 1e308, "cum_high": 1e308},
         "cum_high must be at most 1.49808e+307 (the largest float over 2 m)"),
        ("learn", {**TOY_LEARN, "gmm": {**TOY_LEARN["gmm"], "means": [2.0, 3.0]}},
         "gmm means must be a list of mean vectors"),
        ("ica-bench", {"cum_low": 5e-324, "cum_high": 5e-324, "trials": 2},
         "cum_low must be at least 2.22507e-308 (the smallest normal float), got 5e-324"),
        ("smoothed", {"n": 153}, "n must be at most 152 (a 1 GiB square), got 153"),
        ("hardness", {"mode": "pigeonhole", "k": 5793},
         "k must be at most 5792 (4k^2 points in 1 GiB) in dimension 1, got 5793"),
        ("hardness", {"mode": "pigeonhole", "k": 3345, "dimension": 3},
         "k must be at most 3344 (4k^2 points in 1 GiB) in dimension 3, got 3345"),
        ("hardness", {"h_values": [0.1, 1 / 16386]},
         "h_values points per set 1/(2h) must be at most 8192 (a 1 GiB kernel), got 8193"),
        ("hardness", {"h_values": [0.0]}, "h must be positive"),
        ("learn", {**TOY_LEARN, "seed": -1}, "seed must be nonnegative, got -1"),
        ("smoothed", {"seed": -1}, "seed must be nonnegative, got -1"),
        ("hardness", {"seed": -1}, "seed must be nonnegative, got -1"),
        ("hardness", {"mode": "pigeonhole", "seed": -1}, "seed must be nonnegative, got -1"),
        ("ica-bench", {"seed": -1}, "seed must be nonnegative, got -1"),
        ("reduction-check", {"seed": -1}, "seed must be nonnegative, got -1"),
        ("ica-bench", {"n": 30},
         "n must be at most 29 (a 1 GiB Khatri-Rao power) for m = 6, d = 4, got 30"),
        ("ica-bench", {"n": 12, "d": 6},
         "n must be at most 11 (a 1 GiB Khatri-Rao power) for m = 6, d = 6, got 12"),
        ("learn", {"generator": {"n": 42}},
         "n must be at most 41 (a 1 GiB order-5 cumulant) for d = 4, got 42"),
        ("learn", {"d": 6, "generator": {"n": 14, "m": 4}},
         "n must be at most 13 (a 1 GiB order-7 cumulant) for d = 6, got 14"),
        ("learn", {"gmm": {"means": [[1.0] + [0.0] * 41], "weights": [1.0],
                           "covariance": [[0.0] * 42] * 42}},
         "n must be at most 41 (a 1 GiB order-5 cumulant) for d = 4, got 42"),
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

    @pytest.mark.parametrize("command", ["learn", "smoothed", "hardness",
                                         "ica-bench", "reduction-check"])
    def test_negative_seed_flag_is_usage_error(self, tmp_path, capsys, command):
        """``--seed -1`` is refused as the config seed is, before numpy's
        seeding would raise inside a trial."""
        out = tmp_path / "out"
        assert main([command, "--seed", "-1", "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "poissonize: error: bad config value: seed must be nonnegative, got -1"]
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


def documented_keys(command):
    """The key set of each key table in the docs/cli.md section of
    ``command``, in the order of the tables."""
    text = (Path(__file__).resolve().parents[1] / "docs" / "cli.md").read_text()
    section = text.split(f"\n## {command}\n")[1].split("\n## ")[0]
    tables = []
    for table in section.split("| key | default | meaning |")[1:]:
        rows = itertools.takewhile(lambda line: line.startswith("|"), table.splitlines()[2:])
        tables.append({key for row in rows for key in re.findall(r"`([^`]+)`", row.split("|")[1])})
    return tables


class TestDocumentedKeys:
    @pytest.mark.parametrize("command, table, configs", [
        ("learn", 0, [{**TOY_LEARN, "samples": 2000, "trials": 1},
                      {"generator": {"n": 2, "m": 2}, "samples": 2000, "trials": 1}]),
        ("smoothed", 0, [{"n": 3, "trials": 1}]),
        ("hardness", 0, [{"h_values": [0.5]}]),
        ("hardness", 1, [{"mode": "pigeonhole", "k": 2, "instances": 1}]),
        ("ica-bench", 0, [{"trials": 1}]),
        ("reduction-check", 0, [{"samples": 100, "grid_lams": [1], "grid_taus": [1]}]),
    ])
    def test_echoed_keys_are_the_documented_keys(self, tmp_path, command, table, configs):
        """The keys a small run echoes in summary.json, nested blocks as
        ``gmm.means`` and ``generator.n``, are the keys of the command's
        docs/cli.md table (for learn over its gmm and generator runs, for
        hardness one table per mode).  Each run also passes ``out``, which
        every command accepts and no table lists, and ``--trials``."""
        echoed = set()
        for index, config in enumerate(configs):
            out = tmp_path / f"out{index}"
            cfg = write_config(tmp_path, {**config, "out": str(out)}, name=f"c{index}.json")
            assert main([command, "--config", cfg, "--trials", "1"]) == 0
            for key, value in read_summary(out)["config"].items():
                echoed |= ({f"{key}.{sub}" for sub in value} if isinstance(value, dict)
                           else {key})
        assert echoed == documented_keys(command)[table]


_GRID = st.integers(-1, 1)
_NORMS = st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0])
# JSON as Python reads and writes it carries NaN and the infinities
_NON_FINITE = [math.nan, math.inf, -math.inf]


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
        "tau": draw(st.sampled_from(["certified", 9, 30])),
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
    """Small `reduction-check` configs, valid and invalid values mixed,
    non-finite numbers included."""
    probs = draw(st.sampled_from([[1.0], [0.5, 0.5], [0.2, 0.3, 0.5], [0.5, 0.6], []]))
    return {
        "lam": draw(st.sampled_from([-1.0, 0.0, 0.1, 5.0, 30.0, 40.0, 1e300,
                                     *_NON_FINITE])),
        "probs": probs,
        "samples": draw(st.integers(0, 500)),
        "delta": draw(st.sampled_from([0.0, 1e-12, 0.5, 1.0, *_NON_FINITE])),
        "marginal_tol": draw(st.sampled_from([0.02, *_NON_FINITE])),
        "grid_lams": draw(st.lists(st.sampled_from([0.0, 0.5, 3.0, 40.0, *_NON_FINITE]),
                                   max_size=3)),
        "grid_taus": draw(st.lists(st.integers(-1, 60), max_size=3)),
        "seed": draw(st.integers(0, 1000)),
    }


@st.composite
def ica_bench_configs(draw):
    """Small `ica-bench` configs, m above the rank bound C(n + d/2 - 1, d/2)
    and non-finite floors and cumulant ranges included."""
    return {
        "n": draw(st.integers(1, 3)),
        "m": draw(st.integers(1, 7)),
        "d": draw(st.sampled_from([4, 6])),
        "sigma_floor": draw(st.sampled_from([0, 1e-3, *_NON_FINITE])),
        "cum_low": draw(st.sampled_from([1.0, *_NON_FINITE])),
        "cum_high": draw(st.sampled_from([2.0, *_NON_FINITE])),
        "trials": 1,
        "seed": draw(st.integers(0, 1000)),
    }


@st.composite
def hardness_configs(draw):
    """Small `hardness` configs of either mode; spacings that are not
    1/(2k) included."""
    if draw(st.booleans()):
        return {
            "mode": "decay",
            "h_values": draw(st.lists(st.sampled_from([0.5, 0.25, 0.3]),
                                      min_size=1, max_size=2)),
            "seed": draw(st.integers(0, 1000)),
        }
    return {
        "mode": "pigeonhole",
        "k": draw(st.integers(2, 3)),
        "dimension": draw(st.integers(1, 2)),
        "instances": 1,
        "seed": draw(st.integers(0, 1000)),
    }


class TestFuzzedConfigs:
    """Every run ends in success (0), a usage error (1) or a modeled
    failure (2), never in a traceback."""

    @given(data=st.one_of(
        st.tuples(st.just("learn"), learn_configs()),
        st.tuples(st.just("reduction-check"), reduction_check_configs()),
        st.tuples(st.just("ica-bench"), ica_bench_configs()),
        st.tuples(st.just("hardness"), hardness_configs()),
    ))
    @settings(max_examples=100, deadline=None)
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

    @needs_blas
    def test_records_identical_across_blas_thread_counts(self, tmp_path):
        """The SVDs run on one BLAS thread, so records.csv has the same bytes
        under one and two ambient threads, in child processes that read the
        count at start-up.  Unpinned, the last digits of this config's
        values (n = 25, 300 columns) follow the thread count."""
        cfg = write_config(tmp_path, {"n": 25, "families": ["gaussian"], "trials": 2,
                                      "seed": 8})
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            proc = run_module("smoothed", "--config", cfg, "--out", str(out), timeout=300,
                              env={"OPENBLAS_NUM_THREADS": threads})
            assert proc.returncode == 0, proc.stderr
            outputs.append((out / "records.csv").read_bytes())
            assert read_summary(out)["blas_threads"] == 1
        assert outputs[0] == outputs[1]

    @needs_blas
    def test_blas_threads_pinned_then_restored(self, tmp_path, monkeypatch):
        """The trials see one BLAS thread, and each library's own count is
        back after smoothed returns, also when run_smoothed raises."""
        real_run_smoothed = cli.run_smoothed
        seen = []

        def run_smoothed(*args, **kwargs):
            seen.append([getter() for _, getter in _BLAS])
            if args[4].seed == 101:
                raise RuntimeError("smoothed broke")
            return real_run_smoothed(*args, **kwargs)

        monkeypatch.setattr(cli, "run_smoothed", run_smoothed)
        before = [getter() for _, getter in _BLAS]
        try:
            for setter, _ in _BLAS:
                setter(2)
            ambient = [getter() for _, getter in _BLAS]
            cfg = write_config(tmp_path, {"n": 5, "trials": 1, "seed": 101})
            with pytest.raises(RuntimeError, match="smoothed broke"):
                main(["smoothed", "--config", cfg, "--out", str(tmp_path / "broken")])
            assert [getter() for _, getter in _BLAS] == ambient
            cfg = write_config(tmp_path, {"n": 5, "trials": 1, "seed": 200},
                               name="whole.json")
            assert main(["smoothed", "--config", cfg, "--out", str(tmp_path / "whole")]) == 0
            assert [getter() for _, getter in _BLAS] == ambient
        finally:
            for (setter, _), count in zip(_BLAS, before):
                setter(count)
        assert seen == [[1] * len(_BLAS)] * 2


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
            "instances": 2,
        })
        out = tmp_path / "out"
        assert main(["hardness", "--config", cfg, "--out", str(out)]) == 0
        rows = read_rows(out)
        assert all(row["built"] == "true" for row in rows)
        assert all(row["equal_counts"] == "true" for row in rows)

    def test_trials_flag_overrides_instances(self, tmp_path):
        """--trials sets the instance count, as it sets every command's
        trial count, over a config's instances."""
        cfg = write_config(tmp_path, {"mode": "pigeonhole", "k": 2, "instances": 2})
        out = tmp_path / "out"
        assert main(["hardness", "--config", cfg, "--out", str(out), "--trials", "1"]) == 0
        assert [row["instance"] for row in read_rows(out)] == ["0"]
        assert read_summary(out)["config"]["instances"] == 1

    def test_grid_dimensions_write_no_error_column(self, tmp_path):
        """2-D and 3-D distances come from a deterministic grid, so neither
        the row nor the pair file carries an error estimate."""
        cfg = write_config(tmp_path, {"mode": "pigeonhole", "k": 2, "dimension": 3,
                                      "instances": 1})
        out = tmp_path / "out"
        assert main(["hardness", "--config", cfg, "--out", str(out)]) == 0
        (row,) = read_rows(out)
        exported = json.loads((out / "pair_0.json").read_text())
        assert "l1_error" not in row and "l1_error" not in exported
        assert float(row["l1_distance"]) == exported["l1_distance"] > 0.0

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
        ({"mode": "pigeonhole", "dimension": 2, "l1_samples": 1000}, "l1_samples"),
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
        {"mode": "pigeonhole", "k": 2, "instances": 1, "seed": 2},
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

    def test_subnormal_delta_does_not_raise(self, tmp_path):
        """A subnormal delta used to overflow the closed-form tail threshold
        (``OverflowError`` from ``1 / delta``); the run ends with exit 0 or
        2 and no traceback."""
        cfg = write_config(tmp_path, {"delta": 1e-320})
        proc = run_module("reduction-check", "--config", cfg, "--out", str(tmp_path / "out"))
        assert proc.returncode in (0, 2)
        assert "Traceback" not in proc.stderr


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
