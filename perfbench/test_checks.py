"""Each benchmark check accepts the program's real output and rejects a
deliberately wrong copy of it, so that no check passes vacuously.

Run from the root of a source checkout:

    python3 -m pytest -q perfbench/test_checks.py
"""

import copy
import json
import os
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
from poissonize import cli, cumulants, ica  # noqa: E402
from poissonize.distributions import GmmParams, SeededRng  # noqa: E402
from poissonize.poissonization import sample_approx_ica_batch  # noqa: E402

MEANS = np.array([[1.0, -0.5, 0.2], [0.3, 1.2, -1.1]])
WEIGHTS = np.array([0.2, 0.3, 0.5])
COVARIANCE = 0.01 * np.eye(2)
DELTA = 1e-6


def run(tmp_path, command, config, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(config))
    out = tmp_path / name
    assert cli.main([command, "--config", str(path), "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def learn_rows(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("learn")
    config = {"gmm": {"means": MEANS.T.tolist(), "weights": WEIGHTS.tolist(),
                      "covariance": COVARIANCE.tolist()},
              "d": 4, "delta": DELTA, "samples": 200_000, "trials": 2, "seed": 40}
    return checks.read_csv(run(tmp, "learn", config, "learn") / "records.csv")


def learn_errors(rows):
    return checks.check_learn_records(rows, trials=2, seed=40, samples=200_000, m=3,
                                      delta=DELTA, with_weights=True)


def test_learn_records_accept_real_output(learn_rows):
    assert learn_errors(learn_rows) == []
    assert checks.check_accuracy(learn_rows, checks.origin_score(MEANS), 0.5, 0.25) == []


@pytest.mark.parametrize("column, value", [
    ("failed", "true"),
    ("tv_gap", "1e-3"),
    ("tau", "8.0"),
    ("samples_used", "199999"),
    ("seed", "42"),
    ("aligned_error", "nan"),
    ("weight_sum", ""),
])
def test_learn_records_reject_a_wrong_row(learn_rows, column, value):
    rows = copy.deepcopy(learn_rows)
    rows[1][column] = value
    assert learn_errors(rows)


def test_accuracy_rejects_a_learner_no_better_than_zeros(learn_rows):
    origin = checks.origin_score(MEANS)
    rows = copy.deepcopy(learn_rows)
    for row in rows:
        row["aligned_error"] = repr(origin)  # every mean at the origin
    errors = checks.check_accuracy(rows, origin, 5.0, 0.25)
    assert len(errors) == 1 and "all-origin" in errors[0]


@pytest.mark.parametrize("column, value, word", [("aligned_error", "0.6", "median aligned"),
                                                 ("weight_sum", "1.3", "weight_sum")])
def test_accuracy_rejects_medians_past_the_bound(learn_rows, column, value, word):
    rows = copy.deepcopy(learn_rows)
    for row in rows:
        row[column] = value
    errors = checks.check_accuracy(rows, 1.0, 0.5, 0.25)
    assert len(errors) == 1 and word in errors[0]


@pytest.fixture(scope="module")
def lifted_rows():
    gmm = GmmParams(MEANS, WEIGHTS, COVARIANCE)
    return sample_approx_ica_batch(gmm, 3.0, 20.0, SeededRng(3), 100_000)


def test_sampler_law_accepts_real_rows(lifted_rows):
    assert checks.check_sampler_law(lifted_rows, MEANS, WEIGHTS, COVARIANCE, 3.0, 20.0) == []


def test_sampler_law_rejects_two_swapped_mean_columns(lifted_rows):
    swapped = MEANS[:, [1, 0, 2]]
    assert checks.check_sampler_law(lifted_rows, swapped, WEIGHTS, COVARIANCE, 3.0, 20.0)


def test_sampler_law_rejects_a_wrong_noise_level(lifted_rows):
    assert checks.check_sampler_law(lifted_rows, MEANS, WEIGHTS, COVARIANCE, 3.0, 60.0)


@pytest.mark.parametrize("order", [3, 4, 5])
def test_projection_rejects_a_perturbed_tensor_entry(lifted_rows, order):
    rows = lifted_rows[:5000]
    acc = cumulants.MomentAccumulator(3, 5, shift=rows[0])
    acc.update(rows)
    flat = cumulants.assemble_flat_cumulant(acc, order).data
    u = np.array([0.6, -0.48, 0.64])
    assert checks.check_projection(flat, 3, order, rows, u) == []
    wrong = flat.copy()
    wrong[1] *= 1.0 + 1e-4
    assert checks.check_projection(wrong, 3, order, rows, u)


def test_scalar_cumulant_matches_known_values():
    rng = np.random.default_rng(0)
    y = rng.poisson(2.0, 400_000).astype(float)
    # every cumulant of a Poisson law equals its rate
    assert [round(checks.scalar_cumulant(y, r), 1) for r in (2, 3, 4)] == [2.0, 2.0, 2.0]


@pytest.mark.parametrize("d", [4, 6])
def test_oracle_recovery_accepts_exact_and_rejects_perturbed(d):
    m0, k_next = checks.exact_cumulant_pair(MEANS, WEIGHTS, 3.0, d)
    truth, _, _ = checks.lifted_ica(MEANS, WEIGHTS, 3.0)
    estimate = ica.recover_from_cumulants(m0, k_next, 3, d, SeededRng(1))
    assert checks.check_oracle_recovery(estimate.columns, truth) == []
    wrong = estimate.columns.copy()
    wrong[0, 1] += 1e-6
    assert checks.check_oracle_recovery(wrong, truth)


def test_aligned_error_rejects_a_moved_mean():
    estimate = MEANS + 0.01
    _, errors = checks.match_columns(estimate, MEANS)
    assert checks.check_aligned_error(estimate, MEANS, errors.mean()) == []
    moved = estimate.copy()
    moved[0, 2] += 0.1
    assert checks.check_aligned_error(moved, MEANS, errors.mean())


@pytest.fixture(scope="module")
def hardness(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("hardness")
    decay = run(tmp, "hardness", {"mode": "decay", "h_values": [0.1, 0.05]}, "decay")
    one = run(tmp, "hardness", {"mode": "pigeonhole", "k": 3, "dimension": 1,
                                "instances": 1, "seed": 2}, "one")
    two = run(tmp, "hardness", {"mode": "pigeonhole", "k": 2, "dimension": 2,
                                "instances": 1, "seed": 2}, "two")
    return {
        "decay_rows": checks.read_csv(decay / "records.csv"),
        "decay": [checks.read_json(decay / f"pair_decay_{i}.json") for i in range(2)],
        "one_rows": checks.read_csv(one / "records.csv"),
        "one": checks.read_json(one / "pair_0.json"),
        "two": checks.read_json(two / "pair_0.json"),
    }


@pytest.mark.parametrize("key, dimension", [("one", 1), ("two", 2)])
def test_pair_l1_accepts_real_and_rejects_moved_value(hardness, key, dimension):
    pair = hardness[key]
    assert checks.check_pair(pair, dimension) == []
    mine, second = checks.l1_on_grid(pair, 1e-3 if dimension == 1 else 0.02)
    se = np.sqrt(max(second - mine * mine, 0.0) / 200_000)
    moved = dict(pair, l1_distance=pair["l1_distance"] + (1e-5 * mine if dimension == 1
                                                           else 7 * se + 1e-3 * mine))
    assert checks.check_pair(moved, dimension)


def test_pair_rejects_weights_off_one(hardness):
    pair = copy.deepcopy(hardness["one"])
    pair["weights_p"][0] += 1e-9
    assert checks.check_pair(pair, 1)


def test_decay_accepts_real_and_rejects_slow_decay(hardness):
    rows, pairs = hardness["decay_rows"], hardness["decay"]
    assert checks.check_decay([0.1, 0.05], pairs, rows) == []
    slow = copy.deepcopy(pairs)
    slow[1]["l1_distance"] = slow[0]["l1_distance"] / 5.0
    assert checks.check_decay([0.1, 0.05], slow, rows)
    # one center of the h=0.05 pair moved to within h/4 of the other mixture
    close = copy.deepcopy(pairs)
    close[1]["centers_q"][0] = [x + 0.05 / 4 for x in close[1]["centers_p"][0]]
    errors = checks.check_decay([0.1, 0.05], close, rows)
    assert len(errors) == 1 and "below h/2" in errors[0]


def test_pigeonhole_rejects_unequal_counts_and_unbuilt(hardness):
    rows, pair = hardness["one_rows"], hardness["one"]
    assert checks.check_pigeonhole(rows, [pair], 1) == []
    short = copy.deepcopy(pair)
    short["centers_q"] = short["centers_q"][:-1]
    assert checks.check_pigeonhole(rows, [short], 1)
    unbuilt = copy.deepcopy(rows)
    unbuilt[0]["built"] = "false"
    assert checks.check_pigeonhole(unbuilt, [pair], 1)


@pytest.fixture(scope="module")
def smoothed(tmp_path_factory):
    out = run(tmp_path_factory.mktemp("smoothed"), "smoothed",
              {"n": 6, "trials": 2, "seed": 3}, "smoothed")
    return checks.read_csv(out / "records.csv"), checks.read_json(out / "summary.json")


def smoothed_errors(rows, summary):
    return checks.check_smoothed(rows, summary, ["zero", "gaussian", "rank1"], 2, 6, 0.1)


def test_smoothed_accepts_real_output(smoothed):
    assert smoothed_errors(*smoothed) == []


def test_smoothed_rejects_wrong_flags(smoothed):
    rows, summary = copy.deepcopy(smoothed)
    rows[0]["passed"] = "false"
    assert smoothed_errors(rows, summary)
    rows, summary = copy.deepcopy(smoothed)
    summary["odot_dominates"] = False
    assert smoothed_errors(rows, summary)
    rows, summary = copy.deepcopy(smoothed)
    rows[2]["sigma_min_kr2"] = rows[2]["bound"]
    assert smoothed_errors(rows, summary)
