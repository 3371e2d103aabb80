"""Accuracy bounds of a learn workload: a pool of trials on the workload's own
mixtures, and the distribution of a run's accuracy statistics resampled from
it.

From the root of a source checkout:

    python3 perfbench/accuracy_bounds.py learn-d4
    python3 perfbench/accuracy_bounds.py learn-d6

Runs one `learn` command of TRIALS[workload] trials on each of the mixtures
of seeds 1 to 25, appends one line per mixture to
.perfbench_out/accuracy-pool-<workload>.jsonl (an existing pool is reused),
and prints the figures README.md cites under "Accuracy bounds".  Every ratio
is aligned_error over the mixture's all-origin score.  A run judges at least
(min_ops - 1) * trials distinct trials, and the statistics are resampled at
that count in two ways:

  pooled  draws every trial from the whole pool;
  scale   draws a mixture, then multiplies its median by residuals (trial
          ratio over its own mixture's median) drawn from the whole pool, so
          that harder mixtures keep their shift.
"""

import contextlib
import io
import json
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import checks  # noqa: E402
import workloads  # noqa: E402
from poissonize import cli  # noqa: E402

SEEDS = range(1, 26)
TRIALS = {"learn-d4": 12, "learn-d6": 9}
RESAMPLES = 1_000_000


def collect(workload, path):
    done = set()
    if os.path.exists(path):
        with open(path) as handle:
            done = {json.loads(line)["seed"] for line in handle}
    directory = os.path.join(ROOT, ".perfbench_out", f"accuracy-{workload.name}")
    os.makedirs(directory, exist_ok=True)
    for seed in SEEDS:
        if seed in done:
            continue
        inputs = workload.make_inputs(seed, directory)
        out = os.path.join(directory, f"seed{seed}")
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main(["learn", "--config", inputs["config"], "--out", out,
                               "--seed", str(7_000_000 + 1000 * seed),
                               "--trials", str(TRIALS[workload.name])])
        rows = checks.read_csv(os.path.join(out, "records.csv"))
        if status != 0 or any(r["failed"] != "false" for r in rows):
            sys.exit(f"seed {seed}: learn exited {status} or a trial failed")
        with open(path, "a") as handle:
            handle.write(json.dumps({
                "seed": seed, "origin": checks.origin_score(inputs["means"]),
                "aligned_error": [float(r["aligned_error"]) for r in rows],
                "weight_sum": [float(r["weight_sum"]) for r in rows if r["weight_sum"]],
            }) + "\n")


def analyse(workload, path):
    with open(path) as handle:
        pool = [json.loads(line) for line in handle]
    k = (workload.min_ops - 1) * workload.trials
    rng = np.random.default_rng(0)
    per_mixture = [np.array(p["aligned_error"]) / p["origin"] for p in pool]
    ratios = np.concatenate(per_mixture)
    medians = np.array([np.median(r) for r in per_mixture])
    residuals = np.concatenate([r / np.median(r) for r in per_mixture])
    print(f"{workload.name}: {len(pool)} mixtures, {len(ratios)} trials, runs of {k} trials")
    print("  trial ratio: median %.3f, q0.9 %.3f, q0.99 %.3f, max %.3f, P(>=1) %.4f" % (
        np.median(ratios), *np.quantile(ratios, [0.9, 0.99]), ratios.max(), (ratios >= 1).mean()))
    print("  mixture medians: %.3f to %.3f" % (medians.min(), medians.max()))
    draws = {
        "pooled": rng.choice(ratios, (RESAMPLES, k)),
        "scale": medians[rng.integers(0, len(pool), RESAMPLES), None]
        * rng.choice(residuals, (RESAMPLES, k)),
    }
    for model, run in draws.items():
        run_median = np.median(run, axis=1)
        print(f"  {model}: run median q(1-1e-4) %.3f, q(1-1e-5) %.3f, P(median >= 1) %.2e, "
              "P(best trial >= 1) %.2e" % (*np.quantile(run_median, [1 - 1e-4, 1 - 1e-5]),
                                          (run_median >= 1).mean(), (run.min(axis=1) >= 1).mean()))
    weights = [abs(w - 1.0) for p in pool for w in p["weight_sum"]]
    if weights:
        run_median = np.median(rng.choice(weights, (RESAMPLES, k)), axis=1)
        print("  |weight_sum - 1|: max %.3f, pooled run median q(1-1e-4) %.3f" % (
            max(weights), np.quantile(run_median, 1 - 1e-4)))


def main(argv):
    if len(argv) != 1 or argv[0] not in TRIALS:
        sys.exit(f"usage: accuracy_bounds.py {{{','.join(TRIALS)}}}")
    workload = workloads.WORKLOADS[argv[0]]
    path = os.path.join(ROOT, ".perfbench_out", f"accuracy-pool-{workload.name}.jsonl")
    collect(workload, path)
    analyse(workload, path)


if __name__ == "__main__":
    main(sys.argv[1:])
