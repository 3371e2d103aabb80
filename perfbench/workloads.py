"""The benchmark's workloads: inputs made from the seed, operations run through
`poissonize.cli.main` in-process, and the checks of what each operation wrote.

The gated operations use only the CLI, its documented config keys and its
output files.  The traced run adds probes that call public functions directly,
for layers a workload's own operations do not reach, and checks that need the
in-memory results (sampler law, projection identity, oracle recovery).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import statistics

import numpy as np

import checks
from poissonize import cli, cumulants, gmm_learner, ica, poissonization
from poissonize.distributions import GmmParams, SeededRng, sample_gmm

# Truncation failure budget.  With tau certified against delta / (2N) a trial
# aborts with probability below delta / 2; the CLI default 0.1 would abort a
# few percent of trials at random, and an operation that fails only on some
# seeds cannot be counted steadily.
DELTA = 1e-6
NOISE = 0.01
CHUNK_ROWS = 1 << 17


def run_cli(argv):
    """One in-process CLI call with its stdout captured; returns the status."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


def write_json(path, payload):
    with open(path, "w") as handle:
        json.dump(payload, handle)


def _median(values):
    return float(statistics.median(values)) if values else float("nan")


# ---------------------------------------------------------------------------
# learn
# ---------------------------------------------------------------------------


def random_mixture(rng, n, m, random_weights, min_angle_deg=30.0):
    """The `learn` generator's rule: mean directions at least min_angle_deg
    apart (as signed vectors), norms in [1, 2], covariance NOISE * I and
    uniform weights, or weights proportional to U[1, 2] draws."""
    cos_bound = math.cos(math.radians(min_angle_deg))
    while True:
        directions = rng.standard_normal((n, m))
        directions /= np.linalg.norm(directions, axis=0)
        gram = directions.T @ directions
        np.fill_diagonal(gram, -1.0)
        if gram.max() < cos_bound:
            break
    means = directions * rng.uniform(1.0, 2.0, m)
    weights = rng.uniform(1.0, 2.0, m) if random_weights else np.ones(m)
    weights /= weights.sum()
    weights[-1] = 1.0 - weights[:-1].sum()
    return means, weights, NOISE * np.eye(n)


class LearnWorkload:
    """One `learn` command of ``trials`` trials on a seeded explicit mixture."""

    def __init__(self, name, n, m, d, samples, trials, with_weights,
                 median_bound, weight_tol):
        self.name, self.n, self.m, self.d = name, n, m, d
        self.samples, self.trials, self.with_weights = samples, trials, with_weights
        self.median_bound, self.weight_tol = median_bound, weight_tol
        # operation 1 repeats operation 0 for byte identity, so four
        # operations give at least three distinct commands: 3 * trials
        # distinct trials for the accuracy check
        self.min_ops = 4

    def make_inputs(self, seed, directory):
        rng = np.random.default_rng([seed, self.n, self.m, self.d])
        means, weights, covariance = random_mixture(rng, self.n, self.m, self.with_weights)
        config = {
            "gmm": {"means": means.T.tolist(), "weights": weights.tolist(),
                    "covariance": covariance.tolist()},
            "d": self.d, "delta": DELTA, "eps": 0.25, "samples": self.samples,
            "tau": "certified", "trials": self.trials,
            "with_weights": self.with_weights, "chunk": CHUNK_ROWS,
        }
        path = os.path.join(directory, f"{self.name}.json")
        write_json(path, config)
        return {"seed": seed, "config": path, "means": means, "weights": weights,
                "covariance": covariance, "trial_rows": []}

    def warm_up(self, directory):
        """A small fixed `learn` (1-D, two components) that loads every module
        and cache the full-size operations use."""
        path = os.path.join(directory, "warm-up.json")
        write_json(path, {"gmm": {"means": [[-1.0], [1.5]], "weights": [0.4, 0.6],
                                  "covariance": [[NOISE]]},
                          "d": 4, "delta": DELTA, "samples": 20_000, "trials": 1})
        status = run_cli(["learn", "--config", path, "--out",
                          os.path.join(directory, "warm-up")])
        if status != 0:
            raise RuntimeError(f"warm-up learn exited {status}")

    def cli_seed(self, inputs, index):
        return 1000 * inputs["seed"] + 10 * (0 if index == 1 else index)

    def operation(self, inputs, index, directory):
        out = os.path.join(directory, f"op{index}")
        return run_cli(["learn", "--config", inputs["config"], "--out", out,
                        "--seed", self.cli_seed(inputs, index)])

    def check(self, inputs, index, directory):
        out = os.path.join(directory, f"op{index}")
        rows = checks.read_csv(os.path.join(out, "records.csv"))
        errors = checks.check_learn_records(
            rows, trials=self.trials, seed=self.cli_seed(inputs, index),
            samples=self.samples, m=self.m, delta=DELTA, with_weights=self.with_weights)
        if not errors:
            inputs["tau"] = float(rows[0]["tau"])
            if index != 1:  # the repeat adds no new trials
                inputs["trial_rows"].extend(rows)
        if index == 1:
            first = os.path.join(directory, "op0", "records.csv")
            with open(first, "rb") as a, open(os.path.join(out, "records.csv"), "rb") as b:
                if a.read() != b.read():
                    errors.append("records.csv of a repeated command differs")
        return errors

    def run_checks(self, inputs):
        """Checks over every trial of the run."""
        return checks.check_accuracy(inputs["trial_rows"], checks.origin_score(inputs["means"]),
                                     self.median_bound, self.weight_tol)

    def cleanup(self, index, directory):
        if index == 0:
            return  # kept until op1 has been compared with it
        for stale in (0, 1) if index == 1 else (index,):
            shutil.rmtree(os.path.join(directory, f"op{stale}"), ignore_errors=True)

    # -- traced run ------------------------------------------------------------
    def observe(self, tracer, captured):
        captured.setdefault("reports", [])

        def on_learn(args, report):
            captured["reports"].append((args[0], report))

        def on_update(args, _):
            captured["accumulator"] = args[0]

        tracer.observers["gmm_learner.learn_means"].append(on_learn)
        tracer.observers["cumulants.MomentAccumulator.update"].append(on_update)

    def probe(self, tracer, inputs, directory, captured):
        """Traced calls for layers the workload's commands skip: the black-box
        sampler, the weight path when weights are off, and one round of the
        experiments workload."""
        gmm = GmmParams(inputs["means"], inputs["weights"], inputs["covariance"])
        blackbox_probe(tracer, gmm, inputs["tau"], inputs["seed"])
        if not self.with_weights:
            _, report = captured["reports"][-1]
            with tracer.operation("probe:weights", 0):
                flat3 = cumulants.assemble_flat_cumulant(
                    captured["accumulator"], 3, coordinates=range(self.n))
                gmm_learner.recover_weights(report.estimated_means, report.params.lam, flat3)
        experiments = inputs["experiments"] = EXPERIMENTS.make_inputs(inputs["seed"], directory)
        inputs["probe_directory"] = directory
        with tracer.operation("probe:experiments", 0):
            status = EXPERIMENTS.operation(experiments, 0, directory)
        if status != 0:
            raise RuntimeError(f"probe experiments round exited {status}")

    def traced_checks(self, inputs, captured):
        return (learn_traced_checks(self, inputs, captured)
                + EXPERIMENTS.check(inputs["experiments"], 0, inputs["probe_directory"]))


def blackbox_probe(tracer, gmm, tau, seed, calls=4):
    """The sampler on a MixtureSource wrapping the same mixture: the path the
    CLI never takes."""
    source = poissonization.MixtureSource(
        draw=lambda count, rng: sample_gmm(gmm, count, rng), covariance=gmm.covariance)
    rng = SeededRng(seed)
    with tracer.operation("probe:blackbox", 0):
        for _ in range(calls):
            poissonization.sample_approx_ica_batch(source, float(gmm.m), tau, rng, CHUNK_ROWS)


def learn_traced_checks(workload, inputs, captured, law_rows=200_000,
                        projection_rows=20_000, directions=3):
    """Sampler law, projection identity, oracle recovery and the benchmark's
    own matching of the learned means; run with tracing off."""
    errors = []
    means, weights, tau = inputs["means"], inputs["weights"], inputs["tau"]
    m, d, lam = workload.m, workload.d, float(workload.m)
    gmm = GmmParams(means, weights, inputs["covariance"])
    rng = SeededRng(inputs["seed"])
    rows = poissonization.sample_approx_ica_batch(gmm, lam, tau, rng, law_rows)
    errors += checks.check_sampler_law(rows, means, weights, inputs["covariance"], lam, tau)

    # Shifted by one row rather than the mean: the identity holds for any
    # shift, and an off-center one keeps every set-partition term nonzero
    # (about the mean, each term with a singleton block vanishes).
    part = rows[:projection_rows]
    acc = cumulants.MomentAccumulator(part.shape[1], d + 1, shift=part[0])
    for start in range(0, len(part), 4096):
        acc.update(part[start:start + 4096])
    units = np.random.default_rng([inputs["seed"], 7]).standard_normal((directions, part.shape[1]))
    units /= np.linalg.norm(units, axis=1, keepdims=True)
    for order in (3, d, d + 1):
        flat = cumulants.assemble_flat_cumulant(acc, order).data
        for u in units:
            errors += checks.check_projection(flat, part.shape[1], order, part, u)

    m0, k_next = checks.exact_cumulant_pair(means, weights, lam, d)
    estimate = ica.recover_from_cumulants(m0, k_next, m, d, SeededRng(inputs["seed"]))
    truth_columns, _, _ = checks.lifted_ica(means, weights, lam)
    errors += checks.check_oracle_recovery(estimate.columns, truth_columns)

    for source, report in captured["reports"]:
        errors += checks.check_aligned_error(report.estimated_means, source.means,
                                             report.aligned_error)
    return errors


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


class ExperimentsWorkload:
    """One round of the paper's side experiments: `hardness` decay, `hardness`
    pigeonhole in 1-D (k=5) and 2-D (k=3), and `smoothed` at n=20."""

    name = "experiments"
    h_values = [0.1, 0.05, 0.025]
    instances = 2
    smoothed = {"n": 20, "sigma": 0.1, "trials": 5,
                "families": ["zero", "gaussian", "rank1"]}
    min_ops = 1
    d = 4  # cumulant order of the learn probe in the traced run

    def commands(self):
        return {
            "decay": ("hardness", {"mode": "decay", "h_values": self.h_values}),
            "pigeonhole-1d": ("hardness", {"mode": "pigeonhole", "k": 5, "dimension": 1,
                                           "instances": self.instances}),
            "pigeonhole-2d": ("hardness", {"mode": "pigeonhole", "k": 3, "dimension": 2,
                                           "instances": self.instances}),
            "smoothed": ("smoothed", dict(self.smoothed)),
        }

    def make_inputs(self, seed, directory):
        configs = {}
        for key, (_, config) in self.commands().items():
            path = os.path.join(directory, f"{key}.json")
            write_json(path, config)
            configs[key] = path
        return {"seed": seed, "configs": configs}

    def warm_up(self, directory):
        """Tiny `hardness` and `smoothed` commands that load every module the
        full round uses."""
        decay = os.path.join(directory, "warm-up-decay.json")
        write_json(decay, {"mode": "decay", "h_values": [0.25]})
        smoothed = os.path.join(directory, "warm-up-smoothed.json")
        write_json(smoothed, {"n": 4, "trials": 1})
        for command, path in (("hardness", decay), ("smoothed", smoothed)):
            status = run_cli([command, "--config", path, "--out",
                              os.path.join(directory, "warm-up")])
            if status != 0:
                raise RuntimeError(f"warm-up {command} exited {status}")

    def cli_seed(self, inputs, index):
        return 1000 * inputs["seed"] + index

    def operation(self, inputs, index, directory):
        worst = 0
        for key, (command, _) in self.commands().items():
            out = os.path.join(directory, f"op{index}", key)
            status = run_cli([command, "--config", inputs["configs"][key], "--out", out,
                              "--seed", self.cli_seed(inputs, index)])
            worst = max(worst, status)
        return worst

    def check(self, inputs, index, directory):
        base = os.path.join(directory, f"op{index}")
        errors = []

        def pairs(key, names):
            return [checks.read_json(os.path.join(base, key, name)) for name in names]

        rows = checks.read_csv(os.path.join(base, "decay", "records.csv"))
        decay = pairs("decay", [f"pair_decay_{i}.json" for i in range(len(self.h_values))])
        errors += checks.check_decay(self.h_values, decay, rows)
        for pair in decay:
            errors += checks.check_pair(pair, 1)
        for key, dimension in (("pigeonhole-1d", 1), ("pigeonhole-2d", 2)):
            rows = checks.read_csv(os.path.join(base, key, "records.csv"))
            built = pairs(key, [f"pair_{i}.json" for i in range(self.instances)
                                if os.path.exists(os.path.join(base, key, f"pair_{i}.json"))])
            errors += [f"{key}: {e}" for e in checks.check_pigeonhole(rows, built, self.instances)]
            for pair in built:
                errors += [f"{key}: {e}" for e in checks.check_pair(pair, dimension)]
        rows = checks.read_csv(os.path.join(base, "smoothed", "records.csv"))
        summary = checks.read_json(os.path.join(base, "smoothed", "summary.json"))
        s = self.smoothed
        errors += checks.check_smoothed(rows, summary, s["families"], s["trials"],
                                        s["n"], s["sigma"])
        return errors

    def run_checks(self, inputs):
        return []

    def cleanup(self, index, directory):
        shutil.rmtree(os.path.join(directory, f"op{index}"), ignore_errors=True)

    # -- traced run ------------------------------------------------------------
    def observe(self, tracer, captured):
        LEARN_D4.observe(tracer, captured)

    def probe(self, tracer, inputs, directory, captured):
        """One learn-d4 trial and the black-box sampler, for the learn layers
        this workload does not reach."""
        learn = inputs["learn"] = LEARN_D4.make_inputs(inputs["seed"], directory)
        with tracer.operation("probe:learn", 0):
            status = run_cli(["learn", "--config", learn["config"],
                              "--out", os.path.join(directory, "probe-learn"),
                              "--trials", 1, "--seed", inputs["seed"]])
        if status != 0:
            raise RuntimeError(f"probe learn exited {status}")
        learn["rows"] = checks.read_csv(os.path.join(directory, "probe-learn", "records.csv"))
        learn["tau"] = float(learn["rows"][0]["tau"])
        gmm = GmmParams(learn["means"], learn["weights"], learn["covariance"])
        blackbox_probe(tracer, gmm, learn["tau"], inputs["seed"])

    def traced_checks(self, inputs, captured):
        learn = inputs["learn"]
        errors = checks.check_learn_records(
            learn["rows"], trials=1, seed=inputs["seed"], samples=LEARN_D4.samples,
            m=LEARN_D4.m, delta=DELTA, with_weights=LEARN_D4.with_weights)
        return errors + learn_traced_checks(LEARN_D4, learn, captured)


# Bounds on the run medians of aligned_error over the all-origin score and of
# |weight_sum - 1|, above the 1 - 1e-5 quantile of a run's median resampled
# from a pool of trials on these mixtures (accuracy_bounds.py; README,
# "Accuracy bounds").  On learn-d6 the median bound catches only gross
# failure; there, the best-trial check rejects a learner no better than
# zeros, and the traced projection and oracle checks pin the computation.
LEARN_D4 = LearnWorkload("learn-d4", n=6, m=6, d=4, samples=1_000_000, trials=2,
                         with_weights=True, median_bound=0.75, weight_tol=0.25)
LEARN_D6 = LearnWorkload("learn-d6", n=4, m=4, d=6, samples=500_000, trials=2,
                         with_weights=False, median_bound=10.0, weight_tol=None)
EXPERIMENTS = ExperimentsWorkload()
WORKLOADS = {w.name: w for w in (LEARN_D4, LEARN_D6, EXPERIMENTS)}


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def layer_metrics(tracer, captured, d, op_seconds):
    """Per-layer metrics from the spans of a traced run.  Times per trial are
    divided by the number of learn_means spans; rates divide the work the
    spans carry by their total duration."""
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span[3], []).append(span)

    def durations(name, keep=lambda attribute: True):
        return [s[5] - s[4] for s in by_name.get(name, []) if keep(s[6])]

    def attributes(name, keep=lambda attribute: True):
        return [s[6] for s in by_name.get(name, []) if keep(s[6])]

    trials = max(len(by_name.get("gmm_learner.learn_means", [])), 1)
    sampler = "poissonization.sample_approx_ica_batch"
    known = lambda a: a[1] == "gmm"  # noqa: E731
    blackbox = lambda a: a[1] == "blackbox"  # noqa: E731
    update = "cumulants.MomentAccumulator.update"
    assemble = "cumulants.assemble_flat_cumulant"
    pdf = "distributions.gmm_pdf"
    l1 = "lowdim_hardness.l1_distance"
    accumulator = captured.get("accumulator")
    aligned = [float(checks.match_columns(r.estimated_means, src.means)[1].mean())
               for src, r in captured.get("reports", [])]

    def rate(work, seconds):
        return sum(work) / sum(seconds) if sum(seconds) > 0 else float("nan")

    return {
        "poissonization.sample_s": sum(durations(sampler, known)) / trials,
        "poissonization.rows_per_s": rate([a[0] for a in attributes(sampler, known)],
                                          durations(sampler, known)),
        "poissonization.blackbox_rows_per_s": rate(
            [a[0] for a in attributes(sampler, blackbox)], durations(sampler, blackbox)),
        "cumulants.accumulate_s": sum(durations(update)) / trials,
        "cumulants.accumulate_rows_per_s": rate(attributes(update), durations(update)),
        "cumulants.monomials": len(accumulator.keys) if accumulator else float("nan"),
        "cumulants.assemble_o3_s": _median(durations(assemble, lambda a: a == 3)),
        "cumulants.assemble_od_s": _median(durations(assemble, lambda a: a == d)),
        "cumulants.assemble_od1_s": _median(durations(assemble, lambda a: a == d + 1)),
        "ica.recover_s": _median(durations("ica.recover_from_cumulants")),
        "gmm_learner.weights_s": _median(durations("gmm_learner.recover_weights")),
        "gmm_learner.bounds_s": _median(durations("gmm_learner.derive_bounds")),
        "gmm_learner.learn_means_s": _median(durations("gmm_learner.learn_means")),
        "gmm_learner.aligned_error": _median(aligned),
        "distributions.gmm_pdf_scalar_per_s": rate(
            [1] * len(durations(pdf, lambda a: a == 1)), durations(pdf, lambda a: a == 1)),
        "distributions.gmm_pdf_batch_per_s": rate(
            attributes(pdf, lambda a: a > 1), durations(pdf, lambda a: a > 1)),
        "lowdim_hardness.l1_quadrature_s": _median(durations(l1, lambda a: a == 1)),
        "lowdim_hardness.l1_montecarlo_s": _median(durations(l1, lambda a: a > 1)),
        "lowdim_hardness.interpolate_s": _median(durations("lowdim_hardness.interpolate")),
        "lowdim_hardness.fill_s": _median(durations("lowdim_hardness.compute_fill")),
        "smoothed_analysis.run_s": _median(durations("smoothed_analysis.run_smoothed")),
        "trace.op_s": _median(op_seconds),
    }
