"""Experiment driver: seeded runs, CSV trial records, JSON summaries.

Every command reads an optional JSON config (unknown keys rejected), applies
the global flag overrides, and writes records.csv plus summary.json into the
output directory.  CSV content is a pure function of the resolved config, so
rerunning a command reproduces the file byte for byte; timings live only in
the summary.  Exit status: 0 success, 1 usage error, 2 model failure.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import math
import os
import sys
import time
from dataclasses import asdict

import numpy as np

from . import __version__
from .cumulants import analytic_ica_cumulant
from .distributions import (
    GmmParams,
    SeededRng,
    certified_tail_threshold,
    empirical_poisson_tv,
    poisson_pmf,
    poisson_tail_threshold,
    truncated_poisson_tv,
)
from .gmm_learner import FeasibilityError, learn_means
from .ica import (
    _SUPPORTED_ORDERS,
    DegenerateModelError,
    IllConditionedError,
    align_columns,
    recover_from_cumulants,
)
from .lowdim_hardness import (
    build_close_pair,
    equispaced_interleaved,
    pair_to_json,
    pigeonhole_pair,
    random_points,
)
from .poissonization import poisson_split
from .records import write_records, write_summary
from .smoothed_analysis import FAMILIES, run_smoothed
from .tensor_linalg import khatri_rao_power, sigma_min

__all__ = ["main", "UsageError"]


class UsageError(Exception):
    """Bad invocation or config; reported on stderr with exit status 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _load_config(path):
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as exc:
        raise UsageError(f"cannot read config: {exc}")
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}")
    if not isinstance(config, dict):
        raise UsageError("config must be a JSON object")
    return config


def _check_keys(config, allowed, where="config"):
    if not isinstance(config, dict):
        raise UsageError(f"bad config value: {where} must be a JSON object")
    unknown = sorted(set(config) - set(allowed))
    if unknown:
        raise UsageError(f"unknown {where} keys: {', '.join(unknown)}")


def _require(condition, message):
    if not condition:
        raise UsageError(message)


@contextlib.contextmanager
def _config_values():
    """Report a config value that fails to convert or validate while a
    command resolves its config, before any trial, as a usage error."""
    try:
        yield
    except (TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"bad config value: {exc}") from None


def _array(config, key, default):
    """A list-valued config value: a JSON array, or ``default`` when the key
    is absent.  A string is refused, not read as a list of characters."""
    if key not in config:
        return list(default)
    value = config[key]
    if not isinstance(value, list):
        raise TypeError(f"{key} must be a JSON array, got {value!r}")
    return value


def _count(value, name):
    """A count from the config (trials, instances, samples, chunk rows):
    an integer of at least 1."""
    value = int(value)
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value}")
    return value


def _finite(value, name):
    """A finite real number from the config; Python's JSON admits NaN and inf."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def _cumulant_order(value):
    """The flattened cumulant order d, one the ICA solver supports."""
    d = int(value)
    if d not in _SUPPORTED_ORDERS:
        raise ValueError(f"d must be one of {_SUPPORTED_ORDERS}, got {d}")
    return d


# ---------------------------------------------------------------------------
# learn
# ---------------------------------------------------------------------------

_GENERATOR_DEFAULTS = {
    "n": 6,
    "m": 6,
    "norm_low": 1.0,
    "norm_high": 2.0,
    "min_angle_deg": 30.0,
    "noise": 0.01,
}


def _random_separated_means(n, m, norm_low, norm_high, min_angle_deg, rng, tries=20000):
    """Random means with norms in [norm_low, norm_high] and pairwise angles
    above the threshold (angles between signed vectors, not lines)."""
    cos_bound = math.cos(math.radians(min_angle_deg))
    directions = []
    for _ in range(tries):
        v = rng.unit_vector(n)
        if all(float(v @ u) < cos_bound for u in directions):
            directions.append(v)
            if len(directions) == m:
                break
    else:
        raise UsageError("could not draw separated mean directions")
    norms = rng.uniform(norm_low, norm_high, size=m)
    return np.column_stack(directions) * norms


def _gmm_from_config(block):
    missing = [key for key in ("means", "weights", "covariance") if key not in block]
    if missing:
        raise ValueError(f"gmm block lacks {', '.join(missing)}")
    means = np.asarray(block["means"], dtype=float)
    if means.ndim != 2:
        raise ValueError("gmm means must be a list of mean vectors")
    weights = np.asarray(block["weights"], dtype=float)
    covariance = np.asarray(block["covariance"], dtype=float)
    return GmmParams(means.T, weights, covariance)


# thread-count entry points of OpenBLAS, (set, get): scipy's wheel builds
# rename them, a system build keeps the plain names
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def _openblas_thread_controls():
    """The (set, get) thread-count functions of every OpenBLAS this process
    has loaded, found through /proc/self/maps; empty where that file cannot
    be read or no OpenBLAS is loaded."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return []
    controls = []
    for path in paths:
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _OPENBLAS_THREAD_SYMBOLS:
            setter = getattr(library, set_name, None)
            getter = getattr(library, get_name, None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                controls.append((setter, getter))
                break
    return controls


@contextlib.contextmanager
def _one_blas_thread(controls):
    """Every OpenBLAS of ``controls`` on one thread for the block, and back
    on its own count after it, also when the block raises."""
    saved = [(setter, getter()) for setter, getter in controls]
    try:
        for setter, _ in saved:
            setter(1)
        yield
    finally:
        for setter, count in saved:
            setter(count)


def _cmd_learn(config, out_dir):
    allowed = {
        "gmm", "generator", "d", "delta", "eps", "samples", "tau",
        "trials", "seed", "with_weights", "chunk", "out",
    }
    _check_keys(config, allowed)
    _require(not ("gmm" in config and "generator" in config),
             "give either gmm or generator, not both")
    tau_setting = config.get("tau", "certified")
    with _config_values():
        seed = int(config.get("seed", 0))
        trials = config.get("trials", 1)
        d = _cumulant_order(config.get("d", 4))
        delta = _finite(config.get("delta", 0.1), "delta")
        _require(0.0 < delta < 1.0,
                 f"bad config value: delta must lie in (0, 1), got {delta}")
        # eps is accepted and checked but has no effect
        eps = _finite(config.get("eps", 0.25), "eps")
        _require(eps > 0.0, f"bad config value: eps must be positive, got {eps}")
        samples = _count(config.get("samples", 1_000_000), "samples")
        # the certified cutoff spends delta / (2 samples) on each draw
        _require(delta / (2 * samples) > 0.0,
                 f"bad config value: samples leave no truncation budget, got {samples}")
        with_weights = config.get("with_weights", True)
        if not isinstance(with_weights, bool):
            raise TypeError(f"with_weights must be true or false, got {with_weights!r}")
        chunk = _count(config.get("chunk", 1 << 17), "chunk")
        fixed_tau = None if tau_setting == "certified" else _finite(tau_setting, "tau")

    generator = dict(_GENERATOR_DEFAULTS)
    if "generator" in config:
        _check_keys(config["generator"], _GENERATOR_DEFAULTS, where="generator")
        with _config_values():
            generator.update({
                key: _count(value, f"generator {key}") if key in ("n", "m")
                else _finite(value, f"generator {key}")
                for key, value in config["generator"].items()
            })
            noise = generator["noise"]
            _require(noise >= 0.0,
                     f"bad config value: generator noise must be nonnegative, got {noise}")
            low, high = generator["norm_low"], generator["norm_high"]
            _require(0.0 < low <= high,
                     "bad config value: need 0 < generator norm_low <= norm_high, "
                     f"got {low} and {high}")

    fixed_gmm = None
    if "gmm" in config:
        _check_keys(config["gmm"], {"means", "weights", "covariance"}, where="gmm")
        with _config_values():
            fixed_gmm = _gmm_from_config(config["gmm"])
    # the Poisson rate lambda is the component count m
    components = fixed_gmm.m if fixed_gmm is not None else generator["m"]
    if fixed_tau is not None:
        _require(fixed_tau > math.e * components,
                 "bad config value: tau must be finite and exceed "
                 f"e * m = {math.e * components:.6g}, got {fixed_tau}")

    resolved = {
        "d": d, "delta": delta, "samples": samples,
        "trials": trials, "seed": seed, "with_weights": with_weights,
        "tau": tau_setting, "chunk": chunk,
    }
    resolved["gmm" if fixed_gmm is not None else "generator"] = (
        config.get("gmm") if fixed_gmm is not None else generator
    )

    root = SeededRng(seed)

    def run_trial(trial):
        """One trial's record row, its seconds, its failure reason if it
        raised one of the modeled errors (else None), and its diagnostics."""
        rng = root.derive(trial)
        if fixed_gmm is not None:
            gmm = fixed_gmm
        else:
            means = _random_separated_means(
                generator["n"], generator["m"], generator["norm_low"],
                generator["norm_high"], generator["min_angle_deg"], rng,
            )
            m = generator["m"]
            gmm = GmmParams(
                means,
                np.full(m, 1.0 / m),
                generator["noise"] * np.eye(generator["n"]),
            )
        started = time.perf_counter()
        row = {
            "trial": trial, "seed": rng.seed, "failed": False, "reason": "",
            "aligned_error": None, "weight_max_error": None, "weight_sum": None,
            "tv_gap": None, "lam": None, "tau": None, "eigengap": None,
            "samples_used": 0,
        }
        error, diag = None, {}
        try:
            report = learn_means(
                gmm, gmm.m, d, delta, rng, samples,
                tau=fixed_tau, with_weights=with_weights, chunk=chunk,
            )
            diag = report.diagnostics
            row.update(
                failed=report.failed,
                reason="truncation-abort" if report.failed else "",
                aligned_error=report.aligned_error,
                weight_max_error=diag.get("weight_max_error"),
                weight_sum=diag.get("weight_sum"),
                tv_gap=diag.get("tv_gap"),
                lam=report.params.lam,
                tau=report.params.tau,
                eigengap=diag.get("eigengap"),
                samples_used=report.samples_used,
            )
        except (FeasibilityError, IllConditionedError, DegenerateModelError) as exc:
            error = f"{type(exc).__name__}: {exc}"
            row.update(failed=True, reason=error)
        return row, time.perf_counter() - started, error, diag

    # imported here, so that the other commands do not load the thread pool
    from concurrent.futures import ThreadPoolExecutor

    # Trials are independent streams, so they run side by side, each on one
    # BLAS thread: its product sums then have the same bits whatever the
    # ambient thread count, and idle BLAS helper threads do not spin against
    # the trials.  Without a way to pin BLAS, trials run one at a time.  The
    # controls come from procfs, so the affinity call exists wherever they
    # were found.
    blas = _openblas_thread_controls()
    workers = min(trials, len(os.sched_getaffinity(0))) if blas else 1
    pinned = _one_blas_thread(blas) if workers > 1 else contextlib.nullcontext()
    with pinned, ThreadPoolExecutor(workers) as pool:
        # map yields in trial order and cancels the pending trials when one
        # raises
        records, timings, errors, diags = zip(*pool.map(run_trial, range(trials)))
    errors = [error for error in errors if error is not None]
    status = 2 if any(row["failed"] for row in records) else 0

    aligned = [r["aligned_error"] for r in records if r["aligned_error"] is not None]
    extra = {
        "success_count": sum(1 for r in records if not r["failed"]),
        "failure_count": sum(1 for r in records if r["failed"]),
        "aligned_errors": aligned,
        "median_aligned_error": float(np.median(aligned)) if aligned else None,
        "trial_seconds": list(timings),
        "largest_counts": [diag.get("largest_count") for diag in diags],
        "zero_count_shares": [diag.get("zero_count_share") for diag in diags],
        "errors": errors,
        "workers": workers,
        "blas_threads": 1 if workers > 1 else None,
    }
    return list(records), resolved, extra, status


# ---------------------------------------------------------------------------
# smoothed
# ---------------------------------------------------------------------------

def _cmd_smoothed(config, out_dir):
    allowed = {"families", "n", "sigma", "trials", "seed", "out"}
    _check_keys(config, allowed)
    with _config_values():
        families = _array(config, "families", FAMILIES)
        _require(families, "bad config value: families must not be empty")
        unknown = sorted(set(families) - set(FAMILIES))
        if unknown:
            raise ValueError(f"unknown families: {', '.join(unknown)}")
        n = int(config.get("n", 10))
        _require(n >= 3, f"bad config value: n must be at least 3, got {n}")
        sigma = _finite(config.get("sigma", 0.1), "sigma")
        _require(sigma > 0.0, f"bad config value: sigma must be positive, got {sigma}")
        trials = config.get("trials", 50)
        seed = int(config.get("seed", 0))
    resolved = {
        "families": families, "n": n, "sigma": sigma,
        "trials": trials, "seed": seed,
    }
    # one BLAS thread: the trials' small value-only SVDs run faster on it,
    # and the records keep the bits of a one-thread run under any count
    blas = _openblas_thread_controls()
    with _one_blas_thread(blas):
        results = run_smoothed(families, n, sigma, trials, SeededRng(seed))
    records = [asdict(r) for r in results]
    per_family = {
        family: sum(1 for r in results if r.family == family and r.passed)
        for family in families
    }
    extra = {
        "passed_per_family": per_family,
        "trials_per_family": trials,
        "odot_dominates": bool(
            all(r.sigma_min_kr_odot2 >= r.sigma_min_kr2 for r in results)
        ),
        "blas_threads": 1 if blas else None,
    }
    return records, resolved, extra, 0


# ---------------------------------------------------------------------------
# hardness
# ---------------------------------------------------------------------------


_HARDNESS_MODE_KEYS = {
    "decay": {"h_values"},
    "pigeonhole": {"k", "dimension", "instances"},
}


def _cmd_hardness(config, out_dir):
    mode = config.get("mode", "decay")
    _require(isinstance(mode, str) and mode in _HARDNESS_MODE_KEYS,
             "mode must be 'decay' or 'pigeonhole'")
    _check_keys(config, {"mode", "seed", "trials", "out"} | _HARDNESS_MODE_KEYS[mode])
    with _config_values():
        seed = int(config.get("seed", 0))
    status = 0
    if mode == "decay":
        with _config_values():
            h_values = [_finite(h, "h_values")
                        for h in _array(config, "h_values", [0.1, 0.05, 0.025])]
            _require(h_values, "bad config value: h_values must not be empty")
            designs = [equispaced_interleaved(h) for h in h_values]
        resolved = {"mode": mode, "h_values": h_values, "seed": seed}
        records = []
        for index, (h, (x_set, y_set)) in enumerate(zip(h_values, designs)):
            pair = build_close_pair(x_set, y_set)
            records.append({
                "h": h,
                "points_per_set": x_set.size,
                "components_p": pair.p.m,
                "components_q": pair.q.m,
                "l1_distance": pair.l1_distance,
                "min_center_distance": pair.min_center_distance,
                "alpha": pair.alpha,
                "beta": pair.beta,
                "fill": pair.fill,
                "kernel_condition": pair.kernel_condition,
            })
            _write_pair(out_dir, f"pair_decay_{index}.json", pair)
        extra = {"pairs_written": len(records)}
    else:
        with _config_values():
            k = int(config.get("k", 5))
            _require(k >= 2, f"bad config value: k must be at least 2, got {k}")
            dimension = _count(config.get("dimension", 1), "dimension")
            _require(dimension <= 3, "bad config value: dimension must be at most 3 "
                     f"for the L1 distance, got {dimension}")
            # trials, as the global flag sets it, wins over instances
            instances = _count(config.get("trials", config.get("instances", 10)), "instances")
        resolved = {
            "mode": mode, "k": k, "dimension": dimension,
            "instances": instances, "seed": seed,
        }
        root = SeededRng(seed)
        records = []
        failures = []
        for index in range(instances):
            rng = root.derive(index)
            row = {
                "instance": index, "seed": rng.seed, "built": False,
                "components_p": None, "components_q": None,
                "equal_counts": None, "l1_distance": None,
                "min_center_distance": None, "fill": None,
                "kernel_condition": None,
            }
            points = random_points(4 * k * k, dimension, rng)
            try:
                pair = pigeonhole_pair(points, rng)
                row.update(
                    built=True,
                    components_p=pair.p.m,
                    components_q=pair.q.m,
                    equal_counts=bool(pair.p.m == pair.q.m),
                    l1_distance=pair.l1_distance,
                    min_center_distance=pair.min_center_distance,
                    fill=pair.fill,
                    kernel_condition=pair.kernel_condition,
                )
                _write_pair(out_dir, f"pair_{index}.json", pair)
            except RuntimeError as exc:
                failures.append(f"instance {index}: {exc}")
                status = 2
            records.append(row)
        extra = {"failures": failures,
                 "built_count": sum(1 for r in records if r["built"])}
    return records, resolved, extra, status


def _write_pair(out_dir, name, pair):
    with open(os.path.join(out_dir, name), "w") as handle:
        handle.write(pair_to_json(pair))
        handle.write("\n")


# ---------------------------------------------------------------------------
# ica-bench
# ---------------------------------------------------------------------------


def _random_conditioned_mixing(n, m, d, floor, rng, tries=200):
    for _ in range(tries):
        a = rng.standard_normal((n, m))
        a /= np.linalg.norm(a, axis=0)
        if (conditioning := sigma_min(khatri_rao_power(a, d // 2))) > floor:
            return a, conditioning
    raise UsageError(f"no mixing matrix with sigma_min above {floor} found")


def _cmd_ica_bench(config, out_dir):
    allowed = {
        "n", "m", "d", "trials", "sigma_floor", "cum_low", "cum_high",
        "seed", "out",
    }
    _check_keys(config, allowed)
    with _config_values():
        n = _count(config.get("n", 4), "n")
        m = _count(config.get("m", 6), "m")
        d = _cumulant_order(config.get("d", 4))
        # the columns of the Khatri-Rao power are symmetric tensors
        rank_bound = math.comb(n + d // 2 - 1, d // 2)
        _require(m <= rank_bound, "bad config value: m must be at most "
                 f"C(n + d/2 - 1, d/2) = {rank_bound} for n = {n}, d = {d}, got {m}")
        trials = config.get("trials", 20)
        floor = _finite(config.get("sigma_floor", 1e-3), "sigma_floor")
        cum_low = _finite(config.get("cum_low", 1.0), "cum_low")
        cum_high = _finite(config.get("cum_high", 2.0), "cum_high")
        _require(0.0 < cum_low <= cum_high,
                 "bad config value: need 0 < cum_low <= cum_high, "
                 f"got {cum_low} and {cum_high}")
        # below the smallest normal float the exact tensors lose digits or underflow
        _require(cum_low >= sys.float_info.min,
                 f"bad config value: cum_low must be at least {sys.float_info.min:.6g} "
                 f"(the smallest normal float), got {cum_low}")
        # The mixing columns have unit norm, so every entry of the exact
        # cumulant tensors, and the trace of M0, is at most m * cum_high in
        # magnitude; the solver also adds M0 to its transpose.
        limit = sys.float_info.max / (2 * m)
        _require(cum_high <= limit,
                 f"bad config value: cum_high must be at most {limit:.6g} (the largest "
                 "float over 2 m), so that the exact cumulant tensors stay finite, "
                 f"got {cum_high}")
        seed = int(config.get("seed", 0))
    resolved = {
        "n": n, "m": m, "d": d, "trials": trials, "sigma_floor": floor,
        "cum_low": cum_low, "cum_high": cum_high, "seed": seed,
    }
    root = SeededRng(seed)
    records = []
    for trial in range(trials):
        rng = root.derive(trial)
        mixing, conditioning = _random_conditioned_mixing(n, m, d, floor, rng)
        cums_d = rng.uniform(cum_low, cum_high, size=m)
        cums_next = rng.uniform(cum_low, cum_high, size=m)
        m0 = analytic_ica_cumulant(mixing, cums_d, d).as_matrix()
        k_next = analytic_ica_cumulant(mixing, cums_next, d + 1).data
        estimate = recover_from_cumulants(m0, k_next, m, d, rng)
        _, _, max_error = align_columns(estimate.columns, mixing)
        records.append({
            "trial": trial,
            "seed": rng.seed,
            "n": n, "m": m, "d": d,
            "sigma_min_kr": float(conditioning),
            "aligned_error": max_error,
            "eigengap": estimate.eigengap,
        })
    worst = max(r["aligned_error"] for r in records)
    extra = {"max_aligned_error": worst, "all_below_1e-6": bool(worst < 1e-6)}
    return records, resolved, extra, 0


# ---------------------------------------------------------------------------
# reduction-check
# ---------------------------------------------------------------------------


def _brute_truncation_tv(lam, tau):
    """Half-sum of absolute density differences, by direct enumeration."""
    limit = int(tau + 10 * lam + 200)
    ks = np.arange(limit + 1)
    pmf = poisson_pmf(ks, lam)
    kept = pmf[: tau + 1]
    mass = float(kept.sum())
    truncated = np.zeros_like(pmf)
    truncated[: tau + 1] = kept / mass
    beyond = max(0.0, 1.0 - float(pmf.sum()))
    return 0.5 * (float(np.abs(truncated - pmf).sum()) + beyond)


def _cmd_reduction_check(config, out_dir):
    allowed = {
        "lam", "probs", "samples", "delta", "marginal_tol", "corr_tol",
        "grid_lams", "grid_taus", "seed", "trials", "out",
    }
    _check_keys(config, allowed)
    with _config_values():
        lam = _finite(config.get("lam", 5.0), "lam")
        _require(lam > 0.0, f"bad config value: lam must be positive, got {lam}")
        # the marginal check keeps one histogram bin per count
        _require(lam <= 1e6, f"bad config value: lam must be at most 1e6, got {lam}")
        probs = [_finite(p, "probs") for p in _array(config, "probs", [0.2, 0.3, 0.5])]
        _require(probs, "bad config value: probs must not be empty")
        _require(min(probs) >= 0.0 and abs(sum(probs) - 1.0) <= 1e-12,
                 f"bad config value: probs must be nonnegative and sum to 1, got {probs}")
        samples = _count(config.get("samples", 100_000), "samples")
        _require(samples >= 2, "bad config value: samples must be at least 2 "
                 f"for the pair correlations, got {samples}")
        delta = _finite(config.get("delta", 1e-6), "delta")
        _require(0.0 < delta < 1.0,
                 f"bad config value: delta must lie in (0, 1), got {delta}")
        marginal_tol = _finite(config.get("marginal_tol", 0.02), "marginal_tol")
        corr_tol = _finite(config.get("corr_tol", 0.02), "corr_tol")
        grid_lams = [_finite(v, "grid_lams") for v in _array(config, "grid_lams", range(1, 9))]
        grid_taus = [int(v) for v in _array(config, "grid_taus", range(0, 21))]
        _require(grid_lams and grid_taus,
                 "bad config value: grid_lams and grid_taus must not be empty")
        _require(min(grid_lams) >= 0.0,
                 f"bad config value: grid_lams must be nonnegative, got {grid_lams}")
        _require(min(grid_taus) >= 0,
                 f"bad config value: grid_taus must be nonnegative, got {grid_taus}")
        # the brute-force side of the identity enumerates tau + 10 lam + 200
        # counts per grid point
        _require(max(grid_lams) <= 1e6,
                 f"bad config value: grid_lams must be at most 1e6, got {grid_lams}")
        _require(max(grid_taus) <= 1e6,
                 f"bad config value: grid_taus must be at most 1e6, got {grid_taus}")
        seed = int(config.get("seed", 0))
    resolved = {
        "lam": lam, "probs": probs, "samples": samples, "delta": delta,
        "marginal_tol": marginal_tol, "corr_tol": corr_tol,
        "grid_lams": grid_lams, "grid_taus": grid_taus, "seed": seed,
    }
    rng = SeededRng(seed)
    records = []

    split = poisson_split(lam, probs, rng, samples)
    for i, p in enumerate(probs):
        tv = empirical_poisson_tv(split[:, i], p * lam)
        records.append({
            "check": "marginal_tv", "index": str(i), "value": tv,
            "bound": marginal_tol, "passed": bool(tv < marginal_tol),
        })
    # a constant column has no correlation: its pairs record no value and fail
    varying = np.ptp(split, axis=0) > 0
    correlations = np.full((len(probs),) * 2, np.nan)
    if np.count_nonzero(varying) >= 2:
        kept = split.compress(varying, axis=1)
        correlations[np.ix_(varying, varying)] = np.corrcoef(kept, rowvar=False)
    for i in range(len(probs)):
        for j in range(i + 1, len(probs)):
            rho = float(correlations[i, j]) if varying[i] and varying[j] else None
            records.append({
                "check": "pair_correlation", "index": f"{i}-{j}", "value": rho,
                "bound": corr_tol, "passed": rho is not None and abs(rho) < corr_tol,
            })

    worst_gap = max(
        abs(truncated_poisson_tv(g_lam, g_tau) - _brute_truncation_tv(g_lam, g_tau))
        for g_lam in grid_lams
        for g_tau in grid_taus
    )
    records.append({
        "check": "truncation_identity_max_gap", "index": "", "value": worst_gap,
        "bound": 1e-12, "passed": bool(worst_gap < 1e-12),
    })

    lemma_tau = poisson_tail_threshold(delta, lam)
    lemma_tail = truncated_poisson_tv(lam, lemma_tau)
    records.append({
        "check": "tail_threshold", "index": "lemma", "value": float(lemma_tau),
        "bound": delta, "passed": bool(lemma_tail < delta),
    })
    certified_tau = certified_tail_threshold(delta, lam)
    certified_tail = truncated_poisson_tv(lam, certified_tau)
    records.append({
        "check": "tail_threshold", "index": "certified",
        "value": float(certified_tau), "bound": delta,
        "passed": bool(certified_tail < delta),
    })

    extra = {
        "all_passed": bool(all(r["passed"] for r in records)),
        "lemma_tail": lemma_tail,
        "certified_tail": certified_tail,
    }
    return records, resolved, extra, 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "learn": _cmd_learn,
    "smoothed": _cmd_smoothed,
    "hardness": _cmd_hardness,
    "ica-bench": _cmd_ica_bench,
    "reduction-check": _cmd_reduction_check,
}


def _build_parser():
    parser = _Parser(prog="poissonize", description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, help="root seed (overrides config)")
    parser.add_argument("--out", help="output directory (overrides config)")
    parser.add_argument("--trials", type=int, help="trial count (overrides config)")
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config = _load_config(args.config) if args.config else {}
        if args.seed is not None:
            config["seed"] = args.seed
        if args.trials is not None:
            config["trials"] = args.trials
        if "trials" in config:
            # every command reads its trial count from here
            with _config_values():
                config["trials"] = _count(config["trials"], "trials")
        out_dir = args.out or config.get("out") or "."
        os.makedirs(out_dir, exist_ok=True)
        started = time.perf_counter()
        records, resolved, extra, status = _COMMANDS[args.command](config, out_dir)
        csv_path = os.path.join(out_dir, "records.csv")
        write_records(csv_path, records)
        summary = {
            "command": args.command,
            "version": __version__,
            "seed": resolved.get("seed"),
            "config": resolved,
            "wall_seconds": time.perf_counter() - started,
            "exit_status": status,
        }
        summary.update(extra)
        write_summary(os.path.join(out_dir, "summary.json"), summary)
        print(f"wrote {csv_path} ({len(records)} rows), exit status {status}")
        return status
    except UsageError as exc:
        print(f"poissonize: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
