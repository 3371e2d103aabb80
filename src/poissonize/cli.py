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
from .poissonization import SubroutineFailure, compute_reduction_params, poisson_split
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


class _Keys:
    """A command's config reader: ``keys(name, default, parse)`` reads one
    key (``default`` when absent) as ``parse(value, label)`` and records the
    result in ``resolved``, the echo in summary.json.  ``check()`` refuses
    every key that was neither read nor ``ignored``: the reads are the schema.
    """

    def __init__(self, config, where="config", ignored=()):
        if not isinstance(config, dict):
            raise UsageError(f"bad config value: {where} must be a JSON object")
        self.config, self.where, self.ignored = config, where, set(ignored)
        self.resolved, self.blocks = {}, []

    def __call__(self, name, default, parse=lambda value, label: value):
        label = name if self.where == "config" else f"{self.where} {name}"
        self.resolved[name] = parse(self.config.get(name, default), label)
        return self.resolved[name]

    def block(self, name):
        """The reader of the JSON object under ``name`` (empty when absent),
        checked and echoed with this one."""
        self.blocks.append(_Keys(self.config.get(name, {}), where=name))
        self.resolved[name] = self.blocks[-1].resolved
        return self.blocks[-1]

    def check(self):
        for keys in (self, *self.blocks):
            unknown = sorted(set(keys.config) - set(keys.resolved) - keys.ignored)
            if unknown:
                raise UsageError(f"unknown {keys.where} keys: {', '.join(unknown)}")


def _array(parse=lambda entry, name: entry):
    """The parser of a JSON array whose every entry ``parse`` reads.  A
    string is refused, not read as a list of characters."""
    def read(value, name):
        if not isinstance(value, list):
            raise TypeError(f"{name} must be a JSON array, got {value!r}")
        return [parse(entry, name) for entry in value]
    return read


def _int(value, name):
    return int(value)


def _seed(value, name):
    """A root seed: numpy seeds its generators from nonnegative integers."""
    value = int(value)
    if value < 0:
        raise ValueError(f"{name} must be nonnegative, got {value}")
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


def _cumulant_order(value, name):
    """The flattened cumulant order d, one the ICA solver supports."""
    d = int(value)
    if d not in _SUPPORTED_ORDERS:
        raise ValueError(f"{name} must be one of {_SUPPORTED_ORDERS}, got {d}")
    return d


# the largest array a command may allocate, checked while its config is read
_ARRAY_BYTES = 1 << 30


def _root(budget, power):
    """The largest integer n with n**power <= budget."""
    n = round(budget ** (1.0 / power))
    return n if n**power <= budget else n - 1


# ---------------------------------------------------------------------------
# learn
# ---------------------------------------------------------------------------

def _random_mixture(n, m, norm_low, norm_high, min_angle_deg, noise, rng, tries=20000):
    """A uniform mixture of m components with covariance noise * I, whose
    means have norms in [norm_low, norm_high] and pairwise angles above the
    threshold (angles between signed vectors, not lines)."""
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
    return GmmParams(np.column_stack(directions) * norms, np.full(m, 1.0 / m), noise * np.eye(n))


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


def _cmd_learn(keys, out_dir):
    _require(not ("gmm" in keys.config and "generator" in keys.config),
             "give either gmm or generator, not both")
    with _config_values():
        seed = keys("seed", 0, _seed)
        trials = keys("trials", 1)
        d = keys("d", 4, _cumulant_order)
        delta = keys("delta", 0.1, _finite)
        # eps is accepted and checked but has no effect
        eps = keys("eps", 0.25, _finite)
        _require(eps > 0.0, f"bad config value: eps must be positive, got {eps}")
        samples = keys("samples", 1_000_000, _count)
        with_weights = keys("with_weights", True)
        if not isinstance(with_weights, bool):
            raise TypeError(f"with_weights must be true or false, got {with_weights!r}")
        chunk = keys("chunk", 1 << 17, _count)
        tau = keys("tau", "certified")
        fixed_tau = None if tau == "certified" else _finite(tau, "tau")

        if "gmm" in keys.config:
            block = keys.block("gmm")
            means, weights, covariance = (
                block(key, None) for key in ("means", "weights", "covariance"))
            missing = [key for key, value in block.resolved.items() if value is None]
            if missing:
                raise ValueError(f"gmm block lacks {', '.join(missing)}")
            means = np.asarray(means, dtype=float)
            if means.ndim != 2:
                raise ValueError("gmm means must be a list of mean vectors")
            fixed_gmm = GmmParams(means.T, weights, covariance)
            n, components = fixed_gmm.n, fixed_gmm.m
        else:
            fixed_gmm = None
            block = keys.block("generator")
            n = block("n", 6, _count)
            components = block("m", 6, _count)
            low = block("norm_low", 1.0, _finite)
            high = block("norm_high", 2.0, _finite)
            min_angle_deg = block("min_angle_deg", 30.0, _finite)
            noise = block("noise", 0.01, _finite)
            _require(noise >= 0.0,
                     f"bad config value: generator noise must be nonnegative, got {noise}")
            _require(0.0 < low <= high,
                     "bad config value: need 0 < generator norm_low <= norm_high, "
                     f"got {low} and {high}")
        # the largest array, the flattened order-(d + 1) cumulant, has (n + 1)^(d + 1) floats
        limit = _root(_ARRAY_BYTES // 8, d + 1) - 1
        _require(n <= limit, f"bad config value: n must be at most {limit} "
                 f"(a 1 GiB order-{d + 1} cumulant) for d = {d}, got {n}")
        params = compute_reduction_params(components, delta, samples, fixed_tau)
    keys.check()
    root = SeededRng(seed)

    def run_trial(trial):
        """One trial's record row, its seconds, its failure reason if it
        raised a modeled error other than the truncation abort (else None),
        and its diagnostics."""
        rng = root.derive(trial)
        gmm = fixed_gmm if fixed_gmm is not None else _random_mixture(
            n, components, low, high, min_angle_deg, noise, rng)
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
                tau=params.tau, with_weights=with_weights, chunk=chunk,
            )
            diag = report.diagnostics
            row.update(
                aligned_error=report.aligned_error,
                weight_max_error=diag.get("weight_max_error"),
                weight_sum=diag.get("weight_sum"),
                tv_gap=diag["tv_gap"], lam=params.lam, tau=params.tau,
                eigengap=diag["eigengap"], samples_used=samples,
            )
        except SubroutineFailure as exc:
            diag = exc.diagnostics
            row.update(failed=True, reason="truncation-abort",
                       tv_gap=diag["tv_gap"], lam=params.lam, tau=params.tau)
        except (FeasibilityError, IllConditionedError, DegenerateModelError) as exc:
            error = f"{type(exc).__name__}: {exc}"
            row.update(failed=True, reason=error)
            diag = getattr(exc, "diagnostics", diag)  # set when it failed after sampling
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
    return list(records), extra, status


# ---------------------------------------------------------------------------
# smoothed
# ---------------------------------------------------------------------------

def _cmd_smoothed(keys, out_dir):
    with _config_values():
        families = keys("families", list(FAMILIES), _array())
        _require(families, "bad config value: families must not be empty")
        unknown = sorted(set(families) - set(FAMILIES))
        if unknown:
            raise ValueError(f"unknown families: {', '.join(unknown)}")
        n = keys("n", 10, _int)
        _require(n >= 3, f"bad config value: n must be at least 3, got {n}")
        # a trial's largest array, the C(n + 1, 2) x C(n, 2) stack behind the
        # full square, holds n^2 (n^2 - 1) / 4 < n^4 / 4 floats
        limit = math.isqrt(math.isqrt(_ARRAY_BYTES // 2))
        _require(n <= limit, f"bad config value: n must be at most {limit} "
                 f"(a 1 GiB square), got {n}")
        sigma = keys("sigma", 0.1, _finite)
        _require(sigma > 0.0, f"bad config value: sigma must be positive, got {sigma}")
        trials = keys("trials", 50)
        seed = keys("seed", 0, _seed)
    keys.check()
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
    return records, extra, 0


# ---------------------------------------------------------------------------
# hardness
# ---------------------------------------------------------------------------

def _cmd_hardness(keys, out_dir):
    with _config_values():
        mode = keys("mode", "decay")
        _require(mode in ("decay", "pigeonhole"), "mode must be 'decay' or 'pigeonhole'")
        seed = keys("seed", 0, _seed)
        if mode == "decay":
            h_values = keys("h_values", [0.1, 0.05, 0.025], _array(_finite))
            _require(h_values, "bad config value: h_values must not be empty")
            # the largest arrays are the k x k kernel of the 1/(2h) points of a
            # set and its longdouble copy, at most 16 bytes an entry
            limit = math.isqrt(_ARRAY_BYTES // 16)
            for h in h_values:
                if h > 0.0 and 0.5 / h > limit:
                    raise ValueError(f"h_values points per set 1/(2h) must be at most "
                                     f"{limit} (a 1 GiB kernel), got {0.5 / h:.6g}")
            designs = [equispaced_interleaved(h) for h in h_values]
        else:
            k = keys("k", 5, _int)
            _require(k >= 2, f"bad config value: k must be at least 2, got {k}")
            dimension = keys("dimension", 1, _count)
            _require(dimension <= 3, "bad config value: dimension must be at most 3 "
                     f"for the L1 distance, got {dimension}")
            # an instance draws 4 k^2 points of 8 bytes a coordinate
            limit = math.isqrt(_ARRAY_BYTES // (32 * dimension))
            _require(k <= limit, f"bad config value: k must be at most {limit} "
                     f"(4k^2 points in 1 GiB) in dimension {dimension}, got {k}")
            # trials, as the global flag sets it, wins over instances
            instances = keys.resolved["instances"] = _count(
                keys.config.get("trials", keys.config.get("instances", 10)), "instances")
    keys.check()
    status = 0
    if mode == "decay":
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
    return records, extra, status


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


def _cmd_ica_bench(keys, out_dir):
    with _config_values():
        n = keys("n", 4, _count)
        m = keys("m", 6, _count)
        d = keys("d", 4, _cumulant_order)
        # the columns of the Khatri-Rao power are symmetric tensors
        rank_bound = math.comb(n + d // 2 - 1, d // 2)
        _require(m <= rank_bound, "bad config value: m must be at most "
                 f"C(n + d/2 - 1, d/2) = {rank_bound} for n = {n}, d = {d}, got {m}")
        # the largest array, the (d + 1)-fold Khatri-Rao power of the mixing, m n^(d + 1) floats
        limit = _root(_ARRAY_BYTES // (8 * m), d + 1)
        _require(n <= limit, f"bad config value: n must be at most {limit} (a 1 GiB "
                 f"Khatri-Rao power) for m = {m}, d = {d}, got {n}")
        trials = keys("trials", 20)
        floor = keys("sigma_floor", 1e-3, _finite)
        cum_low = keys("cum_low", 1.0, _finite)
        cum_high = keys("cum_high", 2.0, _finite)
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
        seed = keys("seed", 0, _seed)
    keys.check()
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
    return records, extra, 0


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


def _cmd_reduction_check(keys, out_dir):
    with _config_values():
        lam = keys("lam", 5.0, _finite)
        _require(lam > 0.0, f"bad config value: lam must be positive, got {lam}")
        # the marginal check keeps one histogram bin per count
        _require(lam <= 1e6, f"bad config value: lam must be at most 1e6, got {lam}")
        probs = keys("probs", [0.2, 0.3, 0.5], _array(_finite))
        _require(probs, "bad config value: probs must not be empty")
        _require(min(probs) >= 0.0 and abs(sum(probs) - 1.0) <= 1e-12,
                 f"bad config value: probs must be nonnegative and sum to 1, got {probs}")
        samples = keys("samples", 100_000, _count)
        _require(samples >= 2, "bad config value: samples must be at least 2 "
                 f"for the pair correlations, got {samples}")
        delta = keys("delta", 1e-6, _finite)
        _require(0.0 < delta < 1.0,
                 f"bad config value: delta must lie in (0, 1), got {delta}")
        marginal_tol = keys("marginal_tol", 0.02, _finite)
        corr_tol = keys("corr_tol", 0.02, _finite)
        grid_lams = keys("grid_lams", list(range(1, 9)), _array(_finite))
        grid_taus = keys("grid_taus", list(range(21)), _array(_int))
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
        seed = keys("seed", 0, _seed)
    keys.check()
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
    return records, extra, 0


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
        # a command that runs no trials ignores the global trial count
        keys = _Keys(config, ignored=("out", "trials"))
        records, extra, status = _COMMANDS[args.command](keys, out_dir)
        csv_path = os.path.join(out_dir, "records.csv")
        write_records(csv_path, records)
        summary = {
            "command": args.command,
            "version": __version__,
            "seed": keys.resolved.get("seed"),
            "config": keys.resolved,
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
