"""End-to-end mixture learning through the Poissonized ICA pipeline.

learn_means drives the full chain: the rate lambda = m and the certified
truncation tau, truncated Poissonized sampling, streaming cumulant
estimation, simultaneous diagonalization, and the unlift (divide each
recovered column by its last entry, which also cancels the ICA sign
ambiguity).  Weights are recovered afterwards from the order-3 cumulant of
all lifted coordinates of the same stream, against the lifted means
(mu_i, 1): the count coordinate's own cumulant pins the weights' sum, so an
error in the unlifted means is not amplified into it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .cumulants import MomentAccumulator, analytic_ica_cumulant, assemble_flat_cumulant
from .distributions import GmmParams, truncated_poisson_tv
from .ica import (
    _SUPPORTED_ORDERS,
    DegenerateModelError,
    IllConditionedError,
    _match_columns,
    recover_from_cumulants,
)
from .poissonization import (
    MixtureSource,
    ReductionParams,
    SubroutineFailure,
    compute_reduction_params,
    lift,
    sample_approx_ica_batch,
)
from .tensor_linalg import khatri_rao_power, sigma_min

__all__ = [
    "LearnReport",
    "FeasibilityError",
    "derive_bounds",
    "learn_means",
    "learn_means_oracle",
    "recover_weights",
    "evaluate_recovery",
]

_WEIGHT_CLIP_TOL = 1e-8
_WEIGHT_ORDER = 3  # cumulant order the weights are read from


class FeasibilityError(RuntimeError):
    """The mixture violates the conditioning hypothesis of the pipeline."""


def derive_bounds(gmm, d):
    """sigma_m of the (d/2)-fold Khatri-Rao power of the normalized lifted
    means: the conditioning that the pipeline's non-degeneracy hypothesis
    bounds below.  A value of 0 raises FeasibilityError."""
    lifted = lift(gmm.means)
    normalized = lifted / np.linalg.norm(lifted, axis=0)
    conditioning = sigma_min(khatri_rao_power(normalized, d // 2))
    if not conditioning > 0.0:
        raise FeasibilityError("sigma_m of the lifted Khatri-Rao power is 0")
    return conditioning


@dataclass
class LearnReport:
    """Outcome of one learning run.

    Weights are None when not recovered, and clipped at zero with
    ``diagnostics["weights_clipped"]`` set when the raw recovery went
    slightly negative.  aligned_error is the mean matched column distance
    against ground truth (the worst column sits in
    ``diagnostics["max_error"]``), None when no truth was supplied.
    """

    estimated_means: np.ndarray
    estimated_weights: np.ndarray | None
    aligned_error: float | None
    params: object
    diagnostics: dict = field(default_factory=dict)


def recover_weights(mixing, lam, flat_cum):
    """Source weights from an order-ell flattened cumulant of X = A S + noise.

    With S_i ~ Poisson(w_i * lambda) scaled by the columns' own lengths the
    cross-cumulants satisfy vec(kappa) = A^(KR ell) (lambda w), so w is the
    least-squares solution over lambda.  One decomposition gives both the
    solution and the singular values that certify A^(KR ell) has full column
    rank.  Returns the raw vector; callers decide about clipping.
    """
    mixing = np.asarray(mixing, dtype=float)
    if flat_cum.order <= 2:
        raise ValueError("weight recovery needs a cumulant order above 2")
    if flat_cum.dimension != mixing.shape[0]:
        raise ValueError("cumulant dimension does not match the mixing matrix")
    lam = float(lam)
    if lam <= 0:
        raise ValueError("lambda must be positive")
    kr = khatri_rao_power(mixing, flat_cum.order)
    rates, _, _, singular = np.linalg.lstsq(kr, flat_cum.data, rcond=None)
    smin = singular[-1]
    if smin <= 1e-10 * max(1.0, singular[0]):
        raise IllConditionedError(
            f"khatri-rao power of the mixing is rank deficient (sigma_min {smin:.3e})"
        )
    return rates / lam


def _unlift(columns):
    """Divide out the homogenizing coordinate; the division cancels the
    per-column sign ambiguity of the ICA estimate."""
    last = columns[-1, :]
    if np.any(np.abs(last) < 1e-9):
        raise FeasibilityError(
            "a recovered column has (numerically) zero lift coordinate"
        )
    return columns[:-1, :] / last


def _recover(m0, k_next, flat_weights, m, d, rng, params, truth, diagnostics):
    """The pipeline's tail, shared by the streamed and the analytic cumulants.

    Diagonalizes (m0, k_next), unlifts the columns into means, recovers and
    clips the weights when ``flat_weights`` (the order-3 cumulant of the
    lifted coordinates) is given, and scores the result against ``truth``
    when one is given.
    """
    estimate = recover_from_cumulants(m0, k_next, m, d, rng)
    diagnostics["eigengap"] = estimate.eigengap
    means = _unlift(estimate.columns)

    weights = None
    if flat_weights is not None:
        raw = recover_weights(lift(means), params.lam, flat_weights)
        diagnostics["weights_clipped"] = bool(np.any(raw < -_WEIGHT_CLIP_TOL))
        weights = np.clip(raw, 0.0, None)
        diagnostics["weight_sum"] = float(weights.sum())

    report = LearnReport(
        estimated_means=means,
        estimated_weights=weights,
        aligned_error=None,
        params=params,
        diagnostics=diagnostics,
    )
    if truth is not None:
        metrics = evaluate_recovery(report, truth)
        report.aligned_error = metrics["mean_error"]
        diagnostics["max_error"] = metrics["max_error"]
        if "weight_max_error" in metrics:
            diagnostics["weight_max_error"] = metrics["weight_max_error"]
    return report


def learn_means(
    source,
    m,
    d,
    delta,
    rng,
    samples,
    tau=None,
    with_weights=True,
    chunk=1 << 17,
):
    """Learn mixture means (and optionally weights) from Poissonized samples.

    Parameters
    ----------
    source : GmmParams or MixtureSource
        The mixture being learned.  GmmParams is both the sampler and the
        evaluation truth: its lifted conditioning is measured before any
        sampling (``derive_bounds``) and the estimate is scored against it.
        A MixtureSource enables the ground-truth-free mode, where no
        feasibility check or error metric is possible.
    m, d : component count (a GmmParams source's own) and cumulant order
        (d in {4, 6}).
    delta : failure budget; the run's truncation gap ``tv_gap``, N times the
        tail mass above tau, is certified against delta / 2.
    rng : SeededRng; all randomness of the run flows through it.
    samples : Poissonized sample budget N, streamed ``chunk`` rows at a time.
    tau : the cutoff as a caller resolved it (``compute_reduction_params``);
        None certifies one here.

    A repetition count above tau raises SubroutineFailure.  It carries the
    run's diagnostics as its ``diagnostics``, as does a FeasibilityError,
    IllConditionedError or DegenerateModelError raised once sampling starts.
    """
    truth = source if isinstance(source, GmmParams) else None
    if truth is None and not isinstance(source, MixtureSource):
        raise TypeError("source must be GmmParams or MixtureSource")
    if truth is not None and m != truth.m:
        raise ValueError(f"m is {m} but the mixture has {truth.m} components")
    if d not in _SUPPORTED_ORDERS:
        raise ValueError(f"cumulant order must be one of {_SUPPORTED_ORDERS}")
    samples, chunk = int(samples), int(chunk)
    if samples < 1 or chunk < 1:
        raise ValueError(f"samples and chunk must be at least 1, got {samples} and {chunk}")
    params = compute_reduction_params(m, delta, samples, tau)
    gap = samples * truncated_poisson_tv(params.lam, params.tau)
    diagnostics = {"tv_gap": gap, "tv_certified": bool(gap < delta / 2.0)}
    if truth is not None:
        diagnostics["sigma_m_lifted"] = derive_bounds(truth, d)
    # wall seconds per stage: each lap adds the time since the last one
    stages = diagnostics["stage_seconds"] = dict.fromkeys(
        ("sample", "accumulate", "assemble", "recover"), 0.0)
    laps = [time.perf_counter()]

    def lap(stage):
        laps.append(time.perf_counter())
        stages[stage] += laps[-1] - laps[-2]

    try:
        acc = None
        for start in range(0, samples, chunk):
            block = sample_approx_ica_batch(
                source, params.lam, params.tau, rng, min(chunk, samples - start))
            lap("sample")
            if acc is None:
                acc = MomentAccumulator(
                    block.shape[1], d + 1, shift=block.mean(axis=0), count_last=True)
            acc.update(block)
            lap("accumulate")
            del block  # so the next block is drawn without this one alive
        rows = acc.rows_per_count()
        diagnostics["largest_count"] = max(rows)
        diagnostics["zero_count_share"] = rows.get(0, 0) / acc.count
        m0 = assemble_flat_cumulant(acc, d).as_matrix()
        k_next = assemble_flat_cumulant(acc, d + 1).data
        flat_weights = assemble_flat_cumulant(acc, _WEIGHT_ORDER) if with_weights else None
        lap("assemble")
        report = _recover(m0, k_next, flat_weights, m, d, rng, params, truth, diagnostics)
        lap("recover")
        return report
    except (SubroutineFailure, FeasibilityError, IllConditionedError,
            DegenerateModelError) as exc:
        exc.diagnostics = diagnostics
        raise


def learn_means_oracle(gmm, d, rng, with_weights=True):
    """The same pipeline with analytic cumulants instead of estimation.

    Isolates algorithmic error from statistical error: with exact tensors the
    recovered means and weights must match the model to solver precision.
    Nothing is sampled, so nothing is truncated: the report carries
    lambda = m and tau = inf.
    """
    params = ReductionParams(lam=float(gmm.m), tau=np.inf)
    # every cumulant of Poisson(w_i lambda) is w_i lambda, and Gaussian noise
    # has none above order two
    lifted = lift(gmm.means)
    rates = gmm.weights * params.lam
    m0 = analytic_ica_cumulant(lifted, rates, d).as_matrix()
    k_next = analytic_ica_cumulant(lifted, rates, d + 1).data
    flat_weights = (
        analytic_ica_cumulant(lifted, rates, _WEIGHT_ORDER) if with_weights else None
    )
    return _recover(m0, k_next, flat_weights, gmm.m, d, rng, params, gmm, {"oracle": True})


def evaluate_recovery(report, truth):
    """Assignment metrics between estimated and true means (no sign freedom).

    Returns max and mean matched-column errors, the permutation (entry j is
    the estimate column matched to true column j), and, when the report
    carries weights, the matched maximum weight error.
    """
    est = np.asarray(report.estimated_means, dtype=float)
    tru = truth.means
    if est.shape != tru.shape:
        raise ValueError("shape mismatch between estimate and truth")
    cost = np.linalg.norm(est[:, :, None] - tru[:, None, :], axis=0)
    perm, errors = _match_columns(cost)
    metrics = {
        "max_error": float(errors.max()),
        "mean_error": float(errors.mean()),
        "permutation": perm.tolist(),
    }
    if report.estimated_weights is not None:
        werr = np.abs(report.estimated_weights[perm] - truth.weights)
        metrics["weight_max_error"] = float(werr.max())
    return metrics
