"""Reduction from mixture sampling to an approximate noisy ICA model.

A Poissonized row has one law: with independent counts S_i ~ Poisson(w_i
lambda) and R = sum_i S_i, it is [mu; 1] S + N(0, tau Sigma'), a linear map
of a product distribution plus noise of the same level on every accepted
row.  Conditioned on R <= tau it is an approximate ICA model whose sources
are scaled Poisson variables; a row with R > tau aborts the whole run.

A known mixture (GmmParams) is sampled in that direct form.  A black-box
MixtureSource is the paper's reduction: draw R ~ Poisson(lambda), sum R
lifted mixture draws and top the noise up with N(0, (tau - R) Sigma').  By
the splitting property of the Poisson law both give the same rows in law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import (
    GmmParams,
    _check_covariance,
    _psd_factor,
    certified_tail_threshold,
)

__all__ = [
    "SubroutineFailure",
    "MixtureSource",
    "poisson_split",
    "IcaModel",
    "lift",
    "sample_approx_ica_batch",
    "ReductionParams",
    "compute_reduction_params",
]

# rows of noise drawn and mapped at a time by the direct sampler
_NOISE_ROWS = 2**14


class SubroutineFailure(RuntimeError):
    """Raised when a Poisson repetition count exceeds the truncation tau.

    One such draw aborts the whole run, a modeled failure: ``count`` is the
    offending count, and ``learn_means`` attaches the run's ``diagnostics``.
    """

    def __init__(self, count, tau):
        self.count = int(count)
        self.tau = tau
        super().__init__(f"repetition count {count} exceeded truncation {tau}")


def poisson_split(lam, probs, rng, count):
    """Split R ~ Poisson(lam) over categories, ``count`` independent rounds.

    Each of the R items lands in category i with probability probs[i],
    realized as a chain of binomial thinnings.  Returns an int array of shape
    (count, k); by the splitting property the columns are independent
    Poisson(probs[i] * lam).
    """
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 1 or probs.size < 1:
        raise ValueError("probs must be a nonempty vector")
    if np.any(probs < 0) or abs(probs.sum() - 1.0) > 1e-12:
        raise ValueError("probs must be nonnegative and sum to 1")
    count = int(count)
    remaining = rng.poisson(lam, count).astype(np.int64)
    out = np.zeros((count, probs.size), dtype=np.int64)
    mass_left = 1.0
    for i in range(probs.size - 1):
        p = probs[i] / mass_left if mass_left > 0 else 0.0
        taken = rng.binomial(remaining, min(max(p, 0.0), 1.0))
        out[:, i] = taken
        remaining = remaining - taken
        mass_left -= probs[i]
    out[:, -1] = remaining
    return out


@dataclass
class MixtureSource:
    """Black-box mixture sampler with known noise covariance.

    Ground-truth-free stand-in for :class:`~poissonize.distributions.GmmParams`
    wherever only draws and the (known) covariance are required.  The
    covariance must be finite, symmetric and positive semidefinite, as a
    GmmParams covariance must.
    """

    draw: object  # callable(count, rng) -> (count, n) samples
    covariance: np.ndarray

    def __post_init__(self):
        self.covariance = np.asarray(self.covariance, dtype=float)
        if self.covariance.ndim != 2 or self.covariance.shape[0] != self.covariance.shape[1]:
            raise ValueError("covariance must be square")
        _check_covariance(self.covariance)


@dataclass
class IcaModel:
    """Noisy ICA model X = A S + eta(tau) of a Poissonized mixture: the
    mixture with its Poisson repetition rate lam and truncation tau.

    The columns of A are the mixture's means; source i is Poisson(rate_i)
    with rates w_i * lambda, which sum to lambda.  The noise eta(tau) is
    N(0, tau Sigma) for the mixture's covariance.
    """

    gmm: GmmParams
    lam: float
    tau: float

    def __post_init__(self):
        if not self.gmm.means.any(axis=0).all():
            raise ValueError("a zero center gives a zero mixing column")

    @property
    def rates(self):
        return self.gmm.weights * self.lam


def lift(means):
    """The lifted means [mu; 1]: each column gets a constant last coordinate
    1, the count coordinate of a Poissonized row.  Shape (n + 1, m)."""
    means = np.asarray(means, dtype=float)
    return np.vstack([means, np.ones((1, means.shape[1]))])


def sample_approx_ica_batch(source, lam, tau, rng, count):
    """Poissonized draws in R^(n+1), shape (count, n + 1).

    Every row is [mu; 1] S + eta(tau) with independent S_i ~ Poisson(w_i
    lambda) and eta(tau) ~ N(0, tau Sigma'); its last coordinate is exactly
    R = sum_i S_i, and any R > tau raises SubroutineFailure.  The first n
    coordinates are the basic ICA observation X = A S + eta(tau).

    A GmmParams ``source`` is sampled in this direct form.  A MixtureSource
    is sampled as the black-box reduction: R ~ Poisson(lambda), the sum of R
    mixture draws, which carries noise eta(R), and a top-up term
    eta(tau - R); its inner sums are grouped by repetition count.
    """
    lam = float(lam)
    count = int(count)
    if lam <= 0:
        raise ValueError("lambda must be positive")
    if tau <= math.e * lam:
        raise ValueError("tau must exceed e * lambda")
    if count < 0:
        raise ValueError("count must be nonnegative")
    if isinstance(source, GmmParams):
        return _sample_direct(source, lam, tau, rng, count)
    return _sample_grouped(source, lam, tau, rng, count)


def _sample_direct(gmm, lam, tau, rng, count):
    n = gmm.n
    if count == 0:
        return np.empty((0, n + 1))
    counts = np.empty((gmm.m, count))
    for j, w in enumerate(gmm.weights):
        counts[j] = rng.poisson(w * lam, count)
    out = counts.T @ lift(gmm.means).T
    del counts
    # the last coordinate is R, an exact integer sum; check it before the
    # noise, which leaves it exact
    worst = int(out[:, n].max())
    if worst > tau:
        raise SubroutineFailure(worst, tau)
    factor = _psd_factor(gmm.covariance)
    if np.any(factor):
        # a zero column for the count coordinate lets each tile add into
        # whole rows (R + 0.0 is R).  The normals are drawn one row tile at a
        # time, in the order of one draw of them all, into one buffer.
        noise_map = math.sqrt(tau) * np.pad(factor.T, ((0, 0), (0, 1)))
        normals = np.empty((min(count, _NOISE_ROWS), n))
        mapped = np.empty((len(normals), n + 1))
        for start in range(0, count, _NOISE_ROWS):
            rows = out[start : start + _NOISE_ROWS]
            tile = rng.standard_normal((len(rows), n), out=normals[: len(rows)])
            rows += np.matmul(tile, noise_map, out=mapped[: len(rows)])
    return out


def _sample_grouped(source, lam, tau, rng, count):
    n = source.covariance.shape[0]
    out = np.zeros((count, n + 1))
    if count == 0:
        return out
    reps = rng.poisson(lam, count)
    worst = int(reps.max())
    if worst > tau:
        raise SubroutineFailure(worst, tau)
    for value in np.unique(reps):
        value = int(value)
        if value == 0:
            continue
        idx = np.nonzero(reps == value)[0]
        pts = np.asarray(source.draw(idx.size * value, rng), dtype=float)
        out[idx, :n] = pts.reshape(idx.size, value, n).sum(axis=1)
        out[idx, n] = float(value)
    factor = _psd_factor(source.covariance)
    if np.any(factor):
        eta = rng.standard_normal((count, n)) @ factor.T
        out[:, :n] += np.sqrt(tau - reps)[:, None] * eta
    return out


@dataclass
class ReductionParams:
    """The reduction's Poisson rate lambda and truncation tau."""

    lam: float
    tau: float


def compute_reduction_params(m, delta, samples, tau=None):
    """lambda = m and the truncation tau for ``samples`` draws of an
    m-component mixture.

    tau defaults to the certified cutoff for the per-draw budget
    delta / (2 samples), so the whole run's truncation gap stays below
    delta / 2.  A given ``tau``, finite and above e * m, forces the cutoff.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    lam = float(m)
    if tau is None:
        budget = delta / (2 * samples)
        if not budget > 0.0:
            raise ValueError(f"samples leave no truncation budget, got {samples}")
        tau = certified_tail_threshold(budget, lam)
    elif not (math.isfinite(tau) and tau > math.e * lam):
        raise ValueError(
            f"tau must be finite and exceed e * m = {math.e * lam:.6g}, got {tau}")
    return ReductionParams(lam=lam, tau=float(tau))
