"""Reduction from mixture sampling to an approximate noisy ICA model.

A mixture sample batch is Poissonized: draw R ~ Poisson(lambda), sum R
lifted mixture draws, and add Gaussian noise N(0, (tau - R) Sigma') so the
total noise level is the same for every accepted sample.  Conditioned on
R <= tau the output is an approximate ICA model whose sources are scaled
Poisson variables; a draw with R > tau aborts the whole run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import GmmParams, _psd_factor, sample_gmm, truncated_poisson_tv

__all__ = [
    "SubroutineFailure",
    "MixtureSource",
    "poisson_split",
    "IcaModel",
    "build_lifted_model",
    "sample_approx_ica_batch",
    "ReductionParams",
    "compute_reduction_params",
    "tv_gap",
]


class SubroutineFailure(RuntimeError):
    """Raised when a Poisson repetition count exceeds the truncation tau.

    Per the committed semantics a single such draw aborts the entire
    experiment run; drivers record it as an explicit failed trial.
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
    wherever only draws and the (known) covariance are required.
    """

    draw: object  # callable(count, rng) -> (count, n) samples
    covariance: np.ndarray

    def __post_init__(self):
        self.covariance = np.asarray(self.covariance, dtype=float)
        if self.covariance.ndim != 2 or self.covariance.shape[0] != self.covariance.shape[1]:
            raise ValueError("covariance must be square")


def _as_source(source):
    """(draw, covariance) pair from a GmmParams or MixtureSource."""
    if isinstance(source, GmmParams):
        return (lambda count, rng: sample_gmm(source, count, rng)), source.covariance
    return source.draw, source.covariance


@dataclass
class IcaModel:
    """Noisy ICA model X = mixing diag(scales) S + eta(tau) of a Poissonized
    mixture.

    mixing : (n, m) unit columns, the normalized means of the mixture (or of
        its lift, for :func:`build_lifted_model`).
    rates : Poisson rates w_i * lambda of the sources; they sum to lambda.
    scales : norms of those means; source i is scale_i * Poisson(rate_i).
    noise_covariance : (n, n) noise covariance of one mixture draw.
    lam, tau : Poisson repetition rate and truncation.
    to_gmm() reconstructs the mixture whose Poissonization realizes exactly
    this model.
    """

    mixing: np.ndarray
    rates: np.ndarray
    scales: np.ndarray
    noise_covariance: np.ndarray
    lam: float
    tau: float

    def __post_init__(self):
        self.mixing = np.asarray(self.mixing, dtype=float)
        self.rates = np.asarray(self.rates, dtype=float)
        self.scales = np.asarray(self.scales, dtype=float)
        self.noise_covariance = np.asarray(self.noise_covariance, dtype=float)
        n, m = self.mixing.shape
        norms = np.linalg.norm(self.mixing, axis=0)
        if np.any(np.abs(norms - 1.0) > 1e-12):
            raise ValueError("mixing columns must be unit norm (1e-12)")
        if self.rates.shape != (m,) or self.scales.shape != (m,):
            raise ValueError("rates and scales need one entry per column")
        if np.any(self.rates <= 0) or np.any(self.scales <= 0):
            raise ValueError("rates and scales must be positive")
        if self.noise_covariance.shape != (n, n):
            raise ValueError("noise covariance shape mismatch")
        if abs(float(self.rates.sum()) - self.lam) > 1e-9 * max(1.0, self.lam):
            raise ValueError("rates must sum to lambda")

    def to_gmm(self):
        return GmmParams(
            self.mixing * self.scales, self.rates / self.lam, self.noise_covariance
        )


def build_lifted_model(gmm, lam, tau):
    """Lifted ICA model of a Poissonized mixture, in dimension n + 1.

    Columns of the mixing matrix are mu'_i / ||mu'_i|| with mu'_i = (mu_i, 1),
    so its last row is strictly positive; source i is
    ||mu'_i|| * Poisson(w_i * lambda).  The noise covariance has an exactly
    zero last row and column (the count coordinate is noiseless).
    """
    lam = float(lam)
    if lam <= 0:
        raise ValueError("lambda must be positive")
    n = gmm.n
    lifted = np.vstack([gmm.means, np.ones((1, gmm.m))])
    scales = np.linalg.norm(lifted, axis=0)
    cov = np.zeros((n + 1, n + 1))
    cov[:n, :n] = gmm.covariance
    return IcaModel(
        mixing=lifted / scales,
        rates=gmm.weights * lam,
        scales=scales,
        noise_covariance=cov,
        lam=lam,
        tau=float(tau),
    )


def sample_approx_ica_batch(source, lam, tau, rng, count):
    """Poissonized draws in R^(n+1), shape (count, n + 1).

    Each row draws R ~ Poisson(lambda) and is
    sum_{j<=R} (Z_j, 1) + eta' with eta' ~ N(0, (tau - R) Sigma'); its last
    coordinate is exactly R, and any R > tau raises SubroutineFailure.  The
    first n coordinates are the basic ICA observation X = A S + eta(tau): the
    sum of R mixture draws already carries noise eta(R), and the top-up term
    eta(tau - R) completes it to eta(tau).  The inner sums are grouped by
    repetition count.  ``source`` is a GmmParams or MixtureSource.
    """
    lam = float(lam)
    count = int(count)
    if lam <= 0:
        raise ValueError("lambda must be positive")
    if tau <= math.e * lam:
        raise ValueError("tau must exceed e * lambda")
    if count < 0:
        raise ValueError("count must be nonnegative")
    draw, covariance = _as_source(source)
    n = covariance.shape[0]
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
        pts = np.asarray(draw(idx.size * value, rng), dtype=float)
        out[idx, :n] = pts.reshape(idx.size, value, n).sum(axis=1)
        out[idx, n] = float(value)
    factor = _psd_factor(covariance)
    if np.any(factor):
        eta = rng.standard_normal((count, n)) @ factor.T
        out[:, :n] += np.sqrt(tau - reps)[:, None] * eta
    return out


@dataclass
class ReductionParams:
    """Committed parameter schedule of the reduction: the Poisson rate lambda
    and the truncation tau."""

    lam: float
    tau: float

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("lambda must be positive")
        if self.tau <= math.e * self.lam:
            raise ValueError("tau must exceed e * lambda")

    def to_dict(self):
        return {"lambda": self.lam, "tau": self.tau}


def _log_plus(x):
    # factors below 1 are clamped so they never shrink the threshold
    return max(math.log(x), 0.0)


def compute_reduction_params(n, m, d, delta, eps, w, u, r, b, sigma, tau_override=None):
    """Parameter schedule for learning an m-component mixture in R^n.

    Splits the failure budget delta evenly, sets lambda = m, and computes the
    truncation from the polynomial threshold factor q(Theta), kept in log
    space since it can overflow a double.

    Bounds: w >= w_max/w_min >= 1, u >= max ||mu_i||, r a positive separation
    parameter, b a positive conditioning floor, sigma^2 the largest noise
    eigenvalue.
    """
    n = int(n)
    m = int(m)
    d = int(d)
    if n < 1 or m < 1:
        raise ValueError("n and m must be positive")
    if d % 2 != 0 or d < 2:
        raise ValueError("d must be a positive even integer")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if not 0.0 < eps:
        raise ValueError("eps must be positive")
    if w < 1.0:
        raise ValueError("weight ratio bound w must be >= 1")
    if u <= 0 or r <= 0 or b <= 0:
        raise ValueError("bounds u, r, b must be positive")
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")

    # half of delta bounds the ICA stage's failure, half the truncation's
    half_delta = delta / 2.0
    lam = float(m)
    d2 = d * d
    log_q = (
        d * math.log(n)
        + d2 * (math.log(m) + _log_plus(u) + _log_plus(w) + math.log(d + 1) + _log_plus(r))
        + (d2 * _log_plus(sigma) if sigma > 0 else 0.0)
        + d * _log_plus(1.0 / b)
        + math.log(1.0 / eps)
        + math.log(1.0 / half_delta)
    )
    if tau_override is None:
        tau = 4.0 * (math.log(1.0 / half_delta) + log_q) * max((math.e * lam) ** 2, 4.0 * d2)
    else:
        tau = float(tau_override)
    return ReductionParams(lam=lam, tau=tau)


def tv_gap(lam, tau, n_samples):
    """Total variation budget consumed by truncation over a whole run:
    n_samples * (1 - PoissonCDF(tau; lambda))."""
    n_samples = int(n_samples)
    if n_samples < 0:
        raise ValueError("sample count must be nonnegative")
    return n_samples * truncated_poisson_tv(lam, int(math.floor(tau)))
