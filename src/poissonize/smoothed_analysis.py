"""Empirical checks of perturbed Khatri-Rao conditioning.

A base matrix M of shape n x C(n,2) gets an iid N(0, sigma^2) perturbation N,
and the trial measures sigma_min of the multilinear square (M+N)^(-:2), a
square C(n,2) x C(n,2) matrix, against the reference level sigma^2 / n^7.
The full Khatri-Rao square is recorded alongside; its least singular value
dominates the multilinear one, so every passed trial certifies both.

One supporting check lives here as well: the leave-one-out lower bound on
sigma_min (distances to the spans of the remaining columns).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor_linalg import multilinear_kr_square, sigma_min

__all__ = [
    "FAMILIES",
    "SmoothedTrial",
    "base_matrix",
    "smoothed_trial",
    "run_smoothed",
    "rv_check",
]

FAMILIES = ("zero", "gaussian", "rank1")

_RV_SLACK = 1e-10


@dataclass
class SmoothedTrial:
    """One perturbation trial; passed means sigma_min_kr2 > bound."""

    family: str
    n: int
    sigma: float
    seed: int
    sigma_min_kr2: float
    sigma_min_kr_odot2: float
    bound: float
    passed: bool

    def __post_init__(self):
        if self.passed != (self.sigma_min_kr2 > self.bound):
            raise ValueError("passed flag contradicts the recorded values")


def base_matrix(family, n, rng):
    """Base matrix of shape n x C(n,2) from one of the probe families.

    "zero" isolates the pure-noise case, "gaussian" a generic dense base,
    and "rank1" a worst-case-like base whose columns are all parallel.  The
    rank-1 base is scaled to unit RMS entries so all three families sit at
    a comparable magnitude.
    """
    n = int(n)
    if n < 3:
        raise ValueError("need n >= 3 for a nontrivial multilinear square")
    cols = n * (n - 1) // 2
    if family == "zero":
        return np.zeros((n, cols))
    if family == "gaussian":
        return rng.standard_normal((n, cols))
    if family == "rank1":
        scale = math.sqrt(n * cols)
        return scale * np.outer(rng.unit_vector(n), rng.unit_vector(cols))
    raise ValueError(f"unknown base matrix family: {family!r}")


def smoothed_trial(base, sigma, rng, family="custom"):
    """Perturb a base matrix and measure the conditioning of its squares.

    base must have shape n x C(n,2) so that the multilinear square is a
    square matrix and sigma_min is a genuine least singular value.
    """
    base = np.asarray(base, dtype=float)
    if base.ndim != 2:
        raise ValueError("base must be a matrix")
    n = base.shape[0]
    if base.shape[1] != n * (n - 1) // 2:
        raise ValueError(
            f"base must have shape ({n}, {n * (n - 1) // 2}), got {base.shape}"
        )
    sigma = float(sigma)
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    perturbed = base + sigma * rng.standard_normal(base.shape)
    square = multilinear_kr_square(perturbed)
    kr2 = float(sigma_min(square))
    # the full square's rows are the products a_i a_j over ordered pairs, so
    # its Gram matrix is that of the diagonal products and sqrt(2) times each
    # unordered pair, n (n + 1) / 2 rows instead of n**2
    odot2 = float(sigma_min(np.vstack([perturbed * perturbed, math.sqrt(2.0) * square])))
    bound = sigma * sigma / float(n) ** 7
    return SmoothedTrial(
        family=family,
        n=n,
        sigma=sigma,
        seed=rng.seed,
        sigma_min_kr2=kr2,
        sigma_min_kr_odot2=odot2,
        bound=bound,
        passed=bool(kr2 > bound),
    )


def run_smoothed(families, n, sigma, trials, rng):
    """Independent trials per family with derived seeds, merge-order free."""
    results = []
    counter = 0
    for family in families:
        for _ in range(int(trials)):
            sub = rng.derive(counter)
            counter += 1
            results.append(smoothed_trial(base_matrix(family, n, sub), sigma, sub, family=family))
    return results


def rv_check(a):
    """Leave-one-out lower bound on the least singular value.

    lhs = min_i dist(C_i, span of the other columns) / sqrt(m) never exceeds
    sigma_min(A); a violation beyond slack 1e-10 means the distance or SVD
    computation is broken, not the inequality.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[1] < 2:
        raise ValueError("need a matrix with at least two columns")
    m = a.shape[1]
    distances = np.empty(m)
    for i in range(m):
        others = np.delete(a, i, axis=1)
        coef, *_ = np.linalg.lstsq(others, a[:, i], rcond=None)
        distances[i] = np.linalg.norm(a[:, i] - others @ coef)
    lhs = float(distances.min()) / math.sqrt(m)
    rhs = float(sigma_min(a))
    return {
        "lhs": lhs,
        "rhs": rhs,
        "holds": bool(lhs <= rhs + _RV_SLACK),
        "distances": distances,
    }
