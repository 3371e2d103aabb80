"""Close mixture pairs from Gaussian kernel interpolation on point sets.

Interpolating a fixed smooth positive target through two disjoint point sets
and splitting the difference of the interpolants by coefficient sign yields
two normalized mixtures that are statistically close while their centers
stay separated.  Pigeonholing over component-count differences upgrades a
batch of such pairs to one with equal component counts, and the basic
Poissonization embeds any pair into a pair of noisy ICA models.

The kernel matrix is intrinsically ill-conditioned; that ill-conditioning is
the phenomenon, so the solver accepts instances by achieved residual rather
than rejecting by condition number.
"""

from __future__ import annotations

import functools
import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import brentq
from scipy.special import ndtr

from .distributions import GmmParams, certified_tail_threshold, gmm_pdf
from .poissonization import IcaModel

__all__ = [
    "PointSet",
    "MixturePair",
    "DegeneratePairError",
    "KernelConditioningError",
    "kernel",
    "target_f",
    "compute_fill",
    "interpolate",
    "build_close_pair",
    "l1_distance",
    "pigeonhole_pair",
    "embed_as_ica",
    "equispaced_interleaved",
    "random_points",
    "pair_to_json",
]

_CUBE_TOL = 1e-12
_RESIDUAL_REL_TOL = 1e-8
_REFINE_STEPS = 4
_QUAD_RANGE = (-8.0, 9.0)
_QUAD_SIGMAS = 8.0
_SIGN_POINTS = 4097  # grid on which the 1-D sign changes of p - q are found
_GRID_SPACING = {2: 0.1, 3: 0.2}
_RETRIES = 5
_EMBED_DELTA = 1e-9


class DegeneratePairError(RuntimeError):
    """The interpolant difference has coefficients of only one sign."""


class KernelConditioningError(RuntimeError):
    """The kernel solve could not reach the required residual."""

    def __init__(self, residual, target):
        self.residual = float(residual)
        self.target = float(target)
        super().__init__(
            f"kernel solve residual {residual:.3e} exceeds target {target:.3e}"
        )


@dataclass
class PointSet:
    """Points in the unit cube together with their fill (covering radius)."""

    points: np.ndarray
    fill: float = 0.0

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        if self.points.size == 0:
            raise ValueError("point set is empty")
        if np.any(self.points < -_CUBE_TOL) or np.any(self.points > 1.0 + _CUBE_TOL):
            raise ValueError("points must lie in the unit cube")
        self.fill = float(self.fill)
        if self.fill < 0:
            raise ValueError("fill must be nonnegative")

    @property
    def size(self):
        return self.points.shape[0]

    @property
    def dimension(self):
        return self.points.shape[1]


@dataclass
class MixturePair:
    """Two normalized disjointly-centered mixtures; min_center_distance is
    the least distance between a center of p and one of q."""

    p: GmmParams
    q: GmmParams
    min_center_distance: float = field(init=False)
    alpha: float = 1.0
    beta: float = 1.0
    fill: float = 0.0
    kernel_condition: float = 0.0

    def __post_init__(self):
        if self.p.n != self.q.n:
            raise ValueError("mixtures live in different dimensions")
        self.min_center_distance = _cross_min_distance(self.p.means.T, self.q.means.T)
        if self.min_center_distance <= 0:
            raise ValueError("center sets must be disjoint")

    @functools.cached_property
    def l1_distance(self):
        """The L1 distance between p and q, measured on first read."""
        return l1_distance(self.p, self.q)


def _sq_distances(a, b):
    """Squared distances between the rows of a and the rows of b."""
    return ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)


def kernel(x, y):
    """Unit Gaussian kernel matrix (2 pi)^(-n/2) exp(-||x - y||^2 / 2)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    if x.shape[1] != y.shape[1]:
        raise ValueError("dimension mismatch")
    n = x.shape[1]
    return (2.0 * math.pi) ** (-0.5 * n) * np.exp(-0.5 * _sq_distances(x, y))


def target_f(x):
    """Positive target: the unit Gaussian kernel smoothed over the cube.

    f(x) = prod_j (Phi(x_j) - Phi(x_j - 1)), the closed form of the
    convolution of the kernel with the uniform density on [0, 1]^n.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        x = x.reshape(1)
    return np.prod(ndtr(x) - ndtr(x - 1.0), axis=-1)


def compute_fill(point_set, grid_resolution):
    """Upper bound on the covering radius via a regular grid sweep.

    Max over lattice points of the distance to the set, plus half the lattice
    cell diagonal so the result dominates the true fill.
    """
    grid_resolution = int(grid_resolution)
    if grid_resolution < 10:
        raise ValueError("need at least 10 grid points per axis")
    n = point_set.dimension
    axes = [np.linspace(0.0, 1.0, grid_resolution)] * n
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    pts = point_set.points
    block = max(1, (1 << 22) // max(pts.shape[0], 1))
    worst = 0.0
    for start in range(0, grid.shape[0], block):
        piece = grid[start : start + block]
        d2 = _sq_distances(piece, pts)
        worst = max(worst, float(d2.min(axis=1).max()))
    spacing = 1.0 / (grid_resolution - 1)
    return math.sqrt(worst) + 0.5 * math.sqrt(n) * spacing


def _solve_kernel(kmat, rhs):
    """Spectrum-clipped symmetric solve with extended-precision refinement.

    The right-hand side of our interpolation problems lies in the numerical
    range of the kernel operator, so clipping the spectrum at the rounding
    floor and refining drives the residual to that floor even when the full
    condition number is astronomically large.  Returns (solution, residual,
    condition estimate); eigenvalues at or below the clip make the condition
    estimate a lower bound.
    """
    vals, vecs = np.linalg.eigh(kmat)
    lam_max = float(vals[-1])
    if lam_max <= 0:
        raise KernelConditioningError(np.linalg.norm(rhs), 0.0)
    clip = lam_max * kmat.shape[0] * np.finfo(float).eps
    inv = np.where(vals > clip, 1.0 / np.maximum(vals, clip), 0.0)

    def solve(residual):
        return vecs @ (inv * (vecs.T @ residual))

    kmat_l = kmat.astype(np.longdouble)
    rhs_l = rhs.astype(np.longdouble)

    def residual_of(w):
        r = rhs_l - kmat_l @ w.astype(np.longdouble)
        return np.asarray(r, dtype=float), float(np.linalg.norm(np.asarray(r, dtype=float)))

    w = solve(rhs)
    best_w = w
    r, best_norm = residual_of(w)
    for _ in range(_REFINE_STEPS):
        w = w + solve(r)
        r, norm = residual_of(w)
        if norm < best_norm:
            best_w, best_norm = w, norm
        else:
            break
    condition = lam_max / max(float(vals[0]), clip)
    return best_w, best_norm, condition


def interpolate(point_set):
    """Coefficients w of the kernel expansion sum_i w_i K(x_i, .) that
    matches the smooth target on the nodes x_i, and the kernel condition.

    Solves K_X w = f(X) for the (positive definite, badly conditioned)
    kernel matrix; acceptance is by achieved residual, per-instance.
    Returns (coefficients, condition estimate).
    """
    pts = point_set.points
    if pts.shape[0] > 1:
        d2 = _sq_distances(pts, pts)
        np.fill_diagonal(d2, np.inf)
        if d2.min() <= 0.0:
            raise ValueError("interpolation nodes must be distinct")
    kmat = kernel(pts, pts)
    fvals = np.atleast_1d(target_f(pts))
    coeffs, residual, condition = _solve_kernel(kmat, fvals)
    target = _RESIDUAL_REL_TOL * float(np.linalg.norm(fvals))
    if residual > target:
        raise KernelConditioningError(residual, target)
    return coeffs, condition


def _cross_min_distance(a, b):
    return float(np.sqrt(_sq_distances(a, b).min()))


def build_close_pair(x_set, y_set):
    """Normalized mixture pair from the signed difference of interpolants.

    The difference f_X - f_Y is split by coefficient sign into p1 - p2; the
    normalizations alpha = sum p1, beta = sum p2 are recorded (both close to
    and at least about 1 when the interpolants are accurate).
    """
    if x_set.dimension != y_set.dimension:
        raise ValueError("point sets live in different dimensions")
    cross = _cross_min_distance(x_set.points, y_set.points)
    if cross <= _CUBE_TOL:
        raise ValueError("point sets must be disjoint")
    wx, condition_x = interpolate(x_set)
    wy, condition_y = interpolate(y_set)
    centers = np.vstack([x_set.points, y_set.points])
    coeffs = np.concatenate([wx, -wy])
    pos = coeffs > 0
    neg = coeffs < 0
    if not pos.any() or not neg.any():
        raise DegeneratePairError("interpolant difference is one-signed")
    alpha = float(coeffs[pos].sum())
    beta = float(-coeffs[neg].sum())
    n = centers.shape[1]
    eye = np.eye(n)
    p = GmmParams(centers[pos].T, coeffs[pos] / alpha, eye)
    q = GmmParams(centers[neg].T, -coeffs[neg] / beta, eye)
    return MixturePair(
        p=p,
        q=q,
        alpha=alpha,
        beta=beta,
        fill=max(x_set.fill, y_set.fill),
        kernel_condition=max(condition_x, condition_y),
    )


def l1_distance(p, q):
    """L1 distance between two mixture densities over all of R^n, n <= 3.

    Univariate instances integrate |p - q| by adaptive quadrature over
    [-8, 9] widened to reach 8 standard deviations beyond every mean, which
    holds all but < 1e-14 of both masses, split at every mean and at every
    sign change of p - q between two of 4097 equispaced points.  In 2-D and
    3-D, |p - q| is summed times the cell volume on a grid of spacing 0.1 or
    0.2 from the corner of the box reaching 8 standard deviations past every
    mean (a 4-D grid would hold about 52M points).
    """
    if p.n != q.n:
        raise ValueError("mixtures live in different dimensions")
    _check_grid_dimension(p.n)
    if p.n == 1:
        lo, hi = _QUAD_RANGE
        for gmm in (p, q):
            mus = gmm.means.ravel()
            reach = _QUAD_SIGMAS * math.sqrt(float(gmm.covariance[0, 0]))
            lo = min(lo, float(mus.min()) - reach)
            hi = max(hi, float(mus.max()) + reach)

        def difference(t):
            x = np.array([[t]])
            return float(gmm_pdf(p, x)[0]) - float(gmm_pdf(q, x)[0])

        # |p - q| has a kink wherever p - q changes sign: each change between
        # two points of a grid is refined to its root, and quad splits there
        # as at every mean, which lies strictly inside [lo, hi]
        grid = np.linspace(lo, hi, _SIGN_POINTS)
        sign = np.sign(gmm_pdf(p, grid[:, None]) - gmm_pdf(q, grid[:, None]))
        roots = [brentq(difference, grid[i], grid[i + 1])
                 for i in np.flatnonzero(sign[:-1] * sign[1:] < 0)]
        breaks = np.unique(np.concatenate([p.means.ravel(), q.means.ravel(), roots])).tolist()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            value, _ = quad(lambda t: abs(difference(t)), lo, hi, points=breaks,
                            limit=600, epsabs=1e-14)
        return value
    h = _GRID_SPACING[p.n]
    reach = _QUAD_SIGMAS * np.sqrt(np.maximum(np.diag(p.covariance), np.diag(q.covariance)))
    centers = np.hstack([p.means, q.means])
    lo, hi = centers.min(axis=1) - reach, centers.max(axis=1) + reach
    axes = [np.arange(a, b, h) for a, b in zip(lo, hi)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, p.n)
    return float(np.abs(gmm_pdf(p, grid) - gmm_pdf(q, grid)).sum()) * h**p.n


def _check_grid_dimension(n):
    if n > 1 and n not in _GRID_SPACING:
        raise ValueError(f"L1 distances are measured in dimensions 1 to 3, got {n}")


def random_points(count, dimension, rng):
    """Uniform points in the unit cube, shape (count, dimension)."""
    return rng.uniform(0.0, 1.0, size=(int(count), int(dimension)))


def _fill_resolution(dimension):
    return {1: 512, 2: 48, 3: 14}.get(int(dimension), 10)


def pigeonhole_pair(points, rng):
    """Equal-component-count close pair from 4k^2 points.

    The points are split into 2k groups of 2k; each group's first and last k
    points interpolate into a close pair.  The first pair, in group order,
    with equal component counts is returned.  Otherwise, over the 2k groups
    the count differences take at most 2k - 1 values, so two groups must
    agree; averaging those two pairs crosswise gives mixtures with equal
    counts.  Groups whose build degenerates are skipped; if no collision
    survives, the points are reshuffled by ``rng``, at most _RETRIES
    rounds in all.  A pair measures its L1 distance when it is first read,
    so only the returned pair can be measured.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    total = points.shape[0]
    k = math.isqrt(max(total, 0) // 4)
    if total < 8 or 4 * k * k != total:
        raise ValueError("need 4k^2 points with k >= 2")
    _check_grid_dimension(points.shape[1])
    resolution = _fill_resolution(points.shape[1])
    order = np.arange(total)
    for _ in range(_RETRIES):
        built = []
        for group in order.reshape(2 * k, 2 * k):
            sub = points[group]
            try:
                x_set = PointSet(sub[:k])
                y_set = PointSet(sub[k:])
                x_set.fill = compute_fill(x_set, resolution)
                y_set.fill = compute_fill(y_set, resolution)
                built.append(build_close_pair(x_set, y_set))
            except (DegeneratePairError, KernelConditioningError, ValueError):
                continue
        for pair in built:
            if pair.p.m == pair.q.m:
                return pair
        by_difference = {}
        collision = None
        for pair in built:
            key = pair.p.m - pair.q.m
            if key in by_difference:
                collision = (by_difference[key], pair)
                break
            by_difference[key] = pair
        if collision is not None:
            return _combine_pairs(*collision)
        order = rng.permutation(total)
    raise RuntimeError(
        "no two groups shared a component-count difference within the retry budget"
    )


def _combine_pairs(first, second):
    """Crosswise average of two pairs with equal count differences."""
    if not np.allclose(first.p.covariance, second.p.covariance):
        raise ValueError("pairs must share the noise covariance")
    p = GmmParams(
        np.hstack([first.p.means, second.q.means]),
        np.concatenate([first.p.weights, second.q.weights]) / 2.0,
        first.p.covariance,
    )
    q = GmmParams(
        np.hstack([first.q.means, second.p.means]),
        np.concatenate([first.q.weights, second.p.weights]) / 2.0,
        first.q.covariance,
    )
    return MixturePair(
        p=p,
        q=q,
        fill=max(first.fill, second.fill),
        kernel_condition=max(first.kernel_condition, second.kernel_condition),
    )


def embed_as_ica(pair):
    """Noisy ICA models of both mixtures of a pair.

    lambda is set to the component count, so the source rates are w_i lambda
    and sum back to lambda.  tau is the certified tail threshold at delta =
    1e-9: the smallest cutoff whose actual tail mass is below delta.
    """
    return tuple(
        IcaModel(gmm, float(gmm.m), certified_tail_threshold(_EMBED_DELTA, float(gmm.m)))
        for gmm in (pair.p, pair.q)
    )


def equispaced_interleaved(h):
    """Interleaved 1D designs X = {(2i-1)h} and Y = X + h with k = 1/(2h).

    Exact fills: the cube point farthest from X is 0 at distance h, and from
    Y it is 0 again at distance 2h.
    """
    h = float(h)
    if h <= 0:
        raise ValueError("h must be positive")
    k = round(1.0 / (2.0 * h))
    if k < 1 or abs(2.0 * k * h - 1.0) > 1e-9:
        raise ValueError("h must equal 1/(2k) for a positive integer k")
    xs = (2.0 * np.arange(1, k + 1) - 1.0) * h
    x_set = PointSet(xs[:, None], fill=h)
    y_set = PointSet(xs[:, None] + h, fill=2.0 * h)
    return x_set, y_set


def pair_to_json(pair):
    """Hard-instance export; centers are row lists, one row per component."""
    payload = {
        "centers_p": pair.p.means.T.tolist(),
        "weights_p": pair.p.weights.tolist(),
        "centers_q": pair.q.means.T.tolist(),
        "weights_q": pair.q.weights.tolist(),
        "l1_distance": float(pair.l1_distance),
        "fill": float(pair.fill),
        "kernel_condition": float(pair.kernel_condition),
    }
    return json.dumps(payload, indent=2, sort_keys=True)
