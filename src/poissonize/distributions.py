"""Model parameters, seeded randomness, and scalar distribution helpers.

All experiment randomness flows through :class:`SeededRng`; derived streams
use the documented splitting rule ``root seed + trial index``.  The Poisson
sampler is implemented here rather than delegated so that streams are stable
across platform library versions: inversion for small rates, transformed
rejection (PTRS) for large ones.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, pdtrc

__all__ = [
    "GmmParams",
    "SeededRng",
    "sample_gmm",
    "gmm_pdf",
    "poisson_pmf",
    "empirical_poisson_tv",
    "truncated_poisson_tv",
    "poisson_tail_threshold",
    "certified_tail_threshold",
]

_WEIGHT_TOL = 1e-12
_PSD_TOL = -1e-10
_PDF_BLOCK = 4096
# SeededRng._invert: the head of a table ends at its first entry at or above
# _HEAD_MASS and holds at most _HEAD_MAX entries, the largest uint8 count
_HEAD_MASS = 0.99
_HEAD_MAX = int(np.iinfo(np.uint8).max)
_MAX_RATE = 2.0**52


@dataclass
class GmmParams:
    """Parameters of a Gaussian mixture with shared covariance.

    means : ndarray, shape (n, m)
        Finite component means as columns.
    weights : ndarray, shape (m,)
        Strictly positive, summing to 1 within 1e-12.
    covariance : ndarray, shape (n, n)
        Finite, symmetric positive semidefinite shared covariance.

    The density factors are computed on the first :func:`gmm_pdf` call and
    kept, so the parameters must not be changed after that call.
    """

    means: np.ndarray
    weights: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        self.means = np.asarray(self.means, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        self.covariance = np.asarray(self.covariance, dtype=float)
        if not all(np.isfinite(a).all() for a in (self.means, self.weights, self.covariance)):
            raise ValueError("means, weights and covariance must be finite")
        if self.means.ndim != 2:
            raise ValueError("means must be an (n, m) matrix of columns")
        n, m = self.means.shape
        if self.weights.shape != (m,):
            raise ValueError(f"weights must have shape ({m},)")
        if np.any(self.weights <= 0):
            raise ValueError("weights must be strictly positive")
        if abs(float(self.weights.sum()) - 1.0) > _WEIGHT_TOL:
            raise ValueError("weights must sum to 1 within 1e-12")
        if self.covariance.shape != (n, n):
            raise ValueError(f"covariance must have shape ({n}, {n})")
        if not np.allclose(self.covariance, self.covariance.T, atol=1e-12, rtol=0.0):
            raise ValueError("covariance must be symmetric")
        eigs = np.linalg.eigvalsh(self.covariance)
        if eigs.min() < _PSD_TOL:
            raise ValueError(
                f"covariance not positive semidefinite (min eigenvalue {eigs.min():g})"
            )

    @property
    def n(self):
        return self.means.shape[0]

    @property
    def m(self):
        return self.means.shape[1]

    @functools.cached_property
    def _density_factors(self):
        """(W, whitened centers, scaled weights) for :func:`gmm_pdf`.

        W is the inverse of the Cholesky factor L (covariance = L L^T),
        transposed, so the Mahalanobis form of a row x about a mean mu is
        ||x W - mu W||^2.  The centers mu W are rows, shape (m, n); the
        scaled weights are the weights times the Gaussian normaliser
        (2 pi)^(-n/2) det(covariance)^(-1/2).
        """
        try:
            chol = np.linalg.cholesky(self.covariance)
        except np.linalg.LinAlgError:
            raise ValueError("density requires positive definite covariance") from None
        whiten = np.linalg.inv(chol).T
        logdet = 2.0 * float(np.log(np.diag(chol)).sum())
        norm = math.exp(-0.5 * (self.n * math.log(2.0 * math.pi) + logdet))
        return whiten, self.means.T @ whiten, self.weights * norm


def _psd_factor(cov):
    """Factor F with F @ F.T == cov.

    Cholesky when the matrix is numerically positive definite; otherwise an
    eigendecomposition with negative eigenvalues above -1e-10 clipped to zero.
    Eigenvalues below -1e-10 are an error.
    """
    cov = np.asarray(cov, dtype=float)
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        pass
    w, v = np.linalg.eigh(0.5 * (cov + cov.T))
    if w.min() < _PSD_TOL:
        raise ValueError(
            f"covariance not positive semidefinite (min eigenvalue {w.min():g})"
        )
    return v * np.sqrt(np.clip(w, 0.0, None))


class SeededRng:
    """Deterministic random stream with a recorded integer seed.

    Wraps the platform generator (PCG64).  Derived streams for trial ``i``
    use seed ``root + i``; this splitting rule is relied on by every
    experiment driver, so record seeds rather than generator state.
    """

    #: rates at or below this use CDF-table inversion, above it PTRS rejection
    INVERSION_CUTOFF = 30.0

    def __init__(self, seed):
        self.seed = int(seed)
        self.generator = np.random.Generator(np.random.PCG64(self.seed))

    def derive(self, index):
        """Independent stream for trial ``index`` (seed = root + index)."""
        return SeededRng(self.seed + int(index))

    # thin delegations -----------------------------------------------------
    def uniform(self, low=0.0, high=1.0, size=None):
        return self.generator.uniform(low, high, size)

    def standard_normal(self, size=None):
        return self.generator.standard_normal(size)

    def permutation(self, x):
        return self.generator.permutation(x)

    def binomial(self, n, p, size=None):
        return self.generator.binomial(n, p, size)

    def unit_vector(self, n):
        v = self.generator.standard_normal(int(n))
        return v / np.linalg.norm(v)

    def categorical(self, weights, size):
        """Indices sampled with the given probabilities via CDF inversion."""
        cdf = np.cumsum(np.asarray(weights, dtype=float))
        return self._invert(cdf, self.generator.random(int(size)))

    @staticmethod
    def _invert(cdf, u):
        """Inverse-CDF lookup: for each u in [0, 1), the number of entries
        of the nondecreasing table ``cdf`` below it.

        The last entry is set to 1.0 in place first, so a u above a table
        that rounds short of 1 lands on the last index.  The head, the
        entries up to the first one at or above 0.99 but at most 255, is
        counted by one comparison pass per entry over all u (the sequential
        search, vectorized) into uint8 counts, and only the u above the
        head are binary-searched.  The result equals
        ``searchsorted(cdf, u, side="left")``.  Poisson heads hold at most
        44 entries (rate 30).  At 2**17 draws the passes beat one binary
        search over the whole table for heads of up to 128 entries, by 2.6
        times at rate 30 and 7 times at rate 1; categorical tables of
        thousands of even weights take up to twice as long as one search.
        """
        cdf[-1] = 1.0
        head = min(int(np.searchsorted(cdf, _HEAD_MASS)) + 1, _HEAD_MAX)
        below = np.zeros(u.shape, dtype=np.uint8)
        above = np.empty(u.shape, dtype=bool)
        for c in cdf[:head]:
            np.greater(u, c, out=above)
            below += above
        out = below.astype(np.int64)
        tail = np.flatnonzero(above)
        out[tail] += np.searchsorted(cdf[head:], u[tail], side="left")
        return out

    # Poisson --------------------------------------------------------------
    def poisson(self, lam, size=None):
        """Poisson draws: inversion for lam <= 30, PTRS rejection above.

        Inversion is the textbook sequential search against a CDF table
        built by the pmf recursion, one uniform per draw (see ``_invert``).
        Rates above 2**52 are refused: there the rejection step's doubles
        carry no fraction, so its draws are no longer exact, and far above
        it their int64 cast overflows.
        """
        lam = float(lam)
        if not lam >= 0:  # NaN too: the rejection loop would never accept
            raise ValueError("rate must be nonnegative")
        if lam > _MAX_RATE:
            raise ValueError(f"rate must be at most 2**52, got {lam:g}")
        scalar = size is None
        count = 1 if scalar else int(np.prod(size))
        if lam == 0.0:
            out = np.zeros(count, dtype=np.int64)
        elif lam <= self.INVERSION_CUTOFF:
            out = self._invert(_poisson_cdf(lam), self.generator.random(count))
        else:
            out = self._poisson_ptrs(lam, count)
        if scalar:
            return int(out[0])
        return out.reshape(size)

    def _poisson_ptrs(self, lam, count):
        # Hormann's transformed rejection with squeeze.
        slam = math.sqrt(lam)
        loglam = math.log(lam)
        b = 0.931 + 2.53 * slam
        a = -0.059 + 0.02483 * b
        invalpha = 1.1239 + 1.1328 / (b - 3.4)
        vr = 0.9277 - 3.6224 / (b - 2.0)
        out = np.empty(count, dtype=np.int64)
        pending = np.arange(count)
        while pending.size:
            with np.errstate(all="ignore"):
                u = self.generator.random(pending.size) - 0.5
                v = self.generator.random(pending.size)
                us = 0.5 - np.abs(u)
                k = np.floor((2.0 * a / us + b) * u + lam + 0.43)
                accept = (us >= 0.07) & (v <= vr)
                candidate = ~accept & (k >= 0) & (us > 0) & ~((us < 0.013) & (v > us))
                if np.any(candidate):
                    lhs = np.log(v) + math.log(invalpha) - np.log(a / (us * us) + b)
                    rhs = -lam + k * loglam - gammaln(k + 1.0)
                    accept |= candidate & (lhs <= rhs)
            out[pending[accept]] = k[accept].astype(np.int64)
            pending = pending[~accept]
        return out


def _poisson_cdf(lam):
    """CDF table of Poisson(lam) for inversion: p_{k+1} = p_k * lam / (k+1),
    accumulated until the sum rounds to 1 or lam + 40 sqrt(lam) + 50 terms."""
    terms = [math.exp(-lam)]
    k = 0
    cdf_val = terms[0]
    limit = int(lam + 40.0 * math.sqrt(lam) + 50.0)
    while cdf_val < 1.0 - 1e-18 and k < limit:
        k += 1
        terms.append(terms[-1] * lam / k)
        cdf_val += terms[-1]
    return np.cumsum(terms)


def sample_gmm(gmm, count, rng):
    """Draw ``count`` samples from the mixture, shape (count, n)."""
    count = int(count)
    if count < 0:
        raise ValueError("count must be nonnegative")
    n = gmm.n
    if count == 0:
        return np.zeros((0, n))
    comps = rng.categorical(gmm.weights, count)
    out = gmm.means.T[comps]
    factor = _psd_factor(gmm.covariance)
    if np.any(factor):
        out += rng.standard_normal((count, n)) @ factor.T
    return out


def gmm_pdf(gmm, x):
    """Mixture density at the rows of ``x`` (requires positive definite
    covariance).

    The points are whitened once and walked in blocks of 4096, so the
    temporaries never exceed two (components x block) arrays.  Up to one
    block is returned as computed, so the 1-D quadrature's one-point calls
    pay for no copy and no loop.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n = gmm.n
    if x.shape[1] != n:
        raise ValueError(f"points must have dimension {n}")
    whiten, centers, scaled = gmm._density_factors
    z = x @ whiten
    if z.shape[0] <= _PDF_BLOCK:
        return _density_block(centers, scaled, z)
    dens = np.empty(z.shape[0])
    for start in range(0, z.shape[0], _PDF_BLOCK):
        dens[start : start + _PDF_BLOCK] = _density_block(
            centers, scaled, z[start : start + _PDF_BLOCK])
    return dens


def _density_block(centers, scaled, z):
    """Mixture density at the whitened rows ``z``, from the factors of
    ``GmmParams._density_factors``.  The squared distances are summed over
    the coordinates in order, starting from the first one's, which is what
    adding it to zeros gives, bit for bit."""
    sq = np.subtract(centers[:, 0, None], z[:, 0])
    np.multiply(sq, sq, out=sq)
    if z.shape[1] > 1:
        diff = np.empty_like(sq)
        for j in range(1, z.shape[1]):
            np.subtract(centers[:, j, None], z[:, j], out=diff)
            np.multiply(diff, diff, out=diff)
            sq += diff
    sq *= -0.5
    np.exp(sq, out=sq)
    return scaled @ sq


# ---------------------------------------------------------------------------
# scalar Poisson pmf and tail helpers
# ---------------------------------------------------------------------------


def poisson_pmf(k, lam):
    """Poisson pmf evaluated in log space (vectorized over ``k``)."""
    k = np.asarray(k)
    if np.any(k < 0):
        raise ValueError("support is nonnegative integers")
    if lam == 0.0:
        return np.where(k == 0, 1.0, 0.0)
    return np.exp(-lam + k * math.log(lam) - gammaln(np.asarray(k, dtype=float) + 1.0))


def empirical_poisson_tv(values, lam):
    """Total variation between the empirical law of integer draws and
    Poisson(lam).  Probability mass beyond the largest observed value is
    charged in full, so rounding can only push the result up."""
    values = np.asarray(values)
    if values.size == 0:
        raise ValueError("need at least one draw")
    if np.any(values < 0):
        raise ValueError("support is nonnegative integers")
    counts = np.bincount(values.astype(np.int64).ravel())
    emp = counts / float(values.size)
    pmf = poisson_pmf(np.arange(emp.size), lam)
    tail = max(0.0, 1.0 - float(pmf.sum()))
    return 0.5 * (float(np.abs(emp - pmf).sum()) + tail)


def truncated_poisson_tv(lam, tau):
    """Total variation distance between Poisson(lam) and its truncation at tau.

    Equals the tail mass 1 - F(tau), read from scipy's Poisson survival
    function ``pdtrc``, which is accurate in relative terms deep in the tail.
    """
    lam = float(lam)
    if lam < 0:
        raise ValueError("rate must be nonnegative")
    tau = int(tau)
    if tau < 0:
        raise ValueError("truncation must be a nonnegative integer")
    return float(pdtrc(tau, lam))


def _tail_arguments(delta, lam):
    """(delta, lam) as floats, with delta in (0, 1) and lam positive."""
    delta = float(delta)
    lam = float(lam)
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if lam <= 0:
        raise ValueError("rate must be positive")
    return delta, lam


def poisson_tail_threshold(delta, lam):
    """Smallest integer tau with tau > e*lam, tau >= 1, tau >= ln(1/delta) - lam.

    The classical Chernoff argument guarantees P(Poisson(lam) > tau) < delta
    for this tau only when the rate itself satisfies lam >= ln(1/delta); below
    that regime callers should certify the tail directly (see
    :func:`certified_tail_threshold`).
    """
    delta, lam = _tail_arguments(delta, lam)
    t1 = math.floor(math.e * lam) + 1
    t2 = 1
    t3 = math.ceil(-math.log(delta) - lam)
    return int(max(t1, t2, t3))


def certified_tail_threshold(delta, lam):
    """Smallest integer tau > e*lam whose actual tail mass is below delta.

    Walks upward from floor(e*lam) + 1 until the exact tail mass is below
    ``delta``; always sound, also outside the Chernoff lemma's rate regime,
    and never above :func:`poisson_tail_threshold` where that is sound.
    """
    delta, lam = _tail_arguments(delta, lam)
    tau = math.floor(math.e * lam) + 1
    while truncated_poisson_tv(lam, tau) >= delta:
        tau += 1
        if tau > 100 * (lam + 1.0) + 1000:
            raise RuntimeError("tail threshold search failed to terminate")
    return tau
