"""Exact oracles for the tests: scalar moment and cumulant identities, and
a reference loop for the mixture density's bits.

Each identity is exact for exact inputs (integers or Fractions), so the
tests can check the package's floating-point estimators and the identities
among the oracles themselves without tolerance.
"""

import math

import numpy as np

_MAX_MOMENT_ORDER = 20


def raw_moments_to_cumulants(moments):
    """Convert raw moments [m_1, ..., m_ell] to cumulants [c_1, ..., c_ell].

    Standard recursion c_r = m_r - sum_{j<r} C(r-1, j-1) c_j m_{r-j}; exact
    for exact inputs (e.g. Fractions), so it doubles as the rational
    consistency oracle.
    """
    moments = list(moments)
    cums = []
    for r in range(1, len(moments) + 1):
        c = moments[r - 1]
        for j in range(1, r):
            c = c - math.comb(r - 1, j - 1) * cums[j - 1] * moments[r - j - 1]
        cums.append(c)
    return cums


def _check_order(ell):
    ell = int(ell)
    if ell < 1:
        raise ValueError("order must be >= 1")
    if ell > _MAX_MOMENT_ORDER:
        raise ValueError(f"order {ell} above the supported cap {_MAX_MOMENT_ORDER}")
    return ell


def stirling2(ell, i):
    """Stirling number of the second kind S(ell, i), exact integer."""
    ell = int(ell)
    i = int(i)
    if ell < 0 or i < 0:
        raise ValueError("arguments must be nonnegative")
    return _stirling2(ell, i)


def _stirling2(n, k):
    if n == k:
        return 1
    if k == 0 or k > n:
        return 0
    key = (n, k)
    cached = _STIRLING_CACHE.get(key)
    if cached is None:
        cached = k * _stirling2(n - 1, k) + _stirling2(n - 1, k - 1)
        _STIRLING_CACHE[key] = cached
    return cached


_STIRLING_CACHE: dict = {}


def poisson_moment(ell, lam):
    """Raw moment E[Y^ell] of Y ~ Poisson(lam): sum_i lam^i S(ell, i).

    Exact when ``lam`` supports exact arithmetic (e.g. Fraction).
    """
    ell = _check_order(ell)
    return sum(lam**i * _stirling2(ell, i) for i in range(1, ell + 1))


def density_loop(gmm, x, block=4096):
    """Mixture density at the rows of ``x``, written as a plain loop over
    blocks of rows, each summing the squared whitened distances into zeros
    one coordinate at a time: the operations whose bits ``gmm_pdf`` keeps."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    whiten, centers, scaled = gmm._density_factors
    z = x @ whiten
    dens = np.empty(z.shape[0])
    for start in range(0, z.shape[0], block):
        rows = z[start : start + block]
        sq = np.zeros((centers.shape[0], rows.shape[0]))
        for j in range(z.shape[1]):
            diff = centers[:, j, None] - rows[:, j]
            sq += diff * diff
        dens[start : start + block] = scaled @ np.exp(-0.5 * sq)
    return dens
