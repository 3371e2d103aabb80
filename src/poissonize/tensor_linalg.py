"""Flattened tensor views, Khatri-Rao products, and small matrix helpers.

Every symmetric tensor of order ``ell`` over R^n is stored flattened in a
vector of length ``n**ell``.  The one flattening convention is numpy's
0-based row-major order: the multi-index ``(i_1, ..., i_ell)`` with entries
in ``{0, ..., n-1}`` sits at position

    sum_j n**(ell - j) * i_j  ==  np.ravel_multi_index(i, (n,) * ell),

so the first index varies slowest, and ``data.reshape((n,) * ell)[i]`` reads
the entry back.  Every routine that reshapes between vector and matrix views
of a tensor relies on this order.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "khatri_rao",
    "khatri_rao_power",
    "multilinear_kr_square",
    "sigma_min",
    "rank1_deflatten",
]


def khatri_rao(a, b):
    """Column-wise Khatri-Rao product.

    Column ``k`` of the result is the flattened outer product of column ``k``
    of ``a`` with column ``k`` of ``b`` (equivalently their Kronecker
    product), flattened in row-major order.

    Parameters
    ----------
    a : ndarray, shape (p, m)
    b : ndarray, shape (q, m)

    Returns
    -------
    ndarray, shape (p * q, m)
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("khatri_rao expects two matrices")
    if a.shape[1] != b.shape[1]:
        raise ValueError(
            f"column counts differ: {a.shape[1]} vs {b.shape[1]}"
        )
    p, m = a.shape
    q = b.shape[0]
    return (a[:, None, :] * b[None, :, :]).reshape(p * q, m)


def khatri_rao_power(a, ell):
    """``ell``-fold Khatri-Rao power of ``a``; column ``k`` is the flattened
    ``ell``-fold tensor power of column ``k``."""
    a = np.asarray(a, dtype=float)
    ell = int(ell)
    if ell < 1:
        raise ValueError("power must be >= 1")
    out = a
    for _ in range(ell - 1):
        out = khatri_rao(out, a)
    return out


def multilinear_kr_square(a):
    """Strictly-lower multilinear square of ``a``.

    Row ``(i, j)`` with ``i < j`` (lexicographic order) of the result holds
    ``a[i, k] * a[j, k]`` in column ``k``.  Compared with the plain Khatri-Rao
    square this keeps each unordered pair once and drops the diagonal, so its
    smallest singular value lower-bounds the one of ``khatri_rao_power(a, 2)``.

    Parameters
    ----------
    a : ndarray, shape (n, m), with n >= 2

    Returns
    -------
    ndarray, shape (n * (n - 1) / 2, m)
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError("expected a matrix")
    n = a.shape[0]
    if n < 2:
        raise ValueError("need at least two rows")
    i, j = np.triu_indices(n, k=1)
    return a[i, :] * a[j, :]


def sigma_min(a):
    """Smallest singular value (of the min(m, n) values) of ``a``."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or min(a.shape) == 0:
        raise ValueError("expected a nonempty matrix")
    return float(np.linalg.svd(a, compute_uv=False)[-1])


def rank1_deflatten(v, n, p):
    """Best rank-one symmetric factor of a flattened order-``p`` tensor.

    Given ``v`` approximately proportional to the flattened tensor power
    ``u**(tensor p)`` of some unit vector ``u``, return that unit vector: the
    top left singular vector of the ``n x n**(p-1)`` reshape.  For a
    symmetric tensor at ``p == 2`` that is the eigenvector of the
    largest-magnitude eigenvalue.  The sign is fixed so the largest-magnitude
    entry of the output is positive.

    Parameters
    ----------
    v : ndarray, length n**p
    n : int
    p : int, >= 1

    Returns
    -------
    ndarray, shape (n,), unit norm.
    """
    v = np.asarray(v, dtype=float).ravel()
    n = int(n)
    p = int(p)
    if n < 1 or p < 1:
        raise ValueError("n and p must be positive")
    if v.size != n**p:
        raise ValueError(f"expected length {n**p}, got {v.size}")
    if not np.any(v):
        raise ValueError("zero tensor has no rank-one factor")
    left, _, _ = np.linalg.svd(v.reshape(n, n ** (p - 1)), full_matrices=False)
    u = left[:, 0] / np.linalg.norm(left[:, 0])
    k = int(np.argmax(np.abs(u)))
    if u[k] < 0:
        u = -u
    return u
