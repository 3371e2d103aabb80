"""Underdetermined ICA from two flattened higher-order cumulants.

The solver follows the classical simultaneous-diagonalization route.  With
B = A^(Khatri-Rao d/2) and positive source cumulants c_d, the flattened
order-d cumulant is M0 = B diag(c_d) B^T and the order-(d+1) tensor
contracted with a unit vector u flattens to
M1 = B diag(c_{d+1,i} <u, A_i>) B^T.  Whitening M0 by its rank-m
eigendecomposition turns M1 into an orthogonally diagonalizable matrix whose
eigenvectors recover the columns of B up to sign, permutation, and scale;
each column is then deflattened to a unit vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .cumulants import MomentAccumulator, assemble_flat_cumulant
from .tensor_linalg import rank1_deflatten

__all__ = [
    "IcaEstimate",
    "DegenerateModelError",
    "IllConditionedError",
    "estimate_cumulant_pair",
    "recover_from_cumulants",
    "align_columns",
]

_SUPPORTED_ORDERS = (4, 6)
_RANK_TOL = 1e-10
_GAP_FLOOR = 1e-12
_MAX_CONTRACTIONS = 5


class DegenerateModelError(RuntimeError):
    """Flattened cumulant has numerical rank below the source count."""


class IllConditionedError(RuntimeError):
    """No random contraction produced a usable eigenvalue gap."""


@dataclass
class IcaEstimate:
    """Recovered mixing directions.

    columns : (n, m) with unit columns, order and signs are the solver's.
    eigengap : smallest eigenvalue gap of the diagonalized contraction, the
        run's conditioning certificate.
    order_used : cumulant order d the estimate was built from.
    """

    columns: np.ndarray
    eigengap: float
    order_used: int

    def __post_init__(self):
        self.columns = np.asarray(self.columns, dtype=float)
        if self.columns.ndim != 2:
            raise ValueError("columns must form a matrix")
        norms = np.linalg.norm(self.columns, axis=0)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise ValueError("estimate columns must be unit norm")


def estimate_cumulant_pair(sample_source, d, total, chunk=1 << 17):
    """Streaming estimates of the order-d and order-(d+1) cumulant tensors.

    ``sample_source(count)`` must return a fresh (count, n) block on each
    call.  The first chunk fixes the centering shift; moments up to order
    d + 1 are accumulated in one pass.

    Returns (M0, k_next, acc): the flattened order-d cumulant in matrix view,
    the flattened order-(d+1) tensor, and the moment accumulator (whose lower
    orders the caller may reuse).
    """
    d = int(d)
    if d not in _SUPPORTED_ORDERS:
        raise ValueError(f"cumulant order must be one of {_SUPPORTED_ORDERS}")
    total = int(total)
    if total < 1:
        raise ValueError("need at least one sample")
    first = np.asarray(sample_source(min(chunk, total)), dtype=float)
    if first.ndim != 2 or first.shape[0] == 0:
        raise ValueError("sample source must return (count, n) blocks")
    acc = MomentAccumulator(first.shape[1], d + 1, shift=first.mean(axis=0))
    acc.update(first)
    remaining = total - first.shape[0]
    while remaining > 0:
        block = np.asarray(sample_source(min(chunk, remaining)), dtype=float)
        if block.shape[0] == 0:
            raise ValueError("sample source dried up early")
        acc.update(block)
        remaining -= block.shape[0]
    m0 = assemble_flat_cumulant(acc, d).as_matrix()
    k_next = assemble_flat_cumulant(acc, d + 1).data
    return m0, k_next, acc


def _contract(k_next, n, u):
    """Contract the flattened order-(d+1) tensor with u along its first
    index and return the matrix view of the remaining order-d tensor."""
    rest = k_next.size // n
    tu = u @ k_next.reshape(n, rest)
    s = int(round(rest**0.5))
    return tu.reshape(s, s)


def recover_from_cumulants(m0, k_next, m, d, rng):
    """Mixing columns from exact or estimated cumulant tensors.

    m0 : (n^(d/2), n^(d/2)) flattened order-d cumulant, symmetric.
    k_next : flat order-(d+1) tensor of length n^(d+1).
    Five random contraction vectors are tried; the run with the widest
    minimum eigenvalue gap wins.
    """
    m = int(m)
    d = int(d)
    if d not in _SUPPORTED_ORDERS:
        raise ValueError(f"cumulant order must be one of {_SUPPORTED_ORDERS}")
    m0 = np.asarray(m0, dtype=float)
    side = m0.shape[0]
    if m0.shape != (side, side):
        raise ValueError("m0 must be square")
    n = int(round(side ** (2.0 / d)))
    if n ** (d // 2) != side or k_next.size != n ** (d + 1):
        raise ValueError("tensor sizes are inconsistent with the order")
    if m < 1 or m > side:
        raise ValueError("source count out of range")

    evals, evecs = np.linalg.eigh(0.5 * (m0 + m0.T))
    order = np.argsort(evals)[::-1]
    top = evals[order[:m]]
    threshold = _RANK_TOL * float(np.trace(m0))
    if top[-1] <= threshold:
        raise DegenerateModelError(
            f"eigenvalue {top[-1]:.3e} of the flattened cumulant is below "
            f"{threshold:.3e}; rank < {m} sources"
        )
    um = evecs[:, order[:m]]
    scale = np.sqrt(top)
    whitener = um / scale  # W with W^T M0 W = I_m
    coloring = um * scale  # U_m Lambda^(1/2)

    best = None
    for _ in range(_MAX_CONTRACTIONS):
        u = rng.unit_vector(n)
        h = whitener.T @ _contract(k_next, n, u) @ whitener
        h = 0.5 * (h + h.T)
        gamma, q = np.linalg.eigh(h)
        gaps = np.diff(np.sort(gamma))
        gap = float(gaps.min()) if gaps.size else np.inf
        spread = float(gamma.max() - gamma.min()) if gamma.size > 1 else 1.0
        rel = gap / spread if spread > 0 else 0.0
        if best is None or gap > best[0]:
            best = (gap, rel, q)
    gap, rel, q = best
    if not np.isfinite(gap) or rel <= _GAP_FLOOR:
        raise IllConditionedError(
            f"eigenvalue gap {gap:.3e} too small after {_MAX_CONTRACTIONS} "
            "random contractions"
        )

    flat_cols = coloring @ q
    columns = np.empty((n, m))
    for j in range(m):
        columns[:, j] = rank1_deflatten(flat_cols[:, j], n, d // 2)
    return IcaEstimate(columns=columns, eigengap=gap, order_used=d)


def _match_columns(cost):
    """Minimum-cost assignment on a (estimate, truth) column cost matrix.

    Returns (perm, errors): entry j of perm is the estimate column matched
    to truth column j, and errors[j] is the cost of that match.
    """
    rows, cols = linear_sum_assignment(cost)
    perm = np.empty(cost.shape[1], dtype=int)
    perm[cols] = rows
    return perm, cost[perm, np.arange(cost.shape[1])]


def align_columns(estimate, truth):
    """Match estimated columns to true columns up to sign and permutation.

    Solves the assignment problem on the cost matrix
    min(||e_i - t_j||, ||e_i + t_j||).

    Returns (perm, signs, max_error) such that
    ``estimate[:, perm[j]] * signs[j]`` approximates ``truth[:, j]`` and
    max_error is the largest matched column distance.
    """
    est = np.asarray(estimate, dtype=float)
    tru = np.asarray(truth, dtype=float)
    if est.shape != tru.shape:
        raise ValueError("estimate and truth must have the same shape")
    diff = est[:, :, None] - tru[:, None, :]
    summ = est[:, :, None] + tru[:, None, :]
    d_minus = np.linalg.norm(diff, axis=0)
    d_plus = np.linalg.norm(summ, axis=0)
    cost = np.minimum(d_minus, d_plus)
    perm, errors = _match_columns(cost)
    columns = np.arange(cost.shape[1])
    signs = np.where(d_minus[perm, columns] <= d_plus[perm, columns], 1, -1)
    return perm, signs, float(errors.max())
