"""Empirical and analytic cumulants of flattened higher-order tensors.

The estimators run in one streaming pass: mixed raw moments are accumulated
for every sorted index multiset up to the requested order (with compensated
summation across chunks), then joint cumulants are assembled through the
set-partition formula and read back at every index permutation, which makes
the flattened output symmetric by construction.  Tensors are flattened in
row-major order (see :mod:`poissonize.tensor_linalg`).

Chunks are shifted by a fixed vector (usually the first chunk's mean) before
accumulation.  Cumulants of order >= 2 are invariant under any constant
shift, so this changes nothing in expectation while shrinking the moment
magnitudes that drive estimator variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement

import numpy as np

from .tensor_linalg import khatri_rao_power

__all__ = [
    "FlatCumulant",
    "raw_moments_to_cumulants",
    "empirical_cumulant",
    "MomentAccumulator",
    "set_partitions",
    "joint_cumulant",
    "assemble_flat_cumulant",
    "analytic_ica_cumulant",
]

_MAX_UNIVARIATE_ORDER = 6
_MAX_JOINT_ORDER = 8


@dataclass
class FlatCumulant:
    """Order-``ell`` cumulant tensor over R^n, flattened row-major to length
    n**ell: ``data.reshape((n,) * ell)[i]`` is the entry at multi-index ``i``.
    """

    order: int
    dimension: int
    data: np.ndarray

    def __post_init__(self):
        self.order = int(self.order)
        self.dimension = int(self.dimension)
        self.data = np.asarray(self.data, dtype=float).ravel()
        if self.order < 1 or self.dimension < 1:
            raise ValueError("order and dimension must be positive")
        if self.data.size != self.dimension**self.order:
            raise ValueError(
                f"expected {self.dimension ** self.order} entries, got {self.data.size}"
            )

    def as_matrix(self):
        """Square matrix view for even order: rows index the first half of
        the indices, columns the second half."""
        if self.order % 2 != 0:
            raise ValueError("matrix view needs an even order")
        s = self.dimension ** (self.order // 2)
        return self.data.reshape(s, s)


def raw_moments_to_cumulants(moments):
    """Convert raw moments [m_1, ..., m_ell] to cumulants [c_1, ..., c_ell].

    Standard recursion c_r = m_r - sum_{j<r} C(r-1, j-1) c_j m_{r-j}; exact
    for exact inputs (e.g. Fractions), so it doubles as the rational
    consistency oracle in tests.
    """
    moments = list(moments)
    cums = []
    for r in range(1, len(moments) + 1):
        c = moments[r - 1]
        for j in range(1, r):
            c = c - math.comb(r - 1, j - 1) * cums[j - 1] * moments[r - j - 1]
        cums.append(c)
    return cums


def empirical_cumulant(samples, ell):
    """Order-``ell`` cumulant of scalar samples, plug-in estimator.

    Orders 1..6 are supported.  The samples are centered at their mean
    before the moment recursion (orders >= 2 are shift invariant and the
    first cumulant is the mean itself), which avoids the cancellation the
    raw-moment recursion suffers for distributions far from the origin.
    """
    ell = int(ell)
    if not 1 <= ell <= _MAX_UNIVARIATE_ORDER:
        raise ValueError(f"order must be in 1..{_MAX_UNIVARIATE_ORDER}")
    samples = np.asarray(samples, dtype=float).ravel()
    if samples.size < ell + 1:
        raise ValueError(f"need at least {ell + 1} samples for order {ell}")
    mean = float(samples.mean())
    if ell == 1:
        return mean
    z = samples - mean
    moments = []
    power = np.ones_like(z)
    for _ in range(ell):
        power = power * z
        moments.append(float(power.mean()))
    cums = raw_moments_to_cumulants(moments)
    return float(cums[ell - 1])


# ---------------------------------------------------------------------------
# streaming multiset moments
# ---------------------------------------------------------------------------


class MomentAccumulator:
    """Streaming mixed raw moments for all sorted index multisets.

    Accumulates sum_t prod_{j} (x_t[i_j] - shift[i_j]) for every
    nondecreasing index tuple (i_1 <= ... <= i_k), k = 1..order, in a single
    pass over chunks.  Partial products are reused along the multiset prefix
    tree, and per-entry Kahan compensation makes chunk merges
    order-independent to rounding.
    """

    def __init__(self, dim, order, shift=None):
        self.dim = int(dim)
        self.order = int(order)
        if self.dim < 1 or self.order < 1:
            raise ValueError("dim and order must be positive")
        if self.order > _MAX_JOINT_ORDER:
            raise ValueError(f"order above supported cap {_MAX_JOINT_ORDER}")
        if shift is None:
            shift = np.zeros(self.dim)
        self.shift = np.asarray(shift, dtype=float).copy()
        if self.shift.shape != (self.dim,):
            raise ValueError("shift must have one entry per coordinate")
        self.keys = []
        stack = [()]
        while stack:
            node = stack.pop()
            if node:
                self.keys.append(node)
            if len(node) < self.order:
                start = node[-1] if node else 0
                for i in reversed(range(start, self.dim)):
                    stack.append(node + (i,))
        self.position = {key: idx for idx, key in enumerate(self.keys)}
        self.sums = np.zeros(len(self.keys))
        self.comps = np.zeros(len(self.keys))
        self.count = 0

    def _kahan_add(self, pos, value):
        y = value - self.comps[pos]
        t = self.sums[pos] + y
        self.comps[pos] = (t - self.sums[pos]) - y
        self.sums[pos] = t

    def update(self, chunk):
        """Accumulate one chunk of shape (c, dim)."""
        chunk = np.asarray(chunk, dtype=float)
        if chunk.ndim != 2 or chunk.shape[1] != self.dim:
            raise ValueError(f"chunk must have shape (c, {self.dim})")
        c = chunk.shape[0]
        if c == 0:
            return
        z = chunk - self.shift
        cols = [np.ascontiguousarray(z[:, i]) for i in range(self.dim)]
        buffers = [np.empty(c) for _ in range(self.order)]

        def descend(prefix, prod, start, depth):
            for i in range(start, self.dim):
                if depth == 0:
                    p = cols[i]
                else:
                    p = np.multiply(prod, cols[i], out=buffers[depth])
                key = prefix + (i,)
                self._kahan_add(self.position[key], float(p.sum()))
                if depth + 1 < self.order:
                    descend(key, p, i, depth + 1)

        # depth 0 products are the columns themselves; deeper levels write into
        # one scratch buffer per depth.  A node's buffer is only overwritten by
        # its next sibling, after the whole subtree below it has finished, so
        # the in-place multiply never clobbers a live parent product.
        descend((), None, 0, 0)
        self.count += c

    def merge(self, other):
        """Fold another accumulator (same dim/order/shift) into this one."""
        if (other.dim, other.order) != (self.dim, self.order):
            raise ValueError("accumulator layouts differ")
        if not np.array_equal(other.shift, self.shift):
            raise ValueError("accumulator shifts differ")
        for pos in range(len(self.keys)):
            self._kahan_add(pos, other.sums[pos])
        self.count += other.count

    def moment(self, indices):
        """Mean of the monomial for a 0-based index tuple (any order)."""
        if self.count == 0:
            raise ValueError("no samples accumulated")
        key = tuple(sorted(int(i) for i in indices))
        if len(key) == 0 or len(key) > self.order:
            raise ValueError("tuple length out of range")
        return self.sums[self.position[key]] / self.count


def set_partitions(k):
    """All set partitions of {0..k-1} as tuples of index-tuple blocks."""
    k = int(k)
    if k < 1:
        raise ValueError("need at least one element")
    if k > _MAX_JOINT_ORDER:
        raise ValueError(f"order above supported cap {_MAX_JOINT_ORDER}")
    return _set_partitions(k)


@lru_cache(maxsize=None)
def _set_partitions(k):
    def build(elements):
        if not elements:
            yield ()
            return
        head, rest = elements[0], elements[1:]
        for part in build(rest):
            yield ((head,),) + part
            for i in range(len(part)):
                yield part[:i] + ((head,) + part[i],) + part[i + 1 :]

    return tuple(build(tuple(range(k))))


def joint_cumulant(moment_of, variables):
    """Joint cumulant of the listed variables from a mixed-moment oracle.

    ``moment_of`` maps a tuple of 0-based variable indices (a multiset) to
    the raw moment of their product.  Standard set-partition formula:
    sum over partitions pi of (-1)^{|pi|-1} (|pi|-1)! prod_blocks moment.
    """
    variables = tuple(variables)
    total = 0.0
    for part in set_partitions(len(variables)):
        term = _PARTITION_SIGN[len(part)]
        for block in part:
            term *= moment_of(tuple(variables[p] for p in block))
        total += term
    return total


_PARTITION_SIGN = {
    b: (-1.0) ** (b - 1) * math.factorial(b - 1) for b in range(1, _MAX_JOINT_ORDER + 1)
}


def assemble_flat_cumulant(acc, ell, coordinates=None):
    """Flattened order-``ell`` cumulant tensor from accumulated moments.

    Each sorted index multiset is evaluated once through the set-partition
    formula and every permutation of it reads that one value, so the output
    is exactly symmetric.  ``coordinates`` restricts the tensor to a
    subset of the accumulator's coordinates (in the given order); by default
    all of them are used.
    """
    ell = int(ell)
    if not 1 <= ell <= acc.order:
        raise ValueError(f"order must be in 1..{acc.order}")
    if coordinates is None:
        coordinates = range(acc.dim)
    coordinates = [int(c) for c in coordinates]
    if any(not 0 <= c < acc.dim for c in coordinates):
        raise ValueError("coordinate out of range")
    n = len(coordinates)
    shape = (n,) * ell
    by_multiset = np.zeros(shape)
    for key in combinations_with_replacement(range(n), ell):
        by_multiset[key] = joint_cumulant(acc.moment, tuple(coordinates[k] for k in key))
    # every multi-index, in row-major order, sorted into its multiset
    sorted_index = np.sort(np.indices(shape).reshape(ell, -1), axis=0)
    data = by_multiset[tuple(sorted_index)]
    if ell == 1:
        # the accumulator works on shifted samples; order 1 is the only
        # cumulant that is not shift invariant
        data += acc.shift[coordinates]
    return FlatCumulant(ell, n, data)


def analytic_ica_cumulant(mixing, source_cumulants, ell):
    """Flattened order-``ell`` cumulant of X = A S + (any Gaussian noise).

    For independent sources with order-``ell`` cumulants ``c_i`` the
    flattened tensor is ``khatri_rao_power(A, ell) @ c``; Gaussian noise has
    no cumulants above order two, hence no argument for it exists here.
    """
    mixing = np.asarray(mixing, dtype=float)
    source_cumulants = np.asarray(source_cumulants, dtype=float).ravel()
    ell = int(ell)
    if ell < 3:
        raise ValueError("only orders >= 3 are noise-free")
    if mixing.ndim != 2:
        raise ValueError("mixing must be a matrix")
    if source_cumulants.size != mixing.shape[1]:
        raise ValueError("need one source cumulant per mixing column")
    data = khatri_rao_power(mixing, ell) @ source_cumulants
    return FlatCumulant(ell, mixing.shape[0], data)
