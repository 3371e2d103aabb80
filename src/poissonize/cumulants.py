"""Empirical and analytic cumulants of flattened higher-order tensors.

The estimator runs in one streaming pass: mixed raw moments are accumulated
for every sorted index multiset up to the requested order, as a product per
row tile of the monomials of about half that degree, split by degree so that
only the entries some multiset reads are formed (with compensated summation
across tiles).  The rows are accumulated in groups: when the last
coordinate is an exact count, as the repetition count R of a Poissonized row
is, one group per value of it, each over the monomials of the other
coordinates alone, and otherwise all rows as one group.  The sums per key
are one exact linear map of the per-group sums.  Joint
cumulants are then assembled by the moment-to-cumulant recursion over
sub-multisets (P. J. Smith, Am. Statist. 49(2), 1995; McCullagh, Tensor
Methods in Statistics, 1987, ch. 2-3), one order at a time for all
multisets of that order at once, with each multiset's float operations in
the recursion's own order, so the values have the same bits as a
one-multiset-at-a-time walk.  They are read back at every index
permutation, which makes the flattened output symmetric by construction.
Tensors are flattened in row-major order (see :mod:`poissonize.tensor_linalg`).

Chunks are shifted by a fixed vector (usually the first chunk's mean) before
accumulation.  Cumulants of order >= 2 are invariant under any constant
shift, so this changes nothing in expectation while shrinking the moment
magnitudes that drive estimator variance.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .tensor_linalg import khatri_rao_power

__all__ = [
    "FlatCumulant",
    "MomentAccumulator",
    "assemble_flat_cumulant",
    "analytic_ica_cumulant",
]

_MAX_JOINT_ORDER = 8
# scratch entries of one row tile (4 MB): rows per tile = this // monomials
_TILE_ENTRIES = 2**19
# the largest count value accepted: every integer up to it is a float
_MAX_COUNT = 2**53


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


# ---------------------------------------------------------------------------
# streaming multiset moments
# ---------------------------------------------------------------------------


class MomentAccumulator:
    """Streaming mixed raw moments for all sorted index multisets.

    Accumulates sum_t prod_{j} (x_t[i_j] - shift[i_j]) for every
    nondecreasing index tuple (i_1 <= ... <= i_k), k = 1..order, in a single
    pass over chunks.  Per row tile, the monomials of degree <= order -
    order // 2 (the constant 1 included) are the rows of one array P, and
    every sum is an entry of a product of P's rows with themselves: each
    key's index tuple splits into a half of degree at most order // 2 and a
    half of one degree more at most.  The product is taken in two parts that
    hold every such entry: the rows of degree order // 2 against the rows of
    at least that degree, and the lower rows against the rows of at most
    that degree.  A tile holds as many rows as fit 2**19 monomial entries (4
    MB of scratch) and is shifted on its own, so ``update`` allocates no
    copy of the whole chunk.  Per-entry Kahan compensation across tiles
    keeps the sums independent of how the rows are split into chunks, to
    rounding; their last bits depend on the tile size, the BLAS build and
    its thread count.

    The rows are accumulated in groups r, each tile's rows gathered into
    the scratch, and each group keeps the monomial sums S_r up to the full
    order of the coordinates it multiplies (S_r of the empty monomial is the
    group's row count).  With ``count_last`` the last coordinate is an exact
    count R, such as the Poisson repetition count of a lifted row, and must
    hold nonnegative integers (else ``update`` raises ValueError before any
    sum moves); the rows are grouped by R through a stable sort of the
    chunk's counts, and the tiles multiply the other coordinates alone.
    Without it all rows form the one group r = 0 and the tiles multiply
    every coordinate.  ``sums`` is the exact linear image of the S_r: the
    key of monomial alpha of the multiplied coordinates times the count
    coordinate j times holds sum_r (r - shift[-1])**j S_r[alpha] (j = 0
    for every key without a count coordinate, so ``sums`` is S_0 itself).
    The mean of the monomial of ``keys[i]`` is ``sums[i] / count``.
    """

    def __init__(self, dim, order, shift=None, count_last=False):
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
        self.count_last = bool(count_last)
        self.keys = _sorted_keys(self.dim, self.order)
        self.sums = np.zeros(len(self.keys))
        self.count = 0

        # the coordinates that the tiles multiply, the sums they hold per
        # count value (one value, 0, without a count coordinate), and the
        # map from those sums to the keys: key = alpha times the count
        # coordinate j times
        self._free = self.dim - self.count_last
        targets = [()] + _sorted_keys(self._free, self.order)
        where = {key: idx for idx, key in enumerate(targets)}
        self._power = np.array([key.count(self._free) for key in self.keys])
        self._alpha = np.array([where[key[: len(key) - j]]
                                for key, j in zip(self.keys, self._power)])
        self._per_count = {}  # r -> (sums, compensations) over targets

        # monomials of degree <= order - order // 2 in colex order: within
        # degree k, those ending in coordinate i are the degree k - 1 ones
        # ending at or below i (a prefix of that block) times z_i, so each is
        # one row-block multiply, recorded as (src, stop, i, dst).  Degree 1
        # is the shifted tile itself.
        low_degree = self.order // 2
        monomials = [()] + [(i,) for i in range(self._free)]
        block = monomials[1:]
        self._steps = []
        for _ in range(1, self.order - low_degree):
            src, grown = len(monomials) - len(block), []
            for i in range(self._free):
                prefix = [m for m in block if m[-1] <= i]
                self._steps.append((src, src + len(prefix), i, len(monomials) + len(grown)))
                grown += [m + (i,) for m in prefix]
            monomials += grown
            block = grown
        row_of = {m: r for r, m in enumerate(monomials)}
        self._monomials = len(monomials)
        # P's rows of degree below order // 2, and of at most order // 2
        self._below = sum(len(m) < low_degree for m in monomials)
        self._low = sum(len(m) <= low_degree for m in monomials)
        self._top = (self._low - self._below) * (self._monomials - self._below)
        self._products = self._top + self._below * self._low
        rows = np.array([row_of[key[: len(key) // 2]] for key in targets])
        cols = np.array([row_of[key[len(key) // 2 :]] for key in targets])
        self._gather = np.where(
            rows >= self._below,
            (rows - self._below) * (self._monomials - self._below) + cols - self._below,
            self._top + rows * self._low + cols,
        )
        self._tile = max(1, _TILE_ENTRIES // self._monomials)

        # one exact integer code per key, increasing along ``keys``: the
        # length, then the digits i + 1 in base dim + 1, padded with 0.  A
        # code is below (order + 1) (dim + 1)**order, and there are more than
        # (dim + 1)**order / order! keys, so int64 holds every code of a key
        # table that fits in memory.
        self._weights = (self.dim + 1) ** np.arange(self.order, -1, -1)
        self._digits = 1 + np.array([key + (-1,) * (self.order - len(key)) for key in self.keys])
        lengths = np.count_nonzero(self._digits, axis=1)
        self._codes = self._digits @ self._weights[1:] + self._weights[0] * lengths

    def update(self, chunk):
        """Accumulate one chunk of shape (c, dim)."""
        chunk = np.asarray(chunk, dtype=float)
        if chunk.ndim != 2 or chunk.shape[1] != self.dim:
            raise ValueError(f"chunk must have shape (c, {self.dim})")
        c = chunk.shape[0]
        if c == 0:
            return
        if self.count_last:
            order, values, bounds = _count_groups(chunk[:, -1])
        else:
            order, values, bounds = np.arange(c), [0], [0, c]
        tile_rows = min(c, self._tile)
        scratch = np.empty((self._monomials + self.dim) * tile_rows + self._products)
        gathered = scratch[-self.dim * tile_rows :].reshape(tile_rows, self.dim)
        for r, start, stop in zip(values, bounds[:-1], bounds[1:]):
            if r not in self._per_count:
                self._per_count[r] = np.zeros((2, len(self._gather)))
            totals, comps = self._per_count[r]
            for first in range(start, stop, self._tile):
                rows = order[first : min(first + self._tile, stop)]
                # every index is valid; "clip" lets take write into out unbuffered
                tile = np.take(chunk, rows, axis=0, out=gathered[: len(rows)], mode="clip")
                _add_compensated(totals, comps, self._tile_sums(tile[:, : self._free].T, scratch))
        self.count += c
        self.sums = self._lifted_sums()

    def _tile_sums(self, columns, scratch):
        """The target sums of one tile, given as its unshifted ``columns``
        (one row per multiplied coordinate)."""
        t = columns.shape[1]
        p = scratch[: self._monomials * t].reshape(self._monomials, t)
        p[0] = 1.0
        z = p[1 : 1 + self._free]
        np.subtract(columns, self.shift[: self._free, None], out=z)
        for src, stop, i, dst in self._steps:
            np.multiply(p[src:stop], z[i], out=p[dst : dst + stop - src])
        out = scratch[self._monomials * t : self._monomials * t + self._products]
        below, low, top = self._below, self._low, self._top
        upper = out[:top].reshape(low - below, self._monomials - below)
        np.matmul(p[below:low], p[below:].T, out=upper)
        np.matmul(p[:below], p[:low].T, out=out[top : self._products].reshape(below, low))
        return out[self._gather]

    def _lifted_sums(self):
        """The key sums from the per-count sums, in increasing count."""
        counts = sorted(self._per_count)
        totals = np.array([self._per_count[r][0] for r in counts])
        powers = (np.array(counts, dtype=float) - self.shift[-1])[:, None] ** np.arange(
            self.order + 1)
        return (powers[:, self._power] * totals[:, self._alpha]).sum(axis=0)

    def rows_per_count(self):
        """Rows accumulated at each count value r, as {r: rows} in increasing
        r (count mode only)."""
        if not self.count_last:
            raise ValueError("rows per count need count_last")
        return {r: int(self._per_count[r][0][0]) for r in sorted(self._per_count)}

    def _sub_codes(self, digits, chosen):
        """Codes of the sub-multisets that keep the ``chosen`` positions, a
        (masks, k) boolean array, of each sorted key row of ``digits``, a
        (keys, k) array: one (masks, keys) array."""
        rank = np.cumsum(chosen, axis=1) - chosen
        weights = np.where(chosen, self._weights[1 + rank], 0)
        return weights @ digits.T + self._weights[0] * chosen.sum(axis=1)[:, None]


def _sorted_keys(dim, order):
    """Every nondecreasing tuple over 0..dim-1 of length 1..order, by length."""
    return [
        key
        for k in range(1, order + 1)
        for key in combinations_with_replacement(range(dim), k)
    ]


def _add_compensated(sums, comps, values):
    """Kahan-add ``values`` into ``sums`` in place, with ``comps`` carrying
    each entry's lost low-order part."""
    y = values - comps
    t = sums + y
    comps[:] = (t - sums) - y
    sums[:] = t


def _count_groups(counts):
    """The rows of ``counts`` in a stable sort by count, each count value
    that occurs, and the bounds of its run in that order.  Anything but
    nonnegative integers up to 2**53 is a ValueError."""
    if 0 <= counts.min() <= counts.max() <= _MAX_COUNT:
        small = counts.astype(np.min_scalar_type(int(counts.max())))
        if np.array_equal(small, counts):
            order = np.argsort(small, kind="stable")
            grouped = small[order]
            starts = np.flatnonzero(np.r_[True, grouped[1:] != grouped[:-1]])
            return order, grouped[starts].tolist(), [*starts.tolist(), len(counts)]
    raise ValueError("the count coordinate must hold nonnegative integers")


def _coordinates(indices, dim):
    """``indices`` as a non-empty integer array of coordinates in 0..dim-1."""
    index = np.asarray(indices)
    if (index.ndim != 1 or index.size == 0 or index.dtype.kind not in "iu"
            or index.min() < 0 or index.max() >= dim):
        raise ValueError(f"indices must be a non-empty list of integers in 0..{dim - 1}")
    return index


def assemble_flat_cumulant(acc, ell, coordinates=None):
    """Flattened order-``ell`` cumulant tensor from accumulated moments.

    Each sorted index multiset S is evaluated once through the
    moment-to-cumulant recursion

        kappa(S) = m(S) - sum_B kappa(B) m(S - B),

    where B runs over the proper sub-multisets of S that hold S's first
    position, enumerated as subsets of positions (bit j of the mask keeps
    position j + 1) so that repeated indices count with their multiplicity
    (2**(len(S) - 1) - 1 terms).  The orders k = 1..ell are evaluated in
    turn, each for all of its multisets at once: every mask's terms form one
    row of a (masks, multisets) array, located through the accumulator's
    integer key codes, and the rows are subtracted in mask order.  Each
    multiset therefore sees the same float operations in the same order as
    a one-at-a-time recursion, and the result has the same bits.  Every
    permutation of S reads that one value, so the output is exactly
    symmetric.  ``coordinates`` restricts the tensor to a subset of the
    accumulator's coordinates (in the given order, repeats allowed); by
    default all of them are used.
    """
    ell = int(ell)
    if not 1 <= ell <= acc.order:
        raise ValueError(f"order must be in 1..{acc.order}")
    if coordinates is None:
        coordinates = range(acc.dim)
    coordinates = _coordinates(coordinates, acc.dim)

    if acc.count == 0:
        raise ValueError("no samples accumulated")
    moments = acc.sums / acc.count
    kappa = moments.copy()  # order 1 has no proper sub-multisets
    for k in range(2, ell + 1):
        lo, hi = np.searchsorted(acc._codes, acc._weights[0] * np.array([k, k + 1]))
        digits = acc._digits[lo:hi, :k]
        # block B of each mask: position 0, and position j + 1 when bit j is set
        masks = np.arange(2 ** (k - 1) - 1)[:, None]
        in_block = (((2 * masks + 1) >> np.arange(k)) & 1).astype(bool)
        block = np.searchsorted(acc._codes, acc._sub_codes(digits, in_block))
        rest = np.searchsorted(acc._codes, acc._sub_codes(digits, ~in_block))
        value = moments[lo:hi].copy()
        for term in kappa[block] * moments[rest]:
            value -= term
        kappa[lo:hi] = value

    n = len(coordinates)
    block = n ** (ell - 1)
    # one leading index at a time, every multi-index in row-major order as
    # its sorted key digits, held in the smallest integer type that fits, so
    # the index temporaries stay well below the size of the output
    small = (coordinates + 1).astype(np.min_scalar_type(acc.dim))
    tail = small[np.indices((n,) * (ell - 1)).reshape(ell - 1, block)]
    digits = np.empty((ell, block), dtype=small.dtype)
    data = np.empty(n * block)
    for lead, digit in enumerate(small):
        digits[0] = digit
        digits[1:] = tail
        digits.sort(axis=0)
        codes = acc._weights[0] * ell + sum(w * row for w, row in zip(acc._weights[1:], digits))
        data[lead * block : (lead + 1) * block] = kappa[np.searchsorted(acc._codes, codes)]
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
