"""Cumulant estimation and the analytic tensor construction.

The analytic path is checked against brute-force outer-product sums to
1e-12 (it is an exact linear-algebra identity); the empirical estimators
are checked against known distributions at fixed seeds.
"""

import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poissonize import cli
from poissonize.cumulants import (
    FlatCumulant,
    MomentAccumulator,
    analytic_ica_cumulant,
    assemble_flat_cumulant,
)
from poissonize.distributions import GmmParams, SeededRng, sample_gmm
from poissonize.poissonization import MixtureSource, sample_approx_ica_batch

from _oracles import poisson_moment, raw_moments_to_cumulants


def brute_force_tensor(mixing, source_cumulants, ell):
    """Independent oracle: sum_j c_j * (A_j)^{tensor ell}, flattened
    row-major (first index slowest)."""
    n, m = mixing.shape
    out = np.zeros((n,) * ell)
    for j in range(m):
        col = mixing[:, j]
        block = np.array(source_cumulants[j])
        for _ in range(ell):
            block = np.multiply.outer(block, col)
        out += block
    return out.ravel()


def memoized_flat_cumulant(acc, ell, coordinates=None):
    """Reference oracle for ``assemble_flat_cumulant``: the same recursion
    walked one sorted multiset at a time with Python floats, lower orders
    memoized, read back at every multi-index."""
    moments = dict(zip(acc.keys, (acc.sums / acc.count).tolist()))
    memo = {}

    def cumulant(key):
        if key not in memo:
            head, tail = key[0], key[1:]
            value = moments[key]
            for mask in range(2 ** len(tail) - 1):
                block = (head,) + tuple(t for j, t in enumerate(tail) if mask >> j & 1)
                rest = tuple(t for j, t in enumerate(tail) if not mask >> j & 1)
                value -= cumulant(block) * moments[rest]
            memo[key] = value
        return memo[key]

    coordinates = list(range(acc.dim) if coordinates is None else coordinates)
    data = np.array([
        cumulant(tuple(sorted(coordinates[p] for p in index)))
        for index in itertools.product(range(len(coordinates)), repeat=ell)
    ])
    if ell == 1:
        data += acc.shift[coordinates]
    return data


def poisson_noise_accumulator(dim, order, rows=20_000, seed=0):
    """An accumulator over Poisson counts mixed into ``dim`` coordinates plus
    Gaussian noise, shifted by the first row rather than the mean, so that
    no recursion term vanishes."""
    rng = SeededRng(seed)
    counts = np.column_stack([rng.poisson(r, size=rows) for r in np.linspace(0.5, 2.0, dim + 1)])
    mixing = rng.standard_normal((dim, dim + 1))
    data = counts.astype(float) @ mixing.T + 0.1 * rng.standard_normal((rows, dim))
    acc = MomentAccumulator(dim, order, shift=data[0])
    acc.update(data)
    return acc


def flat_cumulant(samples, ell):
    """Flattened order-``ell`` cumulant of vector samples through the
    streamed path: one accumulator shifted by the sample mean, then
    assembly."""
    acc = MomentAccumulator(samples.shape[1], ell, shift=samples.mean(axis=0))
    acc.update(samples)
    return assemble_flat_cumulant(acc, ell)


class TestRawMomentsToCumulants:
    def test_first_four_orders_gaussian(self):
        # raw moments of N(mu, s^2): mu, mu^2+s^2, mu^3+3 mu s^2, ...
        mu, s2 = Fraction(3, 2), Fraction(5, 4)
        moments = [
            mu,
            mu**2 + s2,
            mu**3 + 3 * mu * s2,
            mu**4 + 6 * mu**2 * s2 + 3 * s2**2,
        ]
        cums = raw_moments_to_cumulants(moments)
        assert cums == [mu, s2, 0, 0]

    @pytest.mark.parametrize("lam", [Fraction(1), Fraction(3, 7)])
    def test_poisson_rational(self, lam):
        moments = [poisson_moment(ell, lam) for ell in range(1, 7)]
        assert raw_moments_to_cumulants(moments) == [lam] * 6

    def test_empty(self):
        assert raw_moments_to_cumulants([]) == []


def streamed_cumulant(samples, ell):
    """Order-``ell`` cumulant of scalar samples through the streaming
    estimator at dimension 1, shifted by the sample mean."""
    x = np.asarray(samples, dtype=float)
    acc = MomentAccumulator(1, ell, shift=[x.mean()])
    acc.update(x[:, None])
    return assemble_flat_cumulant(acc, ell).data[0]


class TestEmpiricalCumulant:
    """The scalar properties of a cumulant estimate, through the
    accumulator at dimension 1."""

    def test_constant_samples_zero_variance(self):
        assert streamed_cumulant(np.full(100, 3.7), 2) == pytest.approx(0.0)

    def test_poisson_third_cumulant(self):
        draws = SeededRng(101).poisson(3.0, size=1_000_000)
        assert streamed_cumulant(draws, 3) == pytest.approx(3.0, rel=0.1)

    def test_gaussian_fourth_cumulant_vanishes(self):
        draws = SeededRng(103).standard_normal(1_000_000)
        assert abs(streamed_cumulant(draws, 4)) < 0.05

    def test_gaussian_high_orders_vanish(self):
        """Orders 3..6 of N(2, 2.25) are zero within four standard errors
        (asymptotic stderr of the order-r cumulant estimate is about
        sqrt(r! sigma^(2r) / N))."""
        sigma = 1.5
        draws = 2.0 + sigma * SeededRng(107).standard_normal(1_000_000)
        for ell in (3, 4, 5, 6):
            se = math.sqrt(math.factorial(ell) * sigma ** (2 * ell) / draws.size)
            assert abs(streamed_cumulant(draws, ell)) < 4 * se

    def test_first_two_orders(self):
        draws = np.array([1.0, 2.0, 3.0, 4.0])
        assert streamed_cumulant(draws, 1) == pytest.approx(2.5)
        assert streamed_cumulant(draws, 2) == pytest.approx(np.var(draws))

    def test_shift_invariance_above_order_one(self):
        rng = SeededRng(5)
        draws = rng.poisson(2.0, size=100_000).astype(float)
        for ell in (2, 3, 4):
            a = streamed_cumulant(draws, ell)
            b = streamed_cumulant(draws + 1000.0, ell)
            assert a == pytest.approx(b, rel=1e-6, abs=1e-6)

    def test_additivity_of_independent_streams(self):
        rng = SeededRng(201)
        x = rng.poisson(2.0, size=500_000).astype(float)
        y = rng.uniform(0.0, 1.0, size=500_000)
        for ell in (3, 4):
            lhs = streamed_cumulant(x + y, ell)
            rhs = streamed_cumulant(x, ell) + streamed_cumulant(y, ell)
            assert lhs == pytest.approx(rhs, abs=0.05)

    def test_homogeneity(self):
        rng = SeededRng(203)
        x = rng.poisson(1.0, size=500_000).astype(float)
        for ell in (2, 3, 4):
            assert streamed_cumulant(2.0 * x, ell) == pytest.approx(
                2.0**ell * streamed_cumulant(x, ell), rel=0.05
            )

    def test_order_out_of_range(self):
        with pytest.raises(ValueError):
            streamed_cumulant(np.ones(100), 9)


# row tiles of 2**19 // monomials rows: 4369 at (7, 5) and 4161 at (5, 7),
# or in count mode 6241 and 7489 per count value, so the tile boundaries fall
# inside chunks
TILED_CASES = [
    (7, 5, 20_000, (0, 5_000, 5_000, 18_001, 20_000)),
    (5, 7, 19_000, (0, 7_000, 16_000, 19_000)),
    # the order cap on one coordinate, and order 1 (only the constant on the
    # low side of the product), with empty chunks in between
    (1, 8, 1_000, (0, 0, 400, 1_000, 1_000)),
    (3, 1, 1_000, (0, 300, 300, 1_000)),
]


# sha256 hex digests of the sums, and of the assembled orders 1..order in
# turn, for rows without a count coordinate fed in chunks that the row tiles
# (26214, 104857, 7489 and 4369 rows) end inside, on one OpenBLAS thread.
# Any change to the accumulator's float operations or their order moves
# them.  They are the bits of one OpenBLAS CPU kernel (Haswell, OpenBLAS
# 0.3.31); another BLAS or kernel may move last bits and needs them
# recomputed at an unchanged accumulator.
_BLAS = cli._openblas_thread_controls()
BIT_PINS = [
    (3, 5, (0, 7_000, 40_000, 60_000),
     "2874b05523bc8ba89dc9ec6ff3d154a042cdf996f8c8902d88c65aa5ec9c91f0",
     "58446e0d6c987a5d46c0d57911ed67e4c676e806a54b55e33214a52a5770321b"),
    (1, 8, (0, 7_000, 120_000, 230_000),
     "6028e74359d4c5e627476c91453c27672c7d78e69286360859370c0e45cb2953",
     "165d173d2077e919b7266b7bd7b5daca61ebf8b47e5a826672e2fb4f9bb211dc"),
    (4, 7, (0, 7_000, 19_000, 30_000),
     "6b9860764b24b20256014896dde498c122efc7e678226a82f1b52d56519f1bb0",
     "003e10cef44697c6d26215e329f5cde6c644e0ba220b9b3617218ff0d3c3754f"),
    (7, 5, (0, 7_000, 14_000, 20_000),
     "98f34fb546e34a425e69b64bbb17a521a0996112cbad04bffaa11043c78068ea",
     "450e39ed762357a6376583bb9cb964f295dcad9dddb5eb80a1bdd9c7e6df46f4"),
]


def poisson_rows(rng, rows, dim, count_last):
    """Standard normal rows with one Poisson(1.5) column, first or last."""
    data = rng.standard_normal((rows, dim))
    data[:, -1 if count_last else 0] = rng.poisson(1.5, size=rows)
    return data


def check_independent_of_chunking(seed, dim, rows, cuts, count_last):
    rng = SeededRng(seed)
    data = poisson_rows(rng, rows, dim, count_last)
    shift = data.mean(axis=0)
    whole = MomentAccumulator(dim, 5, shift=shift, count_last=count_last)
    whole.update(data)
    pieces = MomentAccumulator(dim, 5, shift=shift, count_last=count_last)
    bounds = [0, *sorted(int(c * rows) for c in cuts), rows]
    for start, stop in zip(bounds[:-1], bounds[1:]):
        pieces.update(data[start:stop])
    assert pieces.count == whole.count == rows
    z = np.abs(data - shift)
    scale = {ell: float((z**ell).mean(axis=0).max()) for ell in range(1, 6)}
    gaps = np.abs(whole.sums / whole.count - pieces.sums / pieces.count)
    for key, gap in zip(whole.keys, gaps):
        assert gap <= 1e-12 * scale[len(key)]
    for ell in (3, 4, 5):
        gap = np.abs(assemble_flat_cumulant(whole, ell).data
                     - assemble_flat_cumulant(pieces, ell).data).max()
        assert gap <= 1e-12 * scale[ell]


def check_tiled_sums(dim, order, rows, bounds, count_last):
    rng = SeededRng(dim * 10 + order)
    data = poisson_rows(rng, rows, dim, count_last)
    shift = data[:1000].mean(axis=0)
    acc = MomentAccumulator(dim, order, shift=shift, count_last=count_last)
    for start, stop in zip(bounds[:-1], bounds[1:]):
        acc.update(data[start:stop])
    assert acc.count == rows
    z = data - shift
    for key, total in zip(acc.keys, acc.sums):
        products = z[:, key[0]].copy()
        for i in key[1:]:
            products *= z[:, i]
        want = math.fsum(products.tolist())
        scale = np.abs(products).sum()
        assert abs(total - want) <= 1e-12 * scale


def moments(acc):
    """The accumulated means, read by key."""
    return dict(zip(acc.keys, acc.sums / acc.count))


class TestMomentAccumulator:
    def test_moment_matches_direct_mean(self):
        rng = SeededRng(7)
        data = rng.standard_normal((1000, 3))
        acc = MomentAccumulator(3, 3)
        acc.update(data)
        want = (data[:, 0] * data[:, 1] ** 2).mean()
        assert moments(acc)[(0, 1, 1)] == pytest.approx(want, rel=1e-12, abs=0)

    def test_chunking_is_exact(self):
        rng = SeededRng(9)
        data = rng.standard_normal((4096, 2))
        whole = MomentAccumulator(2, 4)
        whole.update(data)
        pieces = MomentAccumulator(2, 4)
        for start in range(0, 4096, 100):
            pieces.update(data[start : start + 100])
        want = moments(whole)
        for key, got in moments(pieces).items():
            assert got == pytest.approx(want[key], rel=1e-13, abs=0)

    def test_empty_chunk_is_noop(self):
        acc = MomentAccumulator(2, 2)
        acc.update(np.zeros((0, 2)))
        assert acc.count == 0

    @given(
        seed=st.integers(0, 2**16),
        dim=st.integers(min_value=1, max_value=3),
        rows=st.integers(min_value=2, max_value=300),
        cuts=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_result_independent_of_chunking(self, seed, dim, rows, cuts):
        """The same rows split into any chunks, empty ones included, give
        the same moments and order-3..5 cumulants, within 1e-12 of the
        largest coordinate's ell-th absolute central moment."""
        check_independent_of_chunking(seed, dim, rows, cuts, count_last=False)

    @given(
        seed=st.integers(0, 2**16),
        dim=st.integers(min_value=1, max_value=3),
        rows=st.integers(min_value=2, max_value=300),
        cuts=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_count_mode_independent_of_chunking(self, seed, dim, rows, cuts):
        """The same check with the Poisson column last, in count mode."""
        check_independent_of_chunking(seed, dim, rows, cuts, count_last=True)

    @pytest.mark.parametrize("dim, order, rows, bounds", TILED_CASES)
    def test_tiled_sums_match_brute_force(self, dim, order, rows, bounds):
        """Every monomial sum, fed in chunks that split row tiles, is within
        1e-12 of its ``math.fsum`` over the per-row products, relative to the
        sum of their absolute values."""
        check_tiled_sums(dim, order, rows, bounds, count_last=False)

    @pytest.mark.parametrize("dim, order, rows, bounds", TILED_CASES)
    def test_count_mode_tiled_sums_match_brute_force(self, dim, order, rows, bounds):
        """The same check with the Poisson column last, in count mode: the
        tiles of each count value split across chunks too."""
        check_tiled_sums(dim, order, rows, bounds, count_last=True)

    @pytest.mark.skipif(not _BLAS, reason="no OpenBLAS thread controls found")
    @pytest.mark.parametrize("dim, order, bounds, sums_digest, assembled_digest", BIT_PINS)
    def test_generic_sums_keep_their_bits(self, dim, order, bounds, sums_digest,
                                          assembled_digest):
        """Without a count coordinate, the sums and every assembled order
        have the pinned bits."""
        rng = SeededRng(dim * 10 + order)
        data = poisson_rows(rng, bounds[-1], dim, count_last=False)
        acc = MomentAccumulator(dim, order, shift=data[:1000].mean(axis=0))
        with cli._one_blas_thread(_BLAS):
            for start, stop in zip(bounds[:-1], bounds[1:]):
                acc.update(data[start:stop])
        assembled = hashlib.sha256()
        for ell in range(1, order + 1):
            assembled.update(assemble_flat_cumulant(acc, ell).data.tobytes())
        assert hashlib.sha256(acc.sums.tobytes()).hexdigest() == sums_digest
        assert assembled.hexdigest() == assembled_digest

    @pytest.mark.parametrize("indices", [(3,), (-1,), (0.5,), ()])
    def test_bad_index_rejected(self, indices):
        """A coordinate out of range or not an integer, or none at all, is
        refused when the sums are read back, never looked up as another key
        or truncated to one."""
        acc = MomentAccumulator(3, 2)
        acc.update(np.eye(3))
        with pytest.raises(ValueError, match="non-empty list of integers"):
            assemble_flat_cumulant(acc, 1, coordinates=indices)



def lifted_rows(n, black_box, rows=30_000, seed=5):
    """Poissonized rows (x, R) of a three-component mixture in R^n, drawn
    directly from the GmmParams or through the black-box MixtureSource."""
    rng = SeededRng(seed)
    gmm = GmmParams(rng.standard_normal((n, 3)), np.array([0.2, 0.3, 0.5]),
                    0.05 * np.eye(n))
    source = MixtureSource(draw=lambda count, r: sample_gmm(gmm, count, r),
                           covariance=gmm.covariance) if black_box else gmm
    return sample_approx_ica_batch(source, 3.0, 20.0, rng, rows)


def both_modes(data, order, chunk=7_000):
    """The generic and the count-mode accumulator over the same chunks."""
    shift = data.mean(axis=0)
    accs = [MomentAccumulator(data.shape[1], order, shift=shift, count_last=mode)
            for mode in (False, True)]
    for start in range(0, len(data), chunk):
        for acc in accs:
            acc.update(data[start : start + chunk])
    return accs


class TestCountMode:
    @pytest.mark.parametrize("black_box", [False, True])
    @pytest.mark.parametrize("n, order", [(4, 7), (6, 5), (1, 5), (1, 7)])
    def test_matches_generic_on_lifted_rows(self, n, order, black_box):
        """On lifted rows from either source, n = 1 included, every sum is
        within 1e-12 of the generic path's, relative to the sum of the
        products' absolute values."""
        data = lifted_rows(n, black_box)
        generic, counted = both_modes(data, order)
        assert counted.count == generic.count == len(data)
        scale = MomentAccumulator(n + 1, order)
        scale.update(np.abs(data - data.mean(axis=0)))
        assert np.all(np.abs(counted.sums - generic.sums) <= 1e-12 * scale.sums)

    def test_weight_order_on_the_unlifted_coordinates(self):
        """The order-3 cumulant of the unlifted coordinates agrees with the
        generic path's."""
        generic, counted = both_modes(lifted_rows(4, False), 7)
        want = assemble_flat_cumulant(generic, 3, coordinates=range(4)).data
        got = assemble_flat_cumulant(counted, 3, coordinates=range(4)).data
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())

    def test_rows_per_count(self):
        data = lifted_rows(2, False)
        generic, counted = both_modes(data, 3)
        values, rows = np.unique(data[:, -1], return_counts=True)
        assert counted.rows_per_count() == dict(zip(values.astype(int).tolist(), rows.tolist()))
        with pytest.raises(ValueError):
            generic.rows_per_count()

    @pytest.mark.parametrize("bad", [1.5, -1.0, np.nan, np.inf])
    def test_bad_count_rejected_before_any_sum_moves(self, bad):
        data = lifted_rows(2, False, rows=100)
        acc = MomentAccumulator(3, 4, shift=data.mean(axis=0), count_last=True)
        acc.update(data[:50])
        sums, count = acc.sums.copy(), acc.count
        broken = data[50:].copy()
        broken[7, -1] = bad
        with pytest.raises(ValueError, match="nonnegative integers"):
            acc.update(broken)
        assert acc.count == count
        assert np.array_equal(acc.sums, sums)
        assert acc.rows_per_count() == dict(
            zip(*[v.tolist() for v in np.unique(data[:50, -1].astype(int), return_counts=True)]))


class TestJointCumulant:
    def test_diagonal_reduces_to_univariate(self):
        rng = SeededRng(13)
        x = rng.poisson(2.0, size=200_000).astype(float)
        acc = MomentAccumulator(1, 4, shift=np.array([x.mean()]))
        acc.update(x.reshape(-1, 1))
        jc = assemble_flat_cumulant(acc, 3).data.reshape(1, 1, 1)[0, 0, 0]
        z = x - x.mean()
        want = raw_moments_to_cumulants([float(np.mean(z**r)) for r in range(1, 4)])
        assert jc == pytest.approx(want[2], rel=1e-10)

    def test_covariance_case(self):
        rng = SeededRng(15)
        data = rng.standard_normal((100_000, 2))
        data[:, 1] = 0.5 * data[:, 0] + data[:, 1]
        acc = MomentAccumulator(2, 2, shift=data.mean(axis=0))
        acc.update(data)
        want = np.cov(data.T, bias=True)[0, 1]
        cov = assemble_flat_cumulant(acc, 2).data.reshape(2, 2)
        assert cov[0, 1] == pytest.approx(want, rel=1e-6)


class TestFlatCumulant:
    def test_matrix_view_shape(self):
        fc = FlatCumulant(4, 3, np.zeros(81))
        assert fc.as_matrix().shape == (9, 9)

    def test_matrix_view_rejects_odd_order(self):
        with pytest.raises(ValueError):
            FlatCumulant(3, 2, np.zeros(8)).as_matrix()

    def test_size_validation(self):
        with pytest.raises(ValueError):
            FlatCumulant(2, 3, np.zeros(8))


class TestEmpiricalCumulantFlat:
    def test_independent_gaussian_coordinates_vanish(self):
        rng = SeededRng(301)
        data = rng.standard_normal((1_000_000, 2))
        fc = flat_cumulant(data, 4)
        assert np.abs(fc.data).max() < 0.05

    def test_single_poisson_direction(self):
        rng = SeededRng(303)
        s = rng.poisson(2.0, size=400_000).astype(float)
        data = np.zeros((s.size, 2))
        data[:, 0] = s
        fc = flat_cumulant(data, 4)
        assert fc.data[0] == pytest.approx(2.0, rel=0.1)
        off_diag = fc.data.copy()
        off_diag[0] = 0.0
        assert np.abs(off_diag).max() < 0.05

    def test_matches_analytic_on_ica_model(self):
        rng = SeededRng(303)
        mixing = np.array([[1.0, 0.2], [-0.5, 1.0], [0.3, 0.7]])
        rates = np.array([1.0, 2.0])
        s = np.column_stack([rng.poisson(r, size=1_000_000) for r in rates])
        data = s.astype(float) @ mixing.T
        fc = flat_cumulant(data, 4)
        want = analytic_ica_cumulant(mixing, rates, 4)
        assert np.abs(fc.data - want.data).max() < 0.1

    def test_symmetry_under_index_permutation(self):
        rng = SeededRng(307)
        data = rng.standard_normal((5000, 3)) ** 3
        fc = flat_cumulant(data, 4)
        tensor = fc.data.reshape((3,) * 4)
        for idx in [(0, 1, 2, 2), (1, 0, 0, 2), (2, 2, 1, 0)]:
            vals = {tensor[p] for p in itertools.permutations(idx)}
            assert max(vals) - min(vals) < 1e-15

    def test_odd_order_rejected(self):
        """An odd order has no square matrix view."""
        with pytest.raises(ValueError):
            flat_cumulant(np.zeros((10, 2)), 3).as_matrix()

    def test_order_eight_rejected(self):
        """Order 8 is above what an order-7 accumulator holds."""
        acc = MomentAccumulator(2, 7)
        acc.update(np.zeros((10, 2)))
        with pytest.raises(ValueError):
            assemble_flat_cumulant(acc, 8)


class TestAssembleFlatCumulant:
    def test_coordinate_subset(self):
        """Restricting to a coordinate subset, also in decreasing order,
        equals estimating on the sliced samples directly, and the result is
        exactly symmetric."""
        rng = SeededRng(309)
        data = rng.standard_normal((20_000, 3))
        data[:, 2] = rng.poisson(1.0, size=20_000)
        acc = MomentAccumulator(3, 4, shift=data.mean(axis=0))
        acc.update(data)
        sub = assemble_flat_cumulant(acc, 4, coordinates=[0, 2])
        direct = flat_cumulant(data[:, [0, 2]], 4)
        np.testing.assert_allclose(sub.data, direct.data, atol=1e-10)
        for ell in (3, 4):
            sub = assemble_flat_cumulant(acc, ell, coordinates=[2, 0])
            direct = flat_cumulant(data[:, [2, 0]], ell)
            np.testing.assert_allclose(sub.data, direct.data, atol=1e-10)
            tensor = sub.data.reshape((2,) * ell)
            for axes in itertools.permutations(range(ell)):
                assert np.array_equal(tensor, tensor.transpose(axes))

    def test_high_orders_match_projected_scalar_cumulants(self):
        """At orders 5-7, the orders a d=6 run assembles, contracting the
        tensor with u^{tensor ell} gives the scalar cumulant of u.z, on a
        Poisson mixture whose multisets repeat indices; the order-7 tensor is
        exactly symmetric."""
        rng = SeededRng(317)
        mixing = np.array([[1.0, 0.3, -0.4, 0.2],
                           [-0.5, 1.0, 0.6, 0.1],
                           [0.2, -0.3, 1.0, 0.8]])
        counts = np.column_stack(
            [rng.poisson(r, size=20_000) for r in (0.5, 1.0, 1.5, 2.0)]
        )
        data = counts.astype(float) @ mixing.T + 0.1 * rng.standard_normal((20_000, 3))
        acc = MomentAccumulator(3, 7, shift=data.mean(axis=0))
        acc.update(data)
        u = np.array([0.6, -0.48, 0.64])
        z = (data - data.mean(axis=0)) @ u
        want = raw_moments_to_cumulants([float(np.mean(z**r)) for r in range(1, 8)])
        for ell in (5, 6, 7):
            tensor = assemble_flat_cumulant(acc, ell).data.reshape((3,) * ell)
            projected = tensor
            for _ in range(ell):
                projected = projected @ u
            assert abs(projected - want[ell - 1]) < 1e-10 * np.mean(np.abs(z) ** ell)
        assert np.array_equal(tensor, tensor.transpose(3, 0, 6, 1, 5, 2, 4))

    @pytest.mark.parametrize("dim, order", [(7, 5), (5, 7), (2, 5), (1, 8)])
    def test_same_bits_as_memoized_recursion(self, dim, order):
        """Every order up to the accumulator's is equal, bit for bit, to the
        one-multiset-at-a-time recursion: the benchmark shapes (7, 5) and
        (5, 7), the warm-up shape (2, 5) and the order cap on one
        coordinate."""
        acc = poisson_noise_accumulator(dim, order, seed=dim * 10 + order)
        for ell in range(1, order + 1):
            got = assemble_flat_cumulant(acc, ell).data
            assert np.array_equal(got, memoized_flat_cumulant(acc, ell))

    @pytest.mark.parametrize("coordinates", [[2, 0], [0, 0], [1], [3, 1, 2]])
    def test_same_bits_on_coordinates(self, coordinates):
        """Decreasing, repeated and partial coordinate lists read the same
        bits as the memoized recursion."""
        acc = poisson_noise_accumulator(4, 5, seed=45)
        for ell in range(1, 6):
            got = assemble_flat_cumulant(acc, ell, coordinates=coordinates).data
            assert np.array_equal(got, memoized_flat_cumulant(acc, ell, coordinates))

    @pytest.mark.parametrize("coordinates", [[0.7], [[0, 1]]])
    def test_non_integer_coordinates_rejected(self, coordinates):
        """A coordinate that is not an integer is refused, never truncated
        to another coordinate (out-of-range ones are tested with the
        flattening convention)."""
        acc = MomentAccumulator(3, 2)
        acc.update(np.eye(3))
        with pytest.raises(ValueError):
            assemble_flat_cumulant(acc, 2, coordinates=coordinates)

    def test_order_one_restores_shift(self):
        data = np.array([[1.0, 10.0], [3.0, 30.0]])
        acc = MomentAccumulator(2, 2, shift=data.mean(axis=0))
        acc.update(data)
        fc = assemble_flat_cumulant(acc, 1)
        np.testing.assert_allclose(fc.data, [2.0, 20.0])


class TestAnalyticIcaCumulant:
    def test_identity_mixing_third_order(self):
        fc = analytic_ica_cumulant(np.eye(2), np.array([5.0, 7.0]), 3)
        assert set(np.flatnonzero(fc.data)) == {0, 7}  # (0,0,0) and (1,1,1)
        tensor = fc.data.reshape(2, 2, 2)
        assert tensor[0, 0, 0] == 5.0
        assert tensor[1, 1, 1] == 7.0

    def test_matches_brute_force_small(self):
        rng = SeededRng(311)
        mixing = rng.standard_normal((3, 4))
        cums = rng.uniform(0.5, 2.0, size=4)
        fc = analytic_ica_cumulant(mixing, cums, 4)
        want = brute_force_tensor(mixing, cums, 4)
        np.testing.assert_allclose(fc.data, want, atol=1e-12)

    @pytest.mark.parametrize("n,m,ell", [(2, 2, 3), (3, 4, 4), (4, 6, 3), (4, 5, 4)])
    def test_matches_brute_force_shapes(self, n, m, ell):
        rng = SeededRng(313 + n + m + ell)
        mixing = rng.standard_normal((n, m))
        cums = rng.uniform(-2.0, 2.0, size=m)
        fc = analytic_ica_cumulant(mixing, cums, ell)
        np.testing.assert_allclose(
            fc.data, brute_force_tensor(mixing, cums, ell), atol=1e-12
        )

    def test_homogeneity_exact(self):
        mixing = np.array([[1.0, 0.5], [0.25, -1.0]])
        cums = np.array([1.0, 2.0])
        a = analytic_ica_cumulant(2.0 * mixing, cums, 3)
        b = analytic_ica_cumulant(mixing, cums, 3)
        np.testing.assert_allclose(a.data, 8.0 * b.data, atol=1e-12)

    def test_order_below_three_rejected(self):
        with pytest.raises(ValueError):
            analytic_ica_cumulant(np.eye(2), np.ones(2), 2)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            analytic_ica_cumulant(np.eye(2), np.ones(3), 3)
