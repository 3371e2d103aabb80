"""Cumulant estimation and the analytic tensor construction.

The analytic path is checked against brute-force outer-product sums to
1e-12 (it is an exact linear-algebra identity); the empirical estimators
are checked against known distributions at fixed seeds.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from poissonize import (
    FlatCumulant,
    MomentAccumulator,
    SeededRng,
    analytic_ica_cumulant,
    assemble_flat_cumulant,
    empirical_cumulant,
    joint_cumulant,
    poisson_moment,
    raw_moments_to_cumulants,
)
from poissonize.cumulants import set_partitions


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


class TestEmpiricalCumulant:
    def test_constant_samples_zero_variance(self):
        assert empirical_cumulant(np.full(100, 3.7), 2) == pytest.approx(0.0)

    def test_poisson_third_cumulant(self):
        draws = SeededRng(101).poisson(3.0, size=1_000_000)
        assert empirical_cumulant(draws, 3) == pytest.approx(3.0, rel=0.1)

    def test_gaussian_fourth_cumulant_vanishes(self):
        draws = SeededRng(103).standard_normal(1_000_000)
        assert abs(empirical_cumulant(draws, 4)) < 0.05

    def test_gaussian_high_orders_vanish(self):
        """Orders 3..6 of N(2, 2.25) are zero within four standard errors
        (asymptotic stderr of the order-r cumulant estimate is about
        sqrt(r! sigma^(2r) / N))."""
        sigma = 1.5
        draws = 2.0 + sigma * SeededRng(107).standard_normal(1_000_000)
        for ell in (3, 4, 5, 6):
            se = math.sqrt(math.factorial(ell) * sigma ** (2 * ell) / draws.size)
            assert abs(empirical_cumulant(draws, ell)) < 4 * se

    def test_first_two_orders(self):
        draws = np.array([1.0, 2.0, 3.0, 4.0])
        assert empirical_cumulant(draws, 1) == pytest.approx(2.5)
        assert empirical_cumulant(draws, 2) == pytest.approx(np.var(draws))

    def test_shift_invariance_above_order_one(self):
        rng = SeededRng(5)
        draws = rng.poisson(2.0, size=100_000).astype(float)
        for ell in (2, 3, 4):
            a = empirical_cumulant(draws, ell)
            b = empirical_cumulant(draws + 1000.0, ell)
            assert a == pytest.approx(b, rel=1e-6, abs=1e-6)

    def test_additivity_of_independent_streams(self):
        rng = SeededRng(201)
        x = rng.poisson(2.0, size=500_000).astype(float)
        y = rng.uniform(0.0, 1.0, size=500_000)
        for ell in (3, 4):
            lhs = empirical_cumulant(x + y, ell)
            rhs = empirical_cumulant(x, ell) + empirical_cumulant(y, ell)
            assert lhs == pytest.approx(rhs, abs=0.05)

    def test_homogeneity(self):
        rng = SeededRng(203)
        x = rng.poisson(1.0, size=500_000).astype(float)
        for ell in (2, 3, 4):
            assert empirical_cumulant(2.0 * x, ell) == pytest.approx(
                2.0**ell * empirical_cumulant(x, ell), rel=0.05
            )

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            empirical_cumulant(np.ones(3), 3)

    def test_order_out_of_range(self):
        with pytest.raises(ValueError):
            empirical_cumulant(np.ones(100), 7)


class TestSetPartitions:
    @pytest.mark.parametrize("k,bell", [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52)])
    def test_bell_counts(self, k, bell):
        assert len(set_partitions(k)) == bell

    def test_blocks_partition_the_set(self):
        for part in set_partitions(4):
            flat = sorted(i for block in part for i in block)
            assert flat == [0, 1, 2, 3]

    def test_partitions_distinct(self):
        parts = set_partitions(4)
        canon = {tuple(sorted(tuple(sorted(b)) for b in p)) for p in parts}
        assert len(canon) == len(parts)


class TestMomentAccumulator:
    def test_moment_matches_direct_mean(self):
        rng = SeededRng(7)
        data = rng.standard_normal((1000, 3))
        acc = MomentAccumulator(3, 3)
        acc.update(data)
        want = (data[:, 0] * data[:, 1] ** 2).mean()
        assert acc.moment((0, 1, 1)) == pytest.approx(want, rel=1e-12)

    def test_index_order_irrelevant(self):
        acc = MomentAccumulator(2, 2)
        acc.update(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert acc.moment((0, 1)) == acc.moment((1, 0))

    def test_chunking_is_exact(self):
        rng = SeededRng(9)
        data = rng.standard_normal((4096, 2))
        whole = MomentAccumulator(2, 4)
        whole.update(data)
        pieces = MomentAccumulator(2, 4)
        for start in range(0, 4096, 100):
            pieces.update(data[start : start + 100])
        for key in whole.keys:
            assert whole.moment(key) == pytest.approx(pieces.moment(key), rel=1e-13)

    def test_merge_order_independent(self):
        rng = SeededRng(11)
        blocks = [rng.standard_normal((500, 2)) for _ in range(4)]

        def accumulate(order):
            merged = MomentAccumulator(2, 4)
            for i in order:
                part = MomentAccumulator(2, 4)
                part.update(blocks[i])
                merged.merge(part)
            return merged

        a = accumulate([0, 1, 2, 3])
        b = accumulate([3, 1, 0, 2])
        for key in a.keys:
            assert a.moment(key) == pytest.approx(b.moment(key), rel=1e-12, abs=1e-12)

    def test_merge_layout_mismatch_rejected(self):
        a = MomentAccumulator(2, 3)
        with pytest.raises(ValueError):
            a.merge(MomentAccumulator(3, 3))

    def test_empty_chunk_is_noop(self):
        acc = MomentAccumulator(2, 2)
        acc.update(np.zeros((0, 2)))
        assert acc.count == 0


class TestJointCumulant:
    def test_diagonal_reduces_to_univariate(self):
        rng = SeededRng(13)
        x = rng.poisson(2.0, size=200_000).astype(float)
        acc = MomentAccumulator(1, 4, shift=np.array([x.mean()]))
        acc.update(x.reshape(-1, 1))
        jc = joint_cumulant(acc.moment, (0, 0, 0))
        assert jc == pytest.approx(empirical_cumulant(x, 3), rel=1e-10)

    def test_covariance_case(self):
        rng = SeededRng(15)
        data = rng.standard_normal((100_000, 2))
        data[:, 1] = 0.5 * data[:, 0] + data[:, 1]
        acc = MomentAccumulator(2, 2, shift=data.mean(axis=0))
        acc.update(data)
        want = np.cov(data.T, bias=True)[0, 1]
        assert joint_cumulant(acc.moment, (0, 1)) == pytest.approx(want, rel=1e-6)


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
