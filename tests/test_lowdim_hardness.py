"""Kernel interpolation, close mixture pairs, and the ICA embedding."""

import math

import numpy as np
import pytest
from scipy.special import ndtr

from poissonize.distributions import GmmParams, SeededRng, certified_tail_threshold
from poissonize.lowdim_hardness import (
    DegeneratePairError,
    KernelConditioningError,
    MixturePair,
    PointSet,
    SignedMixture,
    _mass_outside,
    build_close_pair,
    compute_fill,
    embed_as_ica,
    equispaced_interleaved,
    interpolate,
    kernel,
    l1_distance,
    pair_to_json,
    pigeonhole_pair,
    random_points,
    target_f,
)
from poissonize.poissonization import IcaModel, sample_approx_ica_batch


def unit_gaussian(center):
    center = np.atleast_1d(np.asarray(center, dtype=float))
    return GmmParams(center[:, None], np.array([1.0]), np.eye(center.size))


def equispaced(k):
    return ((2.0 * np.arange(1, k + 1) - 1.0) / (2 * k))[:, None]


class TestPointSet:
    def test_cube_membership_enforced(self):
        with pytest.raises(ValueError):
            PointSet(np.array([[1.5]]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            PointSet(np.zeros((0, 1)))

    def test_negative_fill_rejected(self):
        with pytest.raises(ValueError):
            PointSet(np.array([[0.5]]), fill=-0.1)

    def test_size_and_dimension(self):
        ps = PointSet(np.zeros((4, 2)))
        assert ps.size == 4
        assert ps.dimension == 2


class TestComputeFill:
    def test_single_midpoint(self):
        h = compute_fill(PointSet(np.array([[0.5]])), 512)
        assert 0.5 <= h <= 0.51

    def test_equispaced_design(self):
        h = compute_fill(PointSet(equispaced(5)), 512)
        assert 0.1 <= h <= 0.11

    def test_adding_a_point_never_increases_fill(self):
        base = PointSet(equispaced(5))
        h_base = compute_fill(base, 512)
        extended = PointSet(np.vstack([equispaced(5), [[0.0]]]))
        assert compute_fill(extended, 512) <= h_base

    def test_coarse_grid_rejected(self):
        with pytest.raises(ValueError):
            compute_fill(PointSet(np.array([[0.5]])), 9)


class TestTargetF:
    def test_midpoint_value(self):
        expected = float(ndtr(0.5) - ndtr(-0.5))
        assert target_f(np.array([0.5])) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.38292, abs=1e-5)

    def test_symmetry_about_midpoint(self):
        t = 0.37
        left = target_f(np.array([0.5 - t]))
        right = target_f(np.array([0.5 + t]))
        assert left == pytest.approx(right, rel=1e-14)

    def test_positive_everywhere(self):
        rng = SeededRng(31)
        pts = rng.standard_normal((100, 2)) * 3.0
        assert np.all(target_f(pts) > 0.0)

    def test_product_structure(self):
        x = np.array([0.2, 0.7])
        split = target_f(np.array([0.2])) * target_f(np.array([0.7]))
        assert target_f(x) == pytest.approx(float(split), rel=1e-14)

    def test_dimension_check(self):
        with pytest.raises(ValueError):
            target_f(np.array([0.5, 0.5]), n=3)


class TestInterpolate:
    def test_single_point_coefficient(self):
        sm = interpolate(PointSet(np.array([[0.3]])))
        expected = float(target_f(np.array([0.3]))) * math.sqrt(2.0 * math.pi)
        assert sm.coefficients[0] == pytest.approx(expected, rel=1e-12)

    def test_nodes_reproduced(self):
        for pts in (equispaced(20), random_points(9, 2, SeededRng(33))):
            sm = interpolate(PointSet(pts))
            values = sm.evaluate(pts)
            np.testing.assert_allclose(values, target_f(pts), atol=1e-8)

    def test_sup_gap_shrinks_with_more_nodes(self):
        """Twenty equispaced nodes push the off-node gap to the rounding
        floor; five leave a visible (still tiny) gap."""
        grid = np.linspace(0.0, 1.0, 2001)[:, None]

        def gap(k):
            sm = interpolate(PointSet(equispaced(k)))
            return float(np.abs(sm.evaluate(grid) - target_f(grid)).max())

        assert gap(20) < 1e-3 * gap(5)

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(ValueError):
            interpolate(PointSet(np.array([[0.5], [0.5]])))

    def test_condition_recorded(self):
        sm = interpolate(PointSet(equispaced(10)))
        assert sm.kernel_condition >= 1.0
        assert sm.residual >= 0.0

    def test_evaluate_matches_kernel_sum(self):
        sm = interpolate(PointSet(equispaced(4)))
        x = np.array([[0.37]])
        manual = (kernel(x, sm.centers) @ sm.coefficients).item()
        assert sm.evaluate(x)[0] == pytest.approx(manual, rel=1e-14)

    def test_signed_mixture_shape_check(self):
        with pytest.raises(ValueError):
            SignedMixture(np.zeros((3, 1)), np.zeros(2))


class TestBuildClosePair:
    def test_overlapping_sets_rejected(self):
        ps = PointSet(equispaced(5))
        with pytest.raises(ValueError):
            build_close_pair(ps, ps)

    def test_interleaved_twenty_points(self):
        """h = 1/40 interleaved designs: mixtures 2e-9 apart in L1 while
        every cross-center distance stays at h."""
        x_set, y_set = equispaced_interleaved(0.025)
        pair = build_close_pair(x_set, y_set)
        assert pair.l1_distance < 1e-6
        assert pair.min_center_distance >= 0.01
        assert pair.alpha >= 0.99
        assert pair.beta >= 0.99
        assert abs(1.0 - pair.beta / pair.alpha) < 1e-6

    def test_weights_normalized(self):
        x_set, y_set = equispaced_interleaved(0.1)
        pair = build_close_pair(x_set, y_set)
        assert pair.p.weights.sum() == pytest.approx(1.0, abs=1e-10)
        assert pair.q.weights.sum() == pytest.approx(1.0, abs=1e-10)
        assert np.all(pair.p.weights > 0)
        assert np.all(pair.q.weights > 0)

    def test_decay_under_fill_halving(self):
        """Each halving of h cuts the L1 gap by well over 10x until the
        quadrature floor."""
        gaps = []
        for h in (0.1, 0.05, 0.025):
            pair = build_close_pair(*equispaced_interleaved(h))
            gaps.append(pair.l1_distance)
        assert gaps[1] < gaps[0] / 10.0
        assert gaps[2] < gaps[1] / 10.0

    def test_two_dimensions_are_softer(self):
        """Matched point counts, 5 seeds: the 2D gap exceeds the 1D gap
        every time (the construction weakens exponentially in k^(1/n))."""
        for seed in range(200, 205):
            rng = SeededRng(seed)
            one = build_close_pair(
                PointSet(random_points(8, 1, rng)),
                PointSet(random_points(8, 1, rng)),
                rng=rng,
                l1_samples=50_000,
            )
            two = build_close_pair(
                PointSet(random_points(8, 2, rng)),
                PointSet(random_points(8, 2, rng)),
                rng=rng,
                l1_samples=50_000,
            )
            assert two.l1_distance > one.l1_distance

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            build_close_pair(
                PointSet(np.array([[0.2]])), PointSet(np.array([[0.5, 0.5]]))
            )

    def test_degenerate_error_is_runtime_error(self):
        assert issubclass(DegeneratePairError, RuntimeError)

    def test_conditioning_error_carries_values(self):
        err = KernelConditioningError(1e-3, 1e-9)
        assert err.residual == 1e-3
        assert err.target == 1e-9


class TestMixturePair:
    def test_shared_center_rejected(self):
        p = unit_gaussian([0.5])
        with pytest.raises(ValueError):
            MixturePair(p=p, q=p, l1_distance=0.0, min_center_distance=1.0)

    def test_nonpositive_center_distance_rejected(self):
        with pytest.raises(ValueError):
            MixturePair(
                p=unit_gaussian([0.2]),
                q=unit_gaussian([0.8]),
                l1_distance=0.1,
                min_center_distance=0.0,
            )


class TestL1Distance:
    def test_identical_mixtures(self):
        p = GmmParams(np.array([[0.2, 0.8]]), np.array([0.5, 0.5]), np.eye(1))
        assert l1_distance(p, p) == pytest.approx(0.0, abs=1e-10)

    def test_unit_separation_closed_form(self):
        got = l1_distance(unit_gaussian([0.0]), unit_gaussian([1.0]))
        expected = 2.0 * (2.0 * float(ndtr(0.5)) - 1.0)
        assert got == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(0.76585, abs=1e-5)

    def test_distant_mixtures_approach_total_mass(self):
        """Mass outside the integration range lands in the error term, so
        value + error covers the true distance 2(2 Phi(3.5) - 1)."""
        value, err = l1_distance(
            unit_gaussian([0.0]), unit_gaussian([7.0]), return_error=True
        )
        assert value > 1.95
        assert 2.0 - value <= err + 1e-3

    def test_wide_components_closed_form(self):
        """N(0, 9) against N(3, 9): the range and the tail charge follow the
        standard deviation, and the reported error bounds the actual one."""
        p = GmmParams(np.array([[0.0]]), np.array([1.0]), np.array([[9.0]]))
        q = GmmParams(np.array([[3.0]]), np.array([1.0]), np.array([[9.0]]))
        value, err = l1_distance(p, q, return_error=True)
        expected = 2.0 * (2.0 * float(ndtr(3.0 / (2.0 * 3.0))) - 1.0)
        assert value == pytest.approx(expected, abs=1e-9)
        assert abs(value - expected) <= err
        # the tail charge itself, one standard deviation either side
        assert _mass_outside(p, -3.0, 3.0) == pytest.approx(2.0 * float(ndtr(-1.0)))

    def test_monte_carlo_matches_quadrature(self):
        p, q = unit_gaussian([0.0]), unit_gaussian([1.0])
        mc = l1_distance(p, q, method="monte-carlo", rng=SeededRng(7), samples=200_000)
        assert mc == pytest.approx(l1_distance(p, q), abs=0.02)

    def test_monte_carlo_needs_rng(self):
        p = unit_gaussian([0.0, 0.0])
        with pytest.raises(ValueError):
            l1_distance(p, p, method="monte-carlo")

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            l1_distance(unit_gaussian([0.0]), unit_gaussian([1.0]), method="series")

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            l1_distance(unit_gaussian([0.0]), unit_gaussian([0.0, 0.0]))

    def test_unreliable_monte_carlo_warns(self):
        p = unit_gaussian([0.0, 0.0])
        q = unit_gaussian([0.05, 0.0])
        with pytest.warns(RuntimeWarning):
            l1_distance(p, q, method="monte-carlo", rng=SeededRng(6), samples=4)


class TestEquispacedInterleaved:
    def test_designs_and_fills(self):
        x_set, y_set = equispaced_interleaved(0.1)
        np.testing.assert_allclose(x_set.points.ravel(), [0.1, 0.3, 0.5, 0.7, 0.9])
        np.testing.assert_allclose(y_set.points.ravel(), [0.2, 0.4, 0.6, 0.8, 1.0])
        assert x_set.fill == pytest.approx(0.1)
        assert y_set.fill == pytest.approx(0.2)

    def test_bad_spacing_rejected(self):
        with pytest.raises(ValueError):
            equispaced_interleaved(0.3)
        with pytest.raises(ValueError):
            equispaced_interleaved(-0.1)


class TestPigeonholePair:
    def test_equal_component_counts(self):
        rng = SeededRng(101)
        pair = pigeonhole_pair(random_points(16, 1, rng), rng)
        assert pair.p.m == pair.q.m
        assert pair.min_center_distance > 0.0
        assert pair.p.weights.sum() == pytest.approx(1.0, abs=1e-10)
        assert pair.q.weights.sum() == pytest.approx(1.0, abs=1e-10)

    def test_wrong_count_rejected(self):
        rng = SeededRng(1)
        with pytest.raises(ValueError):
            pigeonhole_pair(random_points(12, 1, rng), rng)
        with pytest.raises(ValueError):
            pigeonhole_pair(random_points(4, 1, rng), rng)


class TestEmbedAsIca:
    def make_pair(self):
        rng = SeededRng(101)
        return pigeonhole_pair(random_points(16, 1, rng), rng)

    def test_descriptor_structure(self):
        pair = self.make_pair()
        d_p, d_q = embed_as_ica(pair)
        assert d_p.rates.size == d_q.rates.size
        for desc, gmm in ((d_p, pair.p), (d_q, pair.q)):
            assert desc.lam == pytest.approx(float(gmm.m))
            assert desc.tau == certified_tail_threshold(1e-9, desc.lam)
            assert desc.rates.sum() == pytest.approx(desc.lam, abs=1e-12)
            assert desc.rates.min() > 0.0
            np.testing.assert_allclose(
                np.linalg.norm(desc.mixing, axis=0), 1.0, atol=1e-12
            )
            np.testing.assert_allclose(
                desc.mixing * desc.scales, gmm.means, atol=1e-12
            )

    def test_round_trip_to_gmm(self):
        pair = self.make_pair()
        d_p, _ = embed_as_ica(pair)
        back = d_p.to_gmm()
        np.testing.assert_allclose(back.means, pair.p.means, atol=1e-12)
        np.testing.assert_allclose(back.weights, pair.p.weights, atol=1e-12)

    def test_descriptors_are_sampleable(self):
        pair = self.make_pair()
        d_p, _ = embed_as_ica(pair)
        draws = sample_approx_ica_batch(
            d_p.to_gmm(), d_p.lam, d_p.tau, SeededRng(55), 64
        )
        assert draws.shape == (64, pair.p.n + 1)

    def test_zero_center_rejected(self):
        pair = MixturePair(
            p=GmmParams(np.array([[0.0, 0.5]]), np.array([0.5, 0.5]), np.eye(1)),
            q=unit_gaussian([0.9]),
            l1_distance=0.1,
            min_center_distance=0.4,
        )
        with pytest.raises(ValueError):
            embed_as_ica(pair)

    def test_descriptor_validation(self):
        with pytest.raises(ValueError):
            IcaModel(
                mixing=np.eye(2) * 2.0,
                rates=np.array([1.0, 1.0]),
                scales=np.array([1.0, 1.0]),
                noise_covariance=np.eye(2),
                lam=2.0,
                tau=10,
            )
        with pytest.raises(ValueError):
            IcaModel(
                mixing=np.eye(2),
                rates=np.array([1.0, 0.5]),
                scales=np.array([1.0, 1.0]),
                noise_covariance=np.eye(2),
                lam=2.0,
                tau=10,
            )


class TestPairJson:
    def test_output_is_deterministic(self):
        """Two pairs built from the same seed export to the same bytes."""

        def build():
            rng = SeededRng(101)
            return pigeonhole_pair(random_points(16, 1, rng), rng)

        assert pair_to_json(build()) == pair_to_json(build())
