"""Kernel interpolation, close mixture pairs, and the ICA embedding."""

import collections
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import brentq
from scipy.special import ndtr

from poissonize import lowdim_hardness
from poissonize.distributions import GmmParams, SeededRng, certified_tail_threshold
from poissonize.lowdim_hardness import (
    DegeneratePairError,
    KernelConditioningError,
    MixturePair,
    PointSet,
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

from _oracles import density_loop


def unit_gaussian(center):
    center = np.atleast_1d(np.asarray(center, dtype=float))
    return GmmParams(center[:, None], np.array([1.0]), np.eye(center.size))


def equispaced(k):
    return ((2.0 * np.arange(1, k + 1) - 1.0) / (2 * k))[:, None]


def eager_pigeonhole_pair(points, rng):
    """Reference oracle for ``pigeonhole_pair``: every group's pair is built
    and measured in group order, then the first equal-count pair, or the
    crosswise combination of the first two pairs that share a count
    difference, is returned; otherwise the points are reshuffled."""
    total = points.shape[0]
    k = math.isqrt(total // 4)
    resolution = lowdim_hardness._fill_resolution(points.shape[1])
    order = np.arange(total)
    for _ in range(lowdim_hardness._RETRIES):
        built = []
        for group in order.reshape(2 * k, 2 * k):
            sub = points[group]
            try:
                x_set = PointSet(sub[:k], fill=compute_fill(PointSet(sub[:k]), resolution))
                y_set = PointSet(sub[k:], fill=compute_fill(PointSet(sub[k:]), resolution))
                built.append(build_close_pair(x_set, y_set))
            except (DegeneratePairError, KernelConditioningError, ValueError):
                continue
        for pair in built:
            if pair.p.m == pair.q.m:
                return pair
        by_difference = {}
        for pair in built:
            key = pair.p.m - pair.q.m
            if key in by_difference:
                return lowdim_hardness._combine_pairs(by_difference[key], pair)
            by_difference[key] = pair
        order = rng.permutation(total)
    raise RuntimeError("no collision within the retry budget")


def counting(monkeypatch, *names):
    """Replace each named ``lowdim_hardness`` function by a wrapper that
    counts its calls in the returned Counter."""
    calls = collections.Counter()
    for name in names:
        def wrapper(*args, _name=name, _original=getattr(lowdim_hardness, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(lowdim_hardness, name, wrapper)
    return calls


def first_round_fails(points, k):
    """The points with each group's second point a copy of its first, so no
    group of the first round builds (repeated nodes) and every later round
    starts from a reshuffle."""
    points = points.copy()
    points[1 :: 2 * k] = points[:: 2 * k]
    return points


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


class TestInterpolate:
    def test_single_point_coefficient(self):
        coeffs, _ = interpolate(PointSet(np.array([[0.3]])))
        expected = float(target_f(np.array([0.3]))) * math.sqrt(2.0 * math.pi)
        assert coeffs[0] == pytest.approx(expected, rel=1e-12)

    def test_nodes_reproduced(self):
        for pts in (equispaced(20), random_points(9, 2, SeededRng(33))):
            coeffs, _ = interpolate(PointSet(pts))
            values = kernel(pts, pts) @ coeffs
            np.testing.assert_allclose(values, target_f(pts), atol=1e-8)

    def test_sup_gap_shrinks_with_more_nodes(self):
        """Twenty equispaced nodes push the off-node gap to the rounding
        floor; five leave a visible (still tiny) gap."""
        grid = np.linspace(0.0, 1.0, 2001)[:, None]

        def gap(k):
            nodes = equispaced(k)
            coeffs, _ = interpolate(PointSet(nodes))
            return float(np.abs(kernel(grid, nodes) @ coeffs - target_f(grid)).max())

        assert gap(20) < 1e-3 * gap(5)

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(ValueError):
            interpolate(PointSet(np.array([[0.5], [0.5]])))

    def test_condition_recorded(self):
        _, condition = interpolate(PointSet(equispaced(10)))
        assert condition >= 1.0

    def test_evaluate_matches_kernel_sum(self):
        """The coefficients pair with the nodes in order: the kernel matrix
        product is the sum of unit Gaussian bumps at the nodes."""
        nodes = equispaced(4)
        coeffs, _ = interpolate(PointSet(nodes))
        x = 0.37
        manual = sum(
            w * math.exp(-0.5 * (x - c) ** 2) / math.sqrt(2.0 * math.pi)
            for w, c in zip(coeffs, nodes.ravel())
        )
        assert (kernel(np.array([[x]]), nodes) @ coeffs).item() == pytest.approx(
            manual, rel=1e-12
        )


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
            )
            two = build_close_pair(
                PointSet(random_points(8, 2, rng)),
                PointSet(random_points(8, 2, rng)),
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
            MixturePair(p=p, q=p, l1_distance=0.0)

    def test_nonpositive_center_distance_rejected(self):
        """The pair measures its center distance itself, as the closest
        centers across p and q; one shared center among several makes it 0,
        and the pair is refused."""
        p = GmmParams(np.array([[0.2, 0.5]]), np.array([0.5, 0.5]), np.eye(1))
        q = GmmParams(np.array([[0.9, 0.8]]), np.array([0.5, 0.5]), np.eye(1))
        pair = MixturePair(p=p, q=q, l1_distance=0.1)
        assert pair.min_center_distance == pytest.approx(0.3, abs=1e-15)
        shared = GmmParams(np.array([[0.9, 0.5]]), np.array([0.5, 0.5]), np.eye(1))
        with pytest.raises(ValueError):
            MixturePair(p=p, q=shared, l1_distance=0.1)


def reference_quadrature(p, q):
    """The 1-D L1 distance over the reference density loop, one point per
    call, on the range and break points of l1_distance."""
    lo, hi = lowdim_hardness._QUAD_RANGE
    for gmm in (p, q):
        reach = lowdim_hardness._QUAD_SIGMAS * math.sqrt(float(gmm.covariance[0, 0]))
        lo = min(lo, float(gmm.means.min()) - reach)
        hi = max(hi, float(gmm.means.max()) + reach)

    def difference(t):
        x = np.array([[t]])
        return float(density_loop(p, x)[0]) - float(density_loop(q, x)[0])

    grid = np.linspace(lo, hi, lowdim_hardness._SIGN_POINTS)
    sign = np.sign(density_loop(p, grid[:, None]) - density_loop(q, grid[:, None]))
    roots = [brentq(difference, grid[i], grid[i + 1])
             for i in range(grid.size - 1) if sign[i] * sign[i + 1] < 0]
    breaks = np.unique(np.concatenate([p.means.ravel(), q.means.ravel(), roots])).tolist()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        return quad(lambda t: abs(difference(t)), lo, hi, points=breaks,
                    limit=600, epsabs=1e-14)[0]


def midpoint_l1(p, q, lo=-12.0, hi=13.0, spacing=2.5e-4):
    """The 1-D L1 distance by the midpoint rule on a fine grid."""
    x = np.arange(lo + spacing / 2, hi, spacing)[:, None]
    return float(np.abs(density_loop(p, x) - density_loop(q, x)).sum()) * spacing


class TestL1Distance:
    @pytest.mark.parametrize("h", [0.1, 0.05, 0.025])
    def test_quadrature_bits_of_the_reference_density_on_decay_pairs(self, h):
        """Each point's density has the bits of the reference loop, so quad
        returns the same value."""
        pair = build_close_pair(*equispaced_interleaved(h))
        assert pair.l1_distance == reference_quadrature(pair.p, pair.q)

    @pytest.mark.parametrize("h", [0.1, 0.05, 0.025])
    def test_decay_pairs_match_a_fine_midpoint_grid(self, h):
        """With the sign changes of p - q as break points, each decay pair is
        within 1e-7 relative of a midpoint grid of spacing 2.5e-4 over
        [-12, 13].  Split at the means alone, the h = 0.025 pair was 5e-7
        off."""
        pair = build_close_pair(*equispaced_interleaved(h))
        assert pair.l1_distance == pytest.approx(midpoint_l1(pair.p, pair.q), rel=1e-7, abs=0)

    def test_quadrature_bits_of_the_reference_density_on_pigeonhole_pair(self):
        rng = SeededRng(1000)
        pair = pigeonhole_pair(random_points(100, 1, rng), rng)
        assert pair.l1_distance == reference_quadrature(pair.p, pair.q)

    def test_identical_mixtures(self):
        p = GmmParams(np.array([[0.2, 0.8]]), np.array([0.5, 0.5]), np.eye(1))
        assert l1_distance(p, p) == pytest.approx(0.0, abs=1e-10)

    def test_unit_separation_closed_form(self):
        got = l1_distance(unit_gaussian([0.0]), unit_gaussian([1.0]))
        expected = 2.0 * (2.0 * float(ndtr(0.5)) - 1.0)
        assert got == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(0.76585, abs=1e-5)

    def test_distant_mixtures_approach_total_mass(self):
        """Means 7 apart: the range reaches 8 standard deviations past both,
        so the value nears the true distance 2(2 Phi(3.5) - 1)."""
        value = l1_distance(unit_gaussian([0.0]), unit_gaussian([7.0]))
        assert value > 1.95

    def test_wide_components_closed_form(self):
        """N(0, 9) against N(3, 9): the range follows the standard
        deviation."""
        p = GmmParams(np.array([[0.0]]), np.array([1.0]), np.array([[9.0]]))
        q = GmmParams(np.array([[3.0]]), np.array([1.0]), np.array([[9.0]]))
        expected = 2.0 * (2.0 * float(ndtr(3.0 / (2.0 * 3.0))) - 1.0)
        assert l1_distance(p, q) == pytest.approx(expected, abs=1e-9)

    def test_grid_matches_closed_form(self):
        """Unit Gaussians at distance 1 are as far apart in L1 in every
        dimension, 2(2 Phi(1/2) - 1): the 1-D quadrature reproduces it, and
        the 2-D and 3-D grids come within 2e-3 relative (the kink of |p - q|
        on the bisecting plane makes their error O(h^2))."""
        expected = 2.0 * (2.0 * float(ndtr(0.5)) - 1.0)
        assert l1_distance(unit_gaussian([0.0]), unit_gaussian([1.0])) == pytest.approx(
            expected, abs=1e-9
        )
        for n in (2, 3):
            shift = np.zeros(n)
            shift[0] = 1.0
            got = l1_distance(unit_gaussian(np.zeros(n)), unit_gaussian(shift))
            assert got == pytest.approx(expected, rel=2e-3)

    def test_grid_matches_a_finer_grid_on_pigeonhole_pairs(self):
        """The pairs pigeonhole returns in 2-D at k = 3 and 5, seeds
        1000-1005, against an independent midpoint rule of spacing 0.02
        over 10 standard deviations past every center."""
        for k in (3, 5):
            for seed in range(1000, 1006):
                rng = SeededRng(seed)
                pair = pigeonhole_pair(random_points(4 * k * k, 2, rng), rng)
                assert pair.l1_distance == pytest.approx(fine_grid_l1(pair), rel=2e-4)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            l1_distance(unit_gaussian([0.0]), unit_gaussian([0.0, 0.0]))

    def test_dimension_four_refused_before_any_density(self, monkeypatch):
        calls = counting(monkeypatch, "gmm_pdf")
        p, q = unit_gaussian(np.zeros(4)), unit_gaussian(np.ones(4))
        with pytest.raises(ValueError, match="dimensions 1 to 3, got 4"):
            l1_distance(p, q)
        assert calls["gmm_pdf"] == 0

    def test_quadrature_has_no_standard_error(self):
        """The distance is one float in every dimension, with no error
        estimate beside it."""
        assert isinstance(l1_distance(unit_gaussian([0.0]), unit_gaussian([1.0])), float)
        assert isinstance(l1_distance(unit_gaussian([0.0, 0.0]), unit_gaussian([1.0, 0.0])),
                          float)


def fine_grid_l1(pair, spacing=0.02, margin=10.0):
    """Midpoint rule for the L1 distance of a 2-D pair of unit-covariance
    mixtures, with its own Gaussian density and cell-centered grid."""
    centers = np.hstack([pair.p.means, pair.q.means])
    xs, ys = (np.arange(lo - margin, hi + margin, spacing) + 0.5 * spacing
              for lo, hi in zip(centers.min(axis=1), centers.max(axis=1)))
    total = 0.0
    for start in range(0, xs.size, 64):
        x = xs[start:start + 64, None]
        gap = 0.0
        for gmm, sign in ((pair.p, 1.0), (pair.q, -1.0)):
            for (cx, cy), w in zip(gmm.means.T, gmm.weights):
                gap = gap + sign * w * np.exp(-0.5 * ((x - cx) ** 2 + (ys - cy) ** 2))
        total += float(np.abs(gap).sum())
    return total * spacing**2 / (2.0 * math.pi)


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


# (dimension, k, seed of SeededRng(7 seed + dimension)) that return a
# combination; every other seed below returns an equal-count group directly
COMBINING = [(1, 2, 11), (2, 3, 17), (3, 5, 25)]


class TestPigeonholePair:
    @pytest.mark.parametrize("dimension", [1, 2, 3])
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_same_bytes_as_eager_selection(self, dimension, k, monkeypatch):
        """Measuring only the returned pair exports the bytes of measuring
        every group first; the seeds reach the direct return and the
        combination."""
        cases = [0, 1, 2] + [s for d, kk, s in COMBINING if (d, kk) == (dimension, k)]
        for seed in cases:
            rng = SeededRng(7 * seed + dimension)
            points = random_points(4 * k * k, dimension, rng)
            want = pair_to_json(eager_pigeonhole_pair(points, rng))
            with monkeypatch.context() as patch:
                calls = counting(patch, "_combine_pairs")
                rng = SeededRng(7 * seed + dimension)
                random_points(4 * k * k, dimension, rng)
                got = pair_to_json(pigeonhole_pair(points, rng))
            assert got == want
            assert calls["_combine_pairs"] == ((dimension, k, seed) in COMBINING)

    @pytest.mark.parametrize("dimension, k", [(1, 2), (2, 3), (3, 2)])
    def test_same_bytes_after_a_reshuffle(self, dimension, k, monkeypatch):
        """No group of the first round builds, so the pair comes from the
        reshuffled points, with the same bytes as the eager selection."""
        rng = SeededRng(300 + dimension)
        points = first_round_fails(random_points(4 * k * k, dimension, rng), k)
        want = pair_to_json(eager_pigeonhole_pair(points, SeededRng(5)))
        with monkeypatch.context() as patch:
            calls = counting(patch, "_unmeasured_pair")
            got = pair_to_json(pigeonhole_pair(points, SeededRng(5)))
        assert got == want
        assert calls["_unmeasured_pair"] > 2 * k

    @pytest.mark.parametrize("dimension, k, seed", [(1, 5, 0), (2, 3, 0)] + COMBINING)
    def test_measures_only_the_returned_pair(self, dimension, k, seed, monkeypatch):
        """One L1 measurement per call, whether the pair is a group's own or
        a combination."""
        rng = SeededRng(7 * seed + dimension)
        points = random_points(4 * k * k, dimension, rng)
        calls = counting(monkeypatch, "l1_distance")
        pigeonhole_pair(points, rng)
        assert calls["l1_distance"] == 1

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

    def test_dimension_four_refused_before_any_build(self, monkeypatch):
        """The L1 distance stops at 3-D, so a 4-D instance is refused before
        any group is interpolated."""
        calls = counting(monkeypatch, "compute_fill", "_unmeasured_pair")
        rng = SeededRng(1)
        with pytest.raises(ValueError, match="dimensions 1 to 3, got 4"):
            pigeonhole_pair(random_points(16, 4, rng), rng)
        assert sum(calls.values()) == 0


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

    def test_round_trip_to_gmm(self):
        pair = self.make_pair()
        d_p, _ = embed_as_ica(pair)
        assert d_p.gmm is pair.p

    def test_descriptors_are_sampleable(self):
        pair = self.make_pair()
        d_p, _ = embed_as_ica(pair)
        draws = sample_approx_ica_batch(
            d_p.gmm, d_p.lam, d_p.tau, SeededRng(55), 64
        )
        assert draws.shape == (64, pair.p.n + 1)

    def test_zero_center_rejected(self):
        pair = MixturePair(
            p=GmmParams(np.array([[0.0, 0.5]]), np.array([0.5, 0.5]), np.eye(1)),
            q=unit_gaussian([0.9]),
            l1_distance=0.1,
        )
        with pytest.raises(ValueError):
            embed_as_ica(pair)

    def test_descriptor_validation(self):
        """A model built directly refuses a center at the origin too."""
        gmm = GmmParams(np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([0.5, 0.5]),
                        np.eye(2))
        with pytest.raises(ValueError, match="zero center"):
            IcaModel(gmm, 2.0, 10)


class TestPairJson:
    def test_output_is_deterministic(self):
        """Two pairs built from the same seed export to the same bytes."""

        def build():
            rng = SeededRng(101)
            return pigeonhole_pair(random_points(16, 1, rng), rng)

        assert pair_to_json(build()) == pair_to_json(build())
