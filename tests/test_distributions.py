"""Samplers, moment formulas, and tail bounds.

Closed-form values are cross-checked against scipy.stats and against exact
rational arithmetic (fractions) where the formulas are polynomial identities.
Monte Carlo checks use fixed seeds and tolerances wide enough to be stable.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from poissonize.distributions import (
    GmmParams,
    SeededRng,
    certified_tail_threshold,
    empirical_poisson_tv,
    gmm_pdf,
    poisson_pmf,
    poisson_tail_threshold,
    sample_gmm,
    truncated_poisson_tv,
)

from _oracles import poisson_moment, raw_moments_to_cumulants, stirling2


class TestGmmParams:
    def test_valid(self):
        g = GmmParams(np.eye(2), np.array([0.5, 0.5]), np.eye(2))
        assert g.n == 2 and g.m == 2

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            GmmParams(np.eye(2), np.array([0.5, 0.6]), np.eye(2))

    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError):
            GmmParams(np.eye(2), np.array([1.0, 0.0]), np.eye(2))

    def test_covariance_must_be_symmetric(self):
        cov = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError):
            GmmParams(np.eye(2), np.array([0.5, 0.5]), cov)

    def test_covariance_must_be_psd(self):
        with pytest.raises(ValueError):
            GmmParams(np.eye(2), np.array([0.5, 0.5]), -np.eye(2))

    def test_singular_covariance_allowed(self):
        GmmParams(np.eye(2), np.array([0.5, 0.5]), np.zeros((2, 2)))


class TestSeededRng:
    def test_same_seed_same_stream(self):
        a = SeededRng(123).standard_normal(100)
        b = SeededRng(123).standard_normal(100)
        np.testing.assert_array_equal(a, b)

    def test_derive_rule_is_documented_offset(self):
        root = SeededRng(40)
        np.testing.assert_array_equal(
            root.derive(2).standard_normal(10), SeededRng(42).standard_normal(10)
        )

    def test_unit_vector(self):
        v = SeededRng(0).unit_vector(5)
        assert np.linalg.norm(v) == pytest.approx(1.0)

    def test_categorical_frequencies(self):
        rng = SeededRng(7)
        w = np.array([0.2, 0.3, 0.5])
        draws = rng.categorical(w, 200_000)
        freqs = np.bincount(draws, minlength=3) / draws.size
        np.testing.assert_allclose(freqs, w, atol=0.01)

    @pytest.mark.parametrize("lam", [0.5, 3.0, 12.0])
    def test_poisson_inversion_matches_pmf(self, lam):
        """Small-rate draws use CDF inversion; frequencies must match the
        pmf within Monte Carlo noise."""
        rng = SeededRng(11)
        draws = rng.poisson(lam, size=200_000)
        assert empirical_poisson_tv(draws, lam) < 0.01

    def test_poisson_rejection_regime(self):
        # above the inversion cutoff the PTRS path is exercised
        lam = 80.0
        draws = SeededRng(13).poisson(lam, size=200_000)
        assert abs(draws.mean() - lam) < 0.2
        assert abs(draws.var() - lam) < 1.5
        assert empirical_poisson_tv(draws, lam) < 0.01

    def test_poisson_zero_rate(self):
        assert SeededRng(1).poisson(0.0) == 0

    def test_poisson_scalar_and_array_forms(self):
        rng = SeededRng(5)
        assert isinstance(rng.poisson(2.0), int)
        assert rng.poisson(2.0, size=(3, 4)).shape == (3, 4)

    def test_poisson_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            SeededRng(0).poisson(-1.0)


class TestSampleGmm:
    def test_point_mass(self):
        g = GmmParams(np.array([[1.0], [2.0]]), np.array([1.0]), np.zeros((2, 2)))
        out = sample_gmm(g, 50, SeededRng(0))
        np.testing.assert_array_equal(out, np.tile([1.0, 2.0], (50, 1)))

    def test_component_frequencies(self):
        g = GmmParams(
            np.array([[0.0, 1.0]]), np.array([0.5, 0.5]), np.zeros((1, 1))
        )
        out = sample_gmm(g, 10_000, SeededRng(3))
        freq = out.ravel().mean()  # fraction of draws from the second component
        # 3 standard deviations of Bernoulli(1/2) over 10^4 draws
        assert abs(freq - 0.5) < 3 * 0.5 / math.sqrt(10_000)

    def test_sample_mean_matches_mixture_mean(self):
        rng = SeededRng(17)
        means = np.array([[0.6, -0.3], [0.1, 0.8]])
        weights = np.array([0.3, 0.7])
        g = GmmParams(means, weights, np.eye(2))
        out = sample_gmm(g, 100_000, rng)
        np.testing.assert_allclose(out.mean(axis=0), means @ weights, atol=0.05)

    def test_zero_count(self):
        g = GmmParams(np.eye(2), np.array([0.5, 0.5]), np.eye(2))
        assert sample_gmm(g, 0, SeededRng(0)).shape == (0, 2)

    def test_covariance_recovered(self):
        cov = np.array([[1.0, 0.3], [0.3, 0.5]])
        g = GmmParams(np.zeros((2, 1)), np.array([1.0]), cov)
        out = sample_gmm(g, 200_000, SeededRng(23))
        np.testing.assert_allclose(np.cov(out.T), cov, atol=0.02)

    def test_pdf_normalizes_on_grid(self):
        g = GmmParams(np.array([[0.0, 1.0]]), np.array([0.4, 0.6]), np.array([[0.25]]))
        xs = np.linspace(-8.0, 9.0, 20_001).reshape(-1, 1)
        total = np.trapezoid(gmm_pdf(g, xs), xs.ravel())
        assert total == pytest.approx(1.0, abs=1e-6)


def random_spd_mixture(rng, n, m):
    """Mixture with a non-diagonal SPD covariance (eigenvalues >= 0.5)."""
    a = rng.standard_normal((n, n))
    weights = rng.uniform(0.1, 1.0, size=m)
    return GmmParams(rng.standard_normal((n, m)), weights / weights.sum(),
                     a @ a.T / n + 0.5 * np.eye(n))


def reference_pdf(gmm, x):
    """Per-component scipy.stats density, summed with the weights."""
    return sum(
        w * scipy.stats.multivariate_normal(gmm.means[:, i], gmm.covariance).pdf(x)
        for i, w in enumerate(gmm.weights)
    )


class TestGmmPdf:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("count", [1, 4095, 4096, 4097])
    def test_matches_scipy_across_block_boundary(self, n, count):
        """Point counts on both sides of the 4096-point block agree with the
        per-component reference to 1e-12 relative, at points drawn from the
        mixture (far tails lose relative accuracy in both evaluations)."""
        g = random_spd_mixture(np.random.default_rng(100 + n), n, 4)
        x = sample_gmm(g, count, SeededRng(n))
        np.testing.assert_allclose(gmm_pdf(g, x), np.atleast_1d(reference_pdf(g, x)),
                                   rtol=1e-12, atol=0)

    def test_batch_matches_row_by_row(self):
        rng = np.random.default_rng(5)
        g = random_spd_mixture(rng, 2, 3)
        x = 2.0 * rng.standard_normal((50, 2))
        rows = np.array([gmm_pdf(g, row)[0] for row in x])
        np.testing.assert_allclose(gmm_pdf(g, x), rows, rtol=1e-13, atol=0)

    def test_second_call_reuses_cached_factors(self):
        rng = np.random.default_rng(6)
        g = random_spd_mixture(rng, 3, 2)
        x = rng.standard_normal((10, 3))
        first = gmm_pdf(g, x)
        factors = g._density_factors
        assert np.array_equal(gmm_pdf(g, x), first)
        assert g._density_factors is factors

    @pytest.mark.parametrize("covariance", [np.zeros((2, 2)), np.ones((2, 2))])
    def test_singular_covariance_samples_but_has_no_density(self, covariance):
        g = GmmParams(np.eye(2), np.array([0.5, 0.5]), covariance)
        assert sample_gmm(g, 20, SeededRng(0)).shape == (20, 2)
        for _ in range(2):  # a failed factorization is not cached
            with pytest.raises(ValueError, match="density requires positive definite"):
                gmm_pdf(g, np.zeros((1, 2)))

    def test_dimension_mismatch_rejected(self):
        g = GmmParams(np.eye(2), np.array([0.5, 0.5]), np.eye(2))
        with pytest.raises(ValueError, match="dimension 2"):
            gmm_pdf(g, np.zeros((3, 3)))

    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(min_value=1, max_value=3),
        m=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=50, deadline=None)
    def test_random_spd_mixtures_match_scipy(self, seed, n, m):
        g = random_spd_mixture(np.random.default_rng(seed), n, m)
        x = sample_gmm(g, 20, SeededRng(seed))
        np.testing.assert_allclose(gmm_pdf(g, x), reference_pdf(g, x),
                                   rtol=1e-12, atol=0)


class TestPoissonCumulant:
    """Every cumulant of a Poisson rate equals the rate: the Stirling-form
    moments converted by raw_moments_to_cumulants."""

    @pytest.mark.parametrize("ell,lam", [(1, 2.5), (4, 2.5), (6, 1.0)])
    def test_every_order_equals_rate(self, ell, lam):
        moments = [poisson_moment(k, lam) for k in range(1, ell + 1)]
        assert raw_moments_to_cumulants(moments)[-1] == pytest.approx(lam, rel=1e-12)

    def test_bad_order(self):
        with pytest.raises(ValueError):
            poisson_moment(0, 1.0)


class TestPoissonMoment:
    def test_first_moment_is_rate(self):
        assert poisson_moment(1, 3.7) == pytest.approx(3.7)

    def test_third_moment_unit_rate(self):
        # S(3,1) + S(3,2) + S(3,3) = 1 + 3 + 1
        assert poisson_moment(3, 1) == 5

    def test_second_moment(self):
        assert poisson_moment(2, 2) == 6  # 2 + 4

    def test_order_cap(self):
        with pytest.raises(ValueError):
            poisson_moment(21, 1.0)

    def test_stirling_values(self):
        assert stirling2(3, 2) == 3
        assert stirling2(4, 2) == 7
        assert stirling2(5, 3) == 25
        assert stirling2(6, 3) == 90

    @pytest.mark.parametrize("lam", [Fraction(1, 2), Fraction(2), Fraction(7, 3)])
    def test_moment_cumulant_consistency_exact(self, lam):
        """Converting the Stirling-form moments back through the standard
        moment-to-cumulant recursion must yield the rate at every order,
        exactly, in rational arithmetic."""
        moments = {ell: poisson_moment(ell, lam) for ell in range(1, 7)}
        cums: dict = {}
        for ell in range(1, 7):
            acc = moments[ell]
            for j in range(1, ell):
                acc -= math.comb(ell - 1, j - 1) * cums[j] * moments[ell - j]
            cums[ell] = acc
        for ell in range(1, 7):
            assert cums[ell] == lam

    def test_matches_scipy_moments(self):
        for ell in (1, 2, 3, 4):
            got = poisson_moment(ell, 2.5)
            want = scipy.stats.poisson.moment(ell, 2.5)
            assert got == pytest.approx(want, rel=1e-9)


class TestPoissonPmf:
    def test_matches_scipy(self):
        ks = np.arange(0, 40)
        for lam in (0.3, 2.0, 17.5):
            np.testing.assert_allclose(
                poisson_pmf(ks, lam), scipy.stats.poisson.pmf(ks, lam), atol=1e-14
            )

    def test_zero_rate(self):
        np.testing.assert_array_equal(poisson_pmf(np.array([0, 1, 2]), 0.0), [1, 0, 0])

    def test_negative_support_rejected(self):
        with pytest.raises(ValueError):
            poisson_pmf(np.array([-1]), 1.0)


class TestEmpiricalPoissonTv:
    def test_perfect_fit_is_small(self):
        draws = SeededRng(31).poisson(4.0, size=100_000)
        assert empirical_poisson_tv(draws, 4.0) < 0.01

    def test_wrong_rate_is_large(self):
        draws = SeededRng(31).poisson(1.0, size=100_000)
        assert empirical_poisson_tv(draws, 3.0) > 0.3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_poisson_tv(np.array([]), 1.0)


class TestTruncatedPoissonTv:
    def test_rate_one_tau_zero(self):
        assert truncated_poisson_tv(1.0, 0) == pytest.approx(1.0 - math.exp(-1.0))

    def test_monotone_to_zero(self):
        values = [truncated_poisson_tv(3.0, tau) for tau in range(0, 40)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-12

    def test_matches_half_absolute_density_difference(self):
        """TV against the renormalized truncation equals the tail mass;
        checked by brute force on a wide support grid."""
        lam, tau = 2.0, 3
        ks = np.arange(0, 200)
        p = scipy.stats.poisson.pmf(ks, lam)
        kept = p[: tau + 1].sum()
        q = np.where(ks <= tau, p / kept, 0.0)
        brute = 0.5 * np.abs(q - p).sum()
        assert truncated_poisson_tv(lam, tau) == pytest.approx(brute, abs=1e-12)

    def test_matches_scipy_survival(self):
        for lam in (0.5, 2.0, 9.0):
            for tau in (0, 1, 5, 20):
                want = scipy.stats.poisson.sf(tau, lam)
                assert truncated_poisson_tv(lam, tau) == pytest.approx(want, rel=1e-10)

    def test_zero_rate(self):
        assert truncated_poisson_tv(0.0, 0) == 0.0

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            truncated_poisson_tv(1.0, -1)


class TestPoissonTailThreshold:
    def test_half_delta_unit_rate(self):
        # tau > e, tau >= 1, tau >= ln(2) - 1: smallest integer is 3
        assert poisson_tail_threshold(0.5, 1.0) == 3

    @given(
        delta=st.floats(min_value=1e-6, max_value=0.5),
        lam=st.floats(min_value=0.1, max_value=50.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_always_above_e_lambda(self, delta, lam):
        assert poisson_tail_threshold(delta, lam) > math.e * lam

    def test_monte_carlo_tail(self):
        delta, lam = 0.01, 5.0
        tau = poisson_tail_threshold(delta, lam)
        draws = SeededRng(47).poisson(lam, size=100_000)
        assert (draws > tau).mean() < delta

    def test_bad_delta_rejected(self):
        with pytest.raises(ValueError):
            poisson_tail_threshold(1.5, 1.0)

    def test_subnormal_delta(self):
        # ln(1/delta) as 1/delta overflows to inf here; -ln(delta) = 736.8
        assert poisson_tail_threshold(1e-320, 5.0) == 732


class TestCertifiedTailThreshold:
    def test_tail_actually_below_delta(self):
        for delta, lam in [(0.1, 2.0), (1e-6, 6.0), (1e-9, 5.0)]:
            tau = certified_tail_threshold(delta, lam)
            assert truncated_poisson_tv(lam, tau) < delta
            assert tau > math.e * lam

    def test_smallest_certified_cutoff(self):
        """No smaller cutoff is certified: tau - 1 is at most e*lam, or its
        tail mass is at least delta, also far outside the Chernoff regime."""
        for lam in (0.094, 0.5, 1.0, 2.0, 3.0, 4.0, 6.0):
            for delta in (0.1, 1e-6, 5e-13, 1e-300):
                tau = certified_tail_threshold(delta, lam)
                assert tau - 1 <= math.e * lam or truncated_poisson_tv(lam, tau - 1) >= delta

    def test_known_cutoffs(self):
        # below the Chernoff cutoffs 19 and 14 at rate 2; the benchmark's
        # rates 6 and 4 at their per-draw budgets keep 30 and 25
        assert certified_tail_threshold(1e-9, 2.0) == 15
        assert certified_tail_threshold(2.5e-7, 2.0) == 12
        assert certified_tail_threshold(5e-13, 6.0) == 30
        assert certified_tail_threshold(1e-12, 4.0) == 25

    def test_monotone_in_delta(self):
        taus = [certified_tail_threshold(d, 6.0) for d in (1e-2, 1e-5, 1e-9)]
        assert taus[0] <= taus[1] <= taus[2]
