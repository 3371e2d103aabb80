"""Samplers, moment formulas, and tail bounds.

Closed-form values are cross-checked against scipy.stats and against exact
rational arithmetic (fractions) where the formulas are polynomial identities.
Monte Carlo checks use fixed seeds and tolerances wide enough to be stable.
"""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from poissonize.distributions import (
    _HEAD_MASS,
    _HEAD_MAX,
    GmmParams,
    SeededRng,
    _poisson_cdf,
    certified_tail_threshold,
    empirical_poisson_tv,
    gmm_pdf,
    poisson_pmf,
    poisson_tail_threshold,
    sample_gmm,
    truncated_poisson_tv,
)

from _oracles import density_loop, poisson_moment, raw_moments_to_cumulants, stirling2


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

    @pytest.mark.parametrize("lam", [2.0**52 * (1 + 2.0**-52), 1e17, 1e300])
    def test_poisson_rate_above_2_pow_52_rejected(self, lam):
        with pytest.raises(ValueError, match="at most 2\\*\\*52"):
            SeededRng(0).poisson(lam, 3)

    def test_poisson_rate_2_pow_52_accepted(self):
        draws = SeededRng(0).poisson(2.0**52, 3)
        assert draws.dtype == np.int64 and np.all(np.abs(draws - 2**52) < 2**30)


def searchsorted_reference(cdf, u):
    """The lookup before the shared one: a binary search, clipped to the
    last index."""
    return np.minimum(np.searchsorted(cdf, u, side="left"), len(cdf) - 1)


def lookup_probes(cdf, seed):
    """Uniforms that stress a table: every entry below 1 hit exactly and one
    double to either side of it, 0, the largest double below 1, and random
    draws."""
    inside = cdf[cdf < 1.0]
    edges = np.concatenate([inside, np.nextafter(inside, 0.0), np.nextafter(inside, 1.0)])
    extremes = [0.0, np.nextafter(1.0, 0.0)]
    draws = np.random.default_rng(seed).random(20_000)
    return np.concatenate([edges[(edges >= 0.0) & (edges < 1.0)], extremes, draws])


class TestInverseCdfLookup:
    """SeededRng._invert returns the binary search's index for every u."""

    @pytest.mark.parametrize("lam", [1e-3, 0.3, 0.67, 1.0, 1.33, 2.0, 2.6, 3.0, 6.0, 30.0])
    def test_poisson_tables(self, lam):
        cdf = _poisson_cdf(lam)
        u = lookup_probes(cdf, int(lam * 1000))
        got = SeededRng._invert(cdf.copy(), u)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, searchsorted_reference(cdf, u))

    def test_poisson_heads_stay_below_the_cap(self):
        """The head (the entries up to the first at or above 0.99) has one
        entry at lam = 1e-3 and 44 at lam = 30, the largest inverted rate:
        every Poisson table is counted by comparison passes, none is capped."""
        heads = {lam: int(np.searchsorted(_poisson_cdf(lam), _HEAD_MASS)) + 1
                 for lam in (1e-3, 30.0)}
        assert heads == {1e-3: 1, 30.0: 44}
        assert heads[30.0] < _HEAD_MAX

    @pytest.mark.parametrize("lam", [0.67, 1.33])
    def test_flat_tail_short_of_one(self, lam):
        """At these rates the table's tail terms no longer change the sum,
        which stays below 1: the table ends in a plateau below 1, a tie there
        lands on the plateau's first index, and a u above it (1.33 only; at
        0.67 the plateau is the largest double below 1) on the last."""
        cdf = _poisson_cdf(lam)
        plateau = cdf[-1]
        assert plateau < 1.0 and cdf[-2] == plateau
        first = int(np.argmax(cdf == plateau))
        u = np.array([plateau, np.nextafter(1.0, 0.0)])
        top = first if plateau == u[1] else len(cdf) - 1
        got = SeededRng._invert(cdf.copy(), u)
        np.testing.assert_array_equal(got, [first, top])
        np.testing.assert_array_equal(got, searchsorted_reference(cdf, u))

    @pytest.mark.parametrize("weights", [
        [0.2, 0.0, 0.3, 0.0, 0.0, 0.5],  # zero-weight categories in the head
        [0.1] * 10,  # partial sums that round short of 1
        [0.995, 0.0, 0.005],  # a one-entry head, then a plateau
        [1.0 / 12] * 12,
        np.arange(1, 37) / 666.0,
        [0.98 / 254] * 254 + [0.02],  # a head of 255 entries, the cap
        [0.98 / 255] * 255 + [0.02],  # a head of 256, cut at 255
        [1.0 / 300] * 300,  # a head of 298, cut at 255
    ])
    def test_categorical_tables(self, weights):
        cdf = np.cumsum(np.asarray(weights, dtype=float))
        u = lookup_probes(cdf, len(weights))
        np.testing.assert_array_equal(SeededRng._invert(cdf.copy(), u),
                                      searchsorted_reference(cdf, u))


class TestPinnedStreams:
    """sha256 of the int64 draws of SeededRng(2026), recorded before the
    shared inverse-CDF lookup existed: the lookup must not move a draw."""

    @staticmethod
    def digest(draws):
        return hashlib.sha256(np.asarray(draws, dtype=np.int64).tobytes()).hexdigest()

    @pytest.mark.parametrize("lam, expected", [
        (0.01, "645a8e9fdba6199c2178aa06b6773364765588c10378300694ffa31da95289ad"),
        (1.0, "e902dc8e0f2514e1bad6430cf66daaed899d3bdb46f506872a0df9fade641be8"),
        (6.0, "55a53194183e3e1c463a8446062e3bee8670949a75f27cc48264a801759b37e2"),
        (29.9, "21566b6f76ab3d0f204721e9e83d1dce8fe27be3b004f00d85efe5b44e9462db"),
        (45.0, "a4b7a9f48bd8dea82c071be522f779032cf6c783327465d2c3fa3de9ca20038e"),
    ])
    def test_poisson(self, lam, expected):
        assert self.digest(SeededRng(2026).poisson(lam, 10**5)) == expected

    @pytest.mark.parametrize("k, expected", [
        (6, "3f43ba9bae3f75c888bb5f93a10349bc194163acae57e24aa12eedbcb385092d"),
        (36, "242da5dff5d3c2e0bdd57507a681bde6aa151fcb119f1f1d43501064ba83f534"),
    ])
    def test_categorical(self, k, expected):
        weights = np.arange(1, k + 1, dtype=float)
        weights /= weights.sum()
        assert self.digest(SeededRng(2026).categorical(weights, 10**5)) == expected


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

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("count", [1, 4096, 5000])
    def test_bits_of_the_reference_loop(self, n, count):
        """One block and a block boundary have exactly the bits of the
        plain per-block loop.  Single rows agree with a batch only to
        rounding (test above): the last step is a BLAS matrix-vector
        product, whose summation order depends on the row count."""
        rng = np.random.default_rng(40 + n)
        g = random_spd_mixture(rng, n, 5)
        x = 2.0 * rng.standard_normal((count, n))
        assert np.array_equal(gmm_pdf(g, x), density_loop(g, x))

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
        assert raw_moments_to_cumulants(moments)[-1] == pytest.approx(lam, rel=1e-12, abs=0)

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
                assert truncated_poisson_tv(lam, tau) == pytest.approx(want, rel=1e-10, abs=0)

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
