"""The mixture-to-ICA reduction: lifting, Poissonized sampling, parameters.

Distributional checks fix seeds and use tolerances a few standard errors
wide; the structural checks (last coordinate, zero noise row, abort
semantics) are exact.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poissonize import cli
from poissonize.distributions import (
    GmmParams,
    SeededRng,
    certified_tail_threshold,
    empirical_poisson_tv,
    poisson_pmf,
    poisson_tail_threshold,
    sample_gmm,
    truncated_poisson_tv,
)
from poissonize.gmm_learner import learn_means
from poissonize.poissonization import (
    IcaModel,
    MixtureSource,
    SubroutineFailure,
    compute_reduction_params,
    lift,
    poisson_split,
    sample_approx_ica_batch,
)


def toy_gmm(noise=0.0):
    means = np.array([[2.0, 0.0], [0.0, 3.0]])
    return GmmParams(means, np.array([0.5, 0.5]), noise * np.eye(2))


def one_draw(source, lam, tau, rng):
    """A single Poissonized draw: one row of the batch sampler."""
    return sample_approx_ica_batch(source, lam, tau, rng, 1)[0]


class TestLift:
    def test_zero_vector(self):
        np.testing.assert_array_equal(
            lift(np.array([[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]]))[:, 0],
            [0.0, 0.0, 0.0, 1.0],
        )

    def test_norm_relation(self):
        x = np.array([3.0, 4.0])
        lifted = lift(np.column_stack([x, -x]))
        assert np.linalg.norm(lifted[:, 0]) ** 2 == pytest.approx(
            np.linalg.norm(x) ** 2 + 1.0
        )

    def test_injective_on_distinct_inputs(self):
        lifted = lift(np.array([[1.0, 1.0], [2.0, 2.5]]))
        assert not np.array_equal(lifted[:, 0], lifted[:, 1])

    def test_appends_a_last_row_of_ones(self):
        means = toy_gmm().means
        lifted = lift(means)
        assert lifted.shape == (3, 2)
        np.testing.assert_array_equal(lifted[:2], means)
        np.testing.assert_array_equal(lifted[2], [1.0, 1.0])


class TestPoissonSplit:
    def test_shape_and_dtype(self):
        out = poisson_split(5.0, [0.2, 0.3, 0.5], SeededRng(0), 100)
        assert out.shape == (100, 3)
        assert out.dtype == np.int64

    def test_rows_sum_to_poisson(self):
        rng = SeededRng(1)
        out = poisson_split(4.0, [0.25, 0.75], rng, 100_000)
        assert empirical_poisson_tv(out.sum(axis=1), 4.0) < 0.02

    def test_marginals_are_thinned_poissons(self):
        lam, probs = 5.0, np.array([0.2, 0.3, 0.5])
        out = poisson_split(lam, probs, SeededRng(2), 100_000)
        for i, p in enumerate(probs):
            assert empirical_poisson_tv(out[:, i], p * lam) < 0.02

    def test_cross_covariance_vanishes(self):
        """Splitting makes the category counts independent, not merely
        uncorrelated given the total."""
        lam, probs = 5.0, np.array([0.2, 0.3, 0.5])
        n = 100_000
        out = poisson_split(lam, probs, SeededRng(3), n)
        for i in range(3):
            for j in range(i + 1, 3):
                cov = np.cov(out[:, i], out[:, j])[0, 1]
                # var of the sample covariance of two independent Poissons
                se = math.sqrt(probs[i] * lam * probs[j] * lam / n)
                assert abs(cov) < 3 * se

    def test_bad_probs_rejected(self):
        with pytest.raises(ValueError):
            poisson_split(1.0, [0.5, 0.4], SeededRng(0), 10)
        with pytest.raises(ValueError):
            poisson_split(1.0, [1.2, -0.2], SeededRng(0), 10)


class TestIcaModel:
    def test_model_invariants_enforced(self):
        """The model is its mixture with lam and tau, so the invariants hold
        by construction: positive rates that sum to lam; a zero center is
        refused."""
        gmm = GmmParams(np.array([[3.0, 0.0], [4.0, 2.0]]), np.array([0.25, 0.75]),
                        np.zeros((2, 2)))
        model = IcaModel(gmm, 2.0, 10.0)
        np.testing.assert_allclose(model.rates, [0.5, 1.5], atol=1e-15)
        assert model.rates.sum() == pytest.approx(model.lam, abs=1e-15)
        zero = GmmParams(np.array([[3.0, 0.0], [4.0, 0.0]]), np.array([0.25, 0.75]),
                         np.zeros((2, 2)))
        with pytest.raises(ValueError):
            IcaModel(zero, 2.0, 10.0)


class TestSampleApproxIca:
    def test_pure_noise_when_r_zero(self):
        """With a tiny rate most draws have R = 0: the last coordinate is
        exactly 0 and the rest is N(0, tau * Sigma)."""
        gmm = toy_gmm(noise=1.0)
        rng = SeededRng(4)
        tau = 9
        zeros = []
        for _ in range(2000):
            s = one_draw(gmm, 0.05, tau, rng)
            if s[-1] == 0.0:
                zeros.append(s[:2])
        zeros = np.array(zeros)
        assert zeros.shape[0] > 1800
        np.testing.assert_allclose(
            np.cov(zeros.T), tau * np.eye(2), atol=0.75
        )

    def test_deterministic_single_component(self):
        # Sigma = 0, mu = (1): output is (R, R) exactly
        gmm = GmmParams(np.array([[1.0]]), np.array([1.0]), np.zeros((1, 1)))
        rng = SeededRng(5)
        for _ in range(200):
            s = one_draw(gmm, 1.0, 8, rng)
            assert s[0] == s[1]
            assert s[1] == int(s[1]) and 0 <= s[1] <= 8

    def test_last_coordinate_is_integer_count(self):
        rng = SeededRng(6)
        for _ in range(300):
            s = one_draw(toy_gmm(noise=0.1), 2.0, 12, rng)
            assert s[-1] == int(s[-1])
            assert 0 <= s[-1] <= 12

    def test_failure_raised_and_carries_count(self):
        rng = SeededRng(7)
        # lambda = 3, tau just above e*lambda: overflow happens quickly
        with pytest.raises(SubroutineFailure) as info:
            for _ in range(10_000):
                one_draw(toy_gmm(), 3.0, 9, rng)
        assert info.value.count > 9

    def test_tau_below_e_lambda_rejected(self):
        with pytest.raises(ValueError):
            one_draw(toy_gmm(), 3.0, 8, SeededRng(0))

    def test_mixture_source_wrapper(self):
        src = MixtureSource(
            draw=lambda count, rng: np.ones((count, 2)),
            covariance=np.zeros((2, 2)),
        )
        s = one_draw(src, 1.0, 8, SeededRng(8))
        assert s[0] == s[1] == s[2] or s[-1] == 0.0

    @pytest.mark.parametrize("covariance, message", [
        ([[1.0, 5.0], [0.0, 1.0]], "covariance must be symmetric"),
        ([[np.nan, 0.0], [0.0, 1.0]], "covariance must be finite"),
        ([[1.0, 0.0], [0.0, -1.0]], "covariance not positive semidefinite"),
    ])
    def test_mixture_source_covariance_checked_on_construction(self, covariance, message):
        """An asymmetric covariance (whose upper triangle the noise factor
        would ignore), a NaN one and one with a negative eigenvalue are
        refused as the source is built, before any draw."""
        with pytest.raises(ValueError, match=message):
            MixtureSource(draw=lambda count, rng: np.zeros((count, 2)), covariance=covariance)


class TestSampleApproxIcaBatch:
    def test_batch_marginals_match_lifted_model(self):
        """Accepted-sample law: last coordinate is Poisson(lambda) truncated
        at tau, and with integer-identifiable means the component counts are
        recoverable and marginally truncated-Poisson."""
        gmm = toy_gmm()  # Sigma = 0, means (2,0) and (0,3)
        lam, tau = 2.0, 12
        rng = SeededRng(9)
        out = sample_approx_ica_batch(gmm, lam, tau, rng, 100_000)
        # counts per component: s1 = x1/2, s2 = x2/3
        s1 = out[:, 0] / 2.0
        s2 = out[:, 1] / 3.0
        np.testing.assert_array_equal(s1, np.round(s1))
        np.testing.assert_array_equal(s2, np.round(s2))
        assert empirical_poisson_tv(s1.astype(int), 0.5 * lam) < 0.02
        assert empirical_poisson_tv(s2.astype(int), 0.5 * lam) < 0.02
        np.testing.assert_array_equal(out[:, 2], s1 + s2)

    def test_poisson_signature_of_count_coordinate(self):
        gmm = toy_gmm()
        out = sample_approx_ica_batch(gmm, 2.0, 40, SeededRng(10), 200_000)
        counts = out[:, -1]
        assert counts.mean() == pytest.approx(2.0, abs=0.02)
        assert counts.var() == pytest.approx(2.0, abs=0.05)

    def test_noise_law_with_zero_mean_component(self):
        """m=1, mu=0: the first n coordinates are N(0, tau * Sigma)
        regardless of R."""
        cov = np.array([[1.0, 0.25], [0.25, 0.5]])
        gmm = GmmParams(np.zeros((2, 1)), np.array([1.0]), cov)
        tau = 11
        out = sample_approx_ica_batch(gmm, 1.0, tau, SeededRng(11), 200_000)
        got = np.cov(out[:, :2].T)
        np.testing.assert_allclose(got, tau * cov, rtol=0.05)

    def test_abort_on_overflow(self):
        with pytest.raises(SubroutineFailure):
            sample_approx_ica_batch(toy_gmm(), 3.0, 9, SeededRng(12), 10_000)

    def test_zero_count(self):
        out = sample_approx_ica_batch(toy_gmm(), 2.0, 10, SeededRng(0), 0)
        assert out.shape == (0, 3)

    def test_truncation_boundary(self):
        """A block whose largest count R equals tau is returned whole; at tau
        one below it the block raises with that count, and the raise comes
        right after the m Poisson columns, before any noise is drawn."""
        gmm = GmmParams(np.array([[2.0, -1.0, 0.5], [0.0, 3.0, 1.0]]),
                        np.array([0.2, 0.3, 0.5]), 0.1 * np.eye(2))
        lam, rows, seed = 3.0, 50_000, 14
        free = sample_approx_ica_batch(gmm, lam, 1000, SeededRng(seed), rows)
        worst = int(free[:, -1].max())
        assert worst - 1 > math.e * lam
        kept = sample_approx_ica_batch(gmm, lam, worst, SeededRng(seed), rows)
        assert kept.shape == free.shape
        np.testing.assert_array_equal(kept[:, -1], free[:, -1])

        rng = SeededRng(seed)
        with pytest.raises(SubroutineFailure) as info:
            sample_approx_ica_batch(gmm, lam, worst - 1, rng, rows)
        assert info.value.count == worst and info.value.tau == worst - 1
        after_counts = SeededRng(seed)
        for w in gmm.weights:
            after_counts.poisson(w * lam, rows)
        assert rng.generator.bit_generator.state == after_counts.generator.bit_generator.state

    def test_acceptance_rate_matches_cdf(self):
        """Fraction of batches that survive equals P(max R_i <= tau);
        checked via the per-draw acceptance probability on singles."""
        lam, tau = 4.0, 12
        rng = SeededRng(13)
        accept = 1.0 - truncated_poisson_tv(lam, tau)
        n, failures = 20_000, 0
        for _ in range(n):
            try:
                one_draw(toy_gmm(), lam, tau, rng)
            except SubroutineFailure:
                failures += 1
        got = 1.0 - failures / n
        se = math.sqrt(accept * (1 - accept) / n)
        assert abs(got - accept) < 4 * se + 1e-12

    def test_basic_ica_strips_count(self):
        """Without the count coordinate a row is the basic ICA observation:
        with Sigma = 0 it is exactly A S for integer counts S."""
        out = sample_approx_ica_batch(toy_gmm(), 2.0, 12, SeededRng(14), 50)[:, :-1]
        assert out.shape == (50, 2)
        counts = out / np.array([2.0, 3.0])
        np.testing.assert_array_equal(counts, np.round(counts))


def black_box(gmm):
    """The same mixture behind the black-box interface: draws only."""
    return MixtureSource(
        draw=lambda count, rng: sample_gmm(gmm, count, rng),
        covariance=gmm.covariance,
    )


def projected_cumulants(rows, direction, batches=40):
    """Orders 1..5 cumulants of rows @ direction, and their batch-means
    standard errors."""

    def cumulants(y):
        c = y - y.mean()
        m2, m3, m4, m5 = (np.mean(c**k) for k in (2, 3, 4, 5))
        return np.array([y.mean(), m2, m3, m4 - 3 * m2**2, m5 - 10 * m3 * m2])

    y = rows @ direction
    per_batch = np.array([cumulants(part) for part in np.array_split(y, batches)])
    return cumulants(y), per_batch.std(axis=0, ddof=1) / math.sqrt(batches)


# sha256 of the direct sampler's output in test_direct_rows_keep_their_bits,
# for one OpenBLAS CPU kernel (Haswell, OpenBLAS 0.3.31)
DIRECT_ROWS_DIGEST = "000ff877f3357a77ff42e578dcbda443e18680d227d91e1ebbc987c71675df9f"


class TestSamplersAgree:
    """The direct form for a known mixture and the black-box reduction for
    the same mixture draw rows of one law."""

    LAM, TAU, ROWS = 3.0, 30, 300_000

    @pytest.fixture(scope="class")
    def gmm(self):
        means = np.array([[1.0, -0.5, 0.2], [0.3, 1.0, -0.8]])
        covariance = 0.05 * np.array([[1.0, 0.6], [0.6, 0.8]])
        return GmmParams(means, np.array([0.5, 0.3, 0.2]), covariance)

    @pytest.fixture(scope="class")
    def rows(self, gmm):
        direct = sample_approx_ica_batch(gmm, self.LAM, self.TAU, SeededRng(20), self.ROWS)
        grouped = sample_approx_ica_batch(
            black_box(gmm), self.LAM, self.TAU, SeededRng(21), self.ROWS
        )
        return direct, grouped

    def test_projected_cumulants_agree_with_each_other_and_the_law(self, gmm, rows):
        """Orders 1 and 2 along the axes and their pairwise sums pin down the
        mean and the covariance; orders 3..5 are checked along those and two
        generic directions."""
        lifted = lift(gmm.means)
        noise = np.zeros((3, 3))
        noise[:2, :2] = gmm.covariance
        eye = np.eye(3)
        directions = [*eye, eye[0] + eye[1], eye[0] + eye[2], eye[1] + eye[2],
                      np.array([0.6, -0.8, 0.3]), np.array([0.5, 0.5, -0.7])]
        direct, grouped = rows
        for u in directions:
            projected = u @ lifted
            exact = np.array([
                self.LAM * float(np.sum(gmm.weights * projected**k)) for k in range(1, 6)
            ])
            exact[1] += self.TAU * float(u @ noise @ u)
            got_a, se_a = projected_cumulants(direct, u)
            got_b, se_b = projected_cumulants(grouped, u)
            assert np.all(np.abs(got_a - exact) < 5 * se_a), (u, got_a, exact)
            assert np.all(np.abs(got_b - exact) < 5 * se_b), (u, got_b, exact)
            assert np.all(np.abs(got_a - got_b) < 5 * np.hypot(se_a, se_b)), (u, got_a, got_b)

    def test_count_coordinate_law_agrees(self, rows):
        direct, grouped = rows
        laws = []
        for out in (direct, grouped):
            counts = out[:, -1]
            np.testing.assert_array_equal(counts, np.round(counts))
            assert 0 <= counts.min() and counts.max() <= self.TAU
            assert empirical_poisson_tv(counts.astype(int), self.LAM) < 0.01
            laws.append(np.bincount(counts.astype(int), minlength=self.TAU + 1) / self.ROWS)
        assert 0.5 * np.abs(laws[0] - laws[1]).sum() < 0.01

    def test_both_abort_on_overflow(self):
        for source in (toy_gmm(), black_box(toy_gmm())):
            with pytest.raises(SubroutineFailure) as info:
                sample_approx_ica_batch(source, 3.0, 9, SeededRng(12), 10_000)
            assert info.value.count > 9

    @pytest.mark.skipif(not cli._openblas_thread_controls(),
                        reason="no OpenBLAS thread controls found")
    def test_direct_rows_keep_their_bits(self):
        """The direct sampler's rows at 6 components in R^6 with a full
        covariance, over three noise tiles (the last one partial), have the
        pinned sha256 on one OpenBLAS thread.  Any change to the draws or to
        the float operations that map them moves it; another BLAS kernel may
        move last bits and needs it recomputed at an unchanged sampler."""
        rng = SeededRng(23)
        means = rng.standard_normal((6, 6))
        a = rng.standard_normal((6, 6))
        gmm = GmmParams(means, np.full(6, 1 / 6), 0.01 * (a @ a.T + np.eye(6)))
        with cli._one_blas_thread(cli._openblas_thread_controls()):
            out = sample_approx_ica_batch(gmm, 6.0, 40, SeededRng(24), 40_000)
        assert out.shape == (40_000, 7)
        assert hashlib.sha256(out.tobytes()).hexdigest() == DIRECT_ROWS_DIGEST

    def test_direct_count_coordinate_is_the_sum_of_its_counts(self):
        """With Sigma = 0 and integer means of full rank, each direct row
        gives back its integer component counts, and the last coordinate
        is exactly their sum."""
        means = np.array([[1.0, 1.0, 0.0], [0.0, 2.0, 1.0], [0.0, 0.0, 3.0]])
        gmm = GmmParams(means, np.array([0.2, 0.3, 0.5]), np.zeros((3, 3)))
        out = sample_approx_ica_batch(gmm, 3.0, 30, SeededRng(22), 20_000)
        counts = np.linalg.solve(means, out[:, :3].T).T
        rounded = np.round(counts)
        np.testing.assert_allclose(counts, rounded, atol=1e-9)
        assert rounded.min() >= 0
        np.testing.assert_array_equal(out[:, 3], rounded.sum(axis=1))
        assert out[:, 3].max() > 0


class TestComputeReductionParams:
    def default_params(self, **overrides):
        kw = dict(m=6, delta=0.1, samples=200_000)
        kw.update(overrides)
        return compute_reduction_params(**kw)

    def test_lambda_equals_component_count(self):
        assert self.default_params().lam == 6.0

    def test_default_tau_is_the_certified_cutoff(self):
        """tau defaults to the certified cutoff for the per-draw budget
        delta / (2 N), so the whole run's truncation gap stays below
        delta / 2."""
        for m, delta, samples in ((6, 0.1, 200_000), (2, 0.1, 200_000), (4, 1e-6, 10**7)):
            p = self.default_params(m=m, delta=delta, samples=samples)
            assert p.tau == certified_tail_threshold(delta / (2 * samples), m)
            assert samples * truncated_poisson_tv(p.lam, p.tau) < delta / 2

    def test_tau_grows_as_delta_shrinks(self):
        taus = [self.default_params(delta=d).tau for d in (0.2, 0.02, 0.002)]
        assert taus[0] < taus[1] < taus[2]

    def test_tau_exceeds_e_lambda(self):
        p = self.default_params()
        assert p.tau > math.e * p.lam

    def test_tau_override_recorded(self):
        p = self.default_params(tau=25)
        assert p.tau == 25.0
        assert isinstance(p.tau, float)

    def test_invalid_ranges_rejected(self):
        with pytest.raises(ValueError):
            self.default_params(delta=0.0)
        with pytest.raises(ValueError):
            self.default_params(delta=1.0)
        with pytest.raises(ValueError):
            self.default_params(tau=math.e * 6)

    @given(
        delta=st.floats(min_value=1e-4, max_value=0.4),
        m=st.integers(min_value=1, max_value=8),
        samples=st.integers(min_value=1, max_value=10**8),
    )
    @settings(max_examples=50, deadline=None)
    def test_schedule_invariants(self, delta, m, samples):
        p = compute_reduction_params(m, delta, samples)
        assert p.lam == float(m)
        assert p.tau > math.e * p.lam


class TestTvGap:
    """A run's truncation gap is N times the one-draw tail mass above tau."""

    def test_large_tau_vanishes(self):
        assert 10**6 * truncated_poisson_tv(4.0, 200) < 1e-12

    def test_single_sample_reduces_to_tail(self):
        """One draw's gap is the Poisson mass above tau, 1 - F(tau)."""
        below = sum(poisson_pmf(k, 3.0) for k in range(8))
        assert truncated_poisson_tv(3.0, 7) == pytest.approx(1.0 - below)

    def test_union_bound_below_half_delta(self):
        """Per-draw budget delta/(2N) makes the whole-run gap < delta/2.

        The closed-form threshold only carries its guarantee in the rate
        regime lambda >= ln(1/delta'); outside it the certified search is
        the sound choice, and the bound holds for any N by construction.
        """
        delta, lam = 0.1, 4.0
        tau = poisson_tail_threshold(delta / 2, lam)  # in-regime: ln(20) < 4 + tau
        assert truncated_poisson_tv(lam, tau) < delta / 2
        for n in (1_000, 100_000, 10_000_000):
            tau = certified_tail_threshold(delta / (2 * n), lam)
            assert n * truncated_poisson_tv(lam, tau) < delta / 2

    def test_scales_linearly_in_samples(self):
        """The gap learn_means records doubles with the run's draws: two
        runs at tau = 6 and lambda = 2 that abort on truncation."""
        gaps = []
        for samples in (5_000, 10_000):
            with pytest.raises(SubroutineFailure) as info:
                learn_means(toy_gmm(), 2, 4, 0.1, SeededRng(37), samples, tau=6)
            gaps.append(info.value.diagnostics["tv_gap"])
        assert gaps[1] == pytest.approx(2 * gaps[0])
