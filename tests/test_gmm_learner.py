"""End-to-end mixture learning, weight recovery, and evaluation metrics."""

import numpy as np
import pytest

from poissonize.cumulants import (
    FlatCumulant,
    MomentAccumulator,
    analytic_ica_cumulant,
    assemble_flat_cumulant,
)
from poissonize.distributions import GmmParams, SeededRng, sample_gmm
from poissonize.gmm_learner import (
    FeasibilityError,
    LearnReport,
    MeanBounds,
    derive_bounds,
    evaluate_recovery,
    learn_means,
    learn_means_oracle,
    lifted_conditioning,
    recover_weights,
)
from poissonize.ica import IllConditionedError
from poissonize.poissonization import MixtureSource


def toy_gmm():
    """Noiseless two-component mixture with orthogonal means."""
    return GmmParams(
        means=np.array([[2.0, 0.0], [0.0, 3.0]]),
        weights=np.array([0.5, 0.5]),
        covariance=np.zeros((2, 2)),
    )


class TestMeanBounds:
    def test_valid(self):
        b = MeanBounds(w=2.0, u=3.0, r=0.5, b=0.1)
        assert b.w == 2.0

    def test_weight_ratio_below_one_rejected(self):
        with pytest.raises(ValueError):
            MeanBounds(w=0.5, u=1.0, r=1.0, b=1.0)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            MeanBounds(w=1.0, u=1.0, r=0.0, b=1.0)
        with pytest.raises(ValueError):
            MeanBounds(w=1.0, u=0.0, r=1.0, b=1.0)
        with pytest.raises(ValueError):
            MeanBounds(w=1.0, u=1.0, r=1.0, b=-1.0)


class TestDeriveBounds:
    def test_mixture_satisfies_its_own_bounds(self):
        gmm = toy_gmm()
        b = derive_bounds(gmm, 4)
        norms = np.linalg.norm(gmm.means, axis=0)
        assert b.w == pytest.approx(1.0)
        assert b.u == pytest.approx(norms.max())
        # the two means sit sqrt(13) apart
        assert b.r == pytest.approx(np.sqrt(13.0))
        assert 0.0 < b.b < lifted_conditioning(gmm, 4)

    def test_slack_scales_conditioning_floor(self):
        gmm = toy_gmm()
        assert derive_bounds(gmm, 4).b == pytest.approx(0.99 * lifted_conditioning(gmm, 4))

    def test_mean_at_origin_floors_the_norm_bound(self):
        gmm = GmmParams(np.zeros((2, 1)), np.array([1.0]), 0.01 * np.eye(2))
        bounds = derive_bounds(gmm, 4)
        assert bounds.u == 1e-12
        assert bounds.b == pytest.approx(0.99)

    @pytest.mark.parametrize("d", [4, 6])
    def test_zero_conditioning_is_infeasible(self, d):
        gmm = GmmParams(np.zeros((2, 2)), np.array([0.5, 0.5]), 0.01 * np.eye(2))
        with pytest.raises(FeasibilityError, match="is 0"):
            derive_bounds(gmm, d)


class TestLearnMeansOracle:
    def test_exact_recovery_of_means_and_weights(self):
        """With analytic cumulants in place of estimation the pipeline is
        exact: all residual error is algorithmic, and there is none."""
        rep = learn_means_oracle(toy_gmm(), 4, SeededRng(23))
        assert not rep.failed
        assert rep.aligned_error < 1e-8
        assert rep.diagnostics["max_error"] < 1e-8
        assert rep.diagnostics["weight_max_error"] < 1e-8
        assert not rep.diagnostics["weights_clipped"]

    def test_sign_resolution_through_division(self):
        """Dividing by the homogenizing coordinate recovers signed means,
        not just directions."""
        gmm = GmmParams(
            means=np.array([[-1.5, 2.0], [0.5, -1.0]]),
            weights=np.array([0.4, 0.6]),
            covariance=np.zeros((2, 2)),
        )
        rep = learn_means_oracle(gmm, 4, SeededRng(29))
        metrics = evaluate_recovery(rep, gmm)
        assert metrics["max_error"] < 1e-10
        est = rep.estimated_means[:, metrics["permutation"]]
        np.testing.assert_allclose(est, gmm.means, atol=1e-10)

    def test_order_six_also_exact(self):
        rep = learn_means_oracle(toy_gmm(), 6, SeededRng(31))
        assert rep.aligned_error < 1e-8

    def test_single_component(self):
        """One component leaves no eigenvalue gap to certify; its mean and
        unit weight still come back exactly."""
        gmm = GmmParams(np.array([[1.5], [-0.5]]), np.array([1.0]), 0.01 * np.eye(2))
        rep = learn_means_oracle(gmm, 4, SeededRng(33))
        assert rep.aligned_error < 1e-8
        assert rep.diagnostics["weight_max_error"] < 1e-8
        assert rep.diagnostics["eigengap"] == np.inf


class TestLearnMeans:
    def test_noiseless_two_component(self):
        gmm = toy_gmm()
        rep = learn_means(
            gmm, 2, 4, 0.1, 0.25, derive_bounds(gmm, 4), SeededRng(21),
            1_000_000, tau=15,
        )
        assert not rep.failed
        assert rep.aligned_error < 0.1
        assert rep.samples_used == 1_000_000
        assert rep.diagnostics["tv_certified"]
        assert rep.diagnostics["weight_max_error"] < 0.05
        assert abs(rep.diagnostics["weight_sum"] - 1.0) < 0.05

    def test_weight_sum_stays_near_one_across_trials(self):
        """Weights are read against the lifted means (mu_i, 1), whose count
        coordinate pins their sum, so a trial's error in the unlifted means
        does not carry into it.  Read against the unlifted means alone, the
        sum missed 1 by more than 0.6 in one of these ten trials."""
        gmm = GmmParams(
            np.array([[1.0, -0.5, 0.2], [0.3, 1.2, -1.1]]),
            np.array([0.2, 0.3, 0.5]),
            0.01 * np.eye(2),
        )
        misses = [
            abs(learn_means(
                gmm, 3, 4, 1e-6, 0.25, derive_bounds(gmm, 4), SeededRng(seed),
                200_000, tau=30,
            ).diagnostics["weight_sum"] - 1.0)
            for seed in range(40, 50)
        ]
        assert max(misses) < 0.1

    def test_truncation_abort_reports_failed_run(self):
        """tau = 6 at lambda = 2 leaves a fat tail; the subroutine aborts
        and the report carries no means."""
        gmm = toy_gmm()
        rep = learn_means(
            gmm, 2, 4, 0.1, 0.25, derive_bounds(gmm, 4), SeededRng(37),
            5_000, tau=6,
        )
        assert rep.failed
        assert rep.estimated_means is None
        assert rep.estimated_weights is None
        assert rep.aligned_error is None
        assert rep.diagnostics["failure_count"] > 0
        assert not rep.diagnostics["tv_certified"]

    def test_failed_report_refuses_evaluation(self):
        rep = LearnReport(
            estimated_means=None, estimated_weights=None, aligned_error=None,
            params=None, samples_used=0, failed=True,
        )
        with pytest.raises(ValueError):
            evaluate_recovery(rep, toy_gmm())

    def test_feasibility_floor_enforced(self):
        """Declaring a conditioning floor above the measured sigma_m stops
        the run before any sampling."""
        gmm = toy_gmm()
        bounds = derive_bounds(gmm, 4)
        bad = MeanBounds(w=bounds.w, u=bounds.u, r=bounds.r, b=1.0)
        with pytest.raises(FeasibilityError):
            learn_means(gmm, 2, 4, 0.1, 0.25, bad, SeededRng(1), 1_000, tau=15)

    def test_ground_truth_free_mode(self):
        """A black-box source skips the feasibility check and the metric but
        still learns the means."""
        gmm = toy_gmm()
        src = MixtureSource(
            draw=lambda count, r: sample_gmm(gmm, count, r),
            covariance=gmm.covariance,
        )
        rep = learn_means(
            src, 2, 4, 0.1, 0.25, derive_bounds(gmm, 4), SeededRng(41),
            1_000_000, tau=15,
        )
        assert rep.aligned_error is None
        assert "sigma_m_lifted" not in rep.diagnostics
        metrics = evaluate_recovery(rep, gmm)
        assert metrics["mean_error"] < 0.1

    def test_rejects_unknown_source_type(self):
        with pytest.raises(TypeError):
            learn_means(
                np.eye(2), 2, 4, 0.1, 0.25,
                MeanBounds(w=1.0, u=1.0, r=1.0, b=0.1), SeededRng(1), 100,
            )


class TestRecoverWeights:
    def test_exact_path(self):
        rng = SeededRng(47)
        a = rng.standard_normal((3, 3))
        w = np.array([0.2, 0.5, 0.3])
        lam = 4.0
        flat = analytic_ica_cumulant(a, lam * w, 3)
        np.testing.assert_allclose(recover_weights(a, lam, flat), w, atol=1e-10)

    def test_uniform_weights(self):
        rng = SeededRng(53)
        a = rng.standard_normal((4, 3))
        flat = analytic_ica_cumulant(a, 2.0 * np.full(3, 1.0 / 3.0), 3)
        np.testing.assert_allclose(
            recover_weights(a, 2.0, flat), np.full(3, 1.0 / 3.0), atol=1e-10
        )

    def test_empirical_path(self):
        """Order-3 cumulants of X = A S + noise at N = 1e6 pin the weights
        to a few percent."""
        rng = SeededRng(31)
        a = rng.standard_normal((3, 3))
        a /= np.linalg.norm(a, axis=0)
        w = np.array([0.5, 0.3, 0.2])
        lam = 3.0
        total = 1_000_000
        s = np.column_stack(
            [rng.poisson(lam * wi, size=total) for wi in w]
        ).astype(float)
        x = s @ a.T + 0.3 * rng.standard_normal((total, 3))
        acc = MomentAccumulator(3, 3, shift=x[:100_000].mean(axis=0))
        for lo in range(0, total, 1 << 17):
            acc.update(x[lo : lo + (1 << 17)])
        est = recover_weights(a, lam, assemble_flat_cumulant(acc, 3))
        assert np.abs(est - w).max() < 0.05
        assert abs(est.sum() - 1.0) < 0.05

    def test_rank_deficient_mixing_rejected(self):
        a = np.array([[1.0, 1.0], [0.0, 0.0]])
        flat = analytic_ica_cumulant(a, np.array([1.0, 1.0]), 3)
        with pytest.raises(IllConditionedError):
            recover_weights(a, 1.0, flat)

    def test_low_order_rejected(self):
        flat = FlatCumulant(order=2, dimension=2, data=np.zeros(4))
        with pytest.raises(ValueError):
            recover_weights(np.eye(2), 1.0, flat)

    def test_bad_lambda_rejected(self):
        rng = SeededRng(61)
        a = rng.standard_normal((2, 2))
        flat = analytic_ica_cumulant(a, np.ones(2), 3)
        with pytest.raises(ValueError):
            recover_weights(a, 0.0, flat)


class TestEvaluateRecovery:
    def test_exact_estimate_zero_errors(self):
        gmm = toy_gmm()
        rep = LearnReport(
            estimated_means=gmm.means.copy(), estimated_weights=None,
            aligned_error=None, params=None, samples_used=0, failed=False,
        )
        metrics = evaluate_recovery(rep, gmm)
        assert metrics["max_error"] == 0.0
        assert metrics["mean_error"] == 0.0
        assert metrics["permutation"] == [0, 1]

    def test_permutation_recovered(self):
        gmm = toy_gmm()
        rep = LearnReport(
            estimated_means=gmm.means[:, ::-1].copy(), estimated_weights=None,
            aligned_error=None, params=None, samples_used=0, failed=False,
        )
        metrics = evaluate_recovery(rep, gmm)
        assert metrics["max_error"] == 0.0
        assert metrics["permutation"] == [1, 0]

    def test_small_noise_small_error(self):
        gmm = toy_gmm()
        rng = SeededRng(67)
        noisy = gmm.means + 0.05 * rng.standard_normal(gmm.means.shape)
        rep = LearnReport(
            estimated_means=noisy, estimated_weights=None,
            aligned_error=None, params=None, samples_used=0, failed=False,
        )
        assert evaluate_recovery(rep, gmm)["max_error"] <= 0.1

    def test_no_sign_freedom(self):
        """Means are signed quantities: a negated estimate is simply wrong."""
        gmm = toy_gmm()
        rep = LearnReport(
            estimated_means=-gmm.means, estimated_weights=None,
            aligned_error=None, params=None, samples_used=0, failed=False,
        )
        assert evaluate_recovery(rep, gmm)["max_error"] > 1.0

    def test_weight_error_follows_permutation(self):
        gmm = toy_gmm()
        rep = LearnReport(
            estimated_means=gmm.means[:, ::-1].copy(),
            estimated_weights=np.array([0.45, 0.55]),
            aligned_error=None, params=None, samples_used=0, failed=False,
        )
        metrics = evaluate_recovery(rep, gmm)
        assert metrics["weight_max_error"] == pytest.approx(0.05)

    def test_shape_mismatch_rejected(self):
        rep = LearnReport(
            estimated_means=np.zeros((3, 2)), estimated_weights=None,
            aligned_error=None, params=None, samples_used=0, failed=False,
        )
        with pytest.raises(ValueError):
            evaluate_recovery(rep, toy_gmm())
