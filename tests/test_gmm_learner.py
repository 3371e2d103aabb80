"""End-to-end mixture learning, weight recovery, and evaluation metrics."""

import time

import numpy as np
import pytest

from poissonize.cumulants import (
    FlatCumulant,
    MomentAccumulator,
    analytic_ica_cumulant,
    assemble_flat_cumulant,
)
from poissonize.distributions import GmmParams, SeededRng, sample_gmm, truncated_poisson_tv
from poissonize.gmm_learner import (
    FeasibilityError,
    LearnReport,
    derive_bounds,
    evaluate_recovery,
    learn_means,
    learn_means_oracle,
    recover_weights,
)
from poissonize.ica import IllConditionedError
from poissonize.poissonization import MixtureSource, SubroutineFailure


def toy_gmm():
    """Noiseless two-component mixture with orthogonal means."""
    return GmmParams(
        means=np.array([[2.0, 0.0], [0.0, 3.0]]),
        weights=np.array([0.5, 0.5]),
        covariance=np.zeros((2, 2)),
    )


class TestDeriveBounds:
    def test_mixture_satisfies_its_own_bounds(self):
        """At d = 6 the measurement takes the Khatri-Rao cube: the toy's
        lifted unit means have inner product 1/sqrt(50), their cubes
        50**-1.5, so sigma_m is sqrt(1 - 50**-1.5), with no slack taken off."""
        assert derive_bounds(toy_gmm(), 6) == pytest.approx(np.sqrt(1 - 50**-1.5))

    def test_matches_closed_form(self):
        """The toy means lift to unit columns with inner product 1/sqrt(50);
        their Khatri-Rao squares have inner product 1/50, so sigma_m is
        sqrt(1 - 1/50)."""
        assert derive_bounds(toy_gmm(), 4) == pytest.approx(np.sqrt(0.98))

    def test_mean_at_origin_floors_the_norm_bound(self):
        """A mean at the origin lifts to the unit vector (0, 1), so its
        conditioning is 1, not 0."""
        gmm = GmmParams(np.zeros((2, 1)), np.array([1.0]), 0.01 * np.eye(2))
        assert derive_bounds(gmm, 4) == pytest.approx(1.0)

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
            gmm, 2, 4, 0.1, SeededRng(21),
            1_000_000, tau=15,
        )
        assert rep.aligned_error < 0.1
        assert rep.diagnostics["tv_certified"]
        assert rep.diagnostics["weight_max_error"] < 0.05
        assert abs(rep.diagnostics["weight_sum"] - 1.0) < 0.05

    def test_default_tau_is_certified(self):
        """Without a tau the run truncates at the certified cutoff for
        delta / (2 N), 12 on this mixture at N = 2e5, and its noise level
        tau * Sigma leaves the means readable (aligned error 0.088)."""
        gmm = GmmParams(
            np.array([[2.0, 0.0], [0.0, 3.0]]), np.array([0.5, 0.5]), 0.01 * np.eye(2)
        )
        rep = learn_means(
            gmm, 2, 4, 0.1, SeededRng(21), 200_000,
        )
        assert rep.params.tau == 12
        assert rep.diagnostics["tv_certified"]
        assert rep.aligned_error < 0.15

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
                gmm, 3, 4, 1e-6, SeededRng(seed),
                200_000, tau=30,
            ).diagnostics["weight_sum"] - 1.0)
            for seed in range(40, 50)
        ]
        assert max(misses) < 0.1

    def test_truncation_abort_reports_failed_run(self):
        """tau = 6 at lambda = 2 leaves a fat tail; the subroutine aborts,
        and the raised SubroutineFailure carries the offending count and the
        run's diagnostics, its uncertified truncation gap among them."""
        gmm = toy_gmm()
        with pytest.raises(SubroutineFailure) as info:
            learn_means(
                gmm, 2, 4, 0.1, SeededRng(37),
                5_000, tau=6,
            )
        assert info.value.count > 6
        diagnostics = info.value.diagnostics
        assert not diagnostics["tv_certified"]
        assert diagnostics["tv_gap"] == 5_000 * truncated_poisson_tv(2.0, 6)

    def test_feasibility_floor_enforced(self):
        """A mixture whose lifted conditioning is 0 (two means at the
        origin) stops the run before any sampling: no generator is touched,
        and none is given."""
        gmm = GmmParams(np.zeros((2, 2)), np.array([0.5, 0.5]), 0.01 * np.eye(2))
        with pytest.raises(FeasibilityError, match="is 0"):
            learn_means(gmm, 2, 4, 0.1, None, 1_000, tau=15)

    def test_stage_seconds_cover_the_run(self):
        """The four stage times are positive and sum to at most the wall
        time of the call; an aborted run keeps those of the chunks it
        finished, and assembly and recovery stay at 0."""
        started = time.perf_counter()
        rep = learn_means(toy_gmm(), 2, 4, 0.1, SeededRng(1), 30_000, tau=15, chunk=10_000)
        elapsed = time.perf_counter() - started
        stages = rep.diagnostics["stage_seconds"]
        assert list(stages) == ["sample", "accumulate", "assemble", "recover"]
        assert all(seconds > 0 for seconds in stages.values())
        assert sum(stages.values()) <= elapsed
        with pytest.raises(SubroutineFailure) as info:
            learn_means(toy_gmm(), 2, 4, 0.1, SeededRng(37), 5_000, tau=6)
        stages = info.value.diagnostics["stage_seconds"]
        assert stages["assemble"] == stages["recover"] == 0.0

    def test_conditioning_recorded(self):
        rep = learn_means(toy_gmm(), 2, 4, 0.1, SeededRng(1), 1_000, tau=15)
        assert rep.diagnostics["sigma_m_lifted"] == derive_bounds(toy_gmm(), 4)

    @pytest.mark.parametrize("m", [1, 3])
    def test_component_count_mismatch_rejected_before_sampling(self, m):
        """An m other than the mixture's own component count is refused
        before any sampling: no generator is touched, and none is given."""
        gmm = GmmParams(
            np.array([[2.0, 0.0], [0.0, 3.0]]), np.array([0.5, 0.5]), 0.01 * np.eye(2)
        )
        with pytest.raises(ValueError, match=f"m is {m} but the mixture has 2"):
            learn_means(gmm, m, 4, 0.1, None, 200_000)

    def test_unsupported_order(self):
        """An order the solver cannot diagonalize is refused before any
        sampling: no generator is touched, and none is given."""
        with pytest.raises(ValueError, match=r"cumulant order must be one of \(4, 6\)"):
            learn_means(toy_gmm(), 2, 5, 0.1, None, 1_000, tau=15)

    @pytest.mark.parametrize("samples, chunk", [(0, 1 << 17), (0.5, 1 << 17), (1_000, 0)])
    def test_empty_pass_rejected_before_sampling(self, samples, chunk):
        """A pass of no rows is refused before the certified tau divides by
        the sample count and before any sampling."""
        with pytest.raises(ValueError, match="samples and chunk must be at least 1"):
            learn_means(toy_gmm(), 2, 4, 0.1, None, samples, chunk=chunk)

    def test_ground_truth_free_mode(self):
        """A black-box source skips the feasibility check and the metric but
        still learns the means."""
        gmm = toy_gmm()
        src = MixtureSource(
            draw=lambda count, r: sample_gmm(gmm, count, r),
            covariance=gmm.covariance,
        )
        rep = learn_means(
            src, 2, 4, 0.1, SeededRng(41),
            1_000_000, tau=15,
        )
        assert rep.aligned_error is None
        assert "sigma_m_lifted" not in rep.diagnostics
        metrics = evaluate_recovery(rep, gmm)
        assert metrics["mean_error"] < 0.1

    def test_rejects_unknown_source_type(self):
        with pytest.raises(TypeError):
            learn_means(
                np.eye(2), 2, 4, 0.1, SeededRng(1), 100,
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

    @pytest.mark.parametrize("scales, rejected", [
        ((1.0, 1e-3), False),  # sigma ratio 1e-9 clears the 1e-10 cutoff
        ((1.0, 1e-4), True),  # sigma ratio 1e-12 does not
        ((1e-4, 1e-4), True),  # below sigma_max 1 the cutoff is absolute
    ])
    def test_conditioning_cutoff(self, scales, rejected):
        """The order-3 Khatri-Rao power of diag(scales) has singular values
        scales**3; it is refused when the smallest is at most
        1e-10 * max(1, largest), and otherwise solved exactly."""
        a = np.diag(scales)
        flat = analytic_ica_cumulant(a, np.array([1.0, 2.0]), 3)
        if rejected:
            with pytest.raises(IllConditionedError, match="rank deficient"):
                recover_weights(a, 3.0, flat)
        else:
            np.testing.assert_allclose(recover_weights(a, 3.0, flat), [1 / 3, 2 / 3])

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
            aligned_error=None, params=None,
        )
        metrics = evaluate_recovery(rep, gmm)
        assert metrics["max_error"] == 0.0
        assert metrics["mean_error"] == 0.0
        assert metrics["permutation"] == [0, 1]

    def test_permutation_recovered(self):
        gmm = toy_gmm()
        rep = LearnReport(
            estimated_means=gmm.means[:, ::-1].copy(), estimated_weights=None,
            aligned_error=None, params=None,
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
            aligned_error=None, params=None,
        )
        assert evaluate_recovery(rep, gmm)["max_error"] <= 0.1

    def test_no_sign_freedom(self):
        """Means are signed quantities: a negated estimate is simply wrong."""
        gmm = toy_gmm()
        rep = LearnReport(
            estimated_means=-gmm.means, estimated_weights=None,
            aligned_error=None, params=None,
        )
        assert evaluate_recovery(rep, gmm)["max_error"] > 1.0

    def test_weight_error_follows_permutation(self):
        gmm = toy_gmm()
        rep = LearnReport(
            estimated_means=gmm.means[:, ::-1].copy(),
            estimated_weights=np.array([0.45, 0.55]),
            aligned_error=None, params=None,
        )
        metrics = evaluate_recovery(rep, gmm)
        assert metrics["weight_max_error"] == pytest.approx(0.05)

    def test_shape_mismatch_rejected(self):
        rep = LearnReport(
            estimated_means=np.zeros((3, 2)), estimated_weights=None,
            aligned_error=None, params=None,
        )
        with pytest.raises(ValueError):
            evaluate_recovery(rep, toy_gmm())
