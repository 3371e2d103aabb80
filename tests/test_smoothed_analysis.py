"""Perturbed Khatri-Rao conditioning trials and supporting inequalities."""

from dataclasses import asdict

import numpy as np
import pytest

from poissonize.distributions import SeededRng
from poissonize.smoothed_analysis import (
    FAMILIES,
    SmoothedTrial,
    base_matrix,
    run_smoothed,
    rv_check,
    smoothed_trial,
)
from poissonize.tensor_linalg import khatri_rao, sigma_min


class TestBaseMatrix:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_shape(self, family):
        m = base_matrix(family, 6, SeededRng(1))
        assert m.shape == (6, 15)

    def test_zero_family_is_zero(self):
        assert not base_matrix("zero", 5, SeededRng(2)).any()

    def test_rank1_family_has_rank_one(self):
        m = base_matrix("rank1", 6, SeededRng(3))
        assert np.linalg.matrix_rank(m) == 1
        # scaled to unit RMS entries
        assert np.sum(m * m) == pytest.approx(m.size)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            base_matrix("cauchy", 6, SeededRng(4))

    def test_tiny_n_rejected(self):
        with pytest.raises(ValueError):
            base_matrix("zero", 2, SeededRng(5))


class TestSmoothedTrial:
    def test_zero_base_n10(self):
        """Pure noise at n = 10, sigma = 0.1: the reference level is
        sigma^2 / n^7 = 1e-9 and the measured value clears it by orders
        of magnitude."""
        trial = smoothed_trial(base_matrix("zero", 10, SeededRng(3)), 0.1, SeededRng(3))
        assert trial.bound == pytest.approx(1e-9)
        assert trial.passed
        assert trial.sigma_min_kr2 > 1e-5

    def test_full_square_dominates_multilinear(self):
        trial = smoothed_trial(base_matrix("gaussian", 7, SeededRng(5)), 0.2, SeededRng(6))
        assert trial.sigma_min_kr_odot2 >= trial.sigma_min_kr2 - 1e-12

    @pytest.mark.parametrize("n", [3, 6, 20])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_full_square_matches_the_khatri_rao_square(self, family, n):
        """The recorded full square is sigma_min of ``khatri_rao(P, P)`` for
        the perturbed matrix P, within 1e-12 relative."""
        base = base_matrix(family, n, SeededRng(n))
        trial = smoothed_trial(base, 0.1, SeededRng(n + 1))
        perturbed = base + 0.1 * SeededRng(n + 1).standard_normal(base.shape)
        want = sigma_min(khatri_rao(perturbed, perturbed))
        assert trial.sigma_min_kr_odot2 == pytest.approx(want, rel=1e-12, abs=0)

    def test_scaling_law(self):
        """(cM, c sigma) with the same noise draw scales both measured
        values by exactly c^2."""
        base = base_matrix("gaussian", 6, SeededRng(7))
        c = 3.0
        one = smoothed_trial(base, 0.1, SeededRng(8))
        two = smoothed_trial(c * base, c * 0.1, SeededRng(8))
        assert two.sigma_min_kr2 == pytest.approx(c**2 * one.sigma_min_kr2, rel=1e-12)
        assert two.sigma_min_kr_odot2 == pytest.approx(
            c**2 * one.sigma_min_kr_odot2, rel=1e-12
        )

    def test_deterministic_given_seed(self):
        base = base_matrix("gaussian", 6, SeededRng(9))
        a = smoothed_trial(base, 0.1, SeededRng(10))
        b = smoothed_trial(base, 0.1, SeededRng(10))
        assert a.sigma_min_kr2 == b.sigma_min_kr2

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            smoothed_trial(np.zeros((6, 14)), 0.1, SeededRng(11))

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(ValueError):
            smoothed_trial(np.zeros((6, 15)), 0.0, SeededRng(12))

    def test_inconsistent_flag_rejected(self):
        with pytest.raises(ValueError):
            SmoothedTrial(
                family="zero", n=6, sigma=0.1, seed=0,
                sigma_min_kr2=0.5, sigma_min_kr_odot2=0.5, bound=1.0, passed=True,
            )

    def test_round_trips_to_dict(self):
        trial = smoothed_trial(base_matrix("zero", 6, SeededRng(13)), 0.1, SeededRng(13))
        d = asdict(trial)
        assert list(d) == [
            "family", "n", "sigma", "seed",
            "sigma_min_kr2", "sigma_min_kr_odot2", "bound", "passed",
        ]
        assert SmoothedTrial(**d) == trial


class TestRunSmoothed:
    def test_all_families_all_pass_at_small_n(self):
        results = run_smoothed(FAMILIES, 6, 0.1, 10, SeededRng(11))
        assert len(results) == 30
        assert {r.family for r in results} == set(FAMILIES)
        assert all(r.passed for r in results)

    def test_deterministic(self):
        a = run_smoothed(("gaussian",), 6, 0.1, 5, SeededRng(15))
        b = run_smoothed(("gaussian",), 6, 0.1, 5, SeededRng(15))
        assert [t.sigma_min_kr2 for t in a] == [t.sigma_min_kr2 for t in b]

    def test_median_grows_with_sigma(self):
        """Zero base with shared seeds: homogeneity makes the median scale
        exactly quadratically in sigma."""
        medians = []
        for sigma in (0.01, 0.05, 0.1, 0.2):
            rs = run_smoothed(("zero",), 6, sigma, 8, SeededRng(71))
            medians.append(np.median([r.sigma_min_kr2 for r in rs]))
        assert all(a < b for a, b in zip(medians, medians[1:]))
        assert medians[2] == pytest.approx(100.0 * medians[0], rel=1e-9)


class TestRvCheck:
    def test_identity(self):
        out = rv_check(np.eye(3))
        assert out["lhs"] == pytest.approx(1.0 / np.sqrt(3.0))
        assert out["rhs"] == pytest.approx(1.0)
        assert out["holds"]

    def test_rank_deficient_both_sides_vanish(self):
        out = rv_check(np.array([[1.0, 2.0], [2.0, 4.0]]))
        assert out["lhs"] == pytest.approx(0.0, abs=1e-10)
        assert out["rhs"] == pytest.approx(0.0, abs=1e-10)
        assert out["holds"]

    def test_random_instances(self):
        rng = SeededRng(23)
        for _ in range(25):
            assert rv_check(rng.standard_normal((6, 10)))["holds"]

    def test_single_column_rejected(self):
        with pytest.raises(ValueError):
            rv_check(np.ones((3, 1)))
