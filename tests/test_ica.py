"""Underdetermined ICA solver and column alignment.

Oracle tests feed exact analytic cumulant tensors through the recovery and
demand near-machine accuracy; Monte Carlo tests use fixed seeds and fixed
instances.  Recovery accuracy at a fixed sample budget degrades with the
distance between the closest pair of mixing columns (any single contraction
separates a close pair by at most that distance), so the sampled instances
here keep their columns generically spread.
"""

import numpy as np
import pytest

from poissonize import (
    DegenerateModelError,
    IcaEstimate,
    IllConditionedError,
    SeededRng,
    align_columns,
    analytic_ica_cumulant,
    estimate_cumulant_pair,
    khatri_rao_power,
    recover_from_cumulants,
    sigma_min,
)


def random_unit_columns(n, m, rng):
    a = rng.standard_normal((n, m))
    return a / np.linalg.norm(a, axis=0)


def oracle_pair(mixing, rates, d):
    """Exact flattened cumulants of X = A S with S_i ~ Poisson(rates[i])."""
    m0 = analytic_ica_cumulant(mixing, rates, d).as_matrix()
    k_next = analytic_ica_cumulant(mixing, rates, d + 1).data
    return m0, k_next


class TestAlignColumns:
    def test_identity_alignment(self):
        a = random_unit_columns(3, 3, SeededRng(1))
        perm, signs, err = align_columns(a, a)
        np.testing.assert_array_equal(perm, [0, 1, 2])
        np.testing.assert_array_equal(signs, [1, 1, 1])
        assert err == pytest.approx(0.0)

    def test_swap_and_negation_recovered(self):
        truth = random_unit_columns(4, 3, SeededRng(2))
        est = truth[:, [1, 0, 2]].copy()
        est[:, 0] *= -1.0
        perm, signs, err = align_columns(est, truth)
        assert err == pytest.approx(0.0, abs=1e-12)
        # estimate[:, perm[j]] * signs[j] reproduces truth[:, j]
        fixed = est[:, perm] * signs
        np.testing.assert_allclose(fixed, truth, atol=1e-12)

    def test_small_perturbation_small_error(self):
        rng = SeededRng(3)
        truth = random_unit_columns(5, 4, rng)
        est = truth + 0.01 * rng.standard_normal((5, 4))
        est /= np.linalg.norm(est, axis=0)
        _, _, err = align_columns(est, truth)
        # entrywise 0.01 noise moves a unit column by about 0.01 * sqrt(5)
        assert err <= 0.03

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            align_columns(np.eye(3), np.eye(4))


class TestRecoverFromCumulantsOracle:
    def test_identity_mixing(self):
        m0, k5 = oracle_pair(np.eye(3), np.array([1.0, 2.0, 3.0]), 4)
        est = recover_from_cumulants(m0, k5, 3, 4, SeededRng(5))
        _, _, err = align_columns(est.columns, np.eye(3))
        assert err < 1e-8

    def test_overcomplete_oracle_high_accuracy(self):
        """Exact tensors, no sampling: recovery to 1e-8 whenever the
        flattened mixing is well conditioned."""
        rng = SeededRng(7)
        done = 0
        while done < 20:
            a = random_unit_columns(4, 6, rng)
            if sigma_min(khatri_rao_power(a, 2)) <= 1e-3:
                continue
            rates = rng.uniform(1.0, 3.0, size=6)
            m0, k5 = oracle_pair(a, rates, 4)
            est = recover_from_cumulants(m0, k5, 6, 4, rng)
            _, _, err = align_columns(est.columns, a)
            assert err < 1e-8
            done += 1

    def test_noise_invariance_is_structural(self):
        """The analytic tensors take no noise argument: order >= 3 cumulants
        of any added Gaussian vanish, so the oracle recovery is what a
        noisy model would converge to."""
        a = random_unit_columns(3, 3, SeededRng(9))
        rates = np.array([2.0, 1.0, 1.5])
        m0a, k5a = oracle_pair(a, rates, 4)
        est = recover_from_cumulants(m0a, k5a, 3, 4, SeededRng(10))
        _, _, err = align_columns(est.columns, a)
        assert err < 1e-8

    def test_estimate_columns_unit_norm(self):
        m0, k5 = oracle_pair(np.eye(3), np.array([1.0, 2.0, 3.0]), 4)
        est = recover_from_cumulants(m0, k5, 3, 4, SeededRng(11))
        np.testing.assert_allclose(np.linalg.norm(est.columns, axis=0), 1.0, atol=1e-10)

    def test_eigengap_positive_on_random_instances(self):
        """Random contractions separate the eigenvalues in every one of 100
        random well-conditioned instances."""
        rng = SeededRng(13)
        for _ in range(100):
            a = random_unit_columns(3, 3, rng)
            rates = rng.uniform(0.5, 2.5, size=3)
            m0, k5 = oracle_pair(a, rates, 4)
            est = recover_from_cumulants(m0, k5, 3, 4, rng)
            assert est.eigengap > 0.0

    def test_rank_deficient_flat_mixing_rejected(self):
        # two parallel columns collapse the flattened rank below m
        bad = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        bad /= np.linalg.norm(bad, axis=0)
        m0, k5 = oracle_pair(bad, np.ones(3), 4)
        with pytest.raises(DegenerateModelError):
            recover_from_cumulants(m0, k5, 3, 4, SeededRng(15))

    def test_vanishing_next_order_cumulants_rejected(self):
        """Sources with zero order-(d+1) cumulants give no contraction any
        eigenvalue spread; the solver must refuse rather than return noise."""
        a = random_unit_columns(3, 3, SeededRng(17))
        m0 = analytic_ica_cumulant(a, np.ones(3), 4).as_matrix()
        with pytest.raises(IllConditionedError):
            recover_from_cumulants(m0, np.zeros(3**5), 3, 4, SeededRng(18))

    def test_odd_order_rejected(self):
        with pytest.raises(ValueError):
            recover_from_cumulants(np.eye(8), np.zeros(32), 2, 3, SeededRng(0))

    def test_inconsistent_sizes_rejected(self):
        with pytest.raises(ValueError):
            recover_from_cumulants(np.eye(9), np.zeros(17), 2, 4, SeededRng(0))


class TestEstimateCumulantPair:
    def test_streaming_matches_batch(self):
        rng = SeededRng(19)
        data = rng.poisson(2.0, size=(30_000, 2)).astype(float)
        pos = [0]

        def source(count):
            block = data[pos[0] : pos[0] + count]
            pos[0] += count
            return block

        m0, k5, acc = estimate_cumulant_pair(source, 4, 30_000, chunk=7_000)
        assert acc.count == 30_000
        assert m0.shape == (4, 4)
        assert k5.size == 32
        np.testing.assert_allclose(m0, m0.T, atol=1e-12)

    def test_unsupported_order(self):
        with pytest.raises(ValueError):
            estimate_cumulant_pair(lambda c: np.zeros((c, 2)), 5, 100)

    def test_dried_up_source(self):
        calls = [0]

        def source(count):
            calls[0] += 1
            return np.zeros((0 if calls[0] > 1 else count, 2))

        with pytest.raises(ValueError):
            estimate_cumulant_pair(source, 4, 10_000, chunk=100)


class TestUnderdeterminedIca:
    """Streamed cumulant estimates fed to the recovery."""

    def test_identity_mixing_noiseless(self):
        rng = SeededRng(11)
        rates = np.array([1.0, 2.0, 3.0])

        def source(count):
            return np.column_stack(
                [rng.poisson(r, size=count) for r in rates]
            ).astype(float)

        m0, k_next, _ = estimate_cumulant_pair(source, 4, 1_000_000)
        est = recover_from_cumulants(m0, k_next, 3, 4, rng)
        _, _, err = align_columns(est.columns, np.eye(3))
        assert err < 0.05

    def test_identity_mixing_with_gaussian_noise(self):
        rng = SeededRng(12)
        rates = np.array([1.0, 2.0, 3.0])

        def source(count):
            s = np.column_stack(
                [rng.poisson(r, size=count) for r in rates]
            ).astype(float)
            return s + 0.5 * rng.standard_normal((count, 3))

        m0, k_next, _ = estimate_cumulant_pair(source, 4, 1_000_000)
        est = recover_from_cumulants(m0, k_next, 3, 4, rng)
        _, _, err = align_columns(est.columns, np.eye(3))
        assert err < 0.1

    @pytest.mark.slow
    def test_overcomplete_recovery(self):
        """Six sources in four dimensions from ten million draws; the fixed
        instance keeps its closest column pair 0.64 apart."""
        rng = SeededRng(93)
        a = random_unit_columns(4, 6, rng)
        rates = rng.uniform(1.0, 3.0, size=6)

        def source(count):
            s = np.column_stack(
                [rng.poisson(r, size=count) for r in rates]
            ).astype(float)
            return s @ a.T

        m0, k_next, _ = estimate_cumulant_pair(source, 4, 10_000_000)
        est = recover_from_cumulants(m0, k_next, 6, 4, rng)
        _, _, err = align_columns(est.columns, a)
        assert err < 0.15

    def test_doubling_samples_does_not_hurt(self):
        """Median aligned error over 20 seeded repetitions is monotone
        (not increasing) when the sample budget doubles."""
        rates = np.array([1.0, 2.0, 3.0])

        def run(seed, total):
            rng = SeededRng(seed)

            def source(count):
                return np.column_stack(
                    [rng.poisson(r, size=count) for r in rates]
                ).astype(float)

            m0, k_next, _ = estimate_cumulant_pair(source, 4, total)
            est = recover_from_cumulants(m0, k_next, 3, 4, rng)
            return align_columns(est.columns, np.eye(3))[2]

        small = np.median([run(400 + i, 50_000) for i in range(20)])
        large = np.median([run(400 + i, 100_000) for i in range(20)])
        assert large <= small


class TestIcaEstimate:
    def test_unit_norm_enforced(self):
        with pytest.raises(ValueError):
            IcaEstimate(columns=2.0 * np.eye(2), eigengap=0.1, order_used=4)
