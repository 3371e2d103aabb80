"""Tensor flattening, Khatri-Rao products, and the small matrix helpers.

Oracle values are computed by hand or frozen from an independent
implementation (itertools-based flattening, explicit outer products);
property tests sweep the small shapes the pipeline actually uses.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poissonize.cumulants import MomentAccumulator, assemble_flat_cumulant
from poissonize.tensor_linalg import (
    khatri_rao,
    khatri_rao_power,
    multilinear_kr_square,
    pseudo_inverse,
    rank1_deflatten,
    sigma_min,
)


def one_hot(n, i):
    """Basis vector e_i of R^n as an (n, 1) matrix."""
    out = np.zeros((n, 1))
    out[i, 0] = 1.0
    return out


def flat_position(indices, n):
    """Position of the 0-based multi-index in the Khatri-Rao flattening of
    the basis vectors e_{i_1}, ..., e_{i_ell} of R^n."""
    flat = one_hot(n, indices[0])
    for i in indices[1:]:
        flat = khatri_rao(flat, one_hot(n, i))
    (position,) = np.flatnonzero(flat[:, 0])
    return int(position)


class TestFlattenIndex:
    """The one flattening convention, numpy's 0-based row-major order, as
    the package's flat layouts realize it."""

    def test_all_ones(self):
        assert flat_position((0, 0), 3) == 0

    def test_by_hand(self):
        # 3^1 * 1 + 3^0 * 2 = 5
        assert flat_position((1, 2), 3) == 5

    def test_maximal_tuple_hits_last_position(self):
        assert flat_position((2, 2, 2), 3) == 26
        np.testing.assert_array_equal(
            np.flatnonzero(khatri_rao_power(one_hot(3, 2), 3)), [26]
        )

    def test_out_of_range_rejected(self):
        acc = MomentAccumulator(3, 2)
        acc.update(np.eye(3))
        for bad in ([-1, 0], [0, 3]):
            with pytest.raises(ValueError):
                assemble_flat_cumulant(acc, 2, coordinates=bad)

    def test_empty_tuple_rejected(self):
        acc = MomentAccumulator(3, 2)
        acc.update(np.eye(3))
        with pytest.raises(ValueError):
            assemble_flat_cumulant(acc, 0)
        with pytest.raises(ValueError):
            assemble_flat_cumulant(acc, 2, coordinates=[])

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("ell", [1, 2, 3])
    def test_bijection(self, n, ell):
        """Enumerating [n]^ell hits every position in [0, n^ell) once, at
        np.ravel_multi_index."""
        tuples = list(itertools.product(range(n), repeat=ell))
        positions = [flat_position(tup, n) for tup in tuples]
        assert positions == [np.ravel_multi_index(tup, (n,) * ell) for tup in tuples]
        assert sorted(positions) == list(range(n**ell))

    def test_row_major_order(self):
        # first index slowest: (0, 1) comes right after (0, 0)
        assert flat_position((0, 1), 3) == 1
        assert flat_position((1, 0), 3) == 3


class TestKhatriRao:
    def test_identity_columns(self):
        out = khatri_rao(np.eye(2), np.eye(2))
        expected = np.zeros((4, 2))
        expected[0, 0] = 1.0  # e1 (x) e1 -> position 1
        expected[3, 1] = 1.0  # e2 (x) e2 -> position 4
        np.testing.assert_array_equal(out, expected)

    def test_single_column_by_hand(self):
        out = khatri_rao(np.array([[1.0], [2.0]]), np.array([[3.0], [4.0]]))
        np.testing.assert_allclose(out.ravel(), [3.0, 4.0, 6.0, 8.0])

    def test_bilinear_in_first_factor(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((2, 4))
        np.testing.assert_allclose(
            khatri_rao(2.5 * a, b), 2.5 * khatri_rao(a, b), atol=1e-14
        )

    def test_column_count_mismatch(self):
        with pytest.raises(ValueError):
            khatri_rao(np.eye(2), np.eye(3))

    def test_matches_flattened_outer_product(self):
        """Column k equals the outer product a_k b_k^T read out at
        np.ravel_multi_index."""
        rng = np.random.default_rng(11)
        a = rng.standard_normal((3, 2))
        b = rng.standard_normal((4, 2))
        out = khatri_rao(a, b)
        for k in range(2):
            for i in range(3):
                for j in range(4):
                    flat = np.ravel_multi_index((i, j), (3, 4))
                    assert out[flat, k] == pytest.approx(a[i, k] * b[j, k], abs=1e-15)


class TestKhatriRaoPower:
    def test_power_one_is_identity(self):
        a = np.arange(6.0).reshape(2, 3)
        np.testing.assert_array_equal(khatri_rao_power(a, 1), a)

    def test_power_two_matches_pairwise(self):
        np.testing.assert_array_equal(
            khatri_rao_power(np.eye(2), 2), khatri_rao(np.eye(2), np.eye(2))
        )

    @pytest.mark.parametrize("ell", [1, 2, 3])
    def test_shape_law(self, ell):
        a = np.random.default_rng(3).standard_normal((3, 5))
        assert khatri_rao_power(a, ell).shape == (3**ell, 5)

    def test_zero_power_rejected(self):
        with pytest.raises(ValueError):
            khatri_rao_power(np.eye(2), 0)

    @given(ell=st.integers(min_value=1, max_value=3), seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_unit_columns_stay_unit(self, ell, seed):
        """||a (x) a ... (x) a|| = ||a||^ell, so unit columns stay unit."""
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((4, 3))
        a /= np.linalg.norm(a, axis=0)
        norms = np.linalg.norm(khatri_rao_power(a, ell), axis=0)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)


class TestMultilinearKrSquare:
    def test_two_rows_single_product(self):
        out = multilinear_kr_square(np.array([[1.0], [1.0]]))
        np.testing.assert_array_equal(out, [[1.0]])

    def test_three_rows_by_hand(self):
        out = multilinear_kr_square(np.array([[1.0], [2.0], [3.0]]))
        np.testing.assert_allclose(out.ravel(), [2.0, 3.0, 6.0])

    def test_row_count(self):
        a = np.random.default_rng(0).standard_normal((5, 2))
        assert multilinear_kr_square(a).shape == (10, 2)

    def test_single_row_rejected(self):
        with pytest.raises(ValueError):
            multilinear_kr_square(np.ones((1, 2)))

    def test_sigma_min_dominated_by_full_square(self):
        """The full Khatri-Rao square keeps diagonal rows and both copies of
        each off-diagonal pair, so its smallest singular value can only be
        larger."""
        rng = np.random.default_rng(42)
        for _ in range(50):
            a = rng.standard_normal((4, 6))
            full = sigma_min(khatri_rao_power(a, 2))
            reduced = sigma_min(multilinear_kr_square(a))
            assert full >= reduced - 1e-12


class TestSigmaMin:
    def test_identity(self):
        assert sigma_min(np.eye(3)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert sigma_min(np.diag([2.0, 0.5])) == pytest.approx(0.5)

    def test_rank_deficient(self):
        assert sigma_min(np.ones((2, 2))) == pytest.approx(0.0, abs=1e-12)

    def test_wide_matrix_uses_min_dimension(self):
        # 2x3 of rank 2: returns the 2nd singular value, not a third zero
        a = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        assert sigma_min(a) == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sigma_min(np.zeros((0, 3)))


class TestPseudoInverse:
    def test_identity(self):
        np.testing.assert_allclose(pseudo_inverse(np.eye(3)), np.eye(3), atol=1e-14)

    def test_left_inverse_of_tall_full_rank(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((5, 3))
        np.testing.assert_allclose(pseudo_inverse(a) @ a, np.eye(3), atol=1e-10)

    def test_zero_matrix(self):
        np.testing.assert_array_equal(pseudo_inverse(np.zeros((3, 2))), np.zeros((2, 3)))

    def test_penrose_conditions(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((4, 6))
        p = pseudo_inverse(a)
        np.testing.assert_allclose(a @ p @ a, a, atol=1e-10)
        np.testing.assert_allclose(p @ a @ p, p, atol=1e-10)

    def test_near_singular_direction_dropped(self):
        """Singular values under the relative cutoff act as exact zeros."""
        u = np.eye(2)
        a = u @ np.diag([1.0, 1e-15]) @ u
        p = pseudo_inverse(a)
        np.testing.assert_allclose(p, np.diag([1.0, 0.0]), atol=1e-12)


class TestRank1Deflatten:
    def test_exact_square(self):
        u = np.array([0.6, 0.8])
        v = np.outer(u, u).ravel()
        np.testing.assert_allclose(rank1_deflatten(v, 2, 2), u, atol=1e-12)

    def test_exact_cube_basis_vector(self):
        u = np.zeros(3)
        u[1] = 1.0
        v = np.einsum("i,j,k->ijk", u, u, u).ravel()
        np.testing.assert_allclose(rank1_deflatten(v, 3, 3), u, atol=1e-12)

    def test_sign_convention_flips_negated_input(self):
        u = np.array([0.6, 0.8])
        v = np.outer(u, u).ravel()
        # odd power of -u differs by a global sign; convention restores +u
        w = -np.einsum("i,j,k->ijk", u, u, u).ravel()
        out = rank1_deflatten(w, 2, 3)
        np.testing.assert_allclose(np.abs(out), u, atol=1e-12)

    def test_noise_perturbation(self):
        rng = np.random.default_rng(21)
        u = rng.standard_normal(4)
        u /= np.linalg.norm(u)
        v = np.outer(u, u).ravel() + 1e-6 * rng.standard_normal(16)
        got = rank1_deflatten(v, 4, 2)
        err = min(np.linalg.norm(got - u), np.linalg.norm(got + u))
        assert err < 1e-4

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            rank1_deflatten(np.zeros(4), 2, 2)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            rank1_deflatten(np.ones(5), 2, 2)

    @given(seed=st.integers(0, 2**16), p=st.integers(min_value=1, max_value=4))
    @settings(max_examples=50, deadline=None)
    def test_exact_inputs_recover_to_1e10(self, seed, p):
        rng = np.random.default_rng(seed)
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        v = u.copy()
        for _ in range(p - 1):
            v = np.outer(v, u).ravel()
        got = rank1_deflatten(v, 3, p)
        err = min(np.linalg.norm(got - u), np.linalg.norm(got + u))
        assert err < 1e-10

    def test_output_unit_norm(self):
        v = np.outer([3.0, 4.0], [3.0, 4.0]).ravel()
        assert np.linalg.norm(rank1_deflatten(v, 2, 2)) == pytest.approx(1.0)
