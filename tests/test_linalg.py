import numpy as np
import pytest

from daeobs import InputError, NotPositiveDefiniteError
from daeobs.linalg import (
    Subspace,
    image_basis,
    inv_sqrt_spd,
    kernel_basis,
    numerical_rank,
    pseudoinverse,
)

from .oracles import penrose_defects


class TestPseudoinverse:
    def test_diagonal(self):
        Mp = pseudoinverse(np.diag([2.0, 0.0]))
        np.testing.assert_allclose(Mp, np.diag([0.5, 0.0]), atol=1e-14)

    def test_identity(self):
        np.testing.assert_allclose(pseudoinverse(np.eye(3)), np.eye(3), atol=1e-14)

    def test_zero_matrix(self):
        assert np.all(pseudoinverse(np.zeros((2, 3))) == 0.0)
        assert pseudoinverse(np.zeros((2, 3))).shape == (3, 2)

    @pytest.mark.parametrize("seed", range(6))
    def test_penrose_identities_rank_deficient(self, seed):
        rng = np.random.default_rng(seed)
        # random 4x3 rank-2 matrix
        M = rng.standard_normal((4, 2)) @ rng.standard_normal((2, 3))
        Mp = pseudoinverse(M)
        for name, defect in penrose_defects(M, Mp).items():
            assert defect <= 1e-10 * (1.0 + np.linalg.norm(M)), name

    @pytest.mark.parametrize("shape", [(3, 5), (5, 3), (4, 4), (1, 6)])
    def test_penrose_identities_random_shapes(self, shape):
        rng = np.random.default_rng(hash(shape) % 2**31)
        M = rng.standard_normal(shape)
        Mp = pseudoinverse(M)
        for name, defect in penrose_defects(M, Mp).items():
            assert defect <= 1e-10 * (1.0 + np.linalg.norm(M)), name

    def test_rejects_nonfinite(self):
        with pytest.raises(InputError):
            pseudoinverse(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestKernelImage:
    def test_coordinate_kernel(self):
        V = kernel_basis(np.array([[1.0, 0.0], [0.0, 0.0]]))
        assert V.dim == 1
        np.testing.assert_allclose(np.abs(V.basis.ravel()), [0.0, 1.0], atol=1e-14)

    def test_identity_kernel_trivial(self):
        assert kernel_basis(np.eye(2)).dim == 0

    def test_kernel_residual(self):
        M = np.array([[1.0, 1.0, 0.0]])
        V = kernel_basis(M)
        assert V.dim == 2
        assert np.linalg.norm(M @ V.basis) <= 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_kernel_orthogonal_to_rows(self, seed):
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((3, 5)) @ np.diag([1, 1, 0, 1, 0.0])
        V = kernel_basis(M)
        assert np.linalg.norm(M @ V.basis) <= 1e-9 * (1 + np.linalg.norm(M))

    def test_image_single_column(self):
        V = image_basis(np.array([[1.0], [0.0]]))
        assert V.dim == 1
        np.testing.assert_allclose(np.abs(V.basis.ravel()), [1.0, 0.0], atol=1e-14)

    def test_image_of_zero(self):
        assert image_basis(np.zeros((3, 2))).dim == 0

    def test_image_rank_one_outer_product(self):
        rng = np.random.default_rng(3)
        u = rng.standard_normal(4)
        v = rng.standard_normal(3)
        B = image_basis(np.outer(u, v))
        assert B.dim == 1
        direction = u / np.linalg.norm(u)
        assert min(np.linalg.norm(B.basis.ravel() - direction),
                   np.linalg.norm(B.basis.ravel() + direction)) <= 1e-12

    def test_kernel_of_empty_rows_is_full(self):
        assert kernel_basis(np.zeros((0, 4))).dim == 4


class TestInvSqrtSpd:
    def test_diagonal(self):
        R = inv_sqrt_spd(np.diag([4.0, 9.0]))
        np.testing.assert_allclose(R, np.diag([0.5, 1.0 / 3.0]), atol=1e-14)

    def test_identity(self):
        np.testing.assert_allclose(inv_sqrt_spd(np.eye(3)), np.eye(3), atol=1e-14)

    @pytest.mark.parametrize("seed", range(4))
    def test_algebraic_identity(self, seed):
        rng = np.random.default_rng(seed)
        Q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        M = Q @ np.diag(rng.uniform(0.2, 5.0, 4)) @ Q.T
        R = inv_sqrt_spd(M)
        assert np.linalg.norm(R @ M @ R - np.eye(4)) <= 1e-10

    def test_rejects_nonsymmetric(self):
        with pytest.raises(NotPositiveDefiniteError):
            inv_sqrt_spd(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_singular_with_context(self):
        with pytest.raises(NotPositiveDefiniteError, match="weight block"):
            inv_sqrt_spd(np.diag([1.0, 0.0]), what="input-weight block D'SD")


def test_numerical_rank_threshold_is_relative():
    M = np.diag([1e6, 1e-7])
    assert numerical_rank(M) == 1
    assert numerical_rank(M, rank_tol=1e-16) == 2


def test_subspace_rejects_nonorthonormal_basis():
    with pytest.raises(InputError):
        Subspace(np.array([[1.0, 1.0], [0.0, 1.0]]))
