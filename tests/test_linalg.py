import ctypes
import json

import numpy as np
import pytest

from daeobs import (
    EstimationProblem,
    InputError,
    LqWeights,
    NotPositiveDefiniteError,
    ObservedDae,
    ProblemFileError,
    synthesize_estimator,
)
from daeobs.linalg import (
    DEFAULT_RANK_TOL,
    SUBSPACE_TOL,
    Subspace,
    _rank,
    complement_basis,
    kernel_basis,
    require_spd,
    thin_qr_solve,
)
from daeobs.problem_io import load_problem, matrix_to_json

from .oracles import image_basis, penrose_defects, pseudoinverse


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


class TestContainsVector:
    def test_decides_as_the_unscaled_test_where_that_does_not_overflow(self):
        # ||r|| <= SUBSPACE_TOL (1 + ||x||) on x itself, for vectors in,
        # near and off a random plane, across the float range
        rng = np.random.default_rng(0)
        V = Subspace(np.linalg.qr(rng.standard_normal((4, 2)))[0])
        for scale in 10.0 ** np.arange(-300, 151, 15):
            for off in (0.0, 1e-10, 1e-9, 2e-9, 1e-8, 1.0):
                x = scale * (V.basis @ rng.standard_normal(2)
                             + off * rng.standard_normal(4))
                r = x - V.basis @ (V.basis.T @ x)
                want = np.linalg.norm(r) <= SUBSPACE_TOL * (1.0 + np.linalg.norm(x))
                assert V.contains_vector(x) == want

    @pytest.mark.parametrize("scale", [1e155, 1e300, np.finfo(float).max / 4])
    def test_large_vectors_decided_without_overflow(self, scale):
        # pytest turns RuntimeWarnings into errors here, so no norm may overflow
        V = Subspace(np.eye(3)[:, :2])
        assert V.contains_vector(scale * np.array([1.0, -1.0, 0.0]))
        assert not V.contains_vector(scale * np.array([1.0, -1.0, 1e-6]))


def _spread_matrix(seed, rows, cols, decades):
    """rows x cols matrix of full column rank with singular values spread
    evenly over ``decades`` decades."""
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(rng.standard_normal((rows, cols)))[0]
    V = np.linalg.qr(rng.standard_normal((cols, cols)))[0]
    return (U * np.logspace(0, -decades, cols)) @ V.T, rng


class TestThinQrSolve:
    """The one solve with a full-column-rank matrix: Q and R^{-1} (Q' B),
    or R^{-1} Q' without B, from a thin QR."""

    @pytest.mark.parametrize("with_rhs", [False, True], ids=["pinv", "rhs"])
    @pytest.mark.parametrize("rows, cols, decades", [
        (5, 3, 0), (8, 8, 2), (12, 4, 4), (6, 1, 6), (20, 9, 6)])
    def test_matches_the_pseudoinverse(self, rows, cols, decades, with_rhs):
        A, rng = _spread_matrix(rows + cols + decades, rows, cols, decades)
        B = rng.standard_normal((rows, 3)) if with_rhs else None
        Q, X = thin_qr_solve(A, B)
        ref = pseudoinverse(A) if B is None else pseudoinverse(A) @ B
        assert Q.shape == (rows, cols) and X.shape == ref.shape
        assert np.linalg.norm(Q.T @ Q - np.eye(cols)) <= 1e-14 * cols
        assert np.linalg.norm(X - ref) <= \
            1e-14 * 10.0 ** decades * rows * np.linalg.norm(ref)

    @pytest.mark.parametrize("rhs_cols", [None, 0, 3])
    def test_no_columns_calls_no_lapack(self, rhs_cols, capfd):
        # LAPACK rejects an empty triangular system with a message that C
        # stdio buffers; fflush(NULL) makes it reach the captured streams
        B = None if rhs_cols is None else np.ones((4, rhs_cols))
        Q, X = thin_qr_solve(np.zeros((4, 0)), B)
        ctypes.CDLL(None).fflush(None)
        assert Q.shape == (4, 0)
        assert X.shape == (0, 4 if B is None else rhs_cols)
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("with_rhs", [False, True], ids=["pinv", "rhs"])
    def test_exactly_zero_diagonal_leaves_the_system_unsolved(self, with_rhs):
        A = np.array([[2.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        B = np.arange(6.0).reshape(3, 2) if with_rhs else None
        Q, X = thin_qr_solve(A, B)
        assert np.array_equal(X, Q.T if B is None else Q.T @ B)

    @pytest.mark.parametrize("rows, cols", [(4, 0), (5, 2), (6, 6), (0, 0)])
    def test_complement_basis(self, rows, cols):
        Y = _spread_matrix(rows, rows, cols, 3)[0]
        N = complement_basis(Y)
        assert N.shape == (rows, rows - cols)
        if cols == 0:
            assert np.array_equal(N, np.eye(rows))
        assert np.linalg.norm(N.T @ N - np.eye(rows - cols)) <= 1e-14 * rows
        assert np.linalg.norm(N.T @ Y) <= 1e-14 * rows


class TestInvSqrtSpd:
    """The inverse square root that require_spd returns with its decision."""

    def test_diagonal(self):
        R = require_spd(np.diag([4.0, 9.0]))[1]
        np.testing.assert_allclose(R, np.diag([0.5, 1.0 / 3.0]), atol=1e-14)

    def test_identity(self):
        np.testing.assert_allclose(require_spd(np.eye(3))[1], np.eye(3), atol=1e-14)

    @pytest.mark.parametrize("seed", range(4))
    def test_algebraic_identity(self, seed):
        rng = np.random.default_rng(seed)
        Q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        M = Q @ np.diag(rng.uniform(0.2, 5.0, 4)) @ Q.T
        R = require_spd(M)[1]
        assert np.linalg.norm(R @ M @ R - np.eye(4)) <= 1e-10

    def test_rejects_nonsymmetric(self):
        with pytest.raises(NotPositiveDefiniteError):
            require_spd(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_singular_with_context(self):
        with pytest.raises(NotPositiveDefiniteError, match="weight block"):
            require_spd(np.diag([1.0, 0.0]), "input-weight block D'SD")


def _load(tmp_path, kind, **mats):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({
        "problem": kind,
        "matrices": {name: matrix_to_json(M) for name, M in mats.items()}}))
    try:
        load_problem(str(path))
    except ProblemFileError as exc:
        raise exc.__cause__ or exc


def _observed(k):
    return ObservedDae(np.eye(2), -np.eye(2), np.eye(k, 2))


# A positive definite weight M (k x k) enters as R of a 2-state observed
# DAE with k outputs, as Q0 of a k-state observed DAE, and as R of
# LqWeights.
SPD_ENTRIES = {
    "EstimationProblem": lambda M, tmp: EstimationProblem(
        _observed(len(M)), np.eye(2), np.eye(2), M, np.ones(2)),
    "synthesize_estimator": lambda M, tmp: synthesize_estimator(
        _observed(len(M)), np.eye(2), np.eye(2), M),
    "synthesize_estimator-Q0": lambda M, tmp: synthesize_estimator(
        ObservedDae(np.eye(len(M)), -np.eye(len(M)), np.ones((1, len(M)))),
        M, np.eye(len(M)), np.eye(1)),
    "LqWeights": lambda M, tmp: LqWeights(Q=np.eye(2), R=M, Q0=np.eye(2)),
    "load_problem": lambda M, tmp: _load(
        tmp, "estimation", F=np.eye(2), A=-np.eye(2), H=np.eye(len(M), 2),
        Q=np.eye(2), R=M, Q0=np.eye(2), ell=np.ones((2, 1))),
}
# A semidefinite weight M enters as the terminal weight Q0 of a k-state
# control problem.
PSD_ENTRIES = {
    "LqWeights": lambda M, tmp: LqWeights(Q=np.eye(len(M)), R=np.eye(1), Q0=M),
    "load_problem": lambda M, tmp: _load(
        tmp, "control", E=np.eye(len(M)), A_hat=-np.eye(len(M)),
        B_hat=np.ones((len(M), 1)), Q=np.eye(len(M)), R=np.eye(1), Q0=M),
}
ASYM_INSIDE = np.array([[2.0, 1.0 + 2e-9], [1.0, 2.0]])
ASYM_OUTSIDE = np.array([[2.0, 1.0 + 2e-8], [1.0, 2.0]])
EMPTY = np.zeros((0, 0))


class TestWeightDecision:
    """Every public entry of a weight makes the same symmetric-definite
    decision: symmetry cut at SYMMETRY_TOL, definiteness at SPD_TOL and
    semidefiniteness at PSD_TOL, failures as NotPositiveDefiniteError."""

    @pytest.mark.parametrize("entry", SPD_ENTRIES)
    @pytest.mark.parametrize("M, ok", [
        (ASYM_INSIDE, True), (ASYM_OUTSIDE, False),
        (np.diag([1.0, 0.0]), False), (EMPTY, True)],
        ids=["asym-2e-9", "asym-2e-8", "singular", "empty"])
    def test_spd(self, entry, M, ok, tmp_path):
        self._decide(SPD_ENTRIES[entry], M, ok, tmp_path)

    @pytest.mark.parametrize("entry", PSD_ENTRIES)
    @pytest.mark.parametrize("M, ok", [
        (ASYM_INSIDE, True), (ASYM_OUTSIDE, False),
        (np.diag([1.0, 0.0]), True), (np.diag([1.0, -2e-9]), False),
        (np.diag([1.0, -5e-10]), True), (EMPTY, True)],
        ids=["asym-2e-9", "asym-2e-8", "singular", "below-2e-9", "below-5e-10",
             "empty"])
    def test_psd(self, entry, M, ok, tmp_path):
        self._decide(PSD_ENTRIES[entry], M, ok, tmp_path)

    @staticmethod
    def _decide(entry, M, ok, tmp_path):
        if ok:
            entry(M, tmp_path)
        else:
            with pytest.raises(NotPositiveDefiniteError):
                entry(M, tmp_path)


def test_numerical_rank_threshold_is_relative():
    M = np.diag([1e6, 1e-7])
    assert kernel_basis(M).dim == 1
    assert kernel_basis(M, rank_tol=1e-16).dim == 0


def test_subspace_rejects_nonorthonormal_basis():
    with pytest.raises(InputError):
        Subspace(np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestNumpyOnEmptyMatrices:
    """numpy's answers for empty matrices that the reductions rely on in
    place of empty-block branches; a numpy that answers differently fails
    here rather than deep inside a reduction."""

    @pytest.mark.parametrize("shape", [(0, 0), (3, 0), (0, 3)])
    def test_svd(self, shape):
        rows, cols = shape
        U, s, Vt = np.linalg.svd(np.zeros(shape))
        assert s.shape == (0,)
        np.testing.assert_array_equal(U, np.eye(rows))
        np.testing.assert_array_equal(Vt, np.eye(cols))
        U, s, Vt = np.linalg.svd(np.zeros(shape), full_matrices=False)
        assert (U.shape, s.shape, Vt.shape) == ((rows, 0), (0,), (0, cols))

    @pytest.mark.parametrize("shape", [(3, 4), (4, 3), (1, 5), (5, 1), (2, 2),
                                       (7, 12)])
    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["zeros", "negative_zeros"])
    def test_svd_of_a_zero_matrix_is_the_identity(self, shape, sign):
        """kernel_basis has no all-zero branch: the rank of a zero matrix
        is 0 and its kernel basis is V' = I, bit for bit."""
        M = sign * np.zeros(shape)
        _, s, Vt = np.linalg.svd(M)
        assert _rank(s, shape, DEFAULT_RANK_TOL) == 0
        assert _rank(s, shape, DEFAULT_RANK_TOL, scale=1.0) == 0
        assert Vt.tobytes() == np.eye(shape[1]).tobytes()
        assert kernel_basis(M).basis.tobytes() == np.eye(shape[1]).tobytes()

    def test_complete_qr_of_no_columns_is_the_identity(self):
        Q, R = np.linalg.qr(np.zeros((3, 0)), mode="complete")
        np.testing.assert_array_equal(Q, np.eye(3))
        assert R.shape == (3, 0)

    def test_norm_of_0x0_is_zero(self):
        norm = np.linalg.norm(np.zeros((0, 0)))
        assert norm == 0.0 and np.isfinite(norm)

    def test_eigvals_of_0x0_is_empty(self):
        assert np.linalg.eigvals(np.zeros((0, 0))).shape == (0,)
