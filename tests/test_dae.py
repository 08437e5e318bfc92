import numpy as np
import pytest

from daeobs import DaeSystem, InputError, ObservedDae
from daeobs.dae import canonical_form, dual_dae

from .conftest import random_dae
from .oracles import induced_observed


class TestContainers:
    def test_dae_dimension_checks(self):
        with pytest.raises(InputError):
            DaeSystem(np.eye(2), np.eye(3), np.zeros((2, 1)))
        with pytest.raises(InputError):
            DaeSystem(np.eye(2), np.eye(2), np.zeros((3, 1)))

    def test_observed_dimension_checks(self):
        with pytest.raises(InputError):
            ObservedDae(np.eye(2), np.eye(2), np.zeros((1, 3)))

    def test_rejects_nonfinite(self):
        with pytest.raises(InputError):
            DaeSystem(np.array([[np.inf, 0], [0, 1.0]]), np.eye(2), np.zeros((2, 1)))


class TestDual:
    def test_transposition(self):
        A0 = np.array([[1.0, 2.0], [3.0, 4.0]])
        H0 = np.array([[1.0, 1.0]])
        sys = dual_dae(ObservedDae(np.eye(2), A0, H0))
        np.testing.assert_array_equal(sys.E, np.eye(2))
        np.testing.assert_array_equal(sys.A_hat, A0.T)
        np.testing.assert_array_equal(sys.B_hat, -H0.T)

    def test_involution(self):
        rng = np.random.default_rng(0)
        obs = ObservedDae(rng.standard_normal((3, 3)),
                          rng.standard_normal((3, 3)),
                          rng.standard_normal((2, 3)))
        back = induced_observed(dual_dae(obs))
        np.testing.assert_array_equal(back.F, obs.F)
        np.testing.assert_array_equal(back.A, obs.A)
        np.testing.assert_array_equal(back.H, obs.H)

    def test_rank_deficient_formula(self):
        F = np.array([[1.0, 0.0], [0.0, 0.0]])
        H = np.array([[1.0, 1.0]])
        sys = dual_dae(ObservedDae(F, np.zeros((2, 2)), H))
        np.testing.assert_array_equal(sys.E, F.T)
        np.testing.assert_array_equal(sys.B_hat, np.array([[-1.0], [-1.0]]))


class TestCanonicalForm:
    def test_identity_E(self):
        sys = DaeSystem(np.eye(2), np.array([[1.0, 2.0], [3.0, 4.0]]),
                        np.array([[1.0], [0.0]]))
        cf = canonical_form(sys)
        assert cf.r == 2
        np.testing.assert_allclose(cf.S @ sys.E @ cf.T, np.eye(2), atol=1e-14)
        assert cf.A21.shape == (0, 2) and cf.A22.shape == (0, 0)
        np.testing.assert_allclose(cf.A_tilde, cf.S @ sys.A_hat @ cf.T, atol=1e-14)

    def test_zero_E(self):
        A = np.array([[1.0, 2.0], [3.0, 4.0]])
        B = np.array([[1.0], [0.0]])
        cf = canonical_form(DaeSystem(np.zeros((2, 2)), A, B))
        assert cf.r == 0
        assert cf.A_tilde.shape == (0, 0)
        # D_tilde = [A22, B2] equals [S A T, S B] up to the change of basis
        np.testing.assert_allclose(cf.D_tilde,
                                   np.hstack([cf.S @ A @ cf.T, cf.S @ B]),
                                   atol=1e-14)

    def test_rank_one_reassembly(self):
        E = np.array([[0.0, 1.0], [0.0, 0.0]])
        A = np.array([[1.0, 2.0], [3.0, 4.0]])
        B = np.array([[1.0], [0.0]])
        sys = DaeSystem(E, A, B)
        cf = canonical_form(sys)
        assert cf.r == 1
        Sinv = np.linalg.inv(cf.S)
        Tinv = np.linalg.inv(cf.T)
        D = np.diag(np.r_[np.ones(cf.r), np.zeros(sys.n - cf.r)])
        np.testing.assert_allclose(Sinv @ D @ Tinv, E, atol=1e-12)

    def test_from_transforms_rejects_non_normalizing_pair(self):
        from daeobs.dae import canonical_form_from_transforms
        sys = DaeSystem(np.eye(2), np.zeros((2, 2)), np.zeros((2, 1)))
        S = np.array([[1.0, 0.0], [0.0, 2.0]])  # S E T != diag(I_r, 0)
        with pytest.raises(InputError, match="do not normalize"):
            canonical_form_from_transforms(sys, S, np.eye(2))

    @pytest.mark.parametrize("seed,n,m,r", [
        (0, 3, 1, 2), (1, 4, 2, 1), (2, 4, 0, 4), (3, 2, 2, 0), (4, 5, 1, 3),
    ])
    def test_random_invariants(self, seed, n, m, r):
        rng = np.random.default_rng(seed)
        sys = random_dae(rng, n, m, r)
        cf = canonical_form(sys)
        assert cf.r == r
        D = np.diag(np.r_[np.ones(r), np.zeros(n - r)])
        defect = np.linalg.norm(cf.S @ sys.E @ cf.T - D)
        assert defect <= 1e-10 * (1 + np.linalg.norm(sys.E)) * n
        assert np.isfinite(np.linalg.cond(cf.S))
        assert np.isfinite(np.linalg.cond(cf.T))
        # blocks reassemble S A T and S B
        SAT = cf.S @ sys.A_hat @ cf.T
        np.testing.assert_allclose(
            np.block([[cf.A_tilde, cf.A12], [cf.A21, cf.A22]]), SAT, atol=1e-12)
        np.testing.assert_allclose(
            np.vstack([cf.B1, cf.B2]), cf.S @ sys.B_hat, atol=1e-12)
        # block identities G = [A12, B1], D_tilde = [A22, B2], C_tilde = A21
        np.testing.assert_array_equal(cf.G, np.hstack([cf.A12, cf.B1]))
        np.testing.assert_array_equal(cf.D_tilde, np.hstack([cf.A22, cf.B2]))
        np.testing.assert_array_equal(cf.C_tilde, cf.A21)
        # the same transforms supplied explicitly give the same blocks
        from daeobs.dae import canonical_form_from_transforms
        cf2 = canonical_form_from_transforms(sys, cf.S, cf.T)
        assert cf2.r == cf.r
        for name in ("A_tilde", "A12", "A21", "A22", "B1", "B2"):
            np.testing.assert_array_equal(getattr(cf2, name), getattr(cf, name))
