import numpy as np
import pytest

from daeobs import DaeSystem, InputError, ObservedDae
from daeobs.dae import canonical_form, dual_dae, same_system

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

    def test_same_system_compares_no_matrix_of_one_object(self, monkeypatch):
        sys = random_dae(np.random.default_rng(3), 4, 2, 2)
        copy = DaeSystem(sys.E.copy(), sys.A_hat.copy(), sys.B_hat.copy())
        moved = DaeSystem(sys.E, sys.A_hat + 1e-3, sys.B_hat)
        wider = DaeSystem(sys.E, sys.A_hat, np.hstack([sys.B_hat, sys.B_hat]))
        calls = []
        allclose = np.allclose
        monkeypatch.setattr(np, "allclose",
                            lambda *a, **k: calls.append(1) or allclose(*a, **k))
        assert same_system(sys, sys) and not calls
        assert same_system(sys, copy) and len(calls) == 3
        assert not same_system(sys, moved)
        assert not same_system(sys, wider)


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
        assert cf.C_tilde.shape == (0, 2) and cf.D_tilde.shape == (0, 1)
        np.testing.assert_allclose(cf.A_tilde, cf.S @ sys.A_hat @ cf.T, atol=1e-14)

    def test_zero_E(self):
        A = np.array([[1.0, 2.0], [3.0, 4.0]])
        B = np.array([[1.0], [0.0]])
        cf = canonical_form(DaeSystem(np.zeros((2, 2)), A, B))
        assert cf.r == 0
        assert cf.A_tilde.shape == (0, 0)
        # with r = 0, D_tilde is all of S [A_hat T, B_hat]
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
            canonical_form_from_transforms(sys, S, np.eye(2), 2)

    @pytest.mark.parametrize("name,singular", [
        ("ctrl_rank1.json", "T"), ("ctrl_rank1.json", "S"),
        ("ctrl_algebraic.json", "T"), ("ctrl_algebraic.json", "S"),
    ])
    def test_from_transforms_rejects_singular_transforms(self, name, singular):
        """Zeroing T's last n - r columns, or S's last n - r rows, keeps
        S E T = diag(I_r, 0); a singular S would drop the algebraic
        equations (ctrl_rank1 would reduce with k = 2 instead of 1,
        ctrl_algebraic with k = 3 instead of 1)."""
        from daeobs.dae import canonical_form_from_transforms
        from daeobs.fixtures import data_path
        from daeobs.problem_io import load_problem
        sys = load_problem(data_path(name)).problem.sys
        cf = canonical_form(sys)
        S, T = cf.S.copy(), cf.T.copy()
        if singular == "S":
            S[cf.r:] = 0.0
        else:
            T[:, cf.r:] = 0.0
        with pytest.raises(InputError, match="must be invertible"):
            canonical_form_from_transforms(sys, S, T, cf.r)
        canonical_form_from_transforms(sys, cf.S, cf.T, cf.r)

    def test_from_transforms_checks_the_callers_rank(self):
        from daeobs.dae import canonical_form_from_transforms
        sys = DaeSystem(np.diag([1.0, 0.0]), np.array([[1.0, 2.0], [3.0, 4.0]]),
                        np.array([[5.0], [6.0]]))
        cf = canonical_form_from_transforms(sys, np.eye(2), np.eye(2), 1)
        assert cf.r == 1
        np.testing.assert_array_equal(cf.G, [[2.0, 5.0]])
        for r in (0, 2):
            with pytest.raises(InputError, match="do not normalize"):
                canonical_form_from_transforms(sys, np.eye(2), np.eye(2), r)
        for r in (-1, 3):
            with pytest.raises(InputError, match="outside 0..2"):
                canonical_form_from_transforms(sys, np.eye(2), np.eye(2), r)

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
        # the four blocks split S [A_hat T, B_hat] at r
        SAT = cf.S @ sys.A_hat @ cf.T
        SB = cf.S @ sys.B_hat
        np.testing.assert_array_equal(cf.A_tilde, SAT[:r, :r])
        np.testing.assert_array_equal(cf.G, np.hstack([SAT[:r, r:], SB[:r]]))
        np.testing.assert_array_equal(cf.C_tilde, SAT[r:, :r])
        np.testing.assert_array_equal(cf.D_tilde, np.hstack([SAT[r:, r:], SB[r:]]))
        # the same transforms and rank supplied explicitly give the same blocks
        from daeobs.dae import canonical_form_from_transforms
        cf2 = canonical_form_from_transforms(sys, cf.S, cf.T, cf.r)
        for name in ("A_tilde", "G", "C_tilde", "D_tilde"):
            np.testing.assert_array_equal(getattr(cf2, name), getattr(cf, name))
