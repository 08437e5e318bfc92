import numpy as np
import pytest

from daeobs import ConsistencyError, DaeSystem, construct
from daeobs.lti import output_trajectory_from_v0
from daeobs.signals import SampledSignal, uniform_grid

from .conftest import random_dae
from .oracles import fd_dae_defect, is_consistent, output_trajectory, recover_input


def sine_input(k, grid, seed=0):
    rng = np.random.default_rng(seed)
    vals = np.zeros((k, grid.size))
    for i in range(k):
        vals[i] = rng.uniform(-1, 1) * np.sin(rng.uniform(0.3, 1.5) * grid
                                              + rng.uniform(0, 6.28))
    return SampledSignal(grid, vals)


class TestBuildStructure:
    def test_identity_E_reduces_to_ode(self):
        A = np.array([[0.0, 1.0], [-2.0, -1.0]])
        B = np.array([[0.0], [1.0]])
        rec = construct(DaeSystem(np.eye(2), A, B))
        lti = rec.lti
        assert lti.n_hat == 2 and lti.k == 1
        assert lti.X.dim == 2
        # A_l similar to A_hat (here: equal, identity basis), inputs pass through
        np.testing.assert_allclose(lti.A_l, A, atol=1e-12)
        np.testing.assert_allclose(lti.B_l, B, atol=1e-12)
        np.testing.assert_allclose(lti.C_s, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(lti.D_s, np.zeros((2, 1)), atol=1e-12)
        np.testing.assert_allclose(lti.D_inp, np.eye(1), atol=1e-12)

    def test_zero_E_is_purely_algebraic(self):
        A = np.array([[1.0, 0.0], [0.0, 1.0]])
        B = np.array([[1.0], [0.0]])
        rec = construct(DaeSystem(np.zeros((2, 2)), A, B))
        lti = rec.lti
        assert lti.n_hat == 0
        assert lti.X.dim == 0
        assert lti.A_l.shape == (0, 0)
        # solutions are exactly the kernel of [A, B]
        if lti.k:
            stacked = np.vstack([lti.D_s, lti.D_inp])
            assert np.linalg.norm(np.hstack([A, B]) @ stacked) <= 1e-12

    @pytest.mark.parametrize("seed,n,m,r", [
        (0, 2, 1, 1), (1, 3, 1, 2), (2, 3, 0, 2), (3, 4, 2, 2), (4, 4, 1, 4),
        (5, 2, 2, 0), (6, 4, 2, 3), (7, 3, 2, 1),
    ])
    def test_structural_invariants(self, seed, n, m, r):
        rng = np.random.default_rng(500 + seed)
        sys = random_dae(rng, n, m, r)
        lti = construct(sys).lti
        E = sys.E
        scale = 1 + np.linalg.norm(E)
        assert np.linalg.norm(E @ lti.D_s) <= 1e-9 * scale
        assert np.linalg.norm(lti.Lambda @ (E @ lti.C_s) - np.eye(lti.n_hat)) <= 1e-9
        assert np.linalg.matrix_rank(E @ lti.C_s, tol=1e-9) == lti.n_hat
        assert np.linalg.matrix_rank(lti.D_l, tol=1e-9) == lti.k if lti.D_l.size \
            else lti.k == 0
        # stacking C_l = [C_s; C_inp], D_l = [D_s; D_inp]
        np.testing.assert_array_equal(lti.C_l, np.vstack([lti.C_s, lti.C_inp]))
        np.testing.assert_array_equal(lti.D_l, np.vstack([lti.D_s, lti.D_inp]))


class TestConsistency:
    def test_zero_state_always_consistent(self):
        rng = np.random.default_rng(0)
        sys = random_dae(rng, 3, 1, 2)
        lti = construct(sys).lti
        assert is_consistent(lti, sys.E, np.zeros(3))

    def test_identity_E_everything_consistent(self):
        sys = DaeSystem(np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]),
                        np.zeros((2, 1)))
        lti = construct(sys).lti
        assert is_consistent(lti, sys.E, np.array([3.0, -4.0]))

    def test_rank_one_case(self):
        sys = DaeSystem(np.diag([1.0, 0.0]), np.array([[-1.0, 0.0], [0.0, 1.0]]),
                        np.array([[0.0], [1.0]]))
        lti = construct(sys).lti
        assert is_consistent(lti, sys.E, np.array([1.0, 5.0]))
        # against a corrupted consistency space nothing nonzero passes
        from daeobs.linalg import Subspace
        from dataclasses import replace
        bad = replace(lti, X=Subspace.zero(2))
        assert not is_consistent(bad, sys.E, np.array([1.0, 5.0]))

    def test_inconsistent_initial_state_raises(self):
        # xdot1 = 0 and 0 = x1: the differential variable is locked at 0,
        # so any x0 with E x0 != 0 is inconsistent
        sys = DaeSystem(np.diag([1.0, 0.0]), np.array([[0.0, 0.0], [1.0, 0.0]]),
                        np.zeros((2, 0)))
        lti = construct(sys).lti
        assert lti.X.dim == 0
        grid = uniform_grid(1.0, 1e-2)
        with pytest.raises(ConsistencyError):
            output_trajectory(lti, sys.E, np.array([1.0, 0.0]),
                              SampledSignal.zeros(lti.k, grid))


class TestTrajectories:
    def test_zero_input_zero_state(self):
        rng = np.random.default_rng(1)
        sys = random_dae(rng, 3, 1, 2)
        lti = construct(sys).lti
        grid = uniform_grid(1.0, 1e-2)
        x, u, v = output_trajectory(lti, sys.E, np.zeros(3),
                                    SampledSignal.zeros(lti.k, grid))
        assert np.linalg.norm(x.values) == 0.0
        assert np.linalg.norm(u.values) == 0.0

    def test_regular_case_reproduces_ode(self):
        A = np.array([[0.0, 1.0], [-2.0, -1.0]])
        B = np.array([[0.0], [1.0]])
        sys = DaeSystem(np.eye(2), A, B)
        lti = construct(sys).lti
        grid = uniform_grid(2.0, 1e-3)
        g = sine_input(lti.k, grid)
        x0 = np.array([1.0, -1.0])
        x, u, v = output_trajectory(lti, sys.E, x0, g)
        from daeobs.signals import integrate_lti
        x_ref = integrate_lti(A, B, x0, u)
        assert np.max(np.abs(x.values - x_ref.values)) <= 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_lambda_ex_equals_v(self, seed):
        rng = np.random.default_rng(600 + seed)
        sys = random_dae(rng, 3, 1, int(rng.integers(1, 4)))
        lti = construct(sys).lti
        grid = uniform_grid(1.0, 1e-3)
        g = sine_input(lti.k, grid, seed)
        v0 = rng.standard_normal(lti.n_hat)
        x, u, v = output_trajectory_from_v0(lti, v0, g)
        recon = lti.Lambda @ (sys.E @ x.values)
        assert np.max(np.abs(recon - v.values)) <= 1e-8 * (1 + np.max(np.abs(v.values)))

    @pytest.mark.parametrize("seed", range(6))
    def test_finite_difference_defect_second_order(self, seed):
        rng = np.random.default_rng(700 + seed)
        n = int(rng.integers(2, 5))
        sys = random_dae(rng, n, int(rng.integers(0, 3)), int(rng.integers(1, n + 1)))
        lti = construct(sys).lti
        v0 = rng.standard_normal(lti.n_hat)
        defects = []
        for h in (2e-3, 1e-3):
            grid = uniform_grid(1.0, h)
            g = sine_input(lti.k, grid, seed)
            x, u, _ = output_trajectory_from_v0(lti, v0, g)
            defects.append(fd_dae_defect(sys.E, sys.A_hat, sys.B_hat, x, u))
        if defects[0] < 1e-10:
            return  # trajectory effectively polynomial; nothing to measure
        # at least second-order decay (faster decay also satisfies O(h^2))
        ratio = defects[0] / defects[1]
        assert ratio >= 2.8, (defects, ratio)

    def test_hand_built_solution_is_matched(self):
        # xdot1 = -x1; 0 = x2 + u: pick u = sin(t), x2 = -sin(t), x1 = e^-t
        sys = DaeSystem(np.diag([1.0, 0.0]), np.array([[-1.0, 0.0], [0.0, 1.0]]),
                        np.array([[0.0], [1.0]]))
        lti = construct(sys).lti
        grid = uniform_grid(2.0, 1e-3)
        x_sig = SampledSignal(grid, np.vstack([np.exp(-grid), -np.sin(grid)]))
        u_sig = SampledSignal(grid, np.sin(grid).reshape(1, -1))
        g, resid = recover_input(lti, sys.E, x_sig, u_sig)
        assert resid <= 1e-10
        # and the recovered g reproduces the trajectory through the system
        gsig = SampledSignal(grid, g)
        x2, u2, _ = output_trajectory(lti, sys.E, np.array([1.0, 0.0]), gsig)
        assert np.max(np.abs(x2.values - x_sig.values)) <= 1e-6
        assert np.max(np.abs(u2.values - u_sig.values)) <= 1e-6

    @pytest.mark.parametrize("seed", range(4))
    def test_generated_trajectories_recover_their_input(self, seed):
        rng = np.random.default_rng(800 + seed)
        sys = random_dae(rng, 3, 1, 2)
        lti = construct(sys).lti
        grid = uniform_grid(1.0, 1e-3)
        g = sine_input(lti.k, grid, seed)
        v0 = rng.standard_normal(lti.n_hat)
        x, u, _ = output_trajectory_from_v0(lti, v0, g)
        g_rec, resid = recover_input(lti, sys.E, x, u)
        assert resid <= 1e-7
        assert np.max(np.abs(g_rec - g.values)) <= 1e-6 * (1 + np.max(np.abs(g.values)))
