import numpy as np
import pytest

from daeobs import (
    EstimationProblem,
    InestimableError,
    InputError,
    NotStabilizableError,
    ObservedDae,
    synthesize,
    synthesize_estimator,
)
from daeobs.dae import dual_dae
from daeobs.fixtures import data_path
from daeobs.linalg import pseudoinverse
from daeobs.observer import q0_bar, worst_case_bound
from daeobs.problem_io import load_problem
from daeobs.riccati import assemble_controller
from daeobs.signals import SampledSignal, uniform_grid
from daeobs.simulate import run_observer

from .conftest import random_spd
from .oracles import classical_filter, kkt_constrained_min, observer_kernel

A_CL = np.array([[-1.0, 0.5, 0.0], [0.0, -2.0, 1.0], [-0.3, 0.0, -1.5]])
H_CL = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])


def classical_problem(ell=(1.0, 0.0, 0.0)):
    obs = ObservedDae(np.eye(3), A_CL, H_CL)
    return EstimationProblem(obs, np.eye(3), np.eye(3), np.eye(2),
                             np.asarray(ell))


class TestLambdaOpt:
    """The optimal initial-state correction inside q0_bar: for each w,
    w' q0_bar w must equal the KKT minimum over {d : F' d = 0} of
    (F'+ w - d)' Q0^{-1} (F'+ w - d)."""

    def test_invertible_F_gives_zero(self):
        # ker F' is trivial: no correction, the minimum is |F'^{-1} w|^2
        rng = np.random.default_rng(0)
        F = np.eye(3) + 0.2 * rng.standard_normal((3, 3))
        Qb = q0_bar(F, np.eye(3))
        Ftp = pseudoinverse(F.T)
        for _ in range(3):
            w = rng.standard_normal(3)
            d_star, val = kkt_constrained_min(Ftp @ w, np.eye(3), F)
            assert np.linalg.norm(d_star) <= 1e-12
            assert abs(float(w @ Qb @ w) - val) <= 1e-12

    def test_zero_F(self):
        # ker F^T is everything but F^T+ = 0, so the minimum is zero
        Qb = q0_bar(np.zeros((2, 2)), np.eye(2))
        for w in (np.array([1.0, 0.0]), np.array([0.3, -2.0])):
            _, val = kkt_constrained_min(np.zeros(2), np.eye(2), np.zeros((2, 2)))
            assert float(w @ Qb @ w) == val == 0.0

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_kkt_oracle(self, seed):
        rng = np.random.default_rng(1000 + seed)
        n = 3
        # random singular F
        F = rng.standard_normal((n, 2)) @ rng.standard_normal((2, n))
        Q0 = random_spd(rng, n)
        Qb = q0_bar(F, Q0)
        Ftp = pseudoinverse(F.T)
        for _ in range(3):
            z0 = rng.standard_normal(n)
            w = F.T @ z0
            d_star, val = kkt_constrained_min(Ftp @ w, Q0, F)
            assert abs(float(w @ Qb @ w) - val) <= 1e-8 * (1 + np.linalg.norm(d_star))

    def test_rank_one_structured(self):
        F = np.array([[1.0, 0.0], [0.0, 0.0]])
        Q0 = np.diag([2.0, 3.0])
        Qb = q0_bar(F, Q0)
        # ker F^T = span(e2); F^T+ maps onto span(e1): correction stays zero
        Ftp = pseudoinverse(F.T)
        for w in (np.array([1.0, 0.0]), np.array([0.3, 0.0])):
            d_star, val = kkt_constrained_min(Ftp @ w, Q0, F)
            assert np.linalg.norm(d_star) <= 1e-12
            assert abs(float(w @ Qb @ w) - val) <= 1e-12
        # with Q0 = I the kernel projector annihilates Im F^T+ entirely
        Qb = q0_bar(F, np.eye(2))
        for w in (np.array([1.0, 0.0]), np.array([0.3, 0.7])):
            _, val = kkt_constrained_min(Ftp @ w, np.eye(2), F)
            assert abs(float(w @ Qb @ w) - val) <= 1e-14


class TestQ0Bar:
    def test_identity(self):
        np.testing.assert_allclose(q0_bar(np.eye(2), np.eye(2)), np.eye(2),
                                   atol=1e-12)

    def test_zero_F(self):
        assert np.linalg.norm(q0_bar(np.zeros((2, 2)), np.eye(2))) == 0.0

    @pytest.mark.parametrize("seed", range(4))
    def test_equals_constrained_minimum(self, seed):
        rng = np.random.default_rng(1100 + seed)
        F = rng.standard_normal((3, 2)) @ rng.standard_normal((2, 3))
        Q0 = random_spd(rng, 3)
        Qb = q0_bar(F, Q0)
        Ftp = pseudoinverse(F.T)
        for _ in range(3):
            w = F.T @ rng.standard_normal(3)
            _, val = kkt_constrained_min(Ftp @ w, Q0, F)
            assert abs(float(w @ Qb @ w) - val) <= 1e-8 * (1 + val)
        # symmetric PSD
        assert np.linalg.norm(Qb - Qb.T) <= 1e-12
        assert np.min(np.linalg.eigvalsh(Qb)) >= -1e-12


class TestSynthesize:
    def test_classical_reduction_matches_textbook_filter(self):
        prob = classical_problem()
        obsv = synthesize(prob)
        P_ref, L_ref, Acl_ref = classical_filter(A_CL, H_CL, np.eye(3), np.eye(2))
        rel = 1e-8 * (1 + np.linalg.norm(P_ref))
        assert np.linalg.norm(obsv.A_o - Acl_ref) <= rel
        assert np.linalg.norm(obsv.B_o - L_ref) <= rel
        assert np.linalg.norm(obsv.C_o - np.array([[1.0, 0.0, 0.0]])) <= 1e-10
        assert np.linalg.norm(obsv.P - P_ref) <= rel
        assert abs(obsv.sigma - P_ref[0, 0]) <= rel

    def test_zero_functional(self):
        obsv = synthesize(classical_problem(ell=(0.0, 0.0, 0.0)))
        assert obsv.sigma == 0.0
        assert np.linalg.norm(obsv.C_o) == 0.0
        grid = uniform_grid(1.0, 1e-2)
        rng = np.random.default_rng(2)
        y = SampledSignal(grid, rng.standard_normal((2, grid.size)))
        est = run_observer(obsv, y)
        assert np.max(np.abs(est.values)) == 0.0

    def test_duality_structure_is_transposed_controller(self):
        prob = classical_problem()
        synth = synthesize_estimator(prob.obs, prob.Q0, prob.Q, prob.R)
        obsv = synth.for_ell(prob.ell)
        adj = dual_dae(prob.obs)
        ctrl = assemble_controller(synth.dual.lti, synth.ricc, adj.E)
        np.testing.assert_allclose(obsv.A_o, ctrl.A_c.T, atol=1e-14)
        np.testing.assert_allclose(obsv.B_o, ctrl.C_u.T, atol=1e-14)
        np.testing.assert_allclose(obsv.C_o,
                                   (prob.ell @ prob.obs.F @ ctrl.B_c.T)
                                   .reshape(1, -1), atol=1e-14)

    def test_observer_is_stable(self):
        obsv = synthesize(classical_problem())
        assert np.max(obsv.spectrum.real) < 0

    def test_undetectable_dual_raises(self):
        # unstable scalar state, zero output map
        obs = ObservedDae(np.eye(1), np.array([[1.0]]), np.zeros((1, 1)))
        prob = EstimationProblem(obs, np.eye(1), np.eye(1), np.eye(1), [1.0])
        with pytest.raises(NotStabilizableError, match="adjoint"):
            synthesize(prob)

    def test_inestimable_functional_raises(self):
        # d(x1)/dt = x2 + f1 with x2 an unconstrained signal: x1 drifts
        # freely, so the functional x1 = ell^T F x admits no observer
        # (F^T ell falls outside the adjoint consistency space), while
        # ell in ker F^T stays trivially estimable.
        F = np.diag([1.0, 0.0])
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        H = np.array([[1.0, 0.0]])
        obs = ObservedDae(F, A, H)
        synth = synthesize_estimator(obs, np.eye(2), np.eye(2), np.eye(1))
        assert not synth.is_estimable([1.0, 0.0])
        with pytest.raises(InestimableError):
            synth.for_ell([1.0, 0.0])
        trivial = synth.for_ell([0.0, 1.0])
        assert trivial.sigma == 0.0

    def test_inestimable_functional_has_no_error_bound(self):
        # same system: no observer exists for x1, so no guaranteed error
        # (and no finite-horizon bound) may be reported for it either
        obs = ObservedDae(np.diag([1.0, 0.0]),
                          np.array([[0.0, 1.0], [0.0, 0.0]]),
                          np.array([[1.0, 0.0]]))
        synth = synthesize_estimator(obs, np.eye(2), np.eye(2), np.eye(1))
        with pytest.raises(InestimableError):
            synth.worst_case_error([1.0, 0.0])
        with pytest.raises(InestimableError):
            worst_case_bound(synth, [1.0, 0.0], 20.0)

    def test_shared_synthesis_across_functionals(self):
        prob = classical_problem()
        synth = synthesize_estimator(prob.obs, prob.Q0, prob.Q, prob.R)
        o1 = synth.for_ell([1.0, 0.0, 0.0])
        o2 = synth.for_ell([0.0, 1.0, 0.0])
        np.testing.assert_array_equal(o1.A_o, o2.A_o)
        np.testing.assert_array_equal(o1.B_o, o2.B_o)
        assert not np.allclose(o1.C_o, o2.C_o)
        assert abs(o1.sigma - float((o1.C_o @ o1.P @ o1.C_o.T).item())) <= 1e-12

    @pytest.mark.parametrize("eps", [2.5e-10, 3e-10])
    def test_singular_value_just_below_rank_cut(self, eps):
        # F + eps I has a singular value the rank decision cuts; the cut
        # block of S F' T is not a by-construction identity.
        prob = load_problem(str(data_path("est_rank1.json"))).problem
        obs = ObservedDae(prob.obs.F + eps * np.eye(prob.n), prob.obs.A,
                          prob.obs.H)
        synth = synthesize_estimator(obs, prob.Q0, prob.Q, prob.R)
        assert synth.for_ell(prob.ell).sigma == pytest.approx(0.6124860803,
                                                              abs=1e-9)

    def test_rank_deficient_F_full_pipeline(self):
        # F rank 1 with estimable first coordinate
        F = np.diag([1.0, 0.0, 0.0])
        A = np.array([[-1.0, 0.0, 0.5], [1.0, -1.0, 0.0], [0.0, 1.0, -2.0]])
        H = np.array([[0.0, 0.0, 1.0]])
        obs = ObservedDae(F, A, H)
        prob = EstimationProblem(obs, np.eye(3), np.eye(3), np.eye(1),
                                 [1.0, 0.0, 0.0])
        obsv = synthesize(prob)
        assert obsv.sigma >= 0
        assert np.max(obsv.spectrum.real) < 0


class TestSigmaMagnitude:
    """Sandwich sigma: the rigorous finite-horizon bound caps the worst
    case from above, and an exactly optimized finite family of admissible
    realizations must already realize a sizable fraction of sigma from
    below.  Guards against both inflation and misassembly of the error
    quantity for singular F."""

    def test_rank_deficient_sigma_is_achievable(self):
        from daeobs.observer import worst_case_bound
        from .oracles import adversarial_error_lower_bound
        F = np.diag([1.0, 0.0, 0.0])
        A = np.array([[-1.0, 0.0, 0.5], [1.0, -1.0, 0.0], [0.0, 1.0, -2.0]])
        H = np.array([[0.0, 0.0, 1.0]])
        obs = ObservedDae(F, A, H)
        prob = EstimationProblem(obs, np.eye(3), np.eye(3), np.eye(1),
                                 [1.0, 0.0, 0.0])
        synth = synthesize_estimator(obs, prob.Q0, prob.Q, prob.R)
        obsv = synth.for_ell(prob.ell)
        t1 = 20.0
        lower = adversarial_error_lower_bound(prob, obsv, t1, step=1e-2)
        upper = worst_case_bound(synth, prob.ell, t1) + 1e-6
        assert lower <= upper
        assert lower >= 0.25 * obsv.sigma, (lower, obsv.sigma)


class TestObserverKernel:
    def test_t_equals_s(self):
        obsv = synthesize(classical_problem())
        k0 = observer_kernel(obsv, 1.5, 1.5)
        np.testing.assert_allclose(k0, (obsv.C_o @ obsv.B_o).ravel(), atol=1e-12)

    def test_requires_s_before_t(self):
        obsv = synthesize(classical_problem())
        with pytest.raises(InputError):
            observer_kernel(obsv, 1.0, 2.0)

    def test_matches_duality_formula(self):
        # second evaluation path: C_u e^{A_c (t-s)} Lambda F' ell from the
        # synthesis pieces directly
        from scipy.linalg import expm
        prob = classical_problem()
        synth = synthesize_estimator(prob.obs, prob.Q0, prob.Q, prob.R)
        obsv = synth.for_ell(prob.ell)
        ctrl = synth.ctrl
        for t, s in ((2.0, 0.5), (3.0, 3.0), (1.0, 0.0)):
            want = ctrl.C_u @ expm(ctrl.A_c * (t - s)) @ ctrl.B_c \
                @ (prob.obs.F.T @ prob.ell)
            np.testing.assert_allclose(observer_kernel(obsv, t, s), want,
                                       atol=1e-12)

    def test_quadrature_matches_state_space_run(self):
        prob = classical_problem()
        obsv = synthesize(prob)
        t1 = 5.0
        grid = uniform_grid(t1, 1e-2)
        y = SampledSignal(grid, np.vstack([np.sin(0.7 * grid),
                                           np.cos(1.3 * grid)]))
        est = run_observer(obsv, y)
        # estimate(t1) = int_0^t1 kernel(t1, s)^T y(s) ds by composite Simpson
        kern = np.column_stack([observer_kernel(obsv, t1, s) for s in grid])
        integrand = np.sum(kern * y.values, axis=0)
        from daeobs.signals import simpson
        quad = simpson(grid, integrand)
        assert abs(quad - est.values[0, -1]) <= 1e-5 * (1 + abs(quad))
