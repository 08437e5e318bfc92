import numpy as np
import pytest

from daeobs import (
    EstimationProblem,
    LqWeights,
    ObservedDae,
    construct,
    estimation_experiment,
    finite_horizon_infimum,
    sample_admissible,
    solve_are,
    synthesize,
    synthesize_estimator,
)
from daeobs.fixtures import data_path
from daeobs.observer import worst_case_bound
from daeobs.problem_io import load_problem
from daeobs.riccati import optimal_cost
from daeobs.signals import SampledSignal, uniform_grid
from daeobs.simulate import (
    clean_realization,
    noise_system,
    run_estimation,
    run_observer,
)

from .test_observer import classical_problem


class TestSampleAdmissible:
    def test_deterministic_under_seed(self):
        prob = classical_problem()
        r1 = sample_admissible(prob, 5.0, seed=42)
        r2 = sample_admissible(prob, 5.0, seed=42)
        np.testing.assert_array_equal(r1.x0, r2.x0)
        np.testing.assert_array_equal(r1.f.values, r2.f.values)
        np.testing.assert_array_equal(r1.eta.values, r2.eta.values)
        assert r1.rho == r2.rho

    @pytest.mark.parametrize("seed", range(10))
    def test_rho_at_most_one(self, seed):
        prob = classical_problem()
        r = sample_admissible(prob, 5.0, seed=seed)
        assert 0.0 <= r.rho <= 1.0 + 1e-9

    def test_scaling_homogeneity(self):
        prob = classical_problem()
        r = sample_admissible(prob, 5.0, seed=7)
        # doubling the realization quadruples rho
        from daeobs.simulate import _rho
        doubled = _rho(prob, 2 * r.x0,
                       SampledSignal(r.f.grid, 2 * r.f.values),
                       SampledSignal(r.eta.grid, 2 * r.eta.values))
        assert abs(doubled - 4 * r.rho) <= 1e-9 * (1 + 4 * r.rho)

    @pytest.mark.parametrize("seed", range(5))
    def test_rho_against_independent_trapezoid(self, seed):
        from scipy.integrate import trapezoid

        from daeobs.signals import quadratic_form_series
        prob = classical_problem()
        r = sample_admissible(prob, 5.0, seed=seed)
        running = quadratic_form_series(prob.Q, r.f) + \
            quadratic_form_series(prob.R, r.eta)
        rho_trap = float(r.x0 @ prob.Q0 @ r.x0 + trapezoid(running, r.f.grid))
        assert abs(rho_trap - r.rho) <= 1e-6

    def test_noise_is_consistent_for_the_dae(self):
        # f produced through the parametrization solves the DAE exactly:
        # the induced x0 always lies in the consistency space
        prob = classical_problem()
        rec = construct(noise_system(prob))
        for seed in range(5):
            r = sample_admissible(prob, 3.0, seed=seed)
            assert rec.lti.X.contains_vector(r.x0)


class TestRunObserver:
    def test_zero_output(self):
        obsv = synthesize(classical_problem())
        grid = uniform_grid(2.0, 1e-2)
        est = run_observer(obsv, SampledSignal.zeros(2, grid))
        assert np.max(np.abs(est.values)) == 0.0

    def test_dimension_mismatch(self):
        from daeobs import InputError
        obsv = synthesize(classical_problem())
        grid = uniform_grid(1.0, 1e-2)
        with pytest.raises(InputError):
            run_observer(obsv, SampledSignal.zeros(3, grid))


class TestFiniteHorizonInfimum:
    def test_zero_initial_state(self):
        prob_sys, w, rec, rs = _scalar_instance()
        assert finite_horizon_infimum(rec.lti, w, prob_sys.E,
                                      np.zeros(rec.lti.n_hat), 10.0, 100) == 0.0

    def test_scalar_matches_riccati(self):
        prob_sys, w, rec, rs = _scalar_instance()
        v0 = np.array([1.0])
        val = finite_horizon_infimum(rec.lti, w, prob_sys.E, v0, 30.0, 3000)
        assert abs(val - optimal_cost(rs, v0)) <= 1e-4

    def test_monotone_under_grid_refinement(self):
        prob_sys, w, rec, rs = _scalar_instance()
        v0 = np.array([1.0])
        vals = [finite_horizon_infimum(rec.lti, w, prob_sys.E, v0, 8.0, n)
                for n in (50, 100, 200, 400)]
        for a, b in zip(vals, vals[1:]):
            assert b <= a + 1e-12

    def test_refinement_consistency(self, reduced_instance_pool):
        sys, w, rec, rs = reduced_instance_pool[2]
        rng = np.random.default_rng(8)
        v0 = rng.standard_normal(rec.lti.n_hat)
        v0 /= np.linalg.norm(v0)
        a = finite_horizon_infimum(rec.lti, w, sys.E, v0, 40.0, 4000)
        b = finite_horizon_infimum(rec.lti, w, sys.E, v0, 40.0, 8000)
        ref = optimal_cost(rs, v0)
        assert abs(a - b) <= 1e-5 * (1 + ref)
        assert abs(a - ref) / (1 + ref) <= 1e-3


def _scalar_instance():
    from daeobs import DaeSystem
    sys = DaeSystem(np.eye(1), np.zeros((1, 1)), np.eye(1))
    rec = construct(sys)
    w = LqWeights(np.eye(1), np.eye(1), np.eye(1))
    rs = solve_are(rec.lti, w)
    return sys, w, rec, rs


class TestEstimationExperiment:
    def test_zero_everything(self):
        prob = classical_problem(ell=(0.0, 0.0, 0.0))
        obsv = synthesize(prob)
        real = clean_realization(prob, 5.0, seed=0)
        zero_real = real.__class__(x0=np.zeros(3), f=real.f, eta=real.eta,
                                   rho=0.0, g=SampledSignal.zeros(
                                       real.g.dim, real.g.grid),
                                   autonomous=True)
        trace, fin = estimation_experiment(prob, obsv, zero_real, 5.0)
        assert np.max(np.abs(trace.values)) == 0.0
        assert fin == 0.0

    def test_clean_error_converges(self):
        prob = classical_problem()
        obsv = synthesize(prob)
        # horizon of ten time constants of the slowest observer mode
        tau = 1.0 / np.min(-obsv.spectrum.real)
        t1 = float(np.ceil(12 * tau))
        real = clean_realization(prob, t1, seed=3)
        trace, _ = estimation_experiment(prob, obsv, real, t1)
        e0 = abs(trace.values[0, 0])
        assert e0 > 1e-6
        tail = np.max(np.abs(trace.values[0, -max(1, trace.grid.size // 10):]))
        assert tail <= 1e-3 * e0

    @pytest.mark.parametrize("seed", range(5))
    def test_noisy_error_bounded(self, seed):
        prob = classical_problem()
        synth = synthesize_estimator(prob.obs, prob.Q0, prob.Q, prob.R)
        obsv = synth.for_ell(prob.ell)
        t1 = 20.0
        real = sample_admissible(prob, t1, seed=seed)
        _, fin = estimation_experiment(prob, obsv, real, t1)
        bound = worst_case_bound(synth, prob.ell, t1)
        assert fin <= bound + 1e-6

    def test_one_integration_per_sample_and_per_run(self, monkeypatch):
        import daeobs.lti
        import daeobs.simulate
        from daeobs.signals import integrate_lti
        calls = []

        def counted(*args):
            calls.append(args)
            return integrate_lti(*args)

        monkeypatch.setattr(daeobs.lti, "integrate_lti", counted)
        monkeypatch.setattr(daeobs.simulate, "integrate_lti", counted)
        prob = classical_problem()
        obsv = synthesize(prob)
        real = sample_admissible(prob, 2.0, seed=0)
        assert len(calls) == 1
        estimation_experiment(prob, obsv, real, 2.0)
        assert len(calls) == 2

    @pytest.mark.parametrize("noisy", [True, False])
    def test_inconsistent_initial_state_raises(self, noisy):
        # est_rank1's consistency space is span(e1), with or without noise:
        # an initial value of Fx off it admits no trajectory
        from dataclasses import replace
        from daeobs import ConsistencyError
        prob = load_problem(str(data_path("est_rank1.json"))).problem
        obsv = synthesize(prob)
        draw = sample_admissible if noisy else clean_realization
        real = draw(prob, 1.0, seed=0)
        bad = replace(real, x0=real.x0 + np.array([0.0, 1.0, 0.0]))
        rec = construct(noise_system(prob, noisy))
        for record in (None, rec):
            with pytest.raises(ConsistencyError):
                run_estimation(prob, obsv, bad, 1.0, record=record)
        run_estimation(prob, obsv, real, 1.0, record=rec)

    def test_observer_of_other_output_rejected(self):
        from daeobs import InputError
        prob = classical_problem()
        one_output = EstimationProblem(
            ObservedDae(prob.obs.F, prob.obs.A, prob.obs.H[:1]),
            prob.Q0, prob.Q, np.eye(1), prob.ell)
        real = clean_realization(prob, 1.0, seed=0)
        with pytest.raises(InputError):
            estimation_experiment(prob, synthesize(one_output), real, 1.0)

    @pytest.mark.parametrize("name", ["est_classical.json", "est_rank1.json"])
    def test_clean_error_matches_exact_coupled_solution(self, name):
        # Noise-free, plant and observer form one autonomous system
        # zdot = A_aug z with z = [v; s]; its exact solution is
        # expm(A_aug t) z0, and the integrated error trace must agree with
        # it to far better than the O(h^2) of interpolating y.
        from scipy.linalg import expm
        prob = load_problem(str(data_path(name))).problem
        obsv = synthesize(prob)
        t1, step = 15.0, 2e-3
        real = clean_realization(prob, t1, seed=0, step=step)
        trace, _ = estimation_experiment(prob, obsv, real, t1)
        lti = construct(noise_system(prob, noisy=False)).lti
        n, m = lti.n_hat, obsv.n_hat
        A_aug = np.block([
            [lti.A_l, np.zeros((n, m))],
            [obsv.B_o @ prob.obs.H @ lti.C_s, obsv.A_o],
        ])
        z0 = np.concatenate([lti.Lambda @ real.x0, np.zeros(m)])
        z = expm(A_aug[None] * trace.grid[:, None, None]) @ z0
        exact = z[:, :n] @ (prob.ell @ prob.obs.F @ lti.C_s) - z[:, n:] @ obsv.C_o[0]
        err = trace.values[0]
        assert np.max(np.abs(err)) > 1e-3
        assert np.max(np.abs(err - exact)) <= 1e-10 * (1 + np.max(np.abs(err)))

    def test_rank_deficient_F_experiment(self):
        F = np.diag([1.0, 0.0, 0.0])
        A = np.array([[-1.0, 0.0, 0.5], [1.0, -1.0, 0.0], [0.0, 1.0, -2.0]])
        H = np.array([[0.0, 0.0, 1.0]])
        obs = ObservedDae(F, A, H)
        prob = EstimationProblem(obs, np.eye(3), np.eye(3), np.eye(1),
                                 [1.0, 0.0, 0.0])
        obsv = synthesize(prob)
        t1 = 25.0
        real = clean_realization(prob, t1, seed=4)
        trace, _ = estimation_experiment(prob, obsv, real, t1)
        e0 = abs(trace.values[0, 0])
        tail = np.max(np.abs(trace.values[0, -trace.grid.size // 10:]))
        if e0 > 1e-9:
            assert tail <= 1e-2 * e0
