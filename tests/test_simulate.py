from dataclasses import replace

import numpy as np
import pytest

from daeobs import (
    DaeSystem,
    EstimationProblem,
    InputError,
    LqWeights,
    ObservedDae,
    assemble_controller,
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
from daeobs.signals import SampledSignal, integrate_lti, uniform_grid
from daeobs.simulate import (
    NOISE_MAX_FREQ,
    _rho,
    _smooth_signal,
    clean_realization,
    noise_system,
    run_estimation,
)

from .oracles import (
    coupled_run_reference,
    optimal_cost,
    output_trajectory_from_v0,
    smooth_signal_reference,
)
from .test_observer import classical_problem


@pytest.mark.parametrize("draw", [sample_admissible, clean_realization])
@pytest.mark.parametrize("seed", [-1, 1.5, True])
def test_draws_reject_a_seed_that_is_not_a_nonnegative_integer(draw, seed):
    prob = classical_problem()
    with pytest.raises(InputError, match="seed must be a nonnegative integer"):
        draw(prob, 1.0, seed=seed)


class _GridProducts(np.ndarray):
    """A matrix that records each product it takes with an operand of more
    than one column, i.e. with a signal over the grid."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if any(a is not self and np.ndim(a) == 2 and np.shape(a)[1] > 1
               for a in inputs):
            self.grid_products.append(ufunc.__name__)
        inputs = [np.asarray(a) for a in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


@pytest.mark.parametrize("name", ["est_classical.json", "est_rank1.json"])
@pytest.mark.parametrize("noisy", [True, False])
def test_draw_maps_only_f_and_x0(name, noisy, monkeypatch):
    # a draw integrates its plant once and maps f over the grid and x at
    # t = 0 only, bit for bit the full parametrization's maps; no product
    # of C_s runs over the grid
    import daeobs.simulate
    prob = load_problem(str(data_path(name))).problem
    rec = construct(noise_system(prob, noisy))
    C_s = rec.lti.C_s.view(_GridProducts)
    C_s.grid_products = []
    rec = replace(rec, lti=replace(rec.lti, C_s=C_s))
    plants, rhos = [], []

    def recorded_integration(A, B, v0, g):
        plants.append((v0, g))
        return integrate_lti(A, B, v0, g)

    def recorded_rho(*args):
        rhos.append(args)
        return _rho(*args)

    monkeypatch.setattr(daeobs.simulate, "integrate_lti", recorded_integration)
    monkeypatch.setattr(daeobs.simulate, "_rho", recorded_rho)
    draw = sample_admissible if noisy else clean_realization
    real = draw(prob, 3.0, seed=7, step=2e-3, record=rec)
    assert C_s.grid_products == []
    assert len(plants) == 1
    x, u, v = output_trajectory_from_v0(rec.lti, *plants[0])
    if noisy:
        # the first rho is the unscaled draw's: (prob, x0, f, eta)
        _, x0, f, _ = rhos[0]
        assert x0.tobytes() == (prob.obs.F @ x.values[:, 0]).tobytes()
        assert f.values.tobytes() == u.values.tobytes()
    else:
        assert v.values.tobytes() == real.v.values.tobytes()
        assert u.dim == 0 and not real.f.values.any()


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

    @pytest.mark.parametrize("step", [np.nan, np.inf, -np.inf, 0.0, -0.1])
    def test_rejects_a_step_that_is_not_positive_and_finite(self, step):
        with pytest.raises(InputError, match="step must be finite and positive"):
            sample_admissible(classical_problem(), 1.0, 0, step=step)

    def test_noise_is_consistent_for_the_dae(self):
        # f produced through the parametrization solves the DAE exactly:
        # the induced x0 always lies in the consistency space
        prob = classical_problem()
        rec = construct(noise_system(prob))
        for seed in range(5):
            r = sample_admissible(prob, 3.0, seed=seed)
            assert rec.lti.X.contains_vector(r.x0)


class TestSmoothSignal:
    # (size, t1): one, two and three points; around the perfect square
    # 144 = 12^2, where the block length B = ceil(sqrt(size)) and the cut
    # of the last block change; the Monte-Carlo grid, whose 7501 points are
    # not a square; and 20001 points to t1 = 1000, where the argument
    # freq t + phase reaches about 500.
    SIZES = [(1, 0.0), (2, 15.0), (3, 15.0), (143, 15.0), (144, 15.0),
             (145, 15.0), (7501, 15.0), (20001, 1000.0)]

    @pytest.mark.parametrize("dim", [0, 1, 3, 5])
    @pytest.mark.parametrize("size, t1", SIZES)
    def test_matches_the_full_grid_sines(self, size, t1, dim):
        grid = uniform_grid(t1, t1 / (size - 1) if size > 1 else 1.0)
        assert grid.size == size
        for seed in range(3):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            vals = _smooth_signal(rng, dim, grid)
            ref = smooth_signal_reference(ref_rng, dim, grid)
            assert vals.shape == (dim, size)
            assert rng.uniform() == ref_rng.uniform()
            # Both sides round the argument freq t + phase, and the blocked
            # side splits t_j into t_bB + (t_c - t_0): c eps (1 + freq t1)
            # per unit of amplitude, with c = 1.3 at most over 20 seeds.
            amp = np.random.default_rng(seed).uniform(-1.0, 1.0, (dim, 3, 3))
            amp_sum = np.abs(amp[:, :, 0]).sum(axis=1)
            bound = 8 * np.finfo(float).eps * (1 + NOISE_MAX_FREQ * t1) * amp_sum
            assert np.all(np.abs(vals - ref) <= bound[:, None])

    @pytest.mark.parametrize("name", ["est_classical.json", "est_rank1.json"])
    def test_realizations_match_the_reference_sampler(self, name, monkeypatch):
        import daeobs.simulate
        prob = load_problem(str(data_path(name))).problem
        synth = synthesize_estimator(prob.obs, prob.Q0, prob.Q, prob.R)
        obsv = synth.for_ell(prob.ell)
        rec = construct(noise_system(prob))
        t1, step = 15.0, 2e-3

        def draw(seed):
            real = sample_admissible(prob, t1, seed=seed, step=step, record=rec)
            return real.rho, estimation_experiment(prob, obsv, real, t1,
                                                   record=rec)[1]

        blocked = [draw(seed) for seed in range(10)]
        monkeypatch.setattr(daeobs.simulate, "_smooth_signal",
                            smooth_signal_reference)
        for seed, (rho, fin) in enumerate(blocked):
            ref_rho, ref_fin = draw(seed)
            assert abs(rho - ref_rho) <= 1e-12
            assert abs(fin - ref_fin) <= 1e-12


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

    @pytest.mark.parametrize("t1", [0.0, -1.0, np.nan, np.inf, -np.inf])
    def test_needs_a_positive_finite_horizon(self, t1):
        prob_sys, w, rec, rs = _scalar_instance()
        with pytest.raises(InputError, match="t1 must be finite and positive"):
            finite_horizon_infimum(rec.lti, w, prob_sys.E, np.array([1.0]),
                                   t1, 100)

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
    sys = DaeSystem(np.eye(1), np.zeros((1, 1)), np.eye(1))
    rec = construct(sys)
    w = LqWeights(np.eye(1), np.eye(1), np.eye(1))
    rs = solve_are(rec.lti, w)
    return sys, w, rec, rs


NAN_E = np.array([[1.0, np.nan], [0.0, 1.0]])
ENTRY_MISUSE = {
    "assemble_controller-E-3x3": lambda lti, w, rs: assemble_controller(
        lti, rs, np.eye(3)),
    "assemble_controller-E-nan": lambda lti, w, rs: assemble_controller(
        lti, rs, NAN_E),
    "finite_horizon_infimum-E-3x3": lambda lti, w, rs: finite_horizon_infimum(
        lti, w, np.eye(3), [1.0, 0.0], 1.0, 10),
    "finite_horizon_infimum-E-nan": lambda lti, w, rs: finite_horizon_infimum(
        lti, w, NAN_E, [1.0, 0.0], 1.0, 10),
    "finite_horizon_infimum-Q-3x3": lambda lti, w, rs: finite_horizon_infimum(
        lti, LqWeights(np.eye(3), np.eye(1), np.eye(3)), np.eye(2),
        [1.0, 0.0], 1.0, 10),
    "finite_horizon_infimum-R-2x2": lambda lti, w, rs: finite_horizon_infimum(
        lti, LqWeights(np.eye(2), np.eye(2), np.eye(2)), np.eye(2),
        [1.0, 0.0], 1.0, 10),
}


@pytest.mark.parametrize("call", ENTRY_MISUSE)
def test_public_entries_check_E_and_weight_sizes(call):
    # 2-state double integrator: E and the weights must match its n = 2, m = 1
    sys = DaeSystem(np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]),
                    np.array([[0.0], [1.0]]))
    lti = construct(sys).lti
    w = LqWeights(np.eye(2), np.eye(1), np.eye(2))
    rs = solve_are(lti, w)
    with pytest.raises(InputError):
        ENTRY_MISUSE[call](lti, w, rs)


class TestEstimationExperiment:
    def test_zero_everything(self):
        prob = classical_problem(ell=(0.0, 0.0, 0.0))
        obsv = synthesize(prob)
        real = clean_realization(prob, 5.0, seed=0)
        zero_real = real.__class__(x0=np.zeros(3), f=real.f, eta=real.eta,
                                   rho=0.0, g=SampledSignal.zeros(
                                       real.g.dim, real.g.grid),
                                   v=SampledSignal.zeros(
                                       real.v.dim, real.v.grid),
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
        # the draw integrates the plant (n_hat states); the run scans only
        # the observer's states, on the plant samples the draw kept
        import daeobs.signals
        import daeobs.simulate
        from daeobs.signals import _scan, integrate_lti
        integrations, scans = [], []

        def counted_integration(A, *args):
            integrations.append(A.shape[0])
            return integrate_lti(A, *args)

        def counted_scan(M, *args):
            scans.append(M.shape[0])
            return _scan(M, *args)

        monkeypatch.setattr(daeobs.simulate, "integrate_lti", counted_integration)
        monkeypatch.setattr(daeobs.signals, "_scan", counted_scan)
        monkeypatch.setattr(daeobs.simulate, "_scan", counted_scan)
        prob = classical_problem()
        obsv = synthesize(prob)
        rec = construct(noise_system(prob))
        real = sample_admissible(prob, 2.0, seed=0, record=rec)
        assert integrations == [rec.lti.n_hat]
        assert scans == [rec.lti.n_hat]
        estimation_experiment(prob, obsv, real, 2.0, record=rec)
        assert integrations == [rec.lti.n_hat]
        assert scans == [rec.lti.n_hat, obsv.n_hat]

    @pytest.mark.parametrize("name", ["est_classical.json", "est_rank1.json"])
    @pytest.mark.parametrize("noisy", [True, False])
    @pytest.mark.parametrize("t1", [6.0])
    def test_run_matches_the_coupled_run(self, name, noisy, t1):
        # the observer driven by the kept plant samples is the coupled
        # plant-observer RK4 run over the realization's grid
        prob = load_problem(str(data_path(name))).problem
        obsv = synthesize(prob)
        rec = construct(noise_system(prob, noisy))
        draw = sample_admissible if noisy else clean_realization
        for seed in range(3):
            real = draw(prob, 6.0, seed=seed, step=2e-3, record=rec)
            out = run_estimation(prob, obsv, real, t1, record=rec)
            ref = coupled_run_reference(prob, obsv, real, t1, rec)
            for got, want in zip((out.y, out.estimate, out.error), ref):
                assert got.grid[-1] == pytest.approx(t1, abs=1e-12)
                assert np.max(np.abs(got.values - want)) <= \
                    1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("t1", [3.7, 6.002, np.nan])
    def test_t1_other_than_the_horizon_rejected(self, t1):
        # a run covers the realization it is given, here on [0, 6] at step 2e-3
        prob = load_problem(str(data_path("est_classical.json"))).problem
        obsv = synthesize(prob)
        real = sample_admissible(prob, 6.0, seed=0, step=2e-3)
        with pytest.raises(InputError, match="not the realization's horizon"):
            run_estimation(prob, obsv, real, t1)

    @pytest.mark.parametrize("name", ["est_classical.json", "est_rank1.json"])
    @pytest.mark.parametrize("noisy", [True, False])
    def test_realization_of_the_other_noise_system_rejected(self, name, noisy):
        # a noisy draw run with the noise-free reduction, or the reverse:
        # the reduced input dimensions differ
        prob = load_problem(str(data_path(name))).problem
        obsv = synthesize(prob)
        draw = sample_admissible if noisy else clean_realization
        real = draw(prob, 1.0, seed=0)
        other = construct(noise_system(prob, not noisy))
        with pytest.raises(InputError):
            run_estimation(prob, obsv, real, 1.0, record=other)

    @pytest.mark.parametrize("noisy", [True, False])
    def test_plant_samples_off_the_initial_state_rejected(self, noisy):
        from dataclasses import replace
        from daeobs import ConsistencyError
        prob = load_problem(str(data_path("est_classical.json"))).problem
        obsv = synthesize(prob)
        rec = construct(noise_system(prob, noisy))
        draw = sample_admissible if noisy else clean_realization
        real = draw(prob, 1.0, seed=0, record=rec)
        run_estimation(prob, obsv, real, 1.0, record=rec)
        shifted = real.v.with_values(real.v.values + 1e-6)
        with pytest.raises(ConsistencyError, match="off Lambda x0"):
            run_estimation(prob, obsv, replace(real, v=shifted), 1.0, record=rec)

    def test_diverging_observer_reported_as_rk4_failure(self):
        # an observer far too stiff for RK4 at the step overflows its scan
        from dataclasses import replace
        prob = classical_problem()
        obsv = synthesize(prob)
        stiff = replace(obsv, A_o=-1e4 * np.eye(obsv.n_hat))
        real = sample_admissible(prob, 1.0, seed=0)
        with pytest.raises(InputError, match="RK4 state is not finite at step"):
            estimation_experiment(prob, stiff, real, 1.0)

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
