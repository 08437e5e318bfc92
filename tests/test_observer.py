import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from daeobs import (
    EstimationProblem,
    InestimableError,
    InputError,
    NotStabilizableError,
    ObservedDae,
    construct,
    synthesize,
    synthesize_estimator,
)
from daeobs.cli import main
from daeobs.dae import dual_dae
from daeobs.equivalence import randomized_construction
from daeobs.fixtures import data_path
from daeobs.observer import q0_bar, worst_case_bound
from daeobs.problem_io import load_problem
from daeobs.riccati import assemble_controller
from daeobs.signals import SampledSignal, integrate_lti, uniform_grid

from .conftest import random_dae, random_spd
from .oracles import (
    classical_filter,
    kkt_constrained_min,
    observer_kernel,
    pseudoinverse,
    q0_bar_reference,
)

A_CL = np.array([[-1.0, 0.5, 0.0], [0.0, -2.0, 1.0], [-0.3, 0.0, -1.5]])
H_CL = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])


def classical_problem(ell=(1.0, 0.0, 0.0)):
    obs = ObservedDae(np.eye(3), A_CL, H_CL)
    return EstimationProblem(obs, np.eye(3), np.eye(3), np.eye(2),
                             np.asarray(ell))


def count_symmetric_eigs(monkeypatch) -> list:
    """Record the name of every np.linalg.eigh / eigvalsh call from now on."""
    calls = []

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name,
                            counting(name, getattr(np.linalg, name)))
    return calls


def adjoint_reduction(F, rng):
    """Reduction of the adjoint of an observed DAE with this F (random A
    and one random output) and E C_s, which maps its reduced state v to
    w = F^T x in the adjoint's consistency space."""
    n = len(F)
    obs = ObservedDae(F, rng.standard_normal((n, n)),
                      rng.standard_normal((1, n)))
    rec = construct(dual_dae(obs))
    return rec, F.T @ rec.lti.C_s


class TestLambdaOpt:
    """The optimal initial-state correction behind q0_bar: for each
    w = (E C_s) v, v' q0_bar v must equal the KKT minimum over
    {d : F' d = 0} of (F'+ w - d)' Q0^{-1} (F'+ w - d)."""

    def test_invertible_F_gives_zero(self):
        # ker F' is trivial: no correction, the minimum is |F'^{-1} w|^2
        rng = np.random.default_rng(0)
        F = np.eye(3) + 0.2 * rng.standard_normal((3, 3))
        rec, ECs = adjoint_reduction(F, rng)
        assert rec.V.dim == 3
        Qb = q0_bar(rec, np.eye(3))
        Ftp = pseudoinverse(F.T)
        for _ in range(3):
            v = rng.standard_normal(rec.V.dim)
            w = ECs @ v
            d_star, val = kkt_constrained_min(Ftp @ w, np.eye(3), F)
            assert np.linalg.norm(d_star) <= 1e-12
            assert abs(float(v @ Qb @ v) - val) <= 1e-12

    def test_zero_F(self):
        # ker F^T is everything and the reduced state is empty: w = 0 and
        # the minimum is zero
        F = np.zeros((2, 2))
        rec, ECs = adjoint_reduction(F, np.random.default_rng(1))
        Qb = q0_bar(rec, np.eye(2))
        assert Qb.shape == (0, 0)
        v = np.zeros(0)
        _, val = kkt_constrained_min(ECs @ v, np.eye(2), F)
        assert float(v @ Qb @ v) == val == 0.0

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_kkt_oracle(self, seed):
        rng = np.random.default_rng(1000 + seed)
        n = 3
        # random singular F
        F = rng.standard_normal((n, 2)) @ rng.standard_normal((2, n))
        Q0 = random_spd(rng, n)
        rec, ECs = adjoint_reduction(F, rng)
        assert rec.V.dim == 2
        Qb = q0_bar(rec, Q0)
        Ftp = pseudoinverse(F.T)
        for _ in range(3):
            v = rng.standard_normal(rec.V.dim)
            w = ECs @ v
            d_star, val = kkt_constrained_min(Ftp @ w, Q0, F)
            assert abs(float(v @ Qb @ v) - val) <= 1e-8 * (1 + np.linalg.norm(d_star))

    def test_rank_one_structured(self):
        F = np.array([[1.0, 0.0], [0.0, 0.0]])
        Q0 = np.diag([2.0, 3.0])
        rec, ECs = adjoint_reduction(F, np.random.default_rng(2))
        assert rec.V.dim == 1
        Qb = q0_bar(rec, Q0)
        # ker F^T = span(e2); F^T+ maps onto span(e1): correction stays zero
        Ftp = pseudoinverse(F.T)
        for v in (np.array([1.0]), np.array([0.3])):
            d_star, val = kkt_constrained_min(Ftp @ ECs @ v, Q0, F)
            assert np.linalg.norm(d_star) <= 1e-12
            assert abs(float(v @ Qb @ v) - val) <= 1e-12
        # with Q0 = I the kernel projector annihilates Im F^T+ entirely
        Qb = q0_bar(rec, np.eye(2))
        for v in (np.array([1.0]), np.array([-0.7])):
            _, val = kkt_constrained_min(Ftp @ ECs @ v, np.eye(2), F)
            assert abs(float(v @ Qb @ v) - val) <= 1e-14


class TestQ0Bar:
    def test_identity(self):
        # F = Q0 = I: the weight is (E C_s)' (E C_s), the identity on the
        # orthonormal V* basis of an ODE
        rec, ECs = adjoint_reduction(np.eye(2), np.random.default_rng(3))
        Qb = q0_bar(rec, np.eye(2))
        np.testing.assert_allclose(Qb, ECs.T @ ECs, atol=1e-12)
        np.testing.assert_allclose(Qb, np.eye(2), atol=1e-12)

    def test_zero_F(self):
        rec, _ = adjoint_reduction(np.zeros((2, 2)), np.random.default_rng(4))
        assert np.linalg.norm(q0_bar(rec, np.eye(2))) == 0.0

    @pytest.mark.parametrize("seed", range(4))
    def test_equals_constrained_minimum(self, seed):
        rng = np.random.default_rng(1100 + seed)
        F = rng.standard_normal((3, 2)) @ rng.standard_normal((2, 3))
        Q0 = random_spd(rng, 3)
        rec, ECs = adjoint_reduction(F, rng)
        assert rec.V.dim == 2
        Qb = q0_bar(rec, Q0)
        Ftp = pseudoinverse(F.T)
        for _ in range(3):
            v = rng.standard_normal(rec.V.dim)
            _, val = kkt_constrained_min(Ftp @ ECs @ v, Q0, F)
            assert abs(float(v @ Qb @ v) - val) <= 1e-8 * (1 + val)
        # symmetric PSD
        assert np.linalg.norm(Qb - Qb.T) <= 1e-12
        assert np.min(np.linalg.eigvalsh(Qb)) >= -1e-12


def weight_case(name: str):
    """(obs, Q0, Q, R, ell, dual_record) for the terminal-weight cases: the
    estimation fixtures, observer draws shaped like the benchmark ladder
    (p = n/4), F = 0, and randomized adjoint reductions, whose (S, T) are
    not orthogonal."""
    kind, _, arg = name.partition(":")
    if kind == "fixture":
        prob = load_problem(str(data_path(f"{arg}.json"))).problem
        return prob.obs, prob.Q0, prob.Q, prob.R, prob.ell, None
    if kind == "ladder":
        n, rank_f = (int(a) for a in arg.split("/"))
        rng = np.random.default_rng([n, rank_f])
        sys = random_dae(rng, n, n // 4, rank_f)
        obs = ObservedDae(sys.E, sys.A_hat, sys.B_hat.T.copy())
        return (obs, random_spd(rng, n), random_spd(rng, n),
                random_spd(rng, n // 4), rng.standard_normal(n), None)
    if kind == "zero":
        rng = np.random.default_rng(7)
        obs = ObservedDae(np.zeros((3, 3)), -np.eye(3),
                          rng.standard_normal((2, 3)))
        return (obs, random_spd(rng, 3), random_spd(rng, 3), np.eye(2),
                rng.standard_normal(3), None)
    base, seed = arg.split("@")
    obs, Q0, Q, R, ell, _ = weight_case(base)
    rec = randomized_construction(construct(dual_dae(obs)),
                                  np.random.default_rng(int(seed)))
    return obs, Q0, Q, R, ell, rec


WEIGHT_CASES = (
    ["fixture:est_classical", "fixture:est_rank1"]
    + [f"ladder:{n}/{r}" for n in (10, 40, 160) for r in (n // 2, n)]
    + ["zero:"]
    + [f"randomized:{base}@{seed}" for base in ("fixture:est_rank1",
                                                 "ladder:10/5")
       for seed in range(3)]
)


def reference_bound(synth, Q0, ell, t1: float) -> float:
    """The finite-horizon bound through the full-space weight of
    q0_bar_reference, read through (E C_s), with v*(0) = B_c F^T ell."""
    F = synth.obs.F
    ECs = F.T @ synth.dual.lti.C_s
    weight = ECs.T @ q0_bar_reference(F, Q0) @ ECs
    vt = expm(synth.ctrl.A_c * t1) @ (synth.ctrl.B_c @ (F.T @ ell))
    return synth.for_ell(ell).sigma + max(float(vt @ weight @ vt), 0.0)


class TestTerminalWeight:
    """The reduced terminal weight W' (Z Q0 Z')^{-1} W against the
    full-space weight of the SVD reference, read as (E C_s)' Q0_bar (E C_s),
    and the finite-horizon bound built on it."""

    @pytest.mark.parametrize("name", WEIGHT_CASES)
    def test_matches_full_space_reference(self, name):
        obs, Q0, Q, R, ell, rec = weight_case(name)
        synth = synthesize_estimator(obs, Q0, Q, R, dual_record=rec)
        ECs = obs.F.T @ synth.dual.lti.C_s
        ref = ECs.T @ q0_bar_reference(obs.F, Q0) @ ECs
        assert synth.Q0_bar.shape == (synth.n_hat, synth.n_hat)
        assert np.linalg.norm(synth.Q0_bar - ref) <= \
            1e-12 * np.linalg.norm(ref)
        for t1 in (0.0, 0.5, 2.0, 15.0):
            want = reference_bound(synth, Q0, ell, t1)
            assert abs(worst_case_bound(synth, ell, t1) - want) <= 1e-12 * want

    def test_cuts_F_once(self, monkeypatch):
        # the weight is read off the adjoint's canonical form, so the SVD
        # of E = F' there is the synthesis's only one of F'
        obs, Q0, Q, R, _, _ = weight_case("ladder:40/20")
        seen = []
        svd = np.linalg.svd

        def recording(M, *args, **kwargs):
            seen.append(np.array_equal(M, obs.F.T))
            return svd(M, *args, **kwargs)
        monkeypatch.setattr(np.linalg, "svd", recording)
        synthesize_estimator(obs, Q0, Q, R)
        assert sum(seen) == 1

    @pytest.mark.parametrize("t1", [-2.0, -1e-300, np.nan, np.inf, -np.inf])
    def test_bound_needs_a_finite_nonnegative_horizon(self, t1):
        prob = load_problem(str(data_path("est_classical.json"))).problem
        synth = synthesize_estimator(prob.obs, prob.Q0, prob.Q, prob.R)
        assert worst_case_bound(synth, prob.ell, 0.0) >= synth.for_ell(prob.ell).sigma
        with pytest.raises(InputError, match="t1"):
            worst_case_bound(synth, prob.ell, t1)


    @pytest.mark.parametrize("action", ["default", "error"])
    @pytest.mark.parametrize("name", ["est_classical.json", "est_rank1.json"])
    def test_bound_is_sigma_at_a_huge_horizon(self, name, action):
        # e^{A_c t1} by squaring: no overflow inside expm or in A_c t1, and
        # the decaying transient underflows to 0; at t1 = 15 no squaring
        prob = load_problem(str(data_path(name))).problem
        synth = synthesize_estimator(prob.obs, prob.Q0, prob.Q, prob.R)
        sigma = synth.for_ell(prob.ell).sigma
        with warnings.catch_warnings():
            warnings.simplefilter(action, RuntimeWarning)
            for t1 in (1e42, 1e150, 1e300, 1e308, np.finfo(float).max):
                assert worst_case_bound(synth, prob.ell, t1) == sigma
            bound = worst_case_bound(synth, prob.ell, 15.0)
        vt = expm(synth.ctrl.A_c * 15.0) @ synth._output_row(prob.ell)
        assert bound == sigma + max(float(vt @ synth.Q0_bar @ vt), 0.0)


class TestSynthesize:
    def test_classical_reduction_matches_textbook_filter(self):
        prob = classical_problem()
        synth = synthesize_estimator(prob.obs, prob.Q0, prob.Q, prob.R)
        obsv = synth.for_ell(prob.ell)
        P_ref, L_ref, Acl_ref = classical_filter(A_CL, H_CL, np.eye(3), np.eye(2))
        rel = 1e-8 * (1 + np.linalg.norm(P_ref))
        assert np.linalg.norm(obsv.A_o - Acl_ref) <= rel
        assert np.linalg.norm(obsv.B_o - L_ref) <= rel
        assert np.linalg.norm(obsv.C_o - np.array([[1.0, 0.0, 0.0]])) <= 1e-10
        assert np.linalg.norm(synth.ricc.P - P_ref) <= rel
        assert abs(obsv.sigma - P_ref[0, 0]) <= rel

    def test_zero_functional(self):
        obsv = synthesize(classical_problem(ell=(0.0, 0.0, 0.0)))
        assert obsv.sigma == 0.0
        assert np.linalg.norm(obsv.C_o) == 0.0
        grid = uniform_grid(1.0, 1e-2)
        rng = np.random.default_rng(2)
        y = SampledSignal(grid, rng.standard_normal((2, grid.size)))
        s = integrate_lti(obsv.A_o, obsv.B_o, np.zeros(obsv.n_hat), y)
        assert np.max(np.abs(obsv.C_o @ s.values)) == 0.0

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
            synth.for_ell([1.0, 0.0])
        with pytest.raises(InestimableError):
            worst_case_bound(synth, [1.0, 0.0], 20.0)

    def test_dual_record_of_another_size_rejected(self):
        prob = classical_problem()
        other = ObservedDae(np.eye(2), -np.eye(2), np.ones((1, 2)))
        with pytest.raises(InputError, match="adjoint"):
            synthesize_estimator(prob.obs, prob.Q0, prob.Q, prob.R,
                                 dual_record=construct(dual_dae(other)))

    def test_shared_synthesis_across_functionals(self):
        prob = classical_problem()
        synth = synthesize_estimator(prob.obs, prob.Q0, prob.Q, prob.R)
        o1 = synth.for_ell([1.0, 0.0, 0.0])
        o2 = synth.for_ell([0.0, 1.0, 0.0])
        np.testing.assert_array_equal(o1.A_o, o2.A_o)
        np.testing.assert_array_equal(o1.B_o, o2.B_o)
        assert not np.allclose(o1.C_o, o2.C_o)
        assert abs(o1.sigma - float((o1.C_o @ synth.ricc.P @ o1.C_o.T).item())) <= 1e-12

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

    def test_decides_each_weight_once(self, monkeypatch):
        # one symmetric eigendecomposition each for Q0, Q, R and D_l' S D_l:
        # the adjoint weights duality builds from them are positive by
        # construction and are not decided again, and the solve certifies
        # P > 0 by Cholesky
        calls = count_symmetric_eigs(monkeypatch)
        rng = np.random.default_rng(4)
        sys = random_dae(rng, 40, 10, 20)
        obs = ObservedDae(sys.E, sys.A_hat, sys.B_hat.T.copy())
        synthesize_estimator(obs, random_spd(rng, 40), random_spd(rng, 40),
                             random_spd(rng, 10))
        assert len(calls) == 4

    def test_decides_a_loaded_problem_once(self, monkeypatch, tmp_path):
        # loading decides Q0, Q and R (three eigh); the synthesis of the
        # loaded problem adds only D_l' S D_l (eigh), through synthesize and
        # through the CLI alike: P >= 0 is certified by Cholesky
        path = str(data_path("est_rank1.json"))
        calls = count_symmetric_eigs(monkeypatch)
        prob = load_problem(path).problem
        assert calls == ["eigh"] * 3
        synthesize(prob)
        assert calls == ["eigh"] * 4
        calls.clear()
        assert main(["synthesize-observer", path,
                     "-o", str(tmp_path / "obs.json")]) == 0
        assert calls == ["eigh"] * 4


class TestSigmaMagnitude:
    """An exactly optimized finite family of admissible realizations (12
    frequencies per noise channel) must realize sigma, the worst case, to
    within the discretization of its sampled noise.  Guards against both
    inflation and misassembly of the error quantity for singular F."""

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
        lower = adversarial_error_lower_bound(prob, obsv, t1, step=2.5e-3)
        # At steps 2.5e-3, 1.25e-3 and 6.25e-4 the oracle exceeds sigma by
        # 5.3e-7, 1.0e-7 and 1.8e-9: an O(h^2) excess of about 5.7e-7 at
        # this step over a limit 3.3e-8 below sigma (Richardson estimates).
        # At t1 = 20 the bound, and so E(t1), is within 1e-10 of sigma.
        assert worst_case_bound(synth, prob.ell, t1) - obsv.sigma <= 1e-10
        assert -1e-7 <= lower - obsv.sigma <= 1e-6, (lower, obsv.sigma)


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
        s = integrate_lti(obsv.A_o, obsv.B_o, np.zeros(obsv.n_hat), y)
        est = (obsv.C_o @ s.values)[0, -1]
        # estimate(t1) = int_0^t1 kernel(t1, s)^T y(s) ds by composite Simpson
        kern = np.column_stack([observer_kernel(obsv, t1, s) for s in grid])
        integrand = np.sum(kern * y.values, axis=0)
        from daeobs.signals import simpson
        quad = simpson(y.step, integrand)
        assert abs(quad - est) <= 1e-5 * (1 + abs(quad))
