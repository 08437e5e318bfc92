"""Acceptance suite: one test per acceptance criterion, each printing a
single PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

Criteria, stated tolerances and instance counts are fixed here; nothing is
deferred to later calibration.  Randomized instances are drawn once per
session (tests/conftest.py) with pinned seeds.
"""

import time

import numpy as np

from daeobs import (
    DaeSystem,
    EstimationProblem,
    assemble_controller,
    build_equivalence,
    construct,
    estimation_experiment,
    finite_horizon_infimum,
    sample_admissible,
    solve_are,
    synthesize,
    synthesize_estimator,
)
from daeobs.cli import main as cli_main
from daeobs.equivalence import randomized_construction, verify_equivalence
from daeobs.fixtures import data_path
from daeobs.observer import worst_case_bound
from daeobs.problem_io import load_problem
from daeobs.signals import SampledSignal, uniform_grid
from daeobs.simulate import clean_realization, noise_system

from .conftest import random_dae
from .oracles import (
    fd_dae_defect,
    optimal_cost,
    output_trajectory_from_v0,
    recover_input,
)
from .test_geometric import check_subspace_against_zeroing_oracle


def report(name: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def estimation_fixtures():
    out = []
    for name in ("est_classical.json", "est_rank1.json"):
        out.append((name, load_problem(str(data_path(name))).problem))
    return out


def test_criterion_1_riccati_oracle_agreement(reduced_instance_pool):
    t0 = time.perf_counter()
    worst = 0.0
    count = 0
    for sys, w, rec, rs in reduced_instance_pool[:20]:
        rng = np.random.default_rng(1 + count)
        v0 = rng.standard_normal(rec.lti.n_hat)
        v0 /= np.linalg.norm(v0)
        val = finite_horizon_infimum(rec.lti, w, sys.E, v0, 40.0, 4000)
        ref = optimal_cost(rs, v0)
        worst = max(worst, abs(val - ref) / (1.0 + ref))
        count += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-3 and count >= 20 and elapsed <= 60.0
    report("criterion 1 (Riccati vs transcription oracle)", ok,
           f"{count} instances, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_are_residual_and_stability(reduced_instance_pool):
    worst_resid = 0.0
    worst_re = -np.inf
    for sys, w, rec, rs in reduced_instance_pool:
        lti = rec.lti
        S = w.S()
        W = lti.D_l.T @ S @ lti.D_l
        resid = np.linalg.norm(rs.P @ lti.A_l + lti.A_l.T @ rs.P
                               - rs.K.T @ W @ rs.K + lti.C_l.T @ S @ lti.C_l)
        worst_resid = max(worst_resid, resid / (1.0 + np.linalg.norm(rs.P)))
        if rs.closed_loop_spectrum.size:
            worst_re = max(worst_re, float(np.max(rs.closed_loop_spectrum.real)))
    ok = worst_resid <= 1e-8 and worst_re < 0.0
    report("criterion 2 (ARE residual and closed-loop stability)", ok,
           f"worst residual {worst_resid:.2e}, worst Re(eig) {worst_re:.2e}")


def test_criterion_3_structural_invariants(reduced_instance_pool):
    worst = {"EDs": 0.0, "LamECs": 0.0, "BcECx": 0.0}
    rank_ok = True
    for sys, w, rec, rs in reduced_instance_pool:
        lti = rec.lti
        E = sys.E
        worst["EDs"] = max(worst["EDs"], np.linalg.norm(E @ lti.D_s))
        worst["LamECs"] = max(worst["LamECs"], np.linalg.norm(
            lti.Lambda @ (E @ lti.C_s) - np.eye(lti.n_hat)))
        rank_ok &= np.linalg.matrix_rank(E @ lti.C_s, tol=1e-9) == lti.n_hat
        ctrl = assemble_controller(lti, rs, E)
        worst["BcECx"] = max(worst["BcECx"], np.linalg.norm(
            ctrl.B_c @ E @ ctrl.C_x - np.eye(lti.n_hat)))
    ok = rank_ok and all(v <= 1e-9 for v in worst.values())
    report("criterion 3 (structural identities of every build)", ok,
           f"E Ds {worst['EDs']:.2e}, Lam ECs - I {worst['LamECs']:.2e}, "
           f"Bc E Cx - I {worst['BcECx']:.2e}, ranks ok: {rank_ok}")


def test_criterion_4_trajectory_equivalence():
    rng = np.random.default_rng(41)
    worst_ratio_defect = 0.0
    checked = 0
    for i in range(14):
        n = int(rng.integers(2, 5))
        sys = random_dae(rng, n, int(rng.integers(0, 3)),
                         int(rng.integers(1, n + 1)))
        rec = construct(sys)
        lti = rec.lti
        v0 = rng.standard_normal(lti.n_hat)
        waves = [(rng.uniform(0.5, 1.5), rng.uniform(0, 6))
                 for _ in range(lti.k)]
        defects = []
        for h in (2e-3, 1e-3):
            grid = uniform_grid(1.0, h)
            vals = np.zeros((lti.k, grid.size))
            for j, (freq, phase) in enumerate(waves):
                vals[j] = np.sin(freq * grid + phase)
            x, u, _ = output_trajectory_from_v0(lti, v0, SampledSignal(grid, vals))
            defects.append(fd_dae_defect(sys.E, sys.A_hat, sys.B_hat, x, u))
        if defects[0] < 1e-10:
            continue
        # O(h^2) decay: halving the step must cut the defect by >= ~4
        # (faster decay satisfies the bound; slower flags the integrator)
        ratio = defects[0] / defects[1]
        worst_ratio_defect = max(worst_ratio_defect, 4.0 - min(ratio, 4.0))
        assert ratio >= 3.0, f"defect ratio {ratio:.2f} decays slower than h^2"
        checked += 1
        if checked >= 10:
            break
    # reverse direction: hand-constructed solutions are matched by some g
    sys = DaeSystem(np.diag([1.0, 0.0]), np.array([[-1.0, 0.0], [0.0, 1.0]]),
                    np.array([[0.0], [1.0]]))
    lti = construct(sys).lti
    grid = uniform_grid(2.0, 1e-3)
    x_sig = SampledSignal(grid, np.vstack([np.exp(-grid), -np.sin(grid)]))
    u_sig = SampledSignal(grid, np.sin(grid).reshape(1, -1))
    _, resid = recover_input(lti, sys.E, x_sig, u_sig)
    ok = checked >= 10 and resid <= 1e-9
    report("criterion 4 (bidirectional trajectory equivalence)", ok,
           f"{checked} forward instances (worst decay shortfall "
           f"{worst_ratio_defect:.2f}), hand-solution residual {resid:.2e}")


def test_criterion_5_clean_observer_convergence():
    details = []
    ok = True
    for name, prob in estimation_fixtures():
        obsv = synthesize(prob)
        tau = 1.0 / np.min(-obsv.spectrum.real)
        t1 = float(np.ceil(11.0 * tau))
        found = False
        for seed in range(5):
            real = clean_realization(prob, t1, seed=seed, step=2e-3)
            trace, _ = estimation_experiment(prob, obsv, real, t1)
            e0 = abs(trace.values[0, 0])
            if e0 < 1e-6:
                continue  # functional starts at zero; pick another draw
            found = True
            tail = np.max(np.abs(
                trace.values[0, -max(1, trace.grid.size // 10):]))
            ok &= tail <= 1e-3 * e0
            details.append(f"{name}: tail/initial {tail / e0:.2e}")
            break
        ok &= found
    report("criterion 5 (clean-output error convergence)", ok,
           "; ".join(details))


def test_criterion_6_worst_case_bound():
    details = []
    ok = True
    t1 = 15.0
    for name, prob in estimation_fixtures():
        synth = synthesize_estimator(prob.obs, prob.Q0, prob.Q, prob.R)
        obsv = synth.for_ell(prob.ell)
        bound = worst_case_bound(synth, prob.ell, t1) + 1e-6
        rec = construct(noise_system(prob))
        worst = 0.0
        for seed in range(100):
            real = sample_admissible(prob, t1, seed=seed, step=2e-3,
                                     record=rec)
            assert real.rho <= 1.0 + 1e-9
            _, fin = estimation_experiment(prob, obsv, real, t1, record=rec)
            worst = max(worst, fin)
            ok &= fin <= bound
        details.append(f"{name}: worst err^2 {worst:.2e} vs bound {bound:.2e}")
    report("criterion 6 (worst-case error bound, 100 runs per fixture)", ok,
           "; ".join(details))


def test_criterion_7_classical_reduction():
    from .oracles import classical_filter
    loaded = load_problem(str(data_path("est_classical.json")))
    prob: EstimationProblem = loaded.problem
    synth = synthesize_estimator(prob.obs, prob.Q0, prob.Q, prob.R)
    obsv = synth.for_ell(prob.ell)
    P_ref, L_ref, Acl_ref = classical_filter(prob.obs.A, prob.obs.H,
                                             prob.Q, prob.R)
    rel = 1e-8 * (1.0 + np.linalg.norm(P_ref))
    devs = {
        "A_o": np.linalg.norm(obsv.A_o - Acl_ref),
        "B_o": np.linalg.norm(obsv.B_o - L_ref),
        "P": np.linalg.norm(synth.ricc.P - P_ref),
        "sigma": abs(obsv.sigma - float(prob.ell @ P_ref @ prob.ell)),
    }
    ok = all(v <= rel for v in devs.values())
    report("criterion 7 (classical reduction for F = I)", ok,
           ", ".join(f"{k} dev {v:.2e}" for k, v in devs.items()))


def test_criterion_8_appendix_equivalence():
    rng = np.random.default_rng(88)
    worst_defect = 0.0
    worst_value_dev = 0.0
    for fixture in ("ctrl_rank1.json", "ctrl_ode.json", "ctrl_algebraic.json"):
        loaded = load_problem(str(data_path(fixture)))
        sys, w = loaded.problem.sys, loaded.problem.weights
        base = construct(sys)
        rs_base = solve_are(base.lti, w)
        x0 = base.lti.C_s @ (rng.standard_normal(base.lti.n_hat)
                             if base.lti.n_hat else np.zeros(0))
        if base.lti.n_hat:
            v_base = optimal_cost(rs_base, base.lti.Lambda @ (sys.E @ x0))
        else:
            v_base = 0.0
        for _ in range(20):
            rec2 = randomized_construction(construct(sys), rng)
            eq = build_equivalence(base, rec2)
            worst_defect = max(worst_defect, eq.max_defect)
            rep = verify_equivalence(base.lti, rec2.lti, eq)
            worst_defect = max(worst_defect, rep.max_residual)
            rs2 = solve_are(rec2.lti, w)
            if base.lti.n_hat:
                v2 = optimal_cost(rs2, rec2.lti.Lambda @ (sys.E @ x0))
                worst_value_dev = max(worst_value_dev,
                                      abs(v2 - v_base) / (1.0 + abs(v_base)))
    # sigma invariance across adjoint builds
    from daeobs.dae import dual_dae
    for name, prob in estimation_fixtures():
        synth = synthesize_estimator(prob.obs, prob.Q0, prob.Q, prob.R)
        sigma_base = synth.for_ell(prob.ell).sigma
        adj = dual_dae(prob.obs)
        for _ in range(5):
            rec2 = randomized_construction(construct(adj), rng)
            synth2 = synthesize_estimator(prob.obs, prob.Q0, prob.Q, prob.R,
                                          dual_record=rec2)
            worst_value_dev = max(
                worst_value_dev,
                abs(synth2.for_ell(prob.ell).sigma - sigma_base)
                / (1.0 + sigma_base))
    ok = worst_defect <= 1e-8 and worst_value_dev <= 1e-8
    report("criterion 8 (feedback equivalence of randomized builds)", ok,
           f"worst defect {worst_defect:.2e}, "
           f"worst value/sigma deviation {worst_value_dev:.2e}")


def test_criterion_9_output_nulling_vs_simulation():
    from daeobs.dae import canonical_form
    from daeobs.geometric import weakly_observable_subspace
    rng = np.random.default_rng(99)
    checked = 0
    for _ in range(10):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(0, 3))
        r = int(rng.integers(1, min(n, 3) + 1))
        sys = random_dae(rng, n, m, r)
        cf = canonical_form(sys)
        V = weakly_observable_subspace(cf)
        check_subspace_against_zeroing_oracle(cf, V)
        checked += 1
    # structured cases with known answers
    from .conftest import cf_from_blocks
    structured = [
        cf_from_blocks(np.array([[0.0, 1.0], [0.0, 0.0]]),
                       np.array([[0.0], [1.0]]),
                       np.array([[1.0, 0.0]]), np.array([[0.0]]), m=1),
        cf_from_blocks(np.diag([-1.0, -2.0, 0.5]), np.zeros((3, 1)),
                       np.array([[1.0, 0.0, 0.0]]), np.zeros((1, 1)), m=0),
    ]
    for cf in structured:
        V = weakly_observable_subspace(cf)
        check_subspace_against_zeroing_oracle(cf, V)
        checked += 1
    report("criterion 9 (output-nulling subspace vs zeroing oracle)", True,
           f"{checked} systems with r <= 3 verified")


def test_criterion_10_cli_determinism(tmp_path):
    outs = []
    for i in range(2):
        out = tmp_path / f"rep{i}.json"
        assert cli_main(["synthesize-observer",
                         str(data_path("est_rank1.json")),
                         "--output", str(out)]) == 0
        outs.append(out.read_bytes())
    report_same = outs[0] == outs[1]
    csv_same = True
    dirs = [tmp_path / "s0", tmp_path / "s1"]
    for d in dirs:
        assert cli_main(["simulate", str(data_path("est_rank1.json")),
                         "--output-dir", str(d), "--noisy", "--runs", "2",
                         "--horizon", "8", "--step", "0.004",
                         "--seed", "3"]) == 0
    for name in ("trace_000.csv", "trace_001.csv", "summary.json"):
        csv_same &= (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
    ok = report_same and csv_same
    report("criterion 10 (byte-identical CLI outputs under fixed seed)", ok,
           f"reports identical: {report_same}, traces identical: {csv_same}")
