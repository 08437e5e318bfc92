"""Command-line front end.

Subcommands
-----------
synthesize-observer   minimax observer report for an estimation problem
solve-lq              optimal dynamic controller report for a control problem
associated-lti        the reduced linear system, consistency space and checks
simulate              clean or noisy estimation runs, CSV traces + summary
check-equivalence     randomized build pairs and their equivalence defects

Exit codes: 0 success; 1 problem-file or option errors, usage errors
included (argparse's usage and message go to stderr); 2 the associated
linear system is not stabilizable; 3 the functional is not estimable;
12 an internal consistency check failed; 13 unexpected failure.  All
outputs are deterministic under fixed seed and flags.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import fields, replace

import numpy as np

from .dae import dual_dae
from .equivalence import (
    STRUCTURAL_TOL,
    build_equivalence,
    randomized_construction,
    verify_equivalence,
)
from .errors import (
    InestimableError,
    InputError,
    InternalConsistencyError,
    NotStabilizableError,
)
from .lti import construct
from .observer import synthesize_estimator, worst_case_bound
from .problem_io import (
    ControlProblem,
    LoadedProblem,
    SolverOptions,
    check_entry,
    load_problem,
    matrix_to_json,
    report_envelope,
    spectrum_to_json,
    write_csv,
    write_report,
)
from .riccati import assemble_controller, solve_are
from .simulate import (
    clean_realization,
    noise_system,
    run_estimation,
    sample_admissible,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NOT_STABILIZABLE = 2
EXIT_INESTIMABLE = 3
EXIT_INTERNAL = 12
EXIT_UNEXPECTED = 13


def _merge_options(loaded: LoadedProblem, args) -> SolverOptions:
    overrides = {}
    for f in fields(SolverOptions):
        value = getattr(args, f.name, None)
        if value is not None:
            overrides[f.name] = value
    return replace(loaded.options, **overrides).validated()


def _require_kind(loaded: LoadedProblem, kind: str):
    if loaded.kind != kind:
        raise InputError(
            f"this command needs a '{kind}' problem file, got '{loaded.kind}'"
        )


def _control_system(loaded: LoadedProblem):
    """The control-form DAE of a problem (the adjoint, for estimation)."""
    if loaded.kind == "control":
        return loaded.problem.sys
    return dual_dae(loaded.problem.obs)


def _synthesize(args):
    """Load an estimation problem and synthesize its functional's observer."""
    loaded = load_problem(args.input)
    _require_kind(loaded, "estimation")
    opts = _merge_options(loaded, args)
    prob = loaded.problem
    synth = synthesize_estimator(prob.obs, prob.Q0, prob.Q, prob.R,
                                 rank_tol=opts.rank_tol, are_tol=opts.are_tol)
    return loaded, opts, synth, synth.for_ell(prob.ell)


def _dimensions(rec, input_name: str = "m") -> dict:
    """Sizes of a reduction, the DAE's input count named ``input_name``."""
    lti = rec.lti
    return {
        "n": rec.sys.n, input_name: rec.sys.m, "r": rec.cf.r,
        "n_hat": lti.n_hat, "k": lti.k, "dim_X": lti.X.dim,
    }


def _checks(*steps) -> dict:
    """The identity checks the build steps measured and enforced."""
    return {name: check_entry(value, tol)
            for step in steps for name, (value, tol) in step.checks.items()}


def _cmd_synthesize_observer(args) -> int:
    loaded, opts, synth, obsv = _synthesize(args)
    report = report_envelope("synthesize-observer", loaded, opts)
    report["result"] = {
        "A_o": matrix_to_json(obsv.A_o),
        "B_o": matrix_to_json(obsv.B_o),
        "C_o": matrix_to_json(obsv.C_o),
        "sigma": obsv.sigma,
        "riccati_residual": synth.ricc.residual,
        "observer_spectrum": spectrum_to_json(obsv.spectrum),
        "dimensions": _dimensions(synth.dual, "p"),
    }
    report["checks"] = _checks(synth.dual, synth.ricc, synth.ctrl)
    write_report(args.output, report)
    print(f"observer synthesized: sigma = {obsv.sigma:.6e} -> {args.output}")
    return EXIT_OK


def _cmd_solve_lq(args) -> int:
    loaded = load_problem(args.input)
    _require_kind(loaded, "control")
    opts = _merge_options(loaded, args)
    prob: ControlProblem = loaded.problem
    rec = construct(prob.sys, rank_tol=opts.rank_tol)
    ricc = solve_are(rec.lti, prob.weights, are_tol=opts.are_tol)
    ctrl = assemble_controller(rec.lti, ricc, prob.sys.E)
    report = report_envelope("solve-lq", loaded, opts)
    report["result"] = {
        "A_c": matrix_to_json(ctrl.A_c),
        "B_c": matrix_to_json(ctrl.B_c),
        "C_x": matrix_to_json(ctrl.C_x),
        "C_u": matrix_to_json(ctrl.C_u),
        "P": matrix_to_json(ricc.P),
        "K": matrix_to_json(ricc.K),
        "riccati_residual": ricc.residual,
        "closed_loop_spectrum": spectrum_to_json(ricc.closed_loop_spectrum),
        "dimensions": _dimensions(rec),
    }
    report["checks"] = _checks(rec, ricc, ctrl)
    write_report(args.output, report)
    print(f"controller synthesized -> {args.output}")
    return EXIT_OK


def _cmd_associated_lti(args) -> int:
    loaded = load_problem(args.input)
    opts = _merge_options(loaded, args)
    rec = construct(_control_system(loaded), rank_tol=opts.rank_tol)
    lti = rec.lti
    report = report_envelope("associated-lti", loaded, opts)
    report["result"] = {
        "A_l": matrix_to_json(lti.A_l),
        "B_l": matrix_to_json(lti.B_l),
        "C_l": matrix_to_json(lti.C_l),
        "D_l": matrix_to_json(lti.D_l),
        "C_s": matrix_to_json(lti.C_s),
        "C_inp": matrix_to_json(lti.C_inp),
        "D_s": matrix_to_json(lti.D_s),
        "D_inp": matrix_to_json(lti.D_inp),
        "Lambda": matrix_to_json(lti.Lambda),
        "X_basis": matrix_to_json(lti.X.basis),
        "dimensions": _dimensions(rec),
    }
    report["checks"] = _checks(rec)
    write_report(args.output, report)
    print(f"associated linear system -> {args.output}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    if args.runs < 1:
        raise InputError("--runs must be at least 1")
    loaded, opts, synth, obsv = _synthesize(args)
    prob = loaded.problem
    os.makedirs(args.output_dir, exist_ok=True)
    t1 = opts.horizon
    bound = worst_case_bound(synth, prob.ell, t1) + 1e-6
    runs = []
    n_runs = args.runs if args.noisy else 1
    draw = sample_admissible if args.noisy else clean_realization
    rec = construct(noise_system(prob, args.noisy))
    for i in range(n_runs):
        seed = opts.seed + i
        realization = draw(prob, t1, seed, step=opts.step, record=rec)
        result = run_estimation(prob, obsv, realization, t1, record=rec)
        grid = result.error.grid
        header = ["t"] + [f"y_{j + 1}" for j in range(prob.p)] + [
            "estimate", "true_value", "error"]
        columns = [grid] + [result.y.values[j] for j in range(prob.p)] + [
            result.estimate.values[0], result.truth.values[0],
            result.error.values[0]]
        fname = f"trace_{i:03d}.csv"
        write_csv(os.path.join(args.output_dir, fname), header, columns)
        runs.append({
            "file": fname,
            "seed": seed,
            "rho": realization.rho,
            "initial_abs_error": result.initial_abs_error,
            "trailing_max_abs_error": result.trailing_max_abs_error(),
            "final_sq_error": result.final_sq_error,
            "sigma_bound": bound,
            "bound_ok": bool(result.final_sq_error <= bound),
        })
    report = report_envelope("simulate", loaded, opts)
    report["result"] = {
        "mode": "noisy" if args.noisy else "clean",
        "sigma": obsv.sigma,
        "runs": runs,
    }
    worst_final = max(r["final_sq_error"] for r in runs)
    report["checks"] = {
        "final_sq_error_within_bound": check_entry(worst_final, bound),
    }
    write_report(os.path.join(args.output_dir, "summary.json"), report)
    print(f"{len(runs)} run(s) -> {args.output_dir}")
    return EXIT_OK


def _cmd_check_equivalence(args) -> int:
    loaded = load_problem(args.input)
    opts = _merge_options(loaded, args)
    rng = np.random.default_rng(opts.seed)
    base = construct(_control_system(loaded), rank_tol=opts.rank_tol)
    worst: dict[str, float] = {}
    max_defect = worst_verify = 0.0
    for _ in range(opts.trials):
        rec2 = randomized_construction(base, rng, rank_tol=opts.rank_tol)
        eq = build_equivalence(base, rec2, rank_tol=opts.rank_tol)
        for name, value in eq.defects.items():
            worst[name] = max(worst.get(name, 0.0), value)
        max_defect = max(max_defect, eq.max_defect)
        worst_verify = max(worst_verify,
                           verify_equivalence(base.lti, rec2.lti, eq).max_residual)
    checks = {
        "equivalence_defects": check_entry(max_defect, STRUCTURAL_TOL),
        "transformed_quadruple": check_entry(worst_verify, STRUCTURAL_TOL),
    }
    report = report_envelope("check-equivalence", loaded, opts)
    report["result"] = {
        "trials": opts.trials,
        "max_defects": {k: worst[k] for k in sorted(worst)},
        "max_transformed_residual": worst_verify,
        "ok": all(c["ok"] for c in checks.values()),
    }
    report["checks"] = checks
    write_report(args.output, report)
    print(f"{opts.trials} build pairs, max defect {max_defect:.3e} -> {args.output}")
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="daeobs",
        description="Minimax observers and LQ controllers for linear DAEs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, output=True):
        p.add_argument("input", help="problem file (JSON)")
        if output:
            p.add_argument("--output", "-o", required=True, help="report path")
        for f in fields(SolverOptions):
            p.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                           type=type(f.default), default=None)

    p = sub.add_parser("synthesize-observer",
                       help="synthesize a minimax observer")
    add_common(p)
    p.set_defaults(fn=_cmd_synthesize_observer)

    p = sub.add_parser("solve-lq", help="synthesize an optimal controller")
    add_common(p)
    p.set_defaults(fn=_cmd_solve_lq)

    p = sub.add_parser("associated-lti",
                       help="emit the associated linear system")
    add_common(p)
    p.set_defaults(fn=_cmd_associated_lti)

    p = sub.add_parser("simulate", help="run estimation experiments")
    add_common(p, output=False)
    p.add_argument("--output-dir", required=True, help="directory for traces")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--noisy", action="store_true",
                      help="sample admissible noise realizations")
    mode.add_argument("--clean", action="store_true", default=False,
                      help="noise-free runs (default)")
    p.add_argument("--runs", type=int, default=5,
                   help="number of noisy runs (default 5)")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("check-equivalence",
                       help="verify feedback equivalence of randomized builds")
    add_common(p)
    p.set_defaults(fn=_cmd_check_equivalence)
    return parser


# Exit code and stderr prefix of each expected error class.
_ERROR_EXITS = (
    (NotStabilizableError, EXIT_NOT_STABILIZABLE, "error"),
    (InestimableError, EXIT_INESTIMABLE, "error"),
    (InputError, EXIT_INPUT, "error"),
    (InternalConsistencyError, EXIT_INTERNAL, "internal error"),
)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.fn(args)
    except SystemExit as exc:  # from argparse: --help exits 0, a usage error 2
        return EXIT_INPUT if exc.code else EXIT_OK
    except Exception as exc:
        for cls, code, prefix in _ERROR_EXITS:
            if isinstance(exc, cls):
                print(f"{prefix}: {exc}", file=sys.stderr)
                return code
        # safety net
        print(f"unexpected error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_UNEXPECTED


if __name__ == "__main__":
    raise SystemExit(main())
