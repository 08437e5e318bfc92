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
from .observer import estimator_synthesis, worst_case_bound
from .problem_io import (
    ControlProblem,
    LoadedProblem,
    SolverOptions,
    check_entry,
    check_report_path,
    load_problem,
    make_output_dir,
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


def _control_system(loaded: LoadedProblem):
    """The control-form DAE of a problem (the adjoint, for estimation)."""
    if loaded.kind == "control":
        return loaded.problem.sys
    return dual_dae(loaded.problem.obs)


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


# Each command computes (result, checks, report path, stdout line) from the
# loaded problem, the merged options and the parsed arguments.

def _synthesize_observer(loaded: LoadedProblem, opts: SolverOptions, args):
    prob = loaded.problem
    synth = estimator_synthesis(prob, opts.rank_tol, opts.are_tol)
    obsv = synth.for_ell(prob.ell)
    result = {
        "A_o": matrix_to_json(obsv.A_o),
        "B_o": matrix_to_json(obsv.B_o),
        "C_o": matrix_to_json(obsv.C_o),
        "sigma": obsv.sigma,
        "riccati_residual": synth.ricc.residual,
        "observer_spectrum": spectrum_to_json(obsv.spectrum),
        "dimensions": _dimensions(synth.dual, "p"),
    }
    return (result, _checks(synth.dual, synth.ricc, synth.ctrl), args.output,
            f"observer synthesized: sigma = {obsv.sigma:.6e} -> {args.output}")


def _solve_lq(loaded: LoadedProblem, opts: SolverOptions, args):
    prob: ControlProblem = loaded.problem
    rec = construct(prob.sys, rank_tol=opts.rank_tol)
    ricc = solve_are(rec.lti, prob.weights, are_tol=opts.are_tol)
    ctrl = assemble_controller(rec.lti, ricc, prob.sys.E)
    result = {
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
    return (result, _checks(rec, ricc, ctrl), args.output,
            f"controller synthesized -> {args.output}")


def _associated_lti(loaded: LoadedProblem, opts: SolverOptions, args):
    rec = construct(_control_system(loaded), rank_tol=opts.rank_tol)
    lti = rec.lti
    result = {
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
    return (result, _checks(rec), args.output,
            f"associated linear system -> {args.output}")


def _simulate(loaded: LoadedProblem, opts: SolverOptions, args):
    if args.runs < 1:
        raise InputError("--runs must be at least 1")
    make_output_dir(args.output_dir)
    prob = loaded.problem
    synth = estimator_synthesis(prob, opts.rank_tol, opts.are_tol)
    obsv = synth.for_ell(prob.ell)
    t1 = opts.horizon
    runs = []
    n_runs = args.runs if args.noisy else 1
    draw = sample_admissible if args.noisy else clean_realization
    rec = construct(noise_system(prob, args.noisy))
    for i in range(n_runs):
        seed = opts.seed + i
        realization = draw(prob, t1, seed, step=opts.step, record=rec)
        outcome = run_estimation(prob, obsv, realization, t1, record=rec)
        grid = outcome.error.grid
        header = ["t"] + [f"y_{j + 1}" for j in range(prob.p)] + [
            "estimate", "true_value", "error"]
        columns = [grid] + [outcome.y.values[j] for j in range(prob.p)] + [
            outcome.estimate.values[0], outcome.truth.values[0],
            outcome.error.values[0]]
        fname = f"trace_{i:03d}.csv"
        write_csv(os.path.join(args.output_dir, fname), header, columns)
        runs.append({
            "file": fname,
            "seed": seed,
            "rho": realization.rho,
            "initial_abs_error": outcome.initial_abs_error,
            "trailing_max_abs_error": outcome.trailing_max_abs_error(),
            "final_sq_error": outcome.final_sq_error,
        })
    # after the draws, so their grid check meets an infinite step count first
    bound = worst_case_bound(synth, prob.ell, t1) + 1e-6
    for run in runs:
        run["sigma_bound"] = bound
        run["bound_ok"] = bool(run["final_sq_error"] <= bound)
    result = {
        "mode": "noisy" if args.noisy else "clean",
        "sigma": obsv.sigma,
        "runs": runs,
    }
    worst_final = max(r["final_sq_error"] for r in runs)
    checks = {
        "final_sq_error_within_bound": check_entry(worst_final, bound),
    }
    return (result, checks, os.path.join(args.output_dir, "summary.json"),
            f"{len(runs)} run(s) -> {args.output_dir}")


def _check_equivalence(loaded: LoadedProblem, opts: SolverOptions, args):
    rng = np.random.default_rng(opts.seed)
    base = construct(_control_system(loaded), rank_tol=opts.rank_tol)
    worst: dict[str, float] = {}
    max_defect = worst_verify = 0.0
    for _ in range(opts.trials):
        rec2 = randomized_construction(base, rng, rank_tol=opts.rank_tol)
        eq = build_equivalence(base, rec2)
        for name, value in eq.defects.items():
            worst[name] = max(worst.get(name, 0.0), value)
        max_defect = max(max_defect, eq.max_defect)
        worst_verify = max(worst_verify,
                           verify_equivalence(base.lti, rec2.lti, eq).max_residual)
    checks = {
        "equivalence_defects": check_entry(max_defect, STRUCTURAL_TOL),
        "transformed_quadruple": check_entry(worst_verify, STRUCTURAL_TOL),
    }
    result = {
        "trials": opts.trials,
        "max_defects": {k: worst[k] for k in sorted(worst)},
        "max_transformed_residual": worst_verify,
        "ok": all(c["ok"] for c in checks.values()),
    }
    return (result, checks, args.output, f"{opts.trials} build pairs, "
            f"max defect {max_defect:.3e} -> {args.output}")


# name -> (help, the problem kind it needs or None for either, command)
COMMANDS = {
    "synthesize-observer": ("synthesize a minimax observer", "estimation",
                            _synthesize_observer),
    "solve-lq": ("synthesize an optimal controller", "control", _solve_lq),
    "associated-lti": ("emit the associated linear system", None,
                       _associated_lti),
    "simulate": ("run estimation experiments", "estimation", _simulate),
    "check-equivalence": ("verify feedback equivalence of randomized builds",
                          None, _check_equivalence),
}


def _run(args) -> int:
    """Load the problem, merge the options, run the command, write its report."""
    _, kind, command = COMMANDS[args.command]
    loaded = load_problem(args.input)
    if kind is not None and loaded.kind != kind:
        raise InputError(
            f"this command needs a '{kind}' problem file, got '{loaded.kind}'"
        )
    overrides = {f.name: getattr(args, f.name) for f in fields(SolverOptions)
                 if getattr(args, f.name) is not None}
    opts = replace(loaded.options, **overrides).validated()
    if args.command != "simulate":
        check_report_path(args.output)
    result, checks, path, line = command(loaded, opts, args)
    report = report_envelope(args.command, loaded, opts)
    report["result"] = result
    report["checks"] = checks
    write_report(path, report)
    print(line)
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="daeobs",
        description="Minimax observers and LQ controllers for linear DAEs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", help="problem file (JSON)")
        if name != "simulate":
            p.add_argument("--output", "-o", required=True, help="report path")
        for f in fields(SolverOptions):
            p.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                           type=type(f.default), default=None)

    p = sub.choices["simulate"]
    p.add_argument("--output-dir", required=True, help="directory for traces")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--noisy", action="store_true",
                      help="sample admissible noise realizations")
    mode.add_argument("--clean", action="store_true", default=False,
                      help="noise-free runs (default)")
    p.add_argument("--runs", type=int, default=5,
                   help="number of noisy runs (default 5)")
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
        return _run(_build_parser().parse_args(argv))
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
