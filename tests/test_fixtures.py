"""Replay every shipped fixture through the CLI and compare against its
golden report.  Goldens are regenerated only by scripts/regenerate_goldens.py
(the generating command is recorded inside each file); a mismatch here means
behavior changed without rerunning the oracle pipeline."""

import json
import math

import numpy as np
import pytest

from daeobs import observer, riccati
from daeobs.cli import main
from daeobs.dae import DaeSystem, ObservedDae, dual_dae
from daeobs.errors import NotStabilizableError
from daeobs.fixtures import data_path, fixture_suite
from daeobs.lti import construct
from daeobs.observer import synthesize_estimator
from daeobs.problem_io import load_problem
from daeobs.riccati import assemble_controller, solve_are

FIXTURES = {fx.name: fx for fx in fixture_suite()}


def assert_json_close(got, want, path="$", rtol=1e-9, atol=1e-12):
    if isinstance(want, dict):
        assert isinstance(got, dict) and set(got) == set(want), path
        for key in want:
            assert_json_close(got[key], want[key], f"{path}.{key}", rtol, atol)
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_json_close(g, w, f"{path}[{i}]", rtol, atol)
    elif isinstance(want, float) and not isinstance(want, bool):
        assert isinstance(got, (int, float)), path
        assert math.isclose(got, want, rel_tol=rtol, abs_tol=atol), \
            f"{path}: {got} != {want}"
    else:
        assert got == want, f"{path}: {got!r} != {want!r}"


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_replays_through_cli(name, tmp_path):
    fx = FIXTURES[name]
    out = tmp_path / "report.json"
    code = main([fx.command, str(data_path(fx.problem)), "--output", str(out)])
    assert code == fx.expected_exit, f"{name}: exit {code}"
    if fx.golden is None:
        assert not out.exists()
        return
    got = json.loads(out.read_text())
    want = json.loads(data_path(f"golden/{fx.golden}").read_text())
    provenance = want.pop("provenance")
    assert provenance["note"] == fx.note
    # the invocation path is environment specific; golden pins the bare name
    got["input"]["path"] = fx.problem
    assert_json_close(got, want)


@pytest.mark.parametrize("name", sorted(
    fx.name for fx in FIXTURES.values() if fx.golden is not None))
def test_eigenvalue_fallback_writes_the_same_report(name, tmp_path, monkeypatch):
    """With every Cholesky failing, each Riccati solve decides stability and
    P >= 0 from eigenvalues, as it did before the certificate, and reaches
    the same P, K and report bytes."""
    fx = FIXTURES[name]
    solves, eigvalsh_calls = [], []
    real_solve, real_eigvalsh = riccati.solve_are_blocks, np.linalg.eigvalsh

    def recording_solve(*args, **kwargs):
        rs = real_solve(*args, **kwargs)
        solves.append((rs.n_hat, rs.P.tobytes(), rs.K.tobytes()))
        return rs

    def counting_eigvalsh(*args, **kwargs):
        eigvalsh_calls.append(1)
        return real_eigvalsh(*args, **kwargs)

    def failing_cholesky(M):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    for module in (riccati, observer):
        monkeypatch.setattr(module, "solve_are_blocks", recording_solve)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    runs = []
    for fallback in (False, True):
        if fallback:
            monkeypatch.setattr(np.linalg, "cholesky", failing_cholesky)
        solves.clear()
        eigvalsh_calls.clear()
        out = tmp_path / "report.json"
        assert main([fx.command, str(data_path(fx.problem)),
                     "--output", str(out)]) == 0
        runs.append((out.read_bytes(), list(solves), len(eigvalsh_calls)))
    (certified, solved, eigvalsh_n), (fell_back, resolved, eigvalsh_m) = runs
    assert fell_back == certified
    assert resolved == solved
    # one P >= 0 eigenvalue check per fallback solve with a state
    assert eigvalsh_m - eigvalsh_n == sum(1 for n_hat, _, _ in solved if n_hat)


def test_every_fixture_has_provenance_note():
    for fx in fixture_suite():
        assert fx.note
        if fx.golden is not None:
            golden = json.loads(data_path(f"golden/{fx.golden}").read_text())
            assert golden["provenance"]["generated_by"] == \
                "scripts/regenerate_goldens.py"
            assert fx.command in golden["provenance"]["command"]


def test_suite_covers_required_cases():
    names = {fx.name for fx in fixture_suite()}
    assert {"est_classical", "est_rank1", "est_undetectable",
            "ctrl_ode", "ctrl_algebraic", "equiv_rank1"} <= names


def _library_checks(command, loaded) -> dict:
    """The (value, tol) pairs the library's build steps keep for a command."""
    prob = loaded.problem
    if command == "synthesize-observer":
        synth = synthesize_estimator(prob.obs, prob.Q0, prob.Q, prob.R)
        steps = (synth.dual, synth.ricc, synth.ctrl)
    elif command == "solve-lq":
        rec = construct(prob.sys)
        ricc = solve_are(rec.lti, prob.weights)
        steps = (rec, ricc, assemble_controller(rec.lti, ricc, prob.sys.E))
    else:
        sys_ = prob.sys if loaded.kind == "control" else dual_dae(prob.obs)
        steps = (construct(sys_),)
    return {name: pair for step in steps for name, pair in step.checks.items()}


BUILD_RUNS = sorted(
    {(fx.command, fx.problem) for fx in FIXTURES.values()
     if fx.golden is not None and fx.command != "check-equivalence"}
    | {("associated-lti", fx.problem) for fx in FIXTURES.values()})


@pytest.mark.parametrize("command,problem", BUILD_RUNS)
def test_report_checks_are_the_library_checks(command, problem, tmp_path):
    out = tmp_path / "report.json"
    assert main([command, str(data_path(problem)), "--output", str(out)]) == 0
    checks = json.loads(out.read_text())["checks"]
    assert all(c["ok"] for c in checks.values())
    want = _library_checks(command, load_problem(str(data_path(problem))))
    assert set(checks) == set(want)
    for name, (value, tol) in want.items():
        assert (checks[name]["value"], checks[name]["tol"]) == (value, tol), name


@pytest.mark.parametrize("name", sorted(
    fx.name for fx in FIXTURES.values() if fx.golden is not None))
def test_every_golden_check_is_ok(name):
    golden = json.loads(data_path(f"golden/{FIXTURES[name].golden}").read_text())
    assert golden["checks"] and all(c["ok"] for c in golden["checks"].values())


# Shifts of the descriptor matrix (F or E) by eps * I that move one of its
# zero singular values across the rank cut 1e-10 * sigma_max * n.
EPS_SWEEP = (1e-10, 2e-10, 3.5e-10, 5e-10, 1e-9, 3e-9, 5e-9, 1e-8)


def _shifted(loaded, eps):
    """(A_l, outcome) of the problem with its descriptor matrix shifted
    by eps * I; the outcome is sigma (estimation) or the Riccati solution."""
    prob = loaded.problem
    if loaded.kind == "estimation":
        obs = ObservedDae(prob.obs.F + eps * np.eye(prob.obs.n), prob.obs.A,
                          prob.obs.H)
        A_l = construct(dual_dae(obs)).lti.A_l
        return A_l, lambda: synthesize_estimator(
            obs, prob.Q0, prob.Q, prob.R).for_ell(prob.ell).sigma
    lti = construct(DaeSystem(prob.sys.E + eps * np.eye(prob.sys.n),
                              prob.sys.A_hat, prob.sys.B_hat)).lti
    return lti.A_l, lambda: solve_are(lti, prob.weights)


# Doubling steps of each problem's Riccati solve at eps = 0 and over
# EPS_SWEEP, with the Cayley shift max(||A_bar||_F, sqrt(||G||_F ||Q_bar||_F))
# not yet divided by sqrt(n).  ctrl_algebraic (n_hat = 0) and est_undetectable
# (not stabilizable) never reach the doubling.
SHIFTS = (0.0,) + EPS_SWEEP
UNSCALED_SHIFT_STEPS = {
    "ctrl_ode.json": (5,) * 9,
    "ctrl_rank1.json": (1, 1, 1, 36, 36, 35, 33, 32, 31),
    "est_classical.json": (5,) * 9,
    "est_rank1.json": (4, 4, 4, 37, 37, 36, 34, 34, 33),
}


@pytest.mark.parametrize("eps", SHIFTS)
@pytest.mark.parametrize("problem", sorted(UNSCALED_SHIFT_STEPS))
def test_doubling_takes_no_more_steps_than_the_unscaled_shift(
        problem, eps, doubling_steps):
    _shifted(load_problem(str(data_path(problem))), eps)[1]()
    assert 0 < len(doubling_steps) <= UNSCALED_SHIFT_STEPS[problem][SHIFTS.index(eps)]


@pytest.mark.parametrize("eps", EPS_SWEEP)
@pytest.mark.parametrize("problem", sorted({fx.problem for fx in FIXTURES.values()}))
def test_descriptor_shift_keeps_the_outcome_class(problem, eps):
    """Never "not stabilizable" for a Hurwitz A_l; an estimation success
    keeps the unshifted sigma; no internal failure."""
    loaded = load_problem(str(data_path(problem)))
    A_l, run = _shifted(loaded, eps)
    hurwitz = A_l.size == 0 or float(np.max(np.linalg.eigvals(A_l).real)) < 0
    try:
        result = run()
    except NotStabilizableError:
        assert not hurwitz, f"{problem}, eps = {eps}: Hurwitz A_l called unstabilizable"
        return
    if loaded.kind == "estimation":
        assert result == pytest.approx(_shifted(loaded, 0.0)[1](), rel=1e-6)
