import argparse
import contextlib
import io
import json
import warnings

import numpy as np
import pytest

from daeobs import cli, lti
from daeobs.cli import main
from daeobs.fixtures import data_path
from daeobs.problem_io import load_problem


def run_cli(argv):
    return main([str(a) for a in argv])


def count_reductions(monkeypatch) -> list:
    """Record every canonical form that ``lti.construct`` computes."""
    calls = []
    original = lti.canonical_form

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(lti, "canonical_form", counted)
    return calls


class TestSynthesizeObserver:
    def test_classical_fixture(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli(["synthesize-observer", data_path("est_classical.json"),
                        "--output", out])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["result"]["sigma"] >= 0.0
        assert all(c["ok"] for c in rep["checks"].values())

    def test_invalid_q0_exits_1(self, tmp_path):
        doc = json.loads(data_path("est_classical.json").read_text())
        doc["matrices"]["Q0"]["data"][0] = -5.0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = run_cli(["synthesize-observer", bad,
                        "--output", tmp_path / "r.json"])
        assert code == 1

    def test_undetectable_exits_2(self, tmp_path):
        code = run_cli(["synthesize-observer", data_path("est_undetectable.json"),
                        "--output", tmp_path / "r.json"])
        assert code == 2

    def test_inestimable_exits_3(self, tmp_path):
        doc = {
            "problem": "estimation",
            "matrices": {
                "F": {"rows": 2, "cols": 2, "data": [1, 0, 0, 0]},
                "A": {"rows": 2, "cols": 2, "data": [0, 1, 0, 0]},
                "H": {"rows": 1, "cols": 2, "data": [1, 0]},
                "Q": {"rows": 2, "cols": 2, "data": [1, 0, 0, 1]},
                "R": {"rows": 1, "cols": 1, "data": [1]},
                "Q0": {"rows": 2, "cols": 2, "data": [1, 0, 0, 1]},
                "ell": {"rows": 2, "cols": 1, "data": [1, 0]},
            },
        }
        path = tmp_path / "inestimable.json"
        path.write_text(json.dumps(doc))
        code = run_cli(["synthesize-observer", path,
                        "--output", tmp_path / "r.json"])
        assert code == 3

    def test_missing_file_exits_1(self, tmp_path):
        assert run_cli(["synthesize-observer", tmp_path / "nope.json",
                        "--output", tmp_path / "r.json"]) == 1


class TestSolveLq:
    def test_ode_fixture(self, tmp_path):
        out = tmp_path / "r.json"
        assert run_cli(["solve-lq", data_path("ctrl_ode.json"),
                        "--output", out]) == 0
        rep = json.loads(out.read_text())
        P = np.array(rep["result"]["P"]["data"]).reshape(2, 2)
        np.testing.assert_allclose(
            P, [[np.sqrt(3), 1.0], [1.0, np.sqrt(3)]], atol=1e-8)

    def test_algebraic_fixture(self, tmp_path):
        out = tmp_path / "r.json"
        assert run_cli(["solve-lq", data_path("ctrl_algebraic.json"),
                        "--output", out]) == 0
        rep = json.loads(out.read_text())
        assert rep["result"]["dimensions"]["n_hat"] == 0

    def test_unstabilizable_exits_2(self, tmp_path):
        doc = {
            "problem": "control",
            "matrices": {
                "E": {"rows": 1, "cols": 1, "data": [1]},
                "A_hat": {"rows": 1, "cols": 1, "data": [1]},
                "B_hat": {"rows": 1, "cols": 1, "data": [0]},
                "Q": {"rows": 1, "cols": 1, "data": [1]},
                "R": {"rows": 1, "cols": 1, "data": [1]},
                "Q0": {"rows": 1, "cols": 1, "data": [1]},
            },
        }
        path = tmp_path / "unstab.json"
        path.write_text(json.dumps(doc))
        assert run_cli(["solve-lq", path, "--output", tmp_path / "r.json"]) == 2

    def test_no_input_residual_is_enforced(self, tmp_path):
        # k = 0 takes the doubling and Newton polish of every solve: at
        # are_tol 1e-300 the polish stalls and the solve exits 12.
        doc = {
            "problem": "control",
            "matrices": {
                "E": {"rows": 2, "cols": 2, "data": [1, 0, 0, 1]},
                "A_hat": {"rows": 2, "cols": 2, "data": [-1, 0.5, 0, -2]},
                "B_hat": {"rows": 2, "cols": 0, "data": []},
                "Q": {"rows": 2, "cols": 2, "data": [1, 0, 0, 1]},
                "R": {"rows": 0, "cols": 0, "data": []},
                "Q0": {"rows": 2, "cols": 2, "data": [1, 0, 0, 1]},
            },
        }
        path = tmp_path / "no_input.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "r.json"
        assert run_cli(["solve-lq", path, "--output", out]) == 0
        out.unlink()
        assert run_cli(["solve-lq", path, "--output", out,
                        "--are-tol", "1e-300"]) == 12
        assert not out.exists()


class TestAssociatedLti:
    def test_identity_E(self, tmp_path):
        out = tmp_path / "r.json"
        assert run_cli(["associated-lti", data_path("ctrl_ode.json"),
                        "--output", out]) == 0
        rep = json.loads(out.read_text())
        assert rep["result"]["dimensions"]["n_hat"] == 2

    def test_zero_E(self, tmp_path):
        out = tmp_path / "r.json"
        assert run_cli(["associated-lti", data_path("ctrl_algebraic.json"),
                        "--output", out]) == 0
        rep = json.loads(out.read_text())
        assert rep["result"]["dimensions"]["n_hat"] == 0

    def test_estimation_problem_uses_adjoint(self, tmp_path):
        out = tmp_path / "r.json"
        assert run_cli(["associated-lti", data_path("est_rank1.json"),
                        "--output", out]) == 0
        rep = json.loads(out.read_text())
        assert rep["result"]["dimensions"]["r"] == 1

    def test_rank_of_ECs_is_not_decided(self, tmp_path):
        # E C_s has full column rank by construction; the report keeps the
        # identity that would fail without it, Lambda (E C_s) = I
        out = tmp_path / "r.json"
        assert run_cli(["associated-lti", data_path("est_rank1.json"),
                        "--output", out]) == 0
        checks = json.loads(out.read_text())["checks"]
        assert list(checks) == ["E_Ds", "Lambda_ECs_minus_I"]
        assert checks["Lambda_ECs_minus_I"]["ok"] is True


class TestSimulate:
    def test_clean_run(self, tmp_path):
        outdir = tmp_path / "sim"
        code = run_cli(["simulate", data_path("est_classical.json"),
                        "--output-dir", outdir, "--horizon", "15",
                        "--step", "0.002"])
        assert code == 0
        summary = json.loads((outdir / "summary.json").read_text())
        run = summary["result"]["runs"][0]
        assert run["trailing_max_abs_error"] <= 1e-3 * run["initial_abs_error"]
        trace = (outdir / "trace_000.csv").read_text()
        header = trace.splitlines()[0]
        assert header == "t,y_1,y_2,estimate,true_value,error"

    def test_noisy_runs_respect_bound(self, tmp_path):
        outdir = tmp_path / "sim"
        code = run_cli(["simulate", data_path("est_classical.json"),
                        "--output-dir", outdir, "--noisy", "--runs", "3",
                        "--horizon", "15", "--step", "0.002", "--seed", "5"])
        assert code == 0
        summary = json.loads((outdir / "summary.json").read_text())
        runs = summary["result"]["runs"]
        assert len(runs) == 3
        assert all(r["bound_ok"] for r in runs)
        assert all(r["rho"] <= 1.0 + 1e-9 for r in runs)

    @pytest.mark.parametrize("scale", [0.25, 4.0, 100.0])
    def test_clean_run_starts_on_the_ellipsoid(self, scale, tmp_path):
        doc = json.loads(data_path("est_rank1.json").read_text())
        doc["matrices"]["Q0"]["data"] = (scale * np.eye(3)).ravel().tolist()
        path = tmp_path / "q0.json"
        path.write_text(json.dumps(doc))
        outdir = tmp_path / "sim"
        assert run_cli(["simulate", path, "--clean", "--output-dir", outdir,
                        "--horizon", "0.002", "--step", "0.001"]) == 0
        run = json.loads((outdir / "summary.json").read_text())["result"]["runs"][0]
        assert abs(run["rho"] - 1.0) <= 1e-12
        assert run["bound_ok"]

    @pytest.mark.parametrize("action", ["default", "error"])
    def test_diverging_run_exits_1_under_any_warning_filter(self, action,
                                                           tmp_path, capsys):
        # F shifted by 3e-9 I: the reduced system is far too stiff for RK4
        # at this step, so the scan overflows
        doc = json.loads(data_path("est_rank1.json").read_text())
        doc["matrices"]["F"]["data"][0::4] = [v + 3e-9 for v in
                                              doc["matrices"]["F"]["data"][0::4]]
        path = tmp_path / "shifted.json"
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter(action, RuntimeWarning)
            code = run_cli(["simulate", path, "--clean", "--output-dir",
                            tmp_path / "sim", "--horizon", "2",
                            "--step", "0.001"])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: RK4 state is not finite at step 0.001: the " \
            "system is too stiff or unstable for this step\n"

    @pytest.mark.parametrize("action", ["default", "error"])
    @pytest.mark.parametrize("options", [
        ["--horizon", "1e308"], ["--step", "1e-320"],
        ["--horizon", "1e300", "--step", "1e-10"]],
        ids=["horizon", "step", "both"])
    def test_step_count_beyond_floats_exits_1_under_any_warning_filter(
            self, options, action, tmp_path, capsys):
        # the grid check comes before the bound, whose expm overflows here
        with warnings.catch_warnings():
            warnings.simplefilter(action, RuntimeWarning)
            code = run_cli(["simulate", data_path("est_classical.json"),
                            "--output-dir", tmp_path / "sim", *options])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: horizon ")
        assert err.endswith(" is not a finite step count\n")

    @pytest.mark.parametrize("action", ["default", "error"])
    @pytest.mark.parametrize("horizon", [1e16, 1e19, 1e300, "options"])
    def test_step_count_beyond_one_array_exits_1(self, horizon, action,
                                                 tmp_path, capsys):
        # numpy used to refuse the grid: exit 13 with "Maximum allowed size
        # exceeded"; "options" sets horizon 1e16 in the problem file
        path, options = data_path("est_classical.json"), ["--horizon", horizon]
        if horizon == "options":
            doc = json.loads(path.read_text())
            doc["options"]["horizon"] = horizon = 1e16
            path, options = tmp_path / "long.json", []
            path.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter(action, RuntimeWarning)
            code = run_cli(["simulate", path, "--output-dir", tmp_path / "sim",
                            *options])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: horizon {horizon:g} over step 0.001 is {horizon * 1e3:g} "
            "steps, more than one array can hold\n")
        assert not (tmp_path / "sim" / "summary.json").exists()

    def test_zero_functional_trace_is_zero(self, tmp_path):
        doc = json.loads(data_path("est_classical.json").read_text())
        doc["matrices"]["ell"]["data"] = [0.0, 0.0, 0.0]
        path = tmp_path / "zero_ell.json"
        path.write_text(json.dumps(doc))
        outdir = tmp_path / "sim"
        assert run_cli(["simulate", path, "--output-dir", outdir,
                        "--horizon", "5", "--step", "0.01"]) == 0
        rows = (outdir / "trace_000.csv").read_text().splitlines()[1:]
        est_col = [float(r.split(",")[3]) for r in rows]
        assert max(abs(v) for v in est_col) == 0.0

    def test_noise_reduction_built_once(self, tmp_path, monkeypatch):
        calls = count_reductions(monkeypatch)
        assert run_cli(["simulate", data_path("est_rank1.json"),
                        "--output-dir", tmp_path / "sim", "--noisy",
                        "--runs", "3", "--horizon", "2", "--step", "0.01"]) == 0
        assert len(calls) == 2  # the adjoint and the noise system

    def test_zero_runs_exits_1(self, tmp_path, capsys):
        code = run_cli(["simulate", data_path("est_classical.json"),
                        "--output-dir", tmp_path / "sim", "--noisy",
                        "--runs", "0"])
        assert code == 1
        assert "--runs must be at least 1" in capsys.readouterr().err

    def test_negative_seed_exits_1(self, tmp_path, capsys):
        code = run_cli(["simulate", data_path("est_classical.json"),
                        "--output-dir", tmp_path / "sim", "--noisy",
                        "--seed", "-1"])
        assert code == 1
        assert "seed must be nonnegative" in capsys.readouterr().err


class TestUnwritableOutput:
    """An output path the system refuses is a usage error (exit 1) that
    names the path, not an unexpected failure."""

    def test_report_in_missing_directory(self, tmp_path, capsys):
        path = tmp_path / "missing" / "r.json"
        code = run_cli(["solve-lq", data_path("ctrl_ode.json"), "-o", path])
        assert code == 1
        assert f"cannot write {path}" in capsys.readouterr().err

    @pytest.mark.parametrize("sub", ["", "sub"])
    def test_output_dir_through_a_file(self, sub, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / sub if sub else blocker
        code = run_cli(["simulate", data_path("est_rank1.json"),
                        "--output-dir", out, "--horizon", "1"])
        assert code == 1
        assert f"cannot write {out}" in capsys.readouterr().err
        assert blocker.read_text() == ""


    @pytest.mark.parametrize("argv", [
        ["solve-lq", data_path("ctrl_ode.json"), "-o", "missing/r.json"],
        ["check-equivalence", data_path("ctrl_ode.json"), "-o", "missing/r.json"],
        ["simulate", data_path("est_rank1.json"), "--output-dir", "file"],
    ], ids=["solve-lq", "check-equivalence", "simulate"])
    def test_fails_before_any_reduction(self, argv, tmp_path, monkeypatch,
                                        capsys):
        (tmp_path / "file").write_text("")
        monkeypatch.chdir(tmp_path)
        calls = count_reductions(monkeypatch)
        assert run_cli(argv) == 1
        assert "cannot write" in capsys.readouterr().err
        assert calls == []


class TestNonFiniteOptions:
    """A NaN or infinite number option is an option error (exit 1) that
    names the option, found before any work."""

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("option", ["rank_tol", "are_tol", "step", "horizon"])
    def test_flag(self, option, value, tmp_path, monkeypatch, capsys):
        calls = count_reductions(monkeypatch)
        out = tmp_path / "out"
        code = run_cli(["simulate", data_path("est_rank1.json"),
                        "--output-dir", out,
                        "--" + option.replace("_", "-"), value])
        assert code == 1
        assert f"{option} must be finite and positive" in capsys.readouterr().err
        assert calls == [] and not out.exists()

    def test_file_value_that_overflows(self, tmp_path, capsys):
        doc = json.loads(data_path("ctrl_ode.json").read_text())
        doc["options"] = {"rank_tol": "HUGE"}
        bad = tmp_path / "huge.json"
        bad.write_text(json.dumps(doc).replace('"HUGE"', "1e400"))
        code = run_cli(["solve-lq", bad, "--output", tmp_path / "r.json"])
        assert code == 1
        assert "rank_tol must be finite and positive, got inf" in \
            capsys.readouterr().err


class TestNonPositiveOptions:
    """A zero or negative number option is an option error (exit 1) with the
    same message as a non-finite one, naming the option and its value."""

    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize("option", ["rank_tol", "are_tol", "step", "horizon"])
    def test_flag(self, option, value, tmp_path, monkeypatch, capsys):
        calls = count_reductions(monkeypatch)
        out = tmp_path / "out"
        code = run_cli(["simulate", data_path("est_rank1.json"),
                        "--output-dir", out,
                        "--" + option.replace("_", "-"), value])
        assert code == 1
        assert (f"{option} must be finite and positive, got {float(value)}"
                in capsys.readouterr().err)
        assert calls == [] and not out.exists()

    @pytest.mark.parametrize("value", [0, -0.5])
    @pytest.mark.parametrize("option", ["rank_tol", "are_tol", "step", "horizon"])
    def test_file_value(self, option, value, tmp_path, capsys):
        doc = json.loads(data_path("est_rank1.json").read_text())
        doc["options"] = {option: value}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = run_cli(["simulate", bad, "--output-dir", tmp_path / "out"])
        assert code == 1
        assert (f"{option} must be finite and positive, got {float(value)}"
                in capsys.readouterr().err)


class TestFunctionalBeyondFloats:
    """A functional so large that sigma or the finite-horizon bound
    overflows is an input error (exit 1) naming the quantity, under any
    warning filter, and writes no report."""

    @staticmethod
    def _scaled(tmp_path, ell1):
        doc = json.loads(data_path("est_classical.json").read_text())
        doc["matrices"]["ell"]["data"][0] = ell1
        path = tmp_path / "ell.json"
        path.write_text(json.dumps(doc))
        return path

    @pytest.mark.parametrize("action", ["default", "error"])
    @pytest.mark.parametrize("ell1, argv, quantity", [
        (1e155, ["synthesize-observer"], "sigma"),
        (1e160, ["synthesize-observer"], "sigma"),
        (1e155, ["simulate", "--clean"], "sigma"),
        (1e160, ["simulate", "--clean"], "sigma"),
        (1e155, ["simulate", "--noisy", "--runs", "1"], "sigma"),
        (1e160, ["simulate", "--noisy", "--runs", "1"], "sigma"),
        (2e154, ["simulate", "--horizon", "0.5"], "the worst-case error bound"),
    ])
    def test_overflow_exits_1(self, ell1, argv, quantity, action, tmp_path,
                              capsys):
        path = self._scaled(tmp_path, ell1)
        out = tmp_path / "out"
        if argv[0] == "simulate":
            dest, report = ["--output-dir", out], out / "summary.json"
        else:
            dest, report = ["--output", out], out
        with warnings.catch_warnings():
            warnings.simplefilter(action, RuntimeWarning)
            code = run_cli([argv[0], path, *argv[1:], *dest])
        assert code == 1
        assert capsys.readouterr().err == \
            f"error: {quantity} overflows the float range: scale ell down\n"
        assert not report.exists()

    @pytest.mark.parametrize("action", ["default", "error"])
    @pytest.mark.parametrize("ell1, sigma", [(1e154, "4.239258e+307"),
                                             (2e154, "1.695703e+308")])
    def test_largest_sigmas_are_reported(self, ell1, sigma, action, tmp_path,
                                         capsys):
        # at 2e154 the estimability test's norm of F' ell used to overflow
        path = self._scaled(tmp_path, ell1)
        with warnings.catch_warnings():
            warnings.simplefilter(action, RuntimeWarning)
            code = run_cli(["synthesize-observer", path, "-o",
                            tmp_path / "obs.json"])
        assert code == 0
        assert capsys.readouterr().out.startswith(
            f"observer synthesized: sigma = {sigma} ")


class TestDataBeyondFloats:
    """An identity whose tolerance overflows with the data's scale cannot
    be checked: an input error (exit 1) naming it, and no report."""

    @staticmethod
    def _run(tmp_path, name, matrix, command, action):
        doc = json.loads(data_path(name).read_text())
        doc["matrices"][matrix]["data"][0] = 1.7e308
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        if command == "simulate":
            dest, report = ["--output-dir", out], out / "summary.json"
        else:
            dest, report = ["--output", out], out
        with warnings.catch_warnings():
            warnings.simplefilter(action, RuntimeWarning)
            code = run_cli([command, path, *dest])
        assert not report.exists()
        return code

    # exits at the parent: 13, 12, 13, 12 and 2 under the default filter,
    # all 13 under the error filter
    @pytest.mark.parametrize("action", ["default", "error"])
    @pytest.mark.parametrize("name, matrix, command", [
        ("ctrl_ode.json", "E", "associated-lti"),
        ("ctrl_rank1.json", "E", "solve-lq"),
        ("est_rank1.json", "F", "associated-lti"),
        ("est_classical.json", "F", "synthesize-observer"),
        ("est_undetectable.json", "F", "simulate"),
    ])
    def test_E_or_F_beyond_floats_exits_1(self, name, matrix, command, action,
                                          tmp_path, capsys):
        assert self._run(tmp_path, name, matrix, command, action) == 1
        assert capsys.readouterr().err == (
            "error: identity 'S E T = diag(I_r, 0)' cannot be checked: the "
            "data's scale overflows the float range\n")

    # exits at the parent: 0 with three identities checked against inf, and
    # 2; under the error filter an overflow warning in the V* iteration's
    # scale still ends these in exit 13
    @pytest.mark.parametrize("name, matrix, command", [
        ("ctrl_ode.json", "A_hat", "associated-lti"),
        ("est_classical.json", "A", "simulate"),
    ])
    def test_A_beyond_floats_exits_1(self, name, matrix, command, tmp_path,
                                     capsys):
        assert self._run(tmp_path, name, matrix, command, "default") == 1
        assert capsys.readouterr().err == (
            "error: identity 'friend feasibility' cannot be checked: the "
            "data's scale overflows the float range\n")


class TestCheckEquivalence:
    def test_negative_seed_exits_1(self, tmp_path, capsys):
        code = run_cli(["check-equivalence", data_path("ctrl_rank1.json"),
                        "--output", tmp_path / "r.json", "--seed", "-1"])
        assert code == 1
        assert "seed must be nonnegative" in capsys.readouterr().err

    def test_rank1_fixture(self, tmp_path):
        out = tmp_path / "r.json"
        assert run_cli(["check-equivalence", data_path("ctrl_rank1.json"),
                        "--output", out, "--trials", "10"]) == 0
        rep = json.loads(out.read_text())
        assert rep["result"]["ok"]
        assert max(rep["result"]["max_defects"].values()) <= 1e-8

    def test_base_reduction_built_once(self, tmp_path, monkeypatch):
        calls = count_reductions(monkeypatch)
        assert run_cli(["check-equivalence", data_path("ctrl_rank1.json"),
                        "--output", tmp_path / "r.json", "--trials", "3"]) == 0
        assert len(calls) == 1


class TestDeterminism:
    def test_reports_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run_cli(["synthesize-observer", data_path("est_rank1.json"),
                            "--output", out]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_noisy_simulation_byte_identical(self, tmp_path):
        dirs = [tmp_path / "s1", tmp_path / "s2"]
        for d in dirs:
            assert run_cli(["simulate", data_path("est_rank1.json"),
                            "--output-dir", d, "--noisy", "--runs", "2",
                            "--horizon", "8", "--step", "0.004",
                            "--seed", "9"]) == 0
        for name in ("trace_000.csv", "trace_001.csv"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
        # summaries differ only in the output path embedded in 'input'
        s1 = json.loads((dirs[0] / "summary.json").read_text())
        s2 = json.loads((dirs[1] / "summary.json").read_text())
        assert s1 == s2


class TestParser:
    """The parser is built once per process; no call may leave state in it."""

    COMMANDS = ("synthesize-observer", "solve-lq", "associated-lti",
                "simulate", "check-equivalence")

    @pytest.mark.parametrize("argv, message", [
        (["solve-lq", "x.json"], "the following arguments are required"),
        (["solve-lq", "x.json", "-o", "r.json", "--rank-tol", "abc"],
         "invalid float value: 'abc'"),
        (["no-such-command"], "invalid choice"),
    ])
    def test_usage_error_exits_1(self, argv, message, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: daeobs")
        assert message in err

    def test_usage_errors_back_to_back(self, capsys):
        assert main(["simulate", "x.json"]) == 1
        assert main(["solve-lq", "x.json", "--seed", "1.5"]) == 1
        assert capsys.readouterr().err.count("usage:") == 2

    @pytest.mark.parametrize("command", (None,) + COMMANDS)
    def test_help_matches_a_fresh_parser(self, command, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        argv = ["--help"] if command is None else [command, "--help"]
        main(["solve-lq", "x.json"])  # a usage error first
        capsys.readouterr()
        assert main(argv) == 0
        got = capsys.readouterr().out
        fresh = cli._build_parser.__wrapped__()
        with contextlib.redirect_stdout(io.StringIO()) as buf, \
                pytest.raises(SystemExit):
            fresh.parse_args(argv)
        assert got == buf.getvalue()

    def test_simulate_mode_does_not_carry_over(self, tmp_path):
        noisy, clean = tmp_path / "noisy", tmp_path / "clean"
        common = ["--horizon", "2", "--step", "0.01"]
        assert run_cli(["simulate", data_path("est_rank1.json"), "--noisy",
                        "--runs", "2", "--output-dir", noisy] + common) == 0
        assert run_cli(["simulate", data_path("est_rank1.json"),
                        "--output-dir", clean] + common) == 0
        summary = json.loads((clean / "summary.json").read_text())
        assert summary["result"]["mode"] == "clean"
        assert len(summary["result"]["runs"]) == 1

    def test_rank_tol_does_not_carry_over(self, tmp_path):
        path = data_path("ctrl_ode.json")
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli(["solve-lq", path, "-o", a, "--rank-tol", "1e-6"]) == 0
        assert run_cli(["solve-lq", path, "-o", b]) == 0
        assert json.loads(a.read_text())["options"]["rank_tol"] == 1e-6
        assert json.loads(b.read_text())["options"]["rank_tol"] == \
            load_problem(str(path)).options.rank_tol


class TestCoarseRankTol:
    """k is decided once, by the rank cut on K = [D~; (I - P_V) G]; the
    orthonormal L and D_l are not cut again, and E C_s, of full column rank
    by construction, is not cut at all.  Where a coarse --rank-tol leaves
    the remaining cuts where the default puts them, the outcome is the
    default's."""

    @pytest.mark.parametrize("rank_tol", ["0.05", "0.1", "0.15", "0.3"])
    @pytest.mark.parametrize("name", ["ctrl_ode.json", "est_classical.json"])
    def test_randomized_builds_stay_equivalent(self, tmp_path, name, rank_tol):
        out = tmp_path / "eq.json"
        assert run_cli(["check-equivalence", data_path(name), "-o", out,
                        "--rank-tol", rank_tol]) == 0
        rep = json.loads(out.read_text())
        assert rep["result"]["ok"] is True
        assert rep["result"]["trials"] == 20

    @pytest.mark.parametrize("command", ["synthesize-observer", "associated-lti"])
    def test_classical_at_0_3_matches_the_default(self, tmp_path, command):
        path = data_path("est_classical.json")
        coarse, default = tmp_path / "coarse.json", tmp_path / "default.json"
        assert run_cli([command, path, "-o", coarse, "--rank-tol", "0.3"]) == 0
        assert run_cli([command, path, "-o", default]) == 0
        coarse, default = (json.loads(p.read_text())["result"]
                           for p in (coarse, default))
        assert coarse["dimensions"] == default["dimensions"]
        assert coarse.get("sigma") == default.get("sigma")

    @pytest.mark.parametrize("rank_tol", ["0.5", "0.7", "0.9"])
    def test_undetectable_stays_not_stabilizable(self, tmp_path, rank_tol):
        assert run_cli(["synthesize-observer", data_path("est_undetectable.json"),
                        "-o", tmp_path / "r.json", "--rank-tol", rank_tol]) == 2


class TestCommandTable:
    # The problem kind each command takes; None takes either (an
    # estimation file through its adjoint).
    KINDS = {"synthesize-observer": "estimation", "solve-lq": "control",
             "associated-lti": None, "simulate": "estimation",
             "check-equivalence": None}
    FILES = {"estimation": "est_rank1.json", "control": "ctrl_rank1.json"}

    @pytest.mark.parametrize("file_kind", FILES)
    @pytest.mark.parametrize("command", cli.COMMANDS)
    def test_problem_kind(self, command, file_kind, tmp_path, capsys):
        out = ["--output-dir", tmp_path / "sim"] if command == "simulate" \
            else ["--output", tmp_path / "r.json"]
        code = run_cli([command, data_path(self.FILES[file_kind])] + out + [
            "--horizon", "1", "--step", "0.01", "--trials", "2"])
        kind = self.KINDS[command]
        if kind in (None, file_kind):
            assert code == 0
        else:
            assert code == 1
            assert capsys.readouterr().err == (
                f"error: this command needs a '{kind}' problem file, "
                f"got '{file_kind}'\n")

    def test_cli_surface(self):
        """Subcommands, and per subcommand each argument's option strings,
        whether it is required and its default, in parser order."""
        solver = [((flag,), False, None) for flag in (
            "--rank-tol", "--are-tol", "--step", "--horizon", "--seed",
            "--trials")]
        head = [(("-h", "--help"), False, argparse.SUPPRESS),
                ("input", True, None)]
        report = head + [(("--output", "-o"), True, None)] + solver
        want = {
            "synthesize-observer": report,
            "solve-lq": report,
            "associated-lti": report,
            "simulate": head + solver + [
                (("--output-dir",), True, None), (("--noisy",), False, False),
                (("--clean",), False, False), (("--runs",), False, 5)],
            "check-equivalence": report,
        }
        parser = cli._build_parser.__wrapped__()
        sub = next(a for a in parser._actions if a.dest == "command")
        assert sub.required
        got = {name: [(tuple(a.option_strings) or a.dest, a.required,
                       a.default) for a in p._actions]
               for name, p in sub.choices.items()}
        assert list(got) == list(want)
        assert got == want
