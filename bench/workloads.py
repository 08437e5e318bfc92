"""The three benchmark workloads.

Each workload builds its inputs from the seed in ``setup`` (which also
computes the reference results the checks compare against and runs one
warm-up op), then hands out rounds of ops.  An op calls the program only
through module attributes (``simulate.sample_admissible``, ...), so the
tracer's patched bindings see every call.  ``Op.run`` is the timed part;
``Op.reset``, ``Op.check`` and ``Op.fingerprint`` run outside the timing.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import statistics
import tempfile
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from daeobs import cli, dae, lti, observer, problem_io, riccati, simulate
from daeobs.fixtures import data_path, fixture_suite

HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass
class Op:
    label: str        # rung or subcommand; metrics are grouped by it
    run: Callable[[], Any]
    check: Callable[[Any], str | None]        # None when correct
    fingerprint: Callable[[Any], Any]         # compared traced vs untraced
    reset: Callable[[], None] = lambda: None  # untimed, before each run


class Workload:
    name = ""
    capture: tuple[str, ...] = ()

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        raise NotImplementedError

    def round(self, index: int) -> list[Op]:
        raise NotImplementedError

    def close(self):
        pass

    def e2e_metrics(self, times_by_label) -> dict:
        """Workload-specific end-to-end metrics: name -> (value, unit)."""
        return {}

    def layer_metrics(self, records, fns, self_by_op, captured) -> dict:
        """Named per-layer metrics from a traced run: name -> (value, unit).

        ``records`` are (label, untraced s, traced s, error) per op,
        ``fns`` per-function span totals, ``self_by_op`` op id ->
        {function: self s} and ``captured`` the tracer's kept returns.
        """
        return {}


def _per_op(fns, name, n_ops):
    return fns.get(name, {}).get("self_s", 0.0) / n_ops


def _per_call(fns, name):
    rec = fns.get(name)
    return rec["total_s"] / rec["calls"] if rec else float("nan")


def random_spd(rng, n: int, spread: float = 0.5) -> np.ndarray:
    """SPD matrix with eigenvalues in [1 - spread, 1 + spread]."""
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return Q @ np.diag(1.0 + spread * rng.uniform(-1.0, 1.0, n)) @ Q.T


def random_dae(rng, n: int, m: int, r: int) -> dae.DaeSystem:
    """Random DAE with E of rank r and standard-normal A and B."""
    U = np.linalg.qr(rng.standard_normal((n, n)))[0]
    V = np.linalg.qr(rng.standard_normal((n, n)))[0]
    s = np.zeros(n)
    s[:r] = rng.uniform(0.5, 2.0, r)
    return dae.DaeSystem(U @ np.diag(s) @ V.T, rng.standard_normal((n, n)),
                         rng.standard_normal((n, m)))


def _hurwitz(spectrum) -> bool:
    return spectrum.size == 0 or float(np.max(spectrum.real)) < 0.0


def _are_ok(ricc, are_tol: float) -> bool:
    return ricc.residual <= are_tol * (1.0 + float(np.linalg.norm(ricc.P)))


# --------------------------------------------------------------------------
# mc_bound: acceptance criterion 6 as a closed loop of realizations.

class McBound(Workload):
    """One op = sample_admissible + estimation_experiment on one fixture,
    alternating est_classical / est_rank1, t1 = 15, step = 2e-3."""

    name = "mc_bound"
    T1 = 15.0
    STEP = 2e-3
    FIXTURES = ("est_classical.json", "est_rank1.json")

    def setup(self):
        self.cases = []
        for fname in self.FIXTURES:
            prob = problem_io.load_problem(str(data_path(fname))).problem
            synth = observer.synthesize_estimator(prob.obs, prob.Q0, prob.Q,
                                                  prob.R)
            obsv = synth.for_ell(prob.ell)
            bound = observer.worst_case_bound(synth, prob.ell, self.T1) + 1e-6
            rec = lti.construct(simulate.noise_system(prob))
            self.cases.append((fname, prob, obsv, rec, bound))
        self.round(0)[0].run()

    def _op(self, index: int) -> Op:
        fname, prob, obsv, rec, bound = self.cases[index % len(self.cases)]
        realization_seed = self.seed * 1_000_003 + index

        def run():
            real = simulate.sample_admissible(prob, self.T1, seed=realization_seed,
                                              step=self.STEP, record=rec)
            err, fin = simulate.estimation_experiment(prob, obsv, real, self.T1,
                                                      record=rec)
            return real.rho, fin, err.values

        def check(res):
            rho, fin, _ = res
            if not rho <= 1.0 + 1e-9:
                return f"{fname}: rho {rho!r} > 1"
            if not fin <= bound:
                return f"{fname}: final err^2 {fin!r} > bound {bound!r}"
            return None

        return Op(fname.removesuffix(".json"), run, check,
                  lambda res: (res[0], res[1], res[2].tobytes()))

    def round(self, index: int) -> list[Op]:
        n = len(self.cases)
        return [self._op(index * n + j) for j in range(n)]

    def layer_metrics(self, records, fns, self_by_op, captured) -> dict:
        n_ops = len(records)
        traced = sum(rec[2] for rec in records)
        steps = round(self.T1 / self.STEP)
        rk4 = fns.get("signals.integrate_lti", {"total_s": 0.0, "calls": 0})
        out = {f"{name}.self_s_per_op": (_per_op(fns, name, n_ops), "s")
               for name in ("simulate.sample_admissible",
                            "lti.output_trajectory_from_v0",
                            "simulate.run_observer")}
        out.update({
            "signals.integrate_lti.s_per_call":
                (_per_call(fns, "signals.integrate_lti"), "s"),
            "signals.integrate_lti.steps_per_s":
                (rk4["calls"] * steps / rk4["total_s"], "1/s"),
            "signals.simpson.s_per_call": (_per_call(fns, "signals.simpson"), "s"),
            "signals.quadratic_form_series.s_per_call":
                (_per_call(fns, "signals.quadratic_form_series"), "s"),
            # ROADMAP baseline: RK4 is 97% of simulation time.
            "signals.integrate_lti.share": (rk4["total_s"] / traced, "frac"),
        })
        return out


# --------------------------------------------------------------------------
# synth_ladder: synthesis only, on a seeded size ladder.

@dataclass
class Rung:
    name: str
    kind: str                 # "observer" or "lq"
    inputs: tuple
    metric: str               # end-to-end name of the rung's median op time
    reference: Any = None
    n_hat: int = 0
    vstar_dim_drop: int = 0


class SynthLadder(Workload):
    """One op = one synthesis on the next rung of a seeded rotation."""

    name = "synth_ladder"
    ARE_TOL = riccati.DEFAULT_ARE_TOL
    CHAIN_R = 160

    def _observed_rung(self, name, rng, n, rank_f):
        p = n // 4
        sys_ = random_dae(rng, n, p, rank_f)
        obs = dae.ObservedDae(sys_.E, sys_.A_hat, sys_.B_hat.T.copy())
        weights = (random_spd(rng, n), random_spd(rng, n), random_spd(rng, p))
        return Rung(name, "observer", (obs, weights, rng.standard_normal(n)),
                    f"synth_s_p50.{name}")

    def _chain(self) -> dae.DaeSystem:
        """E = diag(I_r, 0), A_tilde = -I + the lower shift, C_tilde = e_r
        and no input that reaches the chain: each V* step removes exactly
        one dimension, the worst case of the V* iteration.  Fixed, not
        drawn: with random chain weights some draws fail the friend
        construction (see README, known robustness failures)."""
        r = self.CHAIN_R
        A = np.zeros((r + 1, r + 1))
        A[np.arange(1, r), np.arange(r - 1)] = 1.0
        A[np.arange(r), np.arange(r)] = -1.0
        A[r, r - 1] = 1.0
        E = np.diag(np.r_[np.ones(r), 0.0])
        return dae.DaeSystem(E, A, np.zeros((r + 1, 1)))

    def setup(self):
        rngs = [np.random.default_rng([self.seed, i]) for i in range(6)]
        lq_sys = random_dae(rngs[4], 160, 40, 120)
        lq_w = riccati.LqWeights(Q=random_spd(rngs[4], 160),
                                 R=random_spd(rngs[4], 40),
                                 Q0=random_spd(rngs[4], 160))
        chain = self._chain()
        n = chain.n
        self.rungs = [
            self._observed_rung("n10", rngs[0], 10, 5),
            self._observed_rung("n40", rngs[1], 40, 20),
            self._observed_rung("n160", rngs[2], 160, 80),
            self._observed_rung("ode160", rngs[3], 160, 160),
            Rung("lq160", "lq", (lq_sys, lq_w), "lq_s_p50.n160"),
            Rung("chain160", "lq", (chain, riccati.LqWeights(
                Q=np.eye(n), R=np.eye(1), Q0=np.eye(n))), "lq_s_p50.chain160"),
        ]
        self.order = [int(i) for i in rngs[5].permutation(len(self.rungs))]
        for rung in self.rungs:
            res = self._run(rung)
            problem = self._check(rung, res)
            if problem:
                raise RuntimeError(f"set-up reference failed its check: {problem}")
            rung.reference = res
            record = res[0].dual if rung.kind == "observer" else res[0]
            rung.n_hat = record.lti.n_hat
            rung.vstar_dim_drop = record.cf.r - record.V.dim
        self._run(self.rungs[self.order[0]])

    @staticmethod
    def _run(rung: Rung):
        if rung.kind == "observer":
            obs, (Q0, Q, R), ell = rung.inputs
            synth = observer.synthesize_estimator(obs, Q0, Q, R)
            return synth, synth.for_ell(ell)
        sys_, w = rung.inputs
        rec = lti.construct(sys_)
        ricc = riccati.solve_are(rec.lti, w)
        return rec, ricc, riccati.assemble_controller(rec.lti, ricc, sys_.E)

    def _check(self, rung: Rung, res) -> str | None:
        if rung.kind == "observer":
            ricc = res[0].ricc
        else:
            rec, ricc, _ = res
            if rung.name == "chain160" and rec.V.dim != 0:
                return f"chain160: dim V* = {rec.V.dim}, expected 0"
        if not _are_ok(ricc, self.ARE_TOL):
            return f"{rung.name}: ARE residual {ricc.residual:.3e}"
        if not _hurwitz(ricc.closed_loop_spectrum):
            return f"{rung.name}: closed loop not Hurwitz"
        ref = rung.reference
        if ref is not None and self._key(rung, res) != self._key(rung, ref):
            return f"{rung.name}: result differs from the set-up reference"
        return None

    @staticmethod
    def _key(rung: Rung, res):
        """sigma and P (observer) or P and K (LQ), bit for bit."""
        if rung.kind == "observer":
            synth, obsv = res
            return obsv.sigma, synth.ricc.P.tobytes()
        return res[1].P.tobytes(), res[1].K.tobytes()

    LAYERS = ("dae.canonical_form", "geometric.weakly_observable_subspace",
              "geometric.friend", "geometric.input_kernel_matrix",
              "lti.assemble", "riccati.is_stabilizable", "observer.q0_bar",
              "riccati.solve_are_blocks", "riccati.assemble_controller")

    def e2e_metrics(self, times_by_label) -> dict:
        return {rung.metric: (statistics.median(times_by_label[rung.name]), "s")
                for rung in self.rungs}

    def layer_metrics(self, records, fns, self_by_op, captured) -> dict:
        out = {}
        for rung in self.rungs:
            ops = [i for i, rec in enumerate(records) if rec[0] == rung.name]
            for fn in self.LAYERS:
                vals = [self_by_op[i][fn] for i in ops if fn in self_by_op[i]]
                if vals:
                    out[f"{fn}.self_s.{rung.name}"] = (statistics.median(vals), "s")
            out[f"lti.assemble.n_hat.{rung.name}"] = (rung.n_hat, "count")
            out[f"geometric.vstar_dim_drop.{rung.name}"] = \
                (rung.vstar_dim_drop, "count")
            # ROADMAP baseline: PBH is 0.53 s of a 0.80 s synthesis at n = 160.
            if rung.kind == "observer":
                pbh = sum(self_by_op[i]["riccati.is_stabilizable"] for i in ops)
                share = pbh / sum(records[i][2] for i in ops)
                out[f"riccati.is_stabilizable.share.{rung.name}"] = (share, "frac")
        return out

    def round(self, index: int) -> list[Op]:
        ops = []
        for i in self.order:
            rung = self.rungs[i]
            ops.append(Op(rung.name,
                          lambda rung=rung: self._run(rung),
                          lambda res, rung=rung: self._check(rung, res),
                          lambda res, rung=rung: self._key(rung, res)))
        return ops


# --------------------------------------------------------------------------
# cli_fixtures: the shipped fixtures through the in-process CLI.

def json_mismatch(got, want, path="$", rtol=1e-9, atol=1e-12) -> str | None:
    """First difference between a report and its golden, by the rule the
    fixture tests use: floats relatively close, everything else equal."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return path
        for key in want:
            bad = json_mismatch(got[key], want[key], f"{path}.{key}", rtol, atol)
            if bad:
                return bad
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return path
        for i, (g, w) in enumerate(zip(got, want)):
            bad = json_mismatch(g, w, f"{path}[{i}]", rtol, atol)
            if bad:
                return bad
        return None
    if isinstance(want, float) and not isinstance(want, bool):
        ok = isinstance(got, (int, float)) and \
            math.isclose(got, want, rel_tol=rtol, abs_tol=atol)
        return None if ok else f"{path}: {got!r} != {want!r}"
    return None if got == want else f"{path}: {got!r} != {want!r}"


def _remove(paths):
    """Delete earlier outputs, so a run that writes nothing cannot pass on
    a stale file."""
    for p in paths:
        if os.path.exists(p):
            os.remove(p)


def _digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


class CliFixtures(Workload):
    """One op = one ``daeobs.cli.main`` call.  A round runs the seven
    shipped fixture commands in a seeded order, then associated-lti on
    est_rank1 and criterion 10's noisy simulate."""

    name = "cli_fixtures"
    capture = ("equivalence.build_equivalence", "equivalence.verify_equivalence")
    SIMULATE_RUNS = 5
    SIMULATE = ("simulate", "est_rank1.json", "--noisy", "--runs",
                str(SIMULATE_RUNS), "--horizon", "8", "--step", "0.004",
                "--seed", "3")
    ASSOCIATED_LTI = "est_rank1.json"
    workdir = None

    def setup(self):
        self.fixtures = fixture_suite()
        self.goldens = {}
        for fx in self.fixtures:
            if fx.golden is not None:
                want = json.loads(data_path(f"golden/{fx.golden}").read_text())
                want.pop("provenance")
                self.goldens[fx.golden] = want
        self.rng = np.random.default_rng(self.seed)
        self.lti_digest = None
        # outputs stay inside the checkout, under a name .gitignore lists
        self.workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
        for op in self.round(0):
            op.reset()
            problem = op.check(op.run())
            if problem:
                raise RuntimeError(f"set-up run failed its check: {problem}")
        self.lti_digest = _digest([os.path.join(self.workdir, "associated-lti.json")])

    def close(self):
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)

    @staticmethod
    def _call(argv) -> int:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return cli.main(list(argv))

    def _fixture_op(self, fx, out: str) -> Op:
        argv = (fx.command, str(data_path(fx.problem)), "--output", out)

        def check(code):
            if code != fx.expected_exit:
                return f"{fx.name}: exit {code}, expected {fx.expected_exit}"
            if fx.golden is None:
                return f"{fx.name}: wrote a report" if os.path.exists(out) else None
            with open(out, encoding="utf-8") as fh:
                got = json.load(fh)
            got["input"]["path"] = fx.problem
            bad = json_mismatch(got, self.goldens[fx.golden])
            return f"{fx.name}: golden mismatch at {bad}" if bad else None

        def fingerprint(code):
            return code, (_digest([out]) if os.path.exists(out) else None)

        return Op(fx.command, lambda: self._call(argv), check, fingerprint,
                  lambda: _remove([out]))

    def _simulate_op(self, outdir: str) -> Op:
        argv = list(self.SIMULATE)
        argv[1] = str(data_path(argv[1]))
        argv += ["--output-dir", outdir]
        files = [os.path.join(outdir, "summary.json")] + [
            os.path.join(outdir, f"trace_{i:03d}.csv")
            for i in range(self.SIMULATE_RUNS)]

        def check(code):
            if code != 0:
                return f"simulate: exit {code}"
            with open(files[0], encoding="utf-8") as fh:
                summary = json.load(fh)
            if len(summary["result"]["runs"]) != self.SIMULATE_RUNS:
                return "simulate: wrong run count"
            if summary["checks"]["final_sq_error_within_bound"]["ok"] is not True:
                return "simulate: final error exceeds the bound"
            return None

        return Op("simulate", lambda: self._call(argv), check,
                  lambda code: (code, _digest(files)), lambda: _remove(files))

    def _associated_lti_op(self) -> Op:
        """No fixture exercises associated-lti; its report must pass its own
        checks and match the set-up run byte for byte."""
        out = os.path.join(self.workdir, "associated-lti.json")
        argv = ("associated-lti", str(data_path(self.ASSOCIATED_LTI)),
                "--output", out)

        def check(code):
            if code != 0:
                return f"associated-lti: exit {code}"
            with open(out, encoding="utf-8") as fh:
                report = json.load(fh)
            if not all(c["ok"] for c in report["checks"].values()):
                return "associated-lti: a report check failed"
            if self.lti_digest is not None and _digest([out]) != self.lti_digest:
                return "associated-lti: report differs from the set-up run"
            return None

        return Op("associated-lti", lambda: self._call(argv), check,
                  lambda code: (code, _digest([out])), lambda: _remove([out]))

    def round(self, index: int) -> list[Op]:
        order = self.rng.permutation(len(self.fixtures))
        ops = [self._fixture_op(self.fixtures[i], os.path.join(
            self.workdir, f"{self.fixtures[i].name}.json")) for i in order]
        ops.append(self._associated_lti_op())
        ops.append(self._simulate_op(os.path.join(self.workdir, "simulate")))
        return ops

    EQ_TOL = 1e-8

    def layer_metrics(self, records, fns, self_by_op, captured) -> dict:
        by_label = {}
        for label, dt, _, _ in records:
            by_label.setdefault(label, []).append(dt)
        out = {f"cli.main.s_p50.{label}": (statistics.median(v), "s")
               for label, v in sorted(by_label.items())}
        for name in ("problem_io.load_problem", "problem_io.write_report",
                     "problem_io.write_csv", "lti.construct",
                     "equivalence.randomized_construction",
                     "equivalence.build_equivalence",
                     "equivalence.verify_equivalence"):
            out[f"{name}.s_per_call"] = (_per_call(fns, name), "s")
        # A trial is one build_equivalence and the verify_equivalence after it.
        eqs = [v for _, name, v in captured if name.endswith("build_equivalence")]
        reps = [v for _, name, v in captured if name.endswith("verify_equivalence")]
        ok = sum(1 for eq, rep in zip(eqs, reps)
                 if max(eq.defects.values(), default=0.0) <= self.EQ_TOL
                 and rep.max_residual <= self.EQ_TOL)
        out["equivalence.ok_ratio"] = (ok / max(len(reps), 1), "ratio")
        out["equivalence.trials"] = (len(reps), "count")
        return out


WORKLOADS = {w.name: w for w in (McBound, SynthLadder, CliFixtures)}
