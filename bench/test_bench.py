"""Smoke tests of the benchmark itself: one set-up and one round per
workload, traced and untraced, then the wrong-answer and bare-directory
cases.  Run with ``python -m pytest bench/test_bench.py -q`` from the
root of a checkout (about half a minute)."""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run.use_checkout_sources()
import tracer  # noqa: E402
import workloads  # noqa: E402

RUNGS = ("n10", "n40", "n160", "ode160", "lq160", "chain160")
SYNTH_LAYERS = workloads.SynthLadder.LAYERS

# Every metric named for each workload, with its unit.
EXPECTED = {
    "mc_bound": {
        "e2e": {"op_s_p50": "s", "op_s_p90": "s"},
        "layer": {
            "simulate.sample_admissible.self_s_per_op": "s",
            "lti.output_trajectory_from_v0.self_s_per_op": "s",
            "simulate.run_observer.self_s_per_op": "s",
            "signals.integrate_lti.s_per_call": "s",
            "signals.integrate_lti.steps_per_s": "1/s",
            "signals.simpson.s_per_call": "s",
            "signals.quadratic_form_series.s_per_call": "s",
        },
    },
    "synth_ladder": {
        "e2e": {**{f"synth_s_p50.{r}": "s" for r in ("n10", "n40", "n160", "ode160")},
                "lq_s_p50.n160": "s", "lq_s_p50.chain160": "s"},
        "layer": {
            **{f"{fn}.self_s.{rung}": "s" for fn in SYNTH_LAYERS for rung in RUNGS
               if not (fn == "observer.q0_bar" and rung in ("lq160", "chain160"))},
            **{f"lti.assemble.n_hat.{rung}": "count" for rung in RUNGS},
            **{f"geometric.vstar_dim_drop.{rung}": "count" for rung in RUNGS},
        },
    },
    "cli_fixtures": {
        "e2e": {"op_s_p50": "s", "op_s_p90": "s"},
        "layer": {
            **{f"cli.main.s_p50.{cmd}": "s" for cmd in (
                "synthesize-observer", "solve-lq", "associated-lti",
                "check-equivalence", "simulate")},
            "problem_io.load_problem.s_per_call": "s",
            "problem_io.write_report.s_per_call": "s",
            "problem_io.write_csv.s_per_call": "s",
            "lti.construct.s_per_call": "s",
            "equivalence.randomized_construction.s_per_call": "s",
            "equivalence.build_equivalence.s_per_call": "s",
            "equivalence.verify_equivalence.s_per_call": "s",
            "equivalence.ok_ratio": "ratio",
        },
    },
}
COMMON_E2E = {"setup_s": "s", "round_s_p90": "s", "ops_per_s": "1/s", "fail_ratio": "ratio",
              "peak_rss_mb": "MB"}
COMMON_LAYER = {"trace.overhead_frac": "frac"}
DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _units(metrics: dict) -> dict:
    return {name: unit for name, (_, unit) in metrics.items()}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_every_named_metric_is_emitted_with_its_unit(name):
    workload, setup_times = run.set_up(name, seed=5, repeats=1)
    layer_tracer = tracer.Tracer(workload.capture)
    try:
        plain = run.measure(workload, 0.0)
        traced = run.measure(workload, 0.0, layer_tracer)
    finally:
        workload.close()
    # a traced op that differs from its untraced twin is a failed op
    assert not [rec for rec in plain["records"] + traced["records"] if rec[3]]

    e2e = _units(run.end_to_end(workload, plain, setup_times, 0.0))
    for metric, unit in {**COMMON_E2E, **EXPECTED[name]["e2e"]}.items():
        assert e2e.get(metric) == unit, metric
    for spec in DECLARED["end_to_end"]:
        assert e2e.get(spec["name"]) == spec["unit"], spec["name"]

    layers, _ = run.per_layer(workload, layer_tracer, traced)
    units = _units(layers)
    for metric, unit in {**COMMON_LAYER, **EXPECTED[name]["layer"]}.items():
        assert units.get(metric) == unit, metric
    for spec in DECLARED["per_layer"]:
        assert units.get(spec["name"]) == spec["unit"], spec["name"]


def test_altered_golden_is_counted_as_a_failure():
    workload, _ = run.set_up("cli_fixtures", seed=5, repeats=1)
    golden = "est_rank1.report.json"
    shipped = (workloads.data_path(f"golden/{golden}")).read_bytes()
    try:
        altered = copy.deepcopy(workload.goldens[golden])
        altered["result"]["sigma"] *= 1.0 + 1e-6
        workload.goldens[golden] = altered
        m = run.measure(workload, 0.0)
    finally:
        workload.close()
    failed = [rec for rec in m["records"] if rec[3]]
    assert len(failed) == 1 and "golden mismatch" in failed[0][3]
    fail_ratio = run.end_to_end(workload, m, [0.0], 0.0)["fail_ratio"][0]
    assert fail_ratio == 1 / len(m["records"])
    assert (workloads.data_path(f"golden/{golden}")).read_bytes() == shipped


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mc_bound", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
