"""daeobs benchmark: one workload, one process, one closed-loop client.

    python3 bench/run.py --workload mc_bound --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; daeobs is imported from ./src and
nowhere else.  With ``--trace 0`` the ops run untraced and the end-to-end
metrics are reported; with ``--trace 1`` every op runs twice on the same
input, untraced and traced (alternating by round which goes first), the two
results must agree bit for bit, and the per-layer metrics come from the spans.
Every metric, with its unit, is printed one per line; the last line of
standard output is the JSON summary.  ``--out PATH`` also writes the full
result (environment, every metric, per-function span totals) as JSON.
See bench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import TRACED_MODULES, Tracer, self_time_by_op, summarize  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3


def use_checkout_sources():
    """Make ``import daeobs`` load the checkout's src/, with one BLAS thread."""
    for var in THREAD_ENV:
        os.environ[var] = "1"
    if not (ROOT / "src" / "daeobs" / "__init__.py").is_file():
        raise SystemExit(f"error: no daeobs sources under {ROOT / 'src'}; "
                         "run from the root of a daeobs checkout")
    sys.path.insert(0, str(ROOT / "src"))


# ------------------------------------------------------------------ stats

def p90(xs):
    return statistics.quantiles(xs, n=10)[8] if len(xs) > 1 else xs[0]


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {v: os.environ.get(v) for v in THREAD_ENV},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ------------------------------------------------------------------ running

def set_up(name: str, seed: int, repeats: int):
    """Build the workload ``repeats`` times; keep the last one."""
    from workloads import WORKLOADS
    times = []
    workload = None
    for _ in range(repeats):
        if workload is not None:
            workload.close()
        t0 = time.perf_counter()
        workload = WORKLOADS[name](seed)
        try:
            workload.setup()
        except BaseException:
            workload.close()
            raise
        times.append(time.perf_counter() - t0)
    return workload, times


def _attempt(op, tracer=None, op_id=None):
    """Run one op (traced when a tracer is given), then check it and take
    its fingerprint at once, before another run can overwrite its outputs.
    Returns (seconds, error or None, fingerprint)."""
    op.reset()
    if tracer is not None:
        tracer.op_id = op_id
    with tracer.installed() if tracer is not None else contextlib.nullcontext():
        t0 = time.perf_counter()
        try:
            res, exc = op.run(), None
        except Exception as e:  # an op that raises is a failed op
            res, exc = None, e
        dt = time.perf_counter() - t0
    if exc is not None:
        return dt, f"{op.label}: {type(exc).__name__}: {exc}", None
    err = op.check(res)
    return dt, err, (None if err else op.fingerprint(res))


def measure(workload, seconds: float, tracer=None) -> dict:
    """Closed loop over whole rounds until ``seconds`` have passed.

    Traced runs pair each op with an untraced run on the same input,
    alternating by round which goes first, and require equal fingerprints.
    Returns per-op records (label, untraced s, traced s or None, error or
    None), the round count and the loop's wall and CPU seconds.
    """
    records = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    r = 0
    while r == 0 or time.perf_counter() - wall0 < seconds:
        for op in workload.round(r):
            op_id = len(records)
            if tracer is None:
                dt, err, _ = _attempt(op)
                records.append((op.label, dt, None, err))
                continue
            if r % 2:  # alternate per round, so each op kind sees both orders
                dt_t, err_t, fp_t = _attempt(op, tracer, op_id)
                dt, err, fp = _attempt(op)
            else:
                dt, err, fp = _attempt(op)
                dt_t, err_t, fp_t = _attempt(op, tracer, op_id)
            err = err or err_t
            if err is None and fp != fp_t:
                err = f"{op.label}: traced result differs from untraced"
            records.append((op.label, dt, dt_t, err))
        r += 1
    return {"records": records, "rounds": r,
            "wall_s": time.perf_counter() - wall0,
            "cpu_s": time.process_time() - cpu0}


# ------------------------------------------------------------------ metrics

def end_to_end(workload, m: dict, setup_times, import_s: float) -> dict:
    """The metrics every workload reports, then the workload's own."""
    times = [rec[1] for rec in m["records"]]
    by_label = defaultdict(list)
    for label, dt, _, _ in m["records"]:
        by_label[label].append(dt)
    out = {
        "setup_s": (import_s + statistics.median(setup_times), "s"),
        # The host runs this process at one of two speeds, about 1.7x
        # apart, for seconds to minutes at a time.  A kind's p90 stays on
        # the slow speed unless nearly the whole run was fast, so the sum
        # over kinds is the steadiest cost of the whole op mix.
        "round_s_p90": (sum(p90(v) for v in by_label.values()), "s"),
        "ops_per_s": (len(times) / m["wall_s"], "1/s"),
        "op_s_p50": (statistics.median(times), "s"),
        "op_s_p90": (p90(times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "fail_ratio": (sum(1 for rec in m["records"] if rec[3]) / len(times),
                       "ratio"),
    }
    out.update(workload.e2e_metrics(by_label))
    return out


def per_layer(workload, tracer, m: dict) -> tuple[dict, dict]:
    """Span-derived metrics (the module shares every workload reports, the
    tracing overhead, then the workload's named layer metrics) and the
    per-function span totals."""
    records = m["records"]
    traced = sum(rec[2] for rec in records)
    summary = summarize(tracer, range(len(records)))
    fns = summary["functions"]
    out = {}
    for mod in TRACED_MODULES:
        own = sum(v["self_s"] for k, v in fns.items() if k.split(".")[0] == mod)
        out[f"share.{mod}"] = (own / traced, "frac")
    # paired: each op's traced time against its untraced twin on the same input
    out["trace.overhead_frac"] = (
        statistics.median(rec[2] / rec[1] for rec in records) - 1.0, "frac")
    out["trace.unattributed_frac"] = (1.0 - summary["covered_s"] / traced, "frac")
    out.update(workload.layer_metrics(records, fns, self_time_by_op(tracer),
                                      tracer.captured))
    return out, fns


# ------------------------------------------------------------------ main

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("mc_bound", "synth_ladder", "cli_fixtures"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result here (JSON)")
    args = parser.parse_args(argv)

    use_checkout_sources()
    import workloads  # noqa: F401  (numpy, scipy and daeobs load here)
    import_s = time.perf_counter() - T_START
    env = environment(args)

    workload, setup_times = set_up(args.workload, args.seed, SETUP_REPEATS)
    tracer = Tracer(capture=workload.capture) if args.trace else None
    try:
        m = measure(workload, args.seconds, tracer)
    finally:
        workload.close()
    cpu_total = time.process_time()
    wall_total = time.perf_counter() - T_START

    records = m["records"]
    errors = [rec[3] for rec in records if rec[3]]
    e2e = end_to_end(workload, m, setup_times, import_s)
    fns = {}
    if tracer is not None:
        # traced runs pair each op with its untraced twin, so their timings
        # are not end to end; only the failure count carries over
        layers, fns = per_layer(workload, tracer, m)
        reported = {"fail_ratio": e2e["fail_ratio"], **layers}
    else:
        reported = e2e
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [x["name"] for x in declared["per_layer" if args.trace else "end_to_end"]]
    run_info = {
        "ops": len(records), "rounds": m["rounds"],
        "loop_wall_s": m["wall_s"], "loop_cpu_s": m["cpu_s"],
        "loop_cpu_per_wall": m["cpu_s"] / m["wall_s"],
        "process_wall_s": wall_total, "process_cpu_s": cpu_total,
        "setup_s_each": setup_times, "import_s": import_s,
    }

    for err in errors[:5]:
        print(f"check failed: {err}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"ops={len(records)} failed={len(errors)}")
    for key, value in run_info.items():
        print(f"# {key} = {value}")
    for name, (value, unit) in reported.items():
        print(f"{name} = {value:.6g} {unit}")

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"environment": env, "run": run_info, "errors": errors,
                       "metrics": {k: {"value": v, "unit": u}
                                   for k, (v, u) in reported.items()},
                       "functions": fns, "ops": [list(rec) for rec in records]},
                      fh, indent=1, sort_keys=True)

    result = {
        "correct": not errors,
        "attempted": len(records),
        "failed": len(errors),
        "metrics": {n: {"value": reported[n][0], "unit": reported[n][1]}
                    for n in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
