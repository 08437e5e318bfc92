"""Run every workload untraced and traced, print every metric with its unit
and write one result file.

    python3 bench/run_all.py --seed 1 --seconds 30 --label baseline

Each workload runs in its own process (so ``peak_rss_mb`` is that
workload's), first with ``--trace 0`` for the end-to-end metrics, then
with ``--trace 1`` for the per-layer ones.  The combined result goes to
``bench/results/BENCH_<label>.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("mc_bound", "synth_ladder", "cli_fixtures")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--label", default="local")
    args = parser.parse_args(argv)

    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    combined = {"label": args.label, "seed": args.seed, "seconds": args.seconds,
                "workloads": {}}
    ok = True
    for name in WORKLOADS:
        runs = {}
        for trace in (0, 1):
            part = out_dir / f".{args.label}.{name}.{trace}.json"
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace), "--out", str(part)],
                cwd=ROOT, capture_output=True, text=True)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"{name} trace={trace}: exit {proc.returncode}")
                return 1
            summary = json.loads(proc.stdout.strip().splitlines()[-1])
            runs[trace] = json.loads(part.read_text())
            runs[trace]["summary"] = summary
            part.unlink()
            ok &= summary["correct"]
        combined["workloads"][name] = {"end_to_end": runs[0], "per_layer": runs[1]}
        print(f"== {name}: {runs[0]['run']['ops']} ops untraced, "
              f"{runs[1]['run']['ops']} traced pairs, "
              f"failed {runs[0]['summary']['failed']} + {runs[1]['summary']['failed']}")
        for trace in (0, 1):
            for metric, v in runs[trace]["metrics"].items():
                print(f"  {metric} = {v['value']:.6g} {v['unit']}")
    path = out_dir / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(combined, indent=1, sort_keys=True) + "\n")
    print(f"-> {path.relative_to(ROOT)}; all outputs correct: {ok}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
