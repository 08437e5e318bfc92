#!/usr/bin/env python3
"""Regenerate the golden reports shipped with the fixture suite.

Runs every positive fixture through the CLI exactly as a user would and
copies the resulting report into src/daeobs/fixtures/data/golden/ with a
provenance block recording the generating command.  Golden values are
never edited by hand; rerun this script after any intentional behavior
change and review the diff.

Usage:  python scripts/regenerate_goldens.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from daeobs.cli import main as cli_main
from daeobs.fixtures import data_path, fixture_suite
from daeobs.problem_io import dump_report

GOLDEN_DIR = Path(__file__).resolve().parent.parent / \
    "src" / "daeobs" / "fixtures" / "data" / "golden"


def regenerate() -> int:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for fx in fixture_suite():
        if fx.golden is None:
            print(f"{fx.name}: negative fixture (expected exit "
                  f"{fx.expected_exit}), no golden")
            continue
        problem = data_path(fx.problem)
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "report.json"
            argv = [fx.command, str(problem), "--output", str(out)]
            code = cli_main(argv)
            if code != 0:
                print(f"{fx.name}: command failed with exit {code}",
                      file=sys.stderr)
                return 1
            report = json.loads(out.read_text())
        # the input path varies with the environment; pin it to the
        # fixture's bare name so goldens are location independent
        report["input"]["path"] = fx.problem
        report["provenance"] = {
            "generated_by": "scripts/regenerate_goldens.py",
            "command": f"daeobs {fx.command} {fx.problem} --output "
                       f"{fx.golden}",
            "note": fx.note,
        }
        target = GOLDEN_DIR / fx.golden
        target.write_text(dump_report(report))
        print(f"{fx.name}: wrote {target.relative_to(Path.cwd())}"
              if target.is_relative_to(Path.cwd()) else f"{fx.name}: wrote {target}")
    return 0


if __name__ == "__main__":
    raise SystemExit(regenerate())
