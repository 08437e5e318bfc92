"""In-memory span tracing of daeobs calls, installed from outside the package.

The tracer wraps every public function of the traced modules, and every
module attribute bound to one of them (``from .x import f`` copies the
reference, so each binding is patched), for the duration of a ``with
tracer.installed():`` block.  A wrapper only records a span and calls the
original with the same arguments, so traced results are bit-identical to
untraced ones and every check inside the program still runs.

A span is (name, start, end, parent index, op id); spans live in a list
until the benchmark ends.  Self time is a span's duration minus the
duration of its direct children, which never overlap because the program
is single-threaded.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import defaultdict

TRACED_MODULES = ("dae", "geometric", "lti", "riccati", "observer", "signals",
                  "simulate", "equivalence", "problem_io", "cli")
# Public methods that an op calls directly; wrapped on their class.
TRACED_METHODS = (("observer", "ObserverSynthesis", "for_ell"),)


class Tracer:
    def __init__(self, capture=()):
        self.spans: list[list] = []   # [name, start, end, parent, op]
        self._stack: list[int] = []
        self.op_id: int | None = None
        # Return values of the named functions, as (op id, name, value),
        # for outcome counts measured where the work happens.
        self.capture = frozenset(capture)
        self.captured: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        keep = name in self.capture

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else None,
                          self.op_id])
            stack.append(idx)
            start = time.perf_counter()
            try:
                value = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                span = spans[idx]
                span[1], span[2] = start, end
            if keep:
                self.captured.append((self.op_id, name, value))
            return value

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding of every traced callable; restore on exit."""
        targets = {}
        for short in TRACED_MODULES:
            mod = sys.modules[f"daeobs.{short}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    targets[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        patched = []
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "daeobs" or name.startswith("daeobs.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = targets.get(id(obj))
                if hit is not None and hit[0] is obj:
                    patched.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        for short, cls_name, meth in TRACED_METHODS:
            cls = getattr(sys.modules[f"daeobs.{short}"], cls_name)
            orig = cls.__dict__[meth]
            patched.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(f"{short}.{cls_name}.{meth}", orig))
        try:
            yield self
        finally:
            for owner, attr, orig in reversed(patched):
                setattr(owner, attr, orig)

    def self_times(self) -> list[float]:
        """Self time of every span, index-aligned with ``spans``."""
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] is not None:
                out[s[3]] -= s[2] - s[1]
        return out


def summarize(tracer: Tracer, op_ids) -> dict:
    """Per-function totals over the given ops: self seconds, inclusive
    seconds and call count, plus the covered time (sum of top-level spans)."""
    wanted = set(op_ids)
    self_t = tracer.self_times()
    fn = defaultdict(lambda: {"self_s": 0.0, "total_s": 0.0, "calls": 0})
    covered = 0.0
    for i, (name, start, end, parent, op) in enumerate(tracer.spans):
        if op not in wanted:
            continue
        rec = fn[name]
        rec["self_s"] += self_t[i]
        rec["total_s"] += end - start
        rec["calls"] += 1
        if parent is None:
            covered += end - start
    return {"functions": dict(fn), "covered_s": covered}


def self_time_by_op(tracer: Tracer) -> dict[int, dict[str, float]]:
    """op id -> {function name: self seconds within that op}."""
    self_t = tracer.self_times()
    out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for i, s in enumerate(tracer.spans):
        out[s[4]][s[0]] += self_t[i]
    return out
