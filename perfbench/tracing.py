"""Spans around the public entry points of each layer, installed at run time.

The program carries no instrumentation of its own, so the traced run wraps
module-level names and two methods of SparseSymmetricForm while it runs and
restores them afterwards.  A span records its name, start, end, parent span,
the study it belongs to, and a few counts read from the call (points handed
to field evaluation, iterations and final residual of a solve).
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

from stablehom import cli, discrete, env, homogenize, kernel, solver

_MODULES = (env, kernel, discrete, solver, homogenize, cli)

# (span name, home module, attribute).  homogenize and cli import some of
# these by name; every module binding the same object is wrapped as well.
FUNCTIONS = (
    ("env.field_values", env, "field_values"),
    ("kernel.effective_kernel", kernel, "effective_kernel"),
    ("discrete.assemble_form", discrete, "assemble_form"),
    ("discrete.assemble_effective_form", discrete, "assemble_effective_form"),
    ("discrete.measure_weights", discrete, "measure_weights"),
    ("solver.solve_resolvent", solver, "solve_resolvent"),
    ("homogenize.run_sweep", homogenize, "run_sweep"),
    ("homogenize.mosco_form_check", homogenize, "mosco_form_check"),
    ("cli.parse_config", cli, "parse_config"),
    ("cli.write_report", cli, "write_report"),
    ("cli.write_csv", cli, "write_csv"),
)
METHODS = (
    ("discrete.apply_generator", discrete.SparseSymmetricForm, "apply_generator"),
    ("discrete.energy", discrete.SparseSymmetricForm, "energy"),
)


class Tracer:
    """Collects spans in memory; `install` wraps the layers until `restore`."""

    def __init__(self):
        self.studies: list[list[dict]] = []  # one span list per traced study
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def trace_study(self, fn, *args):
        """Run one study under a root span named "study"."""
        self.studies.append([])
        return self.span("study", fn, *args)

    def span(self, name: str, fn, *args, **kwargs):
        spans = self.studies[-1]
        index = len(spans)
        record = {
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "study": len(self.studies) - 1,
            "start": time.perf_counter(),
        }
        spans.append(record)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
        if name == "env.field_values":
            record["points"] = len(result)
        elif name == "solver.solve_resolvent":
            record["iterations"] = int(result.iterations)
            record["residual"] = float(result.residual)
        return result

    def _wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return traced

    def install(self) -> None:
        for name, home, attr in FUNCTIONS:
            original = getattr(home, attr, None)
            if original is None:
                continue
            traced = self._wrapper(name, original)
            for module in _MODULES:
                if getattr(module, attr, None) is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, traced)
        for name, cls, attr in METHODS:
            original = cls.__dict__.get(attr)
            if original is None:
                continue
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self._wrapper(name, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


def self_times(spans: list[dict]) -> list[float]:
    """Duration of each span minus the durations of its direct children.

    Calls are sequential, so children never overlap and the time they cover
    is the sum of their durations.
    """
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def summarize(spans: list[dict]) -> dict[str, float]:
    """Per-layer counts and self times of one study's spans (root first)."""
    selfs = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    for s, t in zip(spans, selfs):
        calls[s["name"]] += 1
        self_s[s["name"]] += t
    solves = [s for s in spans if s["name"] == "solver.solve_resolvent"]
    out = {f"{name}.calls": float(n) for name, n in calls.items()}
    out.update({f"{name}.self_s": t for name, t in self_s.items()})
    # A call that raised has no counts.
    out["env.field_values.points"] = float(
        sum(s.get("points", 0) for s in spans if s["name"] == "env.field_values")
    )
    iterations = [s.get("iterations", 0) for s in solves]
    out["solver.iterations"] = float(sum(iterations))
    out["solver.iterations_max"] = float(max(iterations, default=0))
    out["solver.residual_max"] = max((s.get("residual", 0.0) for s in solves), default=0.0)
    out["root_s"] = spans[0]["end"] - spans[0]["start"]
    out["self_sum_s"] = sum(selfs)
    return out
