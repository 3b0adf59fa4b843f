"""Spans around calls into dstab's layers, recorded from outside the program.

A traced operation replaces each public function at the module attribute
its caller looks it up by (for example `dstab.analysis.solve`, which
`upper_probability` calls, or `dstab.oracle.eigenvalues`, which the grid
search and the atomic LP call) with a wrapper that records a span: name,
start, end and parent span. Counts are read off the functions' public
return values. The spans of an operation go back to the benchmark
process, which keeps them in memory until the run ends. A span's self
time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float = 0.0
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _sdp_counts(sdp, args) -> dict:
    dims = [form.dimension for _label, form in sdp.psd_blocks]
    moments_per_block = [len(form.terms) for _label, form in sdp.psd_blocks]
    return {
        "num_moments": sdp.num_moments,
        "num_psd_blocks": len(dims),
        "largest_block": max(dims),
        "pencil_nnz": sum(len(vals) for _l, form in sdp.psd_blocks
                          for _a, _r, _c, vals in form.terms),
        "schur_work": sum(m * d ** 3 for m, d in zip(moments_per_block, dims)),
    }


def _solve_counts(solution, args) -> dict:
    return {"iterations": solution.iterations, "optimal": int(solution.optimal)}


def _export_counts(_none, args) -> dict:
    return {"bytes": os.path.getsize(args[1])}


def _lp_counts(result, args) -> dict:
    return {"atoms": len(result.atoms)}


# (module, attribute its callers look up, span name, counts from the result)
TRACE_POINTS = (
    ("dstab.cli", "load_problem", "cli.load_problem", None),
    ("dstab.cli", "build_lifted", "problem.build_lifted", None),
    ("dstab.analysis", "build_lifted", "problem.build_lifted", None),
    ("dstab.cli", "assemble_relaxation", "relax.assemble", _sdp_counts),
    ("dstab.analysis", "assemble_relaxation", "relax.assemble", _sdp_counts),
    ("dstab.cli", "export_sdp", "relax.export", _export_counts),
    ("dstab.analysis", "solve", "sdp.solve", _solve_counts),
    ("dstab.analysis", "upper_probability", "analysis.upper_probability", None),
    ("dstab.analysis", "certify_robust", "analysis.certify_robust", None),
    ("dstab.analysis", "sweep", "analysis.sweep", None),
    ("dstab.analysis", "extract_candidate", "analysis.extract_candidate", None),
    ("dstab.oracle", "grid_violation_search", "oracle.grid_violation_search", None),
    ("dstab.oracle", "grid_points", "oracle.grid_points", None),
    ("dstab.oracle", "atomic_lp_bound", "oracle.atomic_lp_bound", _lp_counts),
    ("dstab.oracle", "eigenvalues", "oracle.eigenvalues", None),
    ("dstab.oracle", "simplex_maximize", "oracle.simplex", None),
)


class Tracer:
    """Collects the spans of one traced operation."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def wrap(self, fn, name: str, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(self.spans), self._stack[-1].id if self._stack else None, name)
            self.spans.append(span)
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counts is not None:
                span.counts = counts(result, args)
            return result
        return traced

    def install(self) -> None:
        """Replace every trace point by its wrapper, for good: only the
        fork of a traced operation installs them, and it exits afterwards."""
        for module_name, attr, name, counts in TRACE_POINTS:
            module = importlib.import_module(module_name)
            setattr(module, attr, self.wrap(getattr(module, attr), name, counts))


def _self_times(spans: list[Span]) -> dict[int, float]:
    child = {}
    for span in spans:
        if span.parent is not None:
            child[span.parent] = child.get(span.parent, 0.0) + span.seconds
    return {span.id: span.seconds - child.get(span.id, 0.0) for span in spans}


def op_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer numbers of one traced operation."""
    self_time = _self_times(spans)

    def total(name):
        return sum(s.seconds for s in spans if s.name == name)

    def counted(name, key):
        return [s.counts[key] for s in spans if s.name == name]

    solve_s = total("sdp.solve")
    iterations = sum(counted("sdp.solve", "iterations"))
    return {
        "cli.load_problem_s": total("cli.load_problem"),
        "cli.self_s": sum(self_time[s.id] for s in spans if s.name == "cli.main"),
        "problem.build_lifted_s": total("problem.build_lifted"),
        "relax.assemble_s": total("relax.assemble"),
        "relax.export_s": total("relax.export"),
        "relax.export_bytes": sum(counted("relax.export", "bytes")),
        "relax.num_moments": sum(counted("relax.assemble", "num_moments")),
        "relax.num_psd_blocks": sum(counted("relax.assemble", "num_psd_blocks")),
        "relax.largest_block": max(counted("relax.assemble", "largest_block"), default=0),
        "relax.pencil_nnz": sum(counted("relax.assemble", "pencil_nnz")),
        "relax.schur_work": sum(counted("relax.assemble", "schur_work")),
        "sdp.solve_s": solve_s,
        "sdp.iterations": iterations,
        "sdp.s_per_iter": solve_s / iterations if iterations else 0.0,
        "analysis.extract_candidate_s": total("analysis.extract_candidate"),
        "analysis.self_s": sum(self_time[s.id] for s in spans
                               if s.name.startswith("analysis.")
                               and s.name != "analysis.extract_candidate"),
        "oracle.eigenvalues_s": total("oracle.eigenvalues"),
        "oracle.eigenvalues_calls": sum(1 for s in spans if s.name == "oracle.eigenvalues"),
        "oracle.grid_points_s": total("oracle.grid_points"),
        "oracle.simplex_s": total("oracle.simplex"),
        "oracle.lp_atoms": sum(counted("oracle.atomic_lp_bound", "atoms")),
        "sdp.solves": len(counted("sdp.solve", "optimal")),
        "sdp.optimal_solves": sum(counted("sdp.solve", "optimal")),
    }


# Per-layer metrics and their units. Metrics in seconds are medians over the
# run's traced operations; the others are read off its first operation, whose
# inputs depend on the seed alone, so they repeat exactly for a given seed.
# `sdp.optimal_ratio` counts every traced solve of the run. A metric of a
# layer the workload never calls reads 0.
LAYER_UNITS = {
    "cli.load_problem_s": "s",
    "cli.self_s": "s",
    "problem.build_lifted_s": "s",
    "relax.assemble_s": "s",
    "relax.export_s": "s",
    "relax.export_bytes": "bytes",
    "relax.num_moments": "count",
    "relax.num_psd_blocks": "count",
    "relax.largest_block": "count",
    "relax.pencil_nnz": "count",
    "relax.schur_work": "computed_flop",
    "sdp.solve_s": "s",
    "sdp.iterations": "count",
    "sdp.s_per_iter": "s",
    "sdp.optimal_ratio": "ratio",
    "analysis.extract_candidate_s": "s",
    "analysis.self_s": "s",
    "analysis.bound_below_exact": "count",
    "oracle.eigenvalues_s": "s",
    "oracle.eigenvalues_calls": "count",
    "oracle.grid_points_s": "s",
    "oracle.simplex_s": "s",
    "oracle.lp_atoms": "count",
    "bench.tracing_overhead": "ratio",
}


def layer_metrics(rows: list[dict], below_exact: int,
                  plain_s: list[float], traced_s: list[float]) -> dict[str, float]:
    """Per-layer metrics of a traced run from its operations' `op_metrics`.
    `plain_s` and `traced_s` time the same inputs run without and with
    spans; `below_exact` counts the first operation's printed bounds under
    their exact value."""
    out = {}
    for name, unit in LAYER_UNITS.items():
        if name in rows[0]:
            out[name] = statistics.median(r[name] for r in rows) if unit == "s" else rows[0][name]
    solves = sum(r["sdp.solves"] for r in rows)
    out["sdp.optimal_ratio"] = sum(r["sdp.optimal_solves"] for r in rows) / solves if solves else 0.0
    out["analysis.bound_below_exact"] = below_exact
    out["bench.tracing_overhead"] = statistics.median(traced_s) / statistics.median(plain_s)
    return {name: out[name] for name in LAYER_UNITS}
