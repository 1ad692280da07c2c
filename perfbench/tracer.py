"""Tracing pegplan from outside: wrappers around its public entry points.

The wrappers replace module attributes where the callers look them up
(``pegplan.explain.optimal_plan``, ``pegplan.bench.generate_concise``, ...)
and restore the originals on exit.  Spans are recorded at the workload,
instance and search level.  Leaf-layer calls (planner, model, metrics) are
not spans: each one adds to a counter and a timer on the innermost open
span, so 80k ``apply_change`` calls cost a dict update each.

Spans and counters stay in memory; :meth:`Tracer.layer_metrics` and
:meth:`Tracer.span_records` turn them into plain data once the traced pass
is over.
"""

from __future__ import annotations

import functools
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import pegplan.bench as bench
import pegplan.explain as explain
import pegplan.metrics as metrics
import pegplan.pddl as pddl
from pegplan.model import InvalidEditError

MARK = "__perfbench_wrapper__"

Problem = explain.ReconciliationProblem

# Span-level entry points: (owner, attribute, span name).  Both ``bench`` and
# ``explain`` bind the search functions, so each binding gets its own wrapper.
SPAN_TARGETS = (
    (pddl, "parse_domain", "pddl.parse"),
    (pddl, "parse_problem", "pddl.parse"),
    (pddl, "ground", "pddl.ground"),
    (bench, "perturb_model", "bench.perturb"),
    (bench, "emit_csv", "bench.emit"),
    (bench, "emit_json", "bench.emit"),
    (bench, "generate_progressive", "explain.search"),
    (bench, "generate_concise", "explain.search"),
    (explain, "generate_progressive", "explain.search"),
    (explain, "generate_concise", "explain.search"),
    (Problem, "__init__", "explain.problem_init"),
)

# Leaf entry points, aggregated per parent span: (owner, attribute, key).
LEAF_TARGETS = (
    (explain, "optimal_plan", "planner.optimal_plan"),
    (explain, "plan_cost", "planner.plan_cost"),
    (explain, "apply_change", "model.apply_change"),
    (explain, "rho", "metrics.rho"),
    (explain, "heuristic", "metrics.heuristic"),
    (metrics, "plan_edit_distance", "metrics.plan_edit_distance"),
    (Problem, "plan_result", "explain.plan_result"),
)

# Leaves whose time is another layer's, not the enclosing span's.  None of
# them calls another, so their inclusive times add up without overlap.
FOREIGN_LEAVES = (
    "planner.optimal_plan",
    "planner.plan_cost",
    "model.apply_change",
    "metrics.rho",
    "metrics.heuristic",
)


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)
    times: dict = field(default_factory=dict)
    children_s: float = 0.0

    def duration(self) -> float:
        return self.end - self.start

    def self_s(self) -> float:
        foreign = sum(self.times.get(k, 0.0) for k in FOREIGN_LEAVES)
        return self.duration() - self.children_s - foreign


@dataclass
class SearchCall:
    """One explanation search as seen from outside, kept for output checks."""

    mode: str
    robot: object
    human: object
    trace: object | None
    error: str


def _bump(span: Span, key: str, dt: float) -> None:
    span.counts[key] = span.counts.get(key, 0) + 1
    span.times[key] = span.times.get(key, 0.0) + dt


def _add(span: Span, key: str, n: int) -> None:
    span.counts[key] = span.counts.get(key, 0) + n


def installed_wrappers() -> list[str]:
    """Names of the entry points that currently carry a tracing wrapper."""
    return [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in SPAN_TARGETS + LEAF_TARGETS
        if hasattr(getattr(owner, attr, None), MARK)
    ]


class Tracer:
    """Installs the wrappers for one traced pass and collects what they see."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.searches: list[SearchCall] = []
        self.missing: list[str] = []
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        popped = self._stack.pop()
        assert popped is span, f"span {span.name} closed out of order"
        if self._stack:
            self._stack[-1].children_s += span.duration()

    def close_instance(self) -> None:
        if self._stack and self._stack[-1].name == "instance":
            self.close(self._stack[-1])

    # -- install / uninstall --------------------------------------------

    def __enter__(self) -> "Tracer":
        for owner, attr, name in SPAN_TARGETS:
            self._patch(owner, attr, lambda fn, n=name, a=attr: self._span_wrapper(fn, n, a))
        for owner, attr, key in LEAF_TARGETS:
            self._patch(owner, attr, lambda fn, k=key: self._leaf_wrapper(fn, k))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _patch(self, owner, attr, make) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        wrapper = make(original)
        setattr(wrapper, MARK, True)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    # -- wrappers ------------------------------------------------------

    def _span_wrapper(self, fn, name: str, attr: str):
        searching = name == "explain.search"
        perturbing = name == "bench.perturb"
        emitting = name == "bench.emit"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # A perturbation starts the next instance; a report covers them all.
            if perturbing or (emitting and isinstance(args[0], bench.Report)):
                self.close_instance()
            if perturbing:
                self.open("instance")
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.close(span)
                if searching:
                    self._record_search(attr, args, kwargs, None, repr(exc), span)
                raise
            self.close(span)
            if searching:
                self._record_search(attr, args, kwargs, result, "", span)
            return result

        return wrapper

    def _record_search(self, attr, args, kwargs, trace, error, span: Span) -> None:
        problem = args[0] if args else kwargs["problem"]
        mode = "progressive" if attr == "generate_progressive" else "concise"
        if trace is not None:
            _add(span, "explain.expansions", trace.expansions)
            _add(span, "explain.generated", trace.generated)
            _add(span, "explain.lattice_size", 2 ** len(problem.pool))
        self.searches.append(SearchCall(mode, problem.robot, problem.human, trace, error))

    def _leaf_wrapper(self, fn, key: str):
        stack = self._stack
        if key == "planner.optimal_plan":

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                t0 = perf_counter()
                result = fn(*args, **kwargs)
                span = stack[-1]
                _bump(span, key, perf_counter() - t0)
                _add(span, "planner.expansions", result.expansions)
                _add(span, "planner.generated", result.generated)
                _add(span, "planner.unsolvable_calls", 0 if result.solvable else 1)
                return result

            return wrapper
        if key == "model.apply_change":

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                except InvalidEditError:
                    _add(stack[-1], "model.invalid_edits", 1)
                    raise
                finally:
                    _bump(stack[-1], key, perf_counter() - t0)

            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                _bump(stack[-1], key, perf_counter() - t0)

        return wrapper

    # -- results -------------------------------------------------------

    def totals(self) -> tuple[dict, dict]:
        counts: dict = {}
        times: dict = {}
        for span in self.spans:
            for k, v in span.counts.items():
                counts[k] = counts.get(k, 0) + v
            for k, v in span.times.items():
                times[k] = times.get(k, 0.0) + v
        return counts, times

    def span_time(self, name: str, self_time: bool = False) -> float | None:
        spans = [s for s in self.spans if s.name == name]
        if not spans:
            return None
        return sum(s.self_s() if self_time else s.duration() for s in spans)

    def layer_metrics(self) -> dict:
        """Per-layer figures of the pass; None marks an absent entry point."""
        counts, times = self.totals()
        count = counts.get

        def ratio(num, den):
            return None if num is None or not den else num / den

        def time_of(*keys):
            present = [times[k] for k in keys if k in times]
            return sum(present) if present else None

        planner_calls = count("planner.optimal_plan")
        apply_calls = count("model.apply_change")
        plan_results = count("explain.plan_result")
        expansions = count("explain.expansions")
        lattice = count("explain.lattice_size")
        hits = None
        if planner_calls is not None and plan_results:
            hits = 1 - planner_calls / plan_results
        search_calls = [s.duration() for s in self.spans if s.name == "explain.search"]
        return {
            "planner.calls": planner_calls,
            "planner.self_s": time_of("planner.optimal_plan", "planner.plan_cost"),
            "planner.expansions": count("planner.expansions"),
            "planner.generated": count("planner.generated"),
            "planner.unsolvable_calls": count("planner.unsolvable_calls"),
            "planner.plan_cost_calls": count("planner.plan_cost"),
            "model.apply_change_calls": apply_calls,
            "model.apply_change_s": time_of("model.apply_change"),
            "model.invalid_edits": (
                counts.get("model.invalid_edits", 0) if apply_calls is not None else None
            ),
            "model.planned_ratio": ratio(planner_calls, apply_calls),
            "explain.expansions": expansions,
            "explain.generated": count("explain.generated"),
            "explain.search_self_s": self.span_time("explain.search", self_time=True),
            "explain.lattice_size": lattice,
            "explain.lattice_coverage": ratio(expansions, lattice),
            "explain.plan_result_calls": plan_results,
            "explain.plan_cache_hit_ratio": hits,
            "explain.problem_init_s": self.span_time("explain.problem_init"),
            "explain.call_p50_s": statistics.median(search_calls) if search_calls else None,
            "explain.calls": len(search_calls) or None,
            "metrics.rho_calls": count("metrics.rho"),
            "metrics.heuristic_calls": count("metrics.heuristic"),
            "metrics.edit_distance_calls": count("metrics.plan_edit_distance"),
            "metrics.self_s": time_of("metrics.rho", "metrics.heuristic"),
            "pddl.parse_s": self.span_time("pddl.parse"),
            "pddl.ground_s": self.span_time("pddl.ground"),
            "bench.perturb_s": self.span_time("bench.perturb"),
            "bench.emit_s": self.span_time("bench.emit"),
        }

    def span_records(self) -> list[dict]:
        return [
            {
                "id": s.id,
                "parent": s.parent,
                "name": s.name,
                "start_s": s.start,
                "duration_s": s.duration(),
                "self_s": s.self_s(),
                "counts": s.counts,
                "times_s": s.times,
            }
            for s in self.spans
        ]
