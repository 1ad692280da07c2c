"""Benchmarking: seeded perturbation studies and report serialization.

A human model is simulated by deleting each eligible feature of the robot
model with a fixed probability (Mersenne Twister via ``random.Random``,
iterating features in sorted order, one draw per feature, removing when the
draw falls below the probability).

Both studies build every record with one pipeline: perturb the robot
model, build the :class:`ReconciliationProblem`, plan the human model, then
run the progressive search and, for the comparison, the concise one on the
same problem.  A node budget blown anywhere in that pipeline gives a failed
record rather than an error.  :func:`run_comparison` and
:func:`sweep_missing_prob` only lay out their grids and map the traces to
their record fields.  The sweep checks its whole grid (bounds in [0, 1], a
positive step, at most :data:`MAX_SWEEP_PROBES` probes) before the first
probe runs.
"""

from __future__ import annotations

import csv
import io
import json
import random
from fractions import Fraction
from math import isfinite
from typing import Iterable, NamedTuple

from .explain import (
    DEFAULT_EPSILON,
    ExplanationTrace,
    ReconciliationProblem,
    generate_concise,
    generate_progressive,
)
from .metrics import MetricKind
from .model import _ACTION_SLOTS, _SLOTS, FeatureChange, FeatureKind, Model, _as_fact_set
from .model import _feature_string, _features
from .planner import BudgetExceededError

__all__ = [
    "DEFAULT_ELIGIBLE_KINDS",
    "MAX_SWEEP_PROBES",
    "PerturbSpec",
    "RunRecord",
    "SweepRecord",
    "Report",
    "perturb_model",
    "run_comparison",
    "sweep_missing_prob",
    "emit_csv",
    "emit_json",
]

# Only structural action features are deleted by default; initial state,
# goal, and costs are left alone unless explicitly requested.
DEFAULT_ELIGIBLE_KINDS = frozenset(_ACTION_SLOTS)

# Largest missing-probability grid a sweep accepts; each probe is a full
# progressive search, so a finer grid is a typo rather than a study.
MAX_SWEEP_PROBES = 1000

# Costs are never deleted: every other kind of feature may be.
_PERTURBABLE_KINDS = frozenset(FeatureKind) - {FeatureKind.COST}


class _PerturbFields(NamedTuple):
    missing_prob: float
    seed: int
    eligible_kinds: frozenset[FeatureKind] = DEFAULT_ELIGIBLE_KINDS


class PerturbSpec(_PerturbFields):
    """How to derive a human model from a robot model."""

    __slots__ = ()

    def __new__(cls, missing_prob: float, seed: int,
                eligible_kinds: frozenset[FeatureKind] = DEFAULT_ELIGIBLE_KINDS) -> "PerturbSpec":
        if not 0.0 <= missing_prob <= 1.0:
            raise ValueError("missing_prob must lie in [0, 1]")
        if not eligible_kinds:
            raise ValueError("eligible_kinds must be non-empty")
        bad = eligible_kinds - _PERTURBABLE_KINDS
        if bad:
            names = ", ".join(sorted(k.value for k in bad))
            raise ValueError(f"kinds not eligible for perturbation: {names}")
        return super().__new__(cls, missing_prob, seed, eligible_kinds)

    @classmethod
    def _make(cls, iterable) -> "PerturbSpec":
        """``_replace`` builds through here, so it checks like the constructor."""
        return cls(*iterable)


def _eligible(model: Model, kinds: frozenset[FeatureKind]) -> list:
    """The perturbation pool: the features of ``kinds``, as (kind, owner,
    fact) triples, in sorted render order."""
    return sorted((f for f in _features(model) if f[0] in kinds), key=lambda f: _feature_string(*f))


def perturb_model(robot: Model, spec: PerturbSpec) -> tuple[Model, int, int]:
    """Delete eligible robot features at random.

    Returns the perturbed model, the number of features removed, and the
    pool size.  Deterministic for a fixed spec: features are visited in
    sorted order with one uniform draw each.  The model is built in one
    pass, sharing the robot's untouched actions and fact sets.
    """
    pool = _eligible(robot, spec.eligible_kinds)
    rng = random.Random(spec.seed)
    removed = [f for f in pool if rng.random() < spec.missing_prob]
    gone: dict[str | None, dict[str, set]] = {}  # owner -> field -> its removed facts
    for kind, owner, fact in removed:
        gone.setdefault(owner, {}).setdefault(_SLOTS[kind], set()).add(fact)

    def without(holder, owner: str | None):
        """The model or action ``holder`` without its removed facts."""
        fields = {slot: _as_fact_set(set(getattr(holder, slot)) - facts)
                  for slot, facts in gone.get(owner, {}).items()}
        return holder._replace(**fields) if fields else holder

    actions = [without(act, act.name) for act in robot.actions]
    return without(robot, None)._replace(actions=actions), len(removed), len(pool)


class RunRecord(NamedTuple):
    """One perturb-and-compare run."""

    run_index: int
    seed: int
    missing_features: int
    pool_size: int
    human_unsolvable: bool
    # Result fields stay zero in a failed record.
    peg_size: int = 0
    peg_sum_rho_p2: int = 0
    peg_expansions: int = 0
    peg_wall_time: float = 0.0
    concise_size: int = 0
    concise_sum_rho_p2: int = 0
    concise_expansions: int = 0
    concise_wall_time: float = 0.0
    failed: bool = False
    failure: str = ""


class SweepRecord(NamedTuple):
    """One probe of the missing-probability sweep."""

    missing_prob: float
    seed: int
    missing_features: int
    pool_size: int
    human_unsolvable: bool
    # Result fields stay zero in a failed record.
    size: int = 0
    sum_rho: int = 0
    expansions: int = 0
    wall_time: float = 0.0
    failed: bool = False
    failure: str = ""


class Report(NamedTuple):
    """A batch of runs plus configuration echo and column averages."""

    kind: str  # "comparison" | "sweep"
    config: dict
    records: tuple
    averages: dict


def _averages(records: Iterable) -> dict:
    """The mean of the missing features and of each result field (the
    fields with a default, but ``failed`` and ``failure``) over the records
    that did not fail."""
    usable = [r for r in records if not r.failed]
    if not usable:
        return {}
    results = [col for col in usable[0]._field_defaults if col not in ("failed", "failure")]
    return {
        col: sum(getattr(r, col) for r in usable) / len(usable)
        for col in ("missing_features", *results)
    }


def _perturb_and_explain(
    robot: Model, spec: PerturbSpec, modes: tuple[str, ...], metric: MetricKind,
    variant: str, epsilon: Fraction, node_budget: int | None,
) -> tuple[dict, tuple[ExplanationTrace, ...]]:
    """One record's pipeline: perturb, reconcile, then search in ``modes``.

    ``modes`` lists "peg" and/or "concise", searched in that order on one
    problem.  Returns the fields every record shares and the traces; when
    the node budget is blown (planning either model or searching), the
    fields say so and the traces are empty.
    """
    human, missing, pool = perturb_model(robot, spec)
    fields = dict(
        seed=spec.seed, missing_features=missing, pool_size=pool, human_unsolvable=False
    )
    try:
        problem = ReconciliationProblem(robot, human, node_budget=node_budget)
        fields["human_unsolvable"] = not problem.plan_result(problem._human_state).solvable
        traces = tuple(
            generate_progressive(problem, metric=metric, variant=variant, epsilon=epsilon)
            if mode == "peg"
            else generate_concise(problem, metric=metric)
            for mode in modes
        )
    except BudgetExceededError as exc:
        return {**fields, "failed": True, "failure": str(exc)}, ()
    return fields, traces


def _report(
    kind: str, records: list, robot: Model, grid: dict,
    seed: int, eligible_kinds: frozenset[FeatureKind], metric: MetricKind, variant: str,
    epsilon: Fraction, node_budget: int | None, **counts: int,
) -> Report:
    """A study's report.  ``grid`` and ``counts`` are the study's own
    configuration keys, echoed after the robot digest and before the budget."""
    config = {
        "kind": kind,
        "robot_digest": robot.digest(),
        **grid,
        "seed": seed,
        "eligible_kinds": sorted(k.value for k in eligible_kinds),
        "metric": metric.value,
        "variant": variant,
        "epsilon": str(Fraction(epsilon)),
        **counts,
        "node_budget": node_budget,
    }
    return Report(kind, config, tuple(records), _averages(records))


def run_comparison(
    robot: Model,
    spec: PerturbSpec = PerturbSpec(0.1, 0),
    metric: MetricKind = MetricKind.P2,
    variant: str = "safe",
    runs: int = 10,
    epsilon: Fraction = DEFAULT_EPSILON,
    node_budget: int | None = None,
) -> Report:
    """Progressive-vs-concise comparison over seeded perturbation runs.

    Run ``i`` perturbs with seed ``spec.seed + i``.  A run whose searches
    blow the node budget is kept, flagged as failed, and excluded from the
    averages.
    """
    records = []
    for i in range(runs):
        run_spec = PerturbSpec(spec.missing_prob, spec.seed + i, spec.eligible_kinds)
        fields, traces = _perturb_and_explain(
            robot, run_spec, ("peg", "concise"), metric, variant, epsilon, node_budget
        )
        # no traces when the run failed
        for mode, trace in zip(("peg", "concise"), traces):
            fields.update({
                f"{mode}_size": trace.size,
                f"{mode}_sum_rho_p2": trace.sum_rho_for(MetricKind.P2),
                f"{mode}_expansions": trace.expansions,
                f"{mode}_wall_time": trace.wall_time,
            })
        records.append(RunRecord(run_index=i, **fields))
    return _report(
        "comparison", records, robot, {"missing_prob": spec.missing_prob},
        spec.seed, spec.eligible_kinds, metric, variant, epsilon, node_budget, runs=runs,
    )


def sweep_missing_prob(
    robot: Model,
    p_lo: float = 0.06,
    p_hi: float = 0.14,
    p_step: float = 0.01,
    seed: int = 0,
    metric: MetricKind = MetricKind.P2,
    variant: str = "safe",
    eligible_kinds: frozenset[FeatureKind] = DEFAULT_ELIGIBLE_KINDS,
    epsilon: Fraction = DEFAULT_EPSILON,
    node_budget: int | None = None,
) -> Report:
    """One progressive run per missing probability on a fixed grid.

    The grid is computed with exact rationals from the decimal strings of
    the bounds, so ``0.06..0.14`` by ``0.01`` yields exactly nine probes.
    Probe ``i`` uses seed ``seed + i``.  A grid outside [0, 1], with a
    non-positive or non-finite step, or of more than
    :data:`MAX_SWEEP_PROBES` probes raises :class:`ValueError` before any
    probe runs.
    """
    grid_error = "expected 0 <= p_lo <= p_hi <= 1 and a positive step"
    if not all(isfinite(v) for v in (p_lo, p_hi, p_step)):
        raise ValueError(grid_error)  # NaN or infinity has no exact rational
    lo = Fraction(str(p_lo))
    hi = Fraction(str(p_hi))
    step = Fraction(str(p_step))
    if step <= 0 or not 0 <= lo <= hi <= 1:
        raise ValueError(grid_error)
    probes = (hi - lo) // step + 1
    if probes > MAX_SWEEP_PROBES:
        raise ValueError(
            f"the sweep grid has {probes} probes; at most {MAX_SWEEP_PROBES} are allowed"
        )
    records = []
    for i in range(probes):
        p = float(lo + i * step)
        fields, traces = _perturb_and_explain(
            robot, PerturbSpec(p, seed + i, eligible_kinds), ("peg",),
            metric, variant, epsilon, node_budget,
        )
        if traces:
            (trace,) = traces
            fields.update(
                size=trace.size,
                sum_rho=trace.sum_rho,
                expansions=trace.expansions,
                wall_time=trace.wall_time,
            )
        records.append(SweepRecord(missing_prob=p, **fields))
    grid = {"p_lo": float(lo), "p_hi": float(hi), "p_step": float(step)}
    return _report(
        "sweep", records, robot, grid,
        seed, eligible_kinds, metric, variant, epsilon, node_budget,
    )


# ---------------------------------------------------------------------------
# Serialization


def emit_csv(obj: ExplanationTrace | Report) -> str:
    """RFC 4180 CSV for a trace or a report (reports end with an average row)."""
    out = io.StringIO()
    writer = csv.writer(out)
    if isinstance(obj, ExplanationTrace):
        writer.writerow(["step", "cost_star", "rho"])
        writer.writerows([step.index, step.cost_star, step.rho] for step in obj.steps)
        return out.getvalue()
    record_class = RunRecord if obj.kind == "comparison" else SweepRecord
    header = record_class._fields
    writer.writerow(header)
    for rec in obj.records:
        writer.writerow([getattr(rec, col) for col in header])
    if obj.averages:
        # The label replaces the first column (run index or probability).
        writer.writerow(["average"] + [obj.averages.get(col, "") for col in header[1:]])
    return out.getvalue()


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (MetricKind, FeatureKind)):
        return value.value
    if isinstance(value, FeatureChange):
        return {"direction": value.direction, "feature": value.feature.render()}
    if hasattr(value, "_fields"):  # a record: before the tuple it also is
        return {name: _jsonable(getattr(value, name)) for name in value._fields}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def emit_json(obj: ExplanationTrace | Report) -> str:
    """JSON mirroring the records' fields, snake_case keys."""
    return json.dumps(_jsonable(obj), indent=2) + "\n"
