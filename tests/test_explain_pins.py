"""Pinned explanation outputs on fixed instances.

``explain_pins.json`` holds two parts for each trace.  ``sha256`` hashes
its ``emit_json`` output with the work counters (``expansions``,
``generated``, ``planner_calls``) and ``wall_time`` zeroed: the explanation's
content, which must stay byte-identical.  The counters are recorded beside
it and must match exactly too, so a search change that keeps the content but
moves the work is re-recorded as counters alone, and the hashes show that the
content did not move.

Re-record (only when an output change is intended and explained)::

    PYTHONPATH=src python tests/test_explain_pins.py --record
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from pegplan import (
    MetricKind,
    PerturbSpec,
    ReconciliationProblem,
    emit_json,
    generate_concise,
    generate_progressive,
    ground,
    perturb_model,
)
from pegplan.pddl import parse_domain, parse_problem

from conftest import BENCHMARKS, errand_human, errand_robot
from oracles import random_reconciliation

PINS = Path(__file__).with_name("explain_pins.json")
RANDOM_SEED = 31
RANDOM_INSTANCES = 100


def _errand():
    yield "errand", ReconciliationProblem(errand_robot(), errand_human()), ("paper", "safe")


def _rover():
    rover = BENCHMARKS / "rover"
    robot = ground(
        parse_domain((rover / "domain.pddl").read_text()),
        parse_problem((rover / "p01.pddl").read_text()),
    )
    for seed in range(6):
        human, _, _ = perturb_model(robot, PerturbSpec(0.1, seed))
        yield f"rover-p01-s{seed}", ReconciliationProblem(robot, human), ("safe",)


def _random():
    rng = random.Random(RANDOM_SEED)
    for i in range(RANDOM_INSTANCES):
        yield f"random-{i}", random_reconciliation(rng), ("paper", "safe")


GROUPS = {"errand": _errand, "rover": _rover, "random": _random}


def _digest(trace) -> str:
    return hashlib.sha256(emit_json(trace).encode()).hexdigest()


COUNTERS = ("expansions", "generated", "planner_calls")


def _pin(trace) -> dict:
    counters = {name: getattr(trace, name) for name in COUNTERS}
    content = trace._replace(wall_time=0.0, **dict.fromkeys(COUNTERS, 0))
    return {"sha256": _digest(content), **counters}


def compute(group: str) -> dict[str, dict]:
    """Pins for one instance group.  Each problem's searches share its plan
    cache, so ``planner_calls`` counts cumulatively; concise runs last."""
    pins = {}
    for name, problem, variants in GROUPS[group]():
        for variant in variants:
            for metric in MetricKind:
                trace = generate_progressive(problem, metric=metric, variant=variant)
                pins[f"{name} progressive {metric.value} {variant}"] = _pin(trace)
        pins[f"{name} concise"] = _pin(generate_concise(problem))
    return pins


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_explanations_match_pins(group):
    pinned = {k: v for k, v in json.loads(PINS.read_text()).items() if k.startswith(group)}
    got = compute(group)
    assert sorted(got) == sorted(pinned)
    changed = [k for k in got if got[k]["sha256"] != pinned[k]["sha256"]]
    assert not changed, f"{len(changed)} traces changed, first: {changed[:3]}"
    moved = [
        (k, name, got[k][name], pinned[k][name])
        for k in got
        for name in COUNTERS
        if got[k][name] != pinned[k][name]
    ]
    assert not moved, f"{len(moved)} work counters moved, first: {moved[:3]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    pins = {}
    for group in sorted(GROUPS):
        pins.update(compute(group))
    lines = (f"{json.dumps(k)}: {json.dumps(pins[k], sort_keys=True)}" for k in sorted(pins))
    PINS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"recorded {len(pins)} pins in {PINS}")
