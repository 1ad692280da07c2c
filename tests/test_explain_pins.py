"""Pinned explanation outputs on fixed instances.

``explain_pins.json`` holds the sha256 of each trace's ``emit_json`` output
with ``wall_time`` and ``planner_calls`` zeroed.  Every trace must stay
byte-identical apart from those two fields.  ``planner_calls`` counts work,
not explanation content, so it is pinned separately as an upper bound: a
search may plan fewer models, never more.

Re-record (only when an output change is intended and explained)::

    PYTHONPATH=src python tests/test_explain_pins.py --record
"""

from __future__ import annotations

import dataclasses
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


def _pin(trace) -> dict:
    calls = trace.planner_calls
    trace = dataclasses.replace(trace, wall_time=0.0, planner_calls=0)
    return {"sha256": _digest(trace), "max_planner_calls": calls}


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
    more_calls = [
        (k, got[k]["max_planner_calls"], pinned[k]["max_planner_calls"])
        for k in got
        if got[k]["max_planner_calls"] > pinned[k]["max_planner_calls"]
    ]
    assert not more_calls, f"searches planned more models than pinned: {more_calls[:3]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    pins = {}
    for group in sorted(GROUPS):
        pins.update(compute(group))
    lines = (f"{json.dumps(k)}: {json.dumps(pins[k], sort_keys=True)}" for k in sorted(pins))
    PINS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"recorded {len(pins)} pins in {PINS}")
