"""Byte-exact comparison and sweep reports on the weekend-errand fixture.

``report_goldens.json`` holds each report's ``emit_csv`` and ``emit_json``
output with every ``*wall_time`` field zeroed, in the records and in the
averages.  Everything else, budget-failed records included, must stay
byte-identical.

Re-record (only when an output change is intended and explained)::

    PYTHONPATH=src python tests/test_report_goldens.py --record
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from pegplan import (
    FeatureKind,
    MetricKind,
    PerturbSpec,
    emit_csv,
    emit_json,
    load_fixture,
    run_comparison,
    sweep_missing_prob,
)

from conftest import BENCHMARKS

GOLDENS = Path(__file__).with_name("report_goldens.json")


def _reports(robot):
    # 1 of the 6 runs blows the node budget.
    yield "comparison-budget", run_comparison(
        robot, spec=PerturbSpec(0.3, 0), runs=6, node_budget=5
    )
    # 2 of the 9 probes blow the node budget.
    yield "sweep-budget", sweep_missing_prob(
        robot, p_lo=0.1, p_hi=0.5, p_step=0.05, seed=3, node_budget=2
    )
    yield "sweep-init-goal-p1-paper", sweep_missing_prob(
        robot,
        p_lo=0.1,
        p_hi=0.9,
        p_step=0.1,
        eligible_kinds=frozenset({FeatureKind.INIT, FeatureKind.GOAL}),
        metric=MetricKind.P1,
        variant="paper",
    )


def _zero_wall_times(report):
    records = tuple(
        rec._replace(**{name: 0.0 for name in rec._fields if name.endswith("wall_time")})
        for rec in report.records
    )
    averages = {k: 0.0 if k.endswith("wall_time") else v for k, v in report.averages.items()}
    return report._replace(records=records, averages=averages)


def compute() -> dict[str, dict[str, str]]:
    robot = load_fixture(BENCHMARKS / "amy_monica.model")["robot"]
    goldens = {}
    for name, report in _reports(robot):
        report = _zero_wall_times(report)
        goldens[name] = {"csv": emit_csv(report), "json": emit_json(report)}
    return goldens


@pytest.fixture(scope="module")
def computed():
    return compute()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "name", ["comparison-budget", "sweep-budget", "sweep-init-goal-p1-paper"]
)
def test_report_matches_golden(computed, name, fmt):
    golden = json.loads(GOLDENS.read_text())
    assert computed[name][fmt] == golden[name][fmt]


def test_goldens_cover_failed_records(computed):
    failed = {
        name: sum(rec["failed"] for rec in json.loads(out["json"])["records"])
        for name, out in computed.items()
    }
    assert failed == {"comparison-budget": 1, "sweep-budget": 2, "sweep-init-goal-p1-paper": 0}


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    goldens = compute()
    GOLDENS.write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(goldens)} reports in {GOLDENS}")
