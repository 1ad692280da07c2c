"""The three explanation workloads, run through pegplan's public API.

Every workload is pinned to the acceptance-gate inputs (base seed 0 unless
``--base-seed`` says otherwise).  Study time on these inputs is dominated by
single instances (the sweep's p = 0.13 probe is about two thirds of it), so
a workload whose instances changed with the run seed would spread study time
far beyond any useful regression bound.  The run seed therefore only fixes
the order in which independent instances run where the benchmark drives the
loop itself (concise-p02); the library studies visit their instances in
their own fixed order.

The library functions are looked up through their modules at call time, so
the tracer's wrappers see every call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable

import pegplan.bench as bench
import pegplan.explain as explain
from pegplan import Model, PerturbSpec

ROVER = Path(__file__).resolve().parent.parent / "benchmarks" / "rover"

SWEEP_GRID = tuple(float(Fraction("0.06") + i * Fraction("0.01")) for i in range(9))


@dataclass
class Explanation:
    """One explanation a workload produced, with what the output checks need.

    ``robot``, ``human`` and ``changes`` are set when the explanation's trace
    is available (always on concise-p02; on the library studies only when a
    traced pass captured it).
    """

    label: str
    mode: str  # "progressive" | "concise"
    call_s: float = 0.0
    error: str = ""
    size: int = 0
    sum_rho_p2: int = 0
    robot: Model | None = None
    human: Model | None = None
    changes: tuple = ()
    complete: bool = False


@dataclass(frozen=True)
class Instance:
    label: str
    spec: PerturbSpec


@dataclass(frozen=True)
class Workload:
    name: str
    problem_file: str
    modes: tuple[str, ...]  # the explanations made per instance, in call order
    instances: Callable[[int], list[Instance]]
    study: Callable[[Model, int, int], list[Explanation]]  # robot, base seed, run seed

    def failed(self, base_seed: int, error: str) -> list[Explanation]:
        """Every explanation of the workload, marked as failed with ``error``."""
        return [
            Explanation(inst.label, mode, error=error)
            for inst in self.instances(base_seed)
            for mode in self.modes
        ]


def _failure(record) -> str:
    return (record.failure or "failed") if record.failed else ""


def _sweep_instances(base_seed: int) -> list[Instance]:
    return [
        Instance(f"p={p:.2f}", PerturbSpec(p, base_seed + i))
        for i, p in enumerate(SWEEP_GRID)
    ]


def _sweep_study(robot: Model, base_seed: int, run_seed: int) -> list[Explanation]:
    report = bench.sweep_missing_prob(robot, p_lo=0.06, p_hi=0.14, p_step=0.01, seed=base_seed)
    bench.emit_csv(report)
    return [
        Explanation(
            f"p={r.missing_prob:.2f}", "progressive", r.wall_time, _failure(r),
            r.size, r.sum_rho,
        )
        for r in report.records
    ]


def _bench_instances(base_seed: int) -> list[Instance]:
    return [Instance(f"run={i}", PerturbSpec(0.1, base_seed + i)) for i in range(10)]


def _bench_study(robot: Model, base_seed: int, run_seed: int) -> list[Explanation]:
    report = bench.run_comparison(robot, spec=PerturbSpec(0.1, base_seed), runs=10)
    bench.emit_csv(report)
    out = []
    for r in report.records:
        label = f"run={r.run_index}"
        out.append(Explanation(
            label, "progressive", r.peg_wall_time, _failure(r), r.peg_size, r.peg_sum_rho_p2,
        ))
        out.append(Explanation(
            label, "concise", r.concise_wall_time, _failure(r), r.concise_size,
            r.concise_sum_rho_p2,
        ))
    return out


def _concise_instances(base_seed: int) -> list[Instance]:
    return [Instance(f"seed={i}", PerturbSpec(0.2, base_seed + i)) for i in range(10)]


def _concise_study(robot: Model, base_seed: int, run_seed: int) -> list[Explanation]:
    instances = _concise_instances(base_seed)
    random.Random(run_seed).shuffle(instances)
    out = []
    for inst in instances:
        try:
            human, _, _ = bench.perturb_model(robot, inst.spec)
            problem = explain.ReconciliationProblem(robot, human)
            start = perf_counter()
            trace = explain.generate_concise(problem)
            call_s = perf_counter() - start
            bench.emit_json(trace)
        except Exception as exc:  # one failed instance must not end the study
            out.append(Explanation(inst.label, "concise", error=repr(exc)))
            continue
        out.append(Explanation(
            inst.label, "concise", call_s, "", trace.size, trace.sum_rho,
            problem.robot, problem.human, trace.changes, trace.complete,
        ))
    return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep-p01", "p01.pddl", ("progressive",), _sweep_instances, _sweep_study),
        Workload(
            "bench-p01", "p01.pddl", ("progressive", "concise"), _bench_instances, _bench_study,
        ),
        Workload("concise-p02", "p02.pddl", ("concise",), _concise_instances, _concise_study),
    )
}
