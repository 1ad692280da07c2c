"""pegplan benchmark: one explanation workload per run, untraced or traced.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-p01 --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics listed in BENCHMARK.json with
no wrapper installed: it times set-up in fresh interpreters, then repeats
the workload's study until ``--seconds`` are used and reports medians.
``--trace 1`` runs the study once untraced and then (time allowing) twice
traced, and reports the per-layer metrics, the tracing overhead, and whether
the work counters repeat exactly.

Every explanation is checked (see checks.py); the last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The full record of the run (tags, every metric, per-explanation checks,
traced spans) is written once, at the end, to perfbench/results/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if not (SRC / "pegplan" / "__init__.py").is_file():
    sys.exit(f"pegplan sources not found under {SRC}: run from a checkout of the repository")
sys.path.insert(0, str(SRC))

import pegplan.pddl as pddl  # noqa: E402

from checks import attach, check, key  # noqa: E402
from tracer import Tracer, installed_wrappers  # noqa: E402
from workloads import ROVER, WORKLOADS, Explanation, Workload  # noqa: E402

# Set-up probes per run, half before the study passes and half after, so
# that one burst of host load does not decide the median.
SETUP_RUNS = 10
# A traced run skips its second traced pass when it could not end by then.
TRACED_RUN_LIMIT_S = 150.0
# Work counters that must repeat exactly between two traced passes.
DETERMINISTIC = (
    "planner.calls",
    "planner.expansions",
    "explain.expansions",
    "model.apply_change_calls",
)


@dataclass
class Pass:
    study_s: float
    explanations: list[Explanation]


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_ratio", "_coverage")):
        return "ratio"
    return "count"


def require_untraced() -> None:
    wrapped = installed_wrappers()
    if wrapped:
        raise RuntimeError(f"tracing wrappers installed during an untraced pass: {wrapped}")


def run_pass(workload: Workload, base_seed: int, run_seed: int, tracer=None) -> Pass:
    """Parse and ground the robot model, then time the study through its report."""
    domain_text = (ROVER / "domain.pddl").read_text()
    problem_text = (ROVER / workload.problem_file).read_text()
    gc.collect()  # start every pass without the previous pass's garbage
    span = tracer.open("workload") if tracer else None
    robot = pddl.ground(pddl.parse_domain(domain_text), pddl.parse_problem(problem_text))
    start = perf_counter()
    try:
        explanations = workload.study(robot, base_seed, run_seed)
    except Exception as exc:  # the run still reports, with every explanation failed
        explanations = workload.failed(base_seed, repr(exc))
    study_s = perf_counter() - start
    if tracer:
        tracer.close_instance()
        tracer.close(span)
    return Pass(study_s, explanations)


def measure_setup(workload: Workload, base_seed: int, runs: int) -> list[dict]:
    samples = []
    for _ in range(runs):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload.name, str(base_seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(json.loads(out.stdout.splitlines()[-1]))
    return samples


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except OSError:
        return "unknown (git not available)"
    lines = out.stdout.splitlines()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def tags() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


def end_to_end(workload, args) -> tuple[dict, list[Pass], dict]:
    setup = measure_setup(workload, args.base_seed, SETUP_RUNS // 2)
    passes = []
    start = perf_counter()
    while True:
        require_untraced()
        begun = perf_counter()
        passes.append(run_pass(workload, args.base_seed, args.seed))
        require_untraced()
        took = perf_counter() - begun
        if perf_counter() - start + took > args.seconds:
            break
    setup += measure_setup(workload, args.base_seed, SETUP_RUNS - SETUP_RUNS // 2)
    calls: dict[str, list[float]] = {}
    for p in passes:
        for e in p.explanations:
            if not e.error:
                calls.setdefault(key(e), []).append(e.call_s)
    per_instance = [statistics.median(c) for c in calls.values()]
    values = {
        "study_s": statistics.median(p.study_s for p in passes),
        "explain_p50_s": statistics.median(per_instance) if per_instance else None,
        "setup_s": statistics.median(s["setup_s"] for s in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {
        "passes": len(passes),
        "study_s_samples": [p.study_s for p in passes],
        "explain_samples": sum(len(c) for c in calls.values()),
        "setup_samples": setup,
    }
    return values, passes, extra


def traced(workload, args) -> tuple[dict, list[Pass], dict]:
    start = perf_counter()
    require_untraced()
    untraced = run_pass(workload, args.base_seed, args.seed)
    require_untraced()
    passes, layers, spans, notes = [], [], [], []
    for _ in range(2):
        if passes and perf_counter() - start + passes[-1].study_s > TRACED_RUN_LIMIT_S:
            notes.append("second traced pass skipped: it would not end in time")
            break
        tracer = Tracer()
        with tracer:
            p = run_pass(workload, args.base_seed, args.seed, tracer)
        note = attach(p.explanations, tracer.searches)
        if note:
            notes.append(note)
        passes.append(p)
        layer = tracer.layer_metrics()
        layer["trace.study_s"] = p.study_s
        layers.append(layer)
        spans.append(tracer.span_records())
        if tracer.missing:
            notes.append(f"entry points missing: {tracer.missing}")
    values = dict(layers[0])
    for name, value in values.items():
        if name.endswith("_s") and value is not None:
            values[name] = statistics.median(layer[name] for layer in layers)
    values["trace.overhead_s"] = values["trace.study_s"] - untraced.study_s
    deterministic = None
    if len(layers) == 2:
        deterministic = all(layers[0][k] == layers[1][k] for k in DETERMINISTIC)
    extra = {
        "untraced_study_s": untraced.study_s,
        "trace.overhead_ratio": values["trace.overhead_s"] / untraced.study_s,
        "counters_repeat": deterministic,
        "counters": [{k: layer[k] for k in DETERMINISTIC} for layer in layers],
        "notes": notes,
        "spans": spans,
    }
    return values, [untraced] + passes, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="run seed: orders the instances the benchmark loops over")
    parser.add_argument("--seconds", type=int, default=20,
                        help="untraced measuring time; at least one study always runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--base-seed", type=int, default=0,
                        help="perturbation base seed; 0 gives the acceptance-gate inputs")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    recorded = json.loads((HERE / "goldens.json").read_text())
    golden = None
    if args.base_seed == recorded["base_seed"]:
        golden = recorded["workloads"].get(args.workload)
    workload = WORKLOADS[args.workload]

    if args.trace:
        values, passes, extra = traced(workload, args)
        wanted = spec["per_layer"]
    else:
        values, passes, extra = end_to_end(workload, args)
        wanted = spec["end_to_end"]

    failures = [check(p.explanations, golden["explanations"] if golden else None)
                for p in passes]
    attempted = sum(len(f) for f in failures)
    failed = sum(1 for f in failures for problems in f.values() if problems)
    values["failed_ratio"] = failed / attempted
    correct = failed == 0 and extra.get("counters_repeat") is not False
    if golden and args.trace:
        first = extra["counters"][0]
        extra["counters_match_recorded"] = first == golden["counters"]

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "base_seed": args.base_seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "tags": tags(),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "values": values,
        **extra,
        "checks": [
            {
                "pass": i,
                "explanations": [
                    {"key": key(e), "size": e.size, "sum_rho_p2": e.sum_rho_p2,
                     "call_s": e.call_s, "failures": f.get(key(e), [])}
                    for e in p.explanations
                ],
            }
            for i, (p, f) in enumerate(zip(passes, failures))
        ],
    }
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{workload.name}.seed{args.seed}.trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")

    for name, value in record["tags"].items():
        print(f"# {name}: {value}")
    samples = {"explain_p50_s": extra.get("explain_samples"),
               "explain.call_p50_s": values.get("explain.calls")}
    for name, value in values.items():
        shown = "absent" if value is None else f"{value:.6g} {unit_of(name)}"
        if samples.get(name):
            shown += f" over {samples[name]} calls"
        print(f"{workload.name} {name} = {shown}")
    for name in ("passes", "trace.overhead_ratio", "counters_repeat",
                 "counters_match_recorded", "notes"):
        if name in extra:
            print(f"{workload.name} {name} = {extra[name]}")
    for f in failures:
        for k, problems in f.items():
            if problems:
                print(f"{workload.name} FAILED {k}: {'; '.join(problems)}")
    print(f"# full record: {out_file.relative_to(ROOT)}")

    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in wanted
        if values.get(m["name"]) is not None
    }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
