"""Time one workload's set-up in a fresh interpreter.

Set-up is everything before the first search can start: ``import pegplan``,
parsing and grounding the PDDL, and, for every instance of the workload,
``perturb_model`` and ``ReconciliationProblem`` construction (which solves
the robot plan).  Only the library calls are timed.  Prints one JSON object
with the total and its parts.

    python3 perfbench/setup_probe.py <workload> <base seed>
"""

import json
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

start = perf_counter()
import pegplan  # noqa: E402

parts = {"import_s": perf_counter() - start}

from workloads import ROVER, WORKLOADS  # noqa: E402


def timed(name, fn, *args):
    start = perf_counter()
    result = fn(*args)
    parts[name] = parts.get(name, 0.0) + perf_counter() - start
    return result


def main() -> None:
    workload = WORKLOADS[sys.argv[1]]
    base_seed = int(sys.argv[2])
    domain_text = (ROVER / "domain.pddl").read_text()
    problem_text = (ROVER / workload.problem_file).read_text()
    domain = timed("parse_s", pegplan.parse_domain, domain_text)
    problem = timed("parse_s", pegplan.parse_problem, problem_text)
    robot = timed("ground_s", pegplan.ground, domain, problem)
    for inst in workload.instances(base_seed):
        human, _, _ = timed("perturb_s", pegplan.perturb_model, robot, inst.spec)
        timed("problem_init_s", pegplan.ReconciliationProblem, robot, human)
    print(json.dumps({"setup_s": sum(parts.values()), **parts}))


if __name__ == "__main__":
    main()
