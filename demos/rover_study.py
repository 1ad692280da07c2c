"""Seeded perturbation study on the small rover benchmark.

Hides each eligible robot-model feature from the simulated human with
probability 0.1, then compares progressive and concise explanations
over a handful of runs.  Prints the per-run table as CSV.

Run:  python3 demos/rover_study.py            (about a second)
"""

from pathlib import Path

from pegplan import (
    PerturbSpec,
    emit_csv,
    ground,
    parse_domain,
    parse_problem,
    run_comparison,
)

ROVER = Path(__file__).resolve().parent.parent / "benchmarks" / "rover"


def main() -> None:
    domain = parse_domain((ROVER / "domain.pddl").read_text())
    problem = parse_problem((ROVER / "p01.pddl").read_text())
    model = ground(domain, problem)
    print(f"ground model: {len(model.actions)} actions, {len(model.facts)} facts")

    report = run_comparison(model, spec=PerturbSpec(0.1, seed=0), runs=5)
    print(emit_csv(report))

    avg = report.averages
    print(f"average sizes: progressive {avg['peg_size']:.1f} vs "
          f"concise {avg['concise_size']:.1f}")
    print(f"average squared-gap effort: progressive {avg['peg_sum_rho_p2']:.1f} vs "
          f"concise {avg['concise_sum_rho_p2']:.1f}")


if __name__ == "__main__":
    main()
