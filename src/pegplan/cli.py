"""Command-line interface.

Subcommands: ``plan`` (canonical optimal plan), ``explain`` (concise or
progressive explanation), ``validate`` (check a change list against a
problem), ``bench`` (progressive-vs-concise perturbation study), and
``sweep`` (missing-probability sweep).  Data goes to stdout or ``--out``;
diagnostics go to stderr.  Exit codes: 0 success, 1 domain errors
(unsolvable or invalid inputs), 2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable

from .bench import (
    DEFAULT_ELIGIBLE_KINDS,
    PerturbSpec,
    Report,
    emit_csv,
    emit_json,
    run_comparison,
    sweep_missing_prob,
)
from .explain import (
    DEFAULT_EPSILON,
    ExplanationTrace,
    ReconciliationError,
    ReconciliationProblem,
    generate_concise,
    generate_progressive,
    is_complete,
    is_explanation,
)
from .metrics import MetricKind
from .model import FeatureKind, Model, ModelError, _unsigned, parse_change
from .pddl import GroundingError, ParseError, ground, parse_domain, parse_fixture, parse_problem
from .planner import PlanningError, optimal_plan

__all__ = ["dispatch", "main"]


class _CliError(Exception):
    """Domain-level failure: message printed to stderr, exit code 1."""


# Most digits --epsilon may give its numerator or its denominator.  Fraction
# computes 10 ** exponent while parsing, so a short text such as 1e100000000
# would hang it, and the JSON output prints both in decimal, which Python
# refuses past 4,300 digits.
_EPSILON_DIGITS = 1000


def _epsilon(args) -> Fraction:
    mantissa, _, exponent = args.epsilon.lower().partition("e")
    try:
        # the mantissa's digits plus the exponent bound both parts' digits
        if sum(c.isdigit() for c in mantissa) + abs(int(exponent or 0)) > _EPSILON_DIGITS:
            raise ValueError
        value = Fraction(args.epsilon)
    except (ValueError, ZeroDivisionError):
        raise _CliError(
            f"--epsilon must be an exact rational such as 1/1000 with at most "
            f"{_EPSILON_DIGITS} digits, got {args.epsilon!r}"
        ) from None
    if value < 0:
        raise _CliError(f"--epsilon must be non-negative, got {args.epsilon!r}")
    return value


# Most digits --seed may have.  The reports print every run's seed, which
# Python refuses past 4,300 digits, so a longer seed would fail only after
# the whole study had run.
_SEED_DIGITS = 1000


def _integer(text: str) -> int:
    value = _unsigned(text.removeprefix("-"))
    if value is None:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    return -value if text.startswith("-") else value


def _seed(text: str) -> int:
    """argparse type for seeds of at most :data:`_SEED_DIGITS` digits."""
    digits = sum(c.isdigit() for c in text)
    if digits > _SEED_DIGITS:
        raise argparse.ArgumentTypeError(
            f"expected at most {_SEED_DIGITS} digits, got {digits}"
        )
    return _integer(text)


def _int_at_least(lowest: int) -> Callable[[str], int]:
    """argparse type for integers no smaller than ``lowest``."""

    def parse(text: str) -> int:
        value = _integer(text)
        if value < lowest:
            raise argparse.ArgumentTypeError(f"must be at least {lowest}, got {value}")
        return value

    return parse


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise _CliError(str(exc)) from None


def _load_models(args, human: bool) -> list[Model]:
    """The robot model, then with ``human`` the human model, read from
    ``--fixture`` or from each role's PDDL domain and problem files.  A
    fixture of one model gives the robot model whatever its name."""
    roles = ("robot", "human") if human else ("robot",)
    if args.fixture:
        models = parse_fixture(_read_text(args.fixture))
        if all(role in models for role in roles):
            return [models[role] for role in roles]
        if human:
            raise _CliError(f"fixture {args.fixture} must define models named 'robot' and 'human'")
        if len(models) == 1:
            return list(models.values())
        found = ", ".join(sorted(models))
        raise _CliError(f"fixture {args.fixture} defines no 'robot' model (found: {found})")
    files = [(getattr(args, f"{role}_domain"), getattr(args, f"{role}_problem")) for role in roles]
    if all(domain and problem for domain, problem in files):
        return [
            ground(parse_domain(_read_text(domain)), parse_problem(_read_text(problem)))
            for domain, problem in files
        ]
    if human:
        raise _CliError(
            "expected --fixture or all of --robot-domain, --robot-problem, "
            "--human-domain, --human-problem"
        )
    raise _CliError("expected --fixture or both --robot-domain and --robot-problem")


def _read_plan_file(path: str) -> tuple[str, ...]:
    actions = []
    for raw in _read_text(path).splitlines():
        # the model readers lowercase every identifier too
        line = raw.split(";", 1)[0].strip().lower()
        if not line:
            continue
        if not (line.startswith("(") and line.endswith(")")):
            raise _CliError(f"malformed plan line {raw!r}: expected (name arg1 arg2)")
        actions.append("-".join(line[1:-1].split()))
    return tuple(actions)


def _write_output(args, text: str) -> None:
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            raise _CliError(str(exc)) from None
    else:
        sys.stdout.write(text)


def _trace_text(trace: ExplanationTrace) -> str:
    lines = [
        f"mode: {trace.mode}",
        f"metric: {trace.metric.value} (variant: {trace.variant})",
        f"size: {trace.size}",
        f"sum_rho: {trace.sum_rho}",
        f"complete: {str(trace.complete).lower()}",
    ]
    for step in trace.steps:
        edit = "" if step.change is None else f" {step.change.render()} ->"
        rho = "" if step.change is None else f", rho = {step.rho}"
        unsolvable = "" if step.solvable else " (unsolvable)"
        lines.append(f"step {step.index}:{edit} cost* = {step.cost_star}{unsolvable}{rho}")
    lines.append(
        f"search: {trace.expansions} expansions, {trace.generated} generated, "
        f"{trace.planner_calls} planner calls"
    )
    return "\n".join(lines) + "\n"


def _output(args, obj: ExplanationTrace | Report) -> None:
    """Write a trace or a study's report in ``args.format``."""
    emit = {"json": emit_json, "csv": emit_csv, "text": _trace_text}[args.format]
    _write_output(args, emit(obj))


def _cmd_plan(args) -> int:
    (model,) = _load_models(args, human=False)
    result = optimal_plan(model, node_budget=args.node_budget)
    print(f"expansions = {result.expansions}\ngenerated = {result.generated}", file=sys.stderr)
    if not result.solvable:
        raise _CliError("the model is unsolvable")
    actions, cost = result.plan
    if args.format == "json":
        payload = {"actions": list(actions), "cost": cost,
                   "expansions": result.expansions, "generated": result.generated}
        _write_output(args, json.dumps(payload, indent=2) + "\n")
    else:
        _write_output(args, "".join(f"({name})\n" for name in actions) + f"; cost = {cost}\n")
    return 0


def _build_problem(args) -> ReconciliationProblem:
    robot, human = _load_models(args, human=True)
    plan = _read_plan_file(args.plan) if args.plan else None
    return ReconciliationProblem(robot, human, robot_plan=plan, node_budget=args.node_budget)


def _cmd_explain(args) -> int:
    epsilon = _epsilon(args)
    problem = _build_problem(args)
    metric = MetricKind(args.metric)
    if args.mode == "concise":
        trace = generate_concise(problem, metric=metric)
    else:
        trace = generate_progressive(problem, metric=metric, variant=args.variant, epsilon=epsilon)
    _output(args, trace)
    return 0


def _read_changes(path: str):
    text = sys.stdin.read() if path == "-" else _read_text(path)
    if text.lstrip().startswith("{"):
        try:
            payload = json.loads(text)
        except RecursionError:
            raise _CliError(f"{path}: JSON nested too deeply") from None
        raw = payload.get("changes", []) if isinstance(payload, dict) else None
        if not isinstance(raw, list):
            raise _CliError(f"{path}: 'changes' must be a list")
        changes = []
        for i, c in enumerate(raw):
            keys = ("direction", "feature")
            if not (isinstance(c, dict) and all(isinstance(c.get(key), str) for key in keys)):
                raise _CliError(f"{path}: change {i} needs string 'direction' and 'feature' fields")
            changes.append(parse_change(f"{c['direction']} {c['feature']}"))
        return changes
    changes = []
    for raw_line in text.splitlines():
        line = raw_line.split("#", 1)[0].strip()
        if line:
            changes.append(parse_change(line))
    return changes


def _cmd_validate(args) -> int:
    problem = _build_problem(args)
    changes = _read_changes(args.changes)
    explanation = is_explanation(problem, changes)
    complete = is_complete(problem, changes)
    payload = {"changes": len(changes), "explanation": explanation, "complete": complete}
    _write_output(args, json.dumps(payload, indent=2) + "\n")
    if not complete:
        print("the change list is not a complete explanation", file=sys.stderr)
        return 1
    return 0


def _eligible_kinds(args) -> frozenset:
    if not args.eligible_kinds:
        return DEFAULT_ELIGIBLE_KINDS
    kinds = set()
    for name in args.eligible_kinds.split(","):
        try:
            kinds.add(FeatureKind(name.strip()))
        except ValueError:
            raise _CliError(f"unknown feature kind {name.strip()!r}") from None
    return frozenset(kinds)


def _cmd_study(args) -> int:
    """``bench`` (:func:`run_comparison`) or ``sweep`` (:func:`sweep_missing_prob`)."""
    epsilon = _epsilon(args)
    (robot,) = _load_models(args, human=False)
    kinds = _eligible_kinds(args)
    if args.command == "bench":
        study = run_comparison
        grid = dict(spec=PerturbSpec(args.missing_prob, args.seed, kinds), runs=args.runs)
    else:
        study = sweep_missing_prob
        grid = dict(
            p_lo=args.p_lo, p_hi=args.p_hi, p_step=args.p_step, seed=args.seed, eligible_kinds=kinds
        )
    report = study(robot, metric=MetricKind(args.metric), variant=args.variant,
                   epsilon=epsilon, node_budget=args.node_budget, **grid)
    _output(args, report)
    return 0


def _add_model_inputs(parser: argparse.ArgumentParser, human: bool = True) -> None:
    parser.add_argument("--robot-domain", help="robot PDDL domain file")
    parser.add_argument("--robot-problem", help="robot PDDL problem file")
    if human:
        parser.add_argument("--human-domain", help="human PDDL domain file")
        parser.add_argument("--human-problem", help="human PDDL problem file")
    parser.add_argument("--fixture", help="native fixture file (robot/human models)")


def _add_common(parser: argparse.ArgumentParser, formats: tuple[str, ...]) -> None:
    parser.add_argument("--node-budget", type=_int_at_least(0), default=None,
                        help="search-node budget (default: unlimited)")
    parser.add_argument("--out", help="write output to this file instead of stdout")
    parser.add_argument("--format", choices=formats, default=formats[0])


def _add_metric_opts(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--metric", choices=["p1", "p2", "p3", "p4"], default="p2")
    parser.add_argument("--variant", choices=["paper", "safe"], default="safe",
                        help="heuristic variant for the progressive search")
    parser.add_argument("--epsilon", default=str(DEFAULT_EPSILON),
                        help="per-change tie-break tax (exact rational, e.g. 1/1000)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pegplan",
        description="Progressive explanations for plan-model reconciliation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_plan = sub.add_parser("plan", help="canonical optimal plan of a model")
    _add_model_inputs(p_plan, human=False)
    _add_common(p_plan, ("text", "json"))
    p_plan.set_defaults(func=_cmd_plan)

    p_explain = sub.add_parser("explain", help="explain the robot plan to the human model")
    _add_model_inputs(p_explain)
    p_explain.add_argument("--plan", help="plan file overriding the robot optimum")
    p_explain.add_argument("--mode", choices=["concise", "peg"], default="peg")
    _add_metric_opts(p_explain)
    _add_common(p_explain, ("json", "text", "csv"))
    p_explain.set_defaults(func=_cmd_explain)

    p_validate = sub.add_parser("validate", help="check a change list against a problem")
    p_validate.add_argument("changes", help="change list file, explain JSON, or - for stdin")
    _add_model_inputs(p_validate)
    p_validate.add_argument("--plan", help="plan file overriding the robot optimum")
    _add_common(p_validate, ("json",))
    p_validate.set_defaults(func=_cmd_validate)

    # Each study's own flags: (flag, type, default).
    studies = {
        "bench": ("progressive-vs-concise perturbation study",
                  [("--missing-prob", float, 0.1), ("--runs", _int_at_least(1), 10)]),
        "sweep": ("missing-probability sweep",
                  [("--p-lo", float, 0.06), ("--p-hi", float, 0.14), ("--p-step", float, 0.01)]),
    }
    for command, (help_text, own_flags) in studies.items():
        p_study = sub.add_parser(command, help=help_text)
        p_study.add_argument("--domain", dest="robot_domain", help="robot PDDL domain file")
        p_study.add_argument("--problem", dest="robot_problem", help="robot PDDL problem file")
        p_study.add_argument("--fixture", help="native fixture file (robot model)")
        for flag, kind, default in own_flags:
            p_study.add_argument(flag, type=kind, default=default)
        p_study.add_argument("--seed", type=_seed, default=0)
        p_study.add_argument("--eligible-kinds", default="",
                             help="comma-separated feature kinds to perturb")
        _add_metric_opts(p_study)
        _add_common(p_study, ("csv", "json"))
        p_study.set_defaults(func=_cmd_study)

    return parser


def dispatch(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        _CliError,
        ParseError,
        GroundingError,
        ModelError,
        PlanningError,
        ReconciliationError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
