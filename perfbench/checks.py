"""Output checks on the explanations a workload produced.

Goldens hold only tie-break-invariant values recorded at the commit that
defined the benchmark: the progressive p2 effort and size (the optimum of
Σρ + ε·size is unique in both parts because ε·size < 1) and the concise
size (the minimum cardinality).  A different canonical plan or a different
choice among equally good explanations must not trip them.
"""

from __future__ import annotations

import pegplan.explain as explain
from tracer import SearchCall
from workloads import Explanation


def key(expl: Explanation) -> str:
    return f"{expl.label} {expl.mode}"


def attach(explanations: list[Explanation], searches: list[SearchCall]) -> str:
    """Fill in the traces a traced pass captured, pairing them in call order.

    Returns a note when the pairing is impossible (the study no longer calls
    the wrapped search functions one by one); the full checks then cover only
    the explanations that already carry their trace.
    """
    if len(searches) != len(explanations) or any(
        s.mode != e.mode for s, e in zip(searches, explanations)
    ):
        return f"captured {len(searches)} searches for {len(explanations)} explanations"
    for expl, call in zip(explanations, searches):
        if call.trace is None:
            continue
        expl.robot, expl.human = call.robot, call.human
        expl.changes, expl.complete = call.trace.changes, call.trace.complete
        if call.trace.size != expl.size:
            expl.error = expl.error or f"traced size {call.trace.size} != reported {expl.size}"
    return ""


def check(explanations: list[Explanation], goldens: dict | None) -> dict[str, list[str]]:
    """Failed checks per explanation key; an empty list means it passed."""
    failures = {key(e): [e.error] if e.error else [] for e in explanations}
    by_key = {key(e): e for e in explanations}

    for expl in explanations:
        if expl.error or expl.robot is None:
            continue
        problem = explain.ReconciliationProblem(expl.robot, expl.human)
        if not expl.complete or not explain.is_complete(problem, expl.changes):
            failures[key(expl)].append("not complete")
        if not set(expl.changes) <= problem.pool:
            failures[key(expl)].append("change outside problem.pool")

    for expl in explanations:
        if expl.mode != "concise" or expl.error:
            continue
        peg = by_key.get(f"{expl.label} progressive")
        if peg is None or peg.error:
            continue
        if peg.sum_rho_p2 > expl.sum_rho_p2:
            failures[key(expl)].append("progressive p2 effort above concise")
        if expl.size > peg.size:
            failures[key(expl)].append("concise larger than progressive")

    if goldens is not None:
        for k, want in goldens.items():
            expl = by_key.get(k)
            if expl is None:
                failures.setdefault(k, []).append("missing")
                continue
            got = {"size": expl.size, "sum_rho_p2": expl.sum_rho_p2}
            for field, value in want.items():
                if not expl.error and got[field] != value:
                    failures[k].append(f"{field} {got[field]} != golden {value}")
    return failures
