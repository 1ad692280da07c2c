"""Reading planning models.

Two input dialects are supported: a small typed-STRIPS slice of PDDL
(``:strips``, flat ``:typing``, ``:action-costs`` with constant increases of
``total-cost``), and a line-oriented fixture format for hand-written ground
models with optional conditional costs.  Both produce :class:`~pegplan.model.Model`
values.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from .model import _NO_FACTS, Fact, GroundAction, Model, ModelError, parse_fact

__all__ = [
    "ParseError",
    "GroundingError",
    "DomainAst",
    "ProblemAst",
    "ActionSchema",
    "PredicateDecl",
    "LiftedAtom",
    "parse_domain",
    "parse_problem",
    "ground",
    "parse_fixture",
    "load_fixture",
]

_SUPPORTED_REQUIREMENTS = {":strips", ":typing", ":action-costs"}


class ParseError(Exception):
    """Syntax or unsupported-construct error, with source position."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"line {line}, column {col}: {message}"
        super().__init__(message)


class GroundingError(Exception):
    """Domain/problem combination cannot be turned into a ground model."""


# ---------------------------------------------------------------------------
# S-expression layer


class _Token(NamedTuple):
    text: str
    line: int
    col: int


def _tokenize(text: str) -> Iterator[_Token]:
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == ";":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            col += 1
            i += 1
            continue
        if ch in "()":
            yield _Token(ch, line, col)
            col += 1
            i += 1
            continue
        start = i
        start_col = col
        while i < n and text[i] not in " \t\r\n();":
            i += 1
            col += 1
        # Interned: the models read in one process share one string per
        # identifier, however often their text is parsed.
        yield _Token(sys.intern(text[start:i].lower()), line, start_col)


class _Sexp:
    """Parenthesized tree with positions kept for error messages."""

    __slots__ = ("items", "atom", "line", "col")

    def __init__(self, items=None, atom=None, line=0, col=0):
        self.items = items
        self.atom = atom
        self.line = line
        self.col = col

    @property
    def is_atom(self) -> bool:
        return self.atom is not None

    def __iter__(self):
        return iter(self.items or ())

    def __len__(self):
        return len(self.items or ())

    def __getitem__(self, idx):
        return self.items[idx]


def _parse_sexp(text: str) -> _Sexp:
    """Parse exactly one top-level form.

    Iterative, with an explicit stack of open lists, so nesting depth is
    bounded by memory rather than by Python's recursion limit.
    """
    tokens = list(_tokenize(text))
    stack: list[tuple[_Token, list[_Sexp]]] = []  # open lists, innermost last
    for pos, tok in enumerate(tokens):
        if tok.text == "(":
            stack.append((tok, []))
            continue
        if tok.text == ")":
            if not stack:
                raise ParseError("unmatched ')'", tok.line, tok.col)
            opener, items = stack.pop()
            sexp = _Sexp(items=items, line=opener.line, col=opener.col)
        else:
            sexp = _Sexp(atom=tok.text, line=tok.line, col=tok.col)
        if stack:
            stack[-1][1].append(sexp)
            continue
        if pos + 1 < len(tokens):
            extra = tokens[pos + 1]
            raise ParseError("trailing content after top-level form", extra.line, extra.col)
        return sexp
    if stack:
        opener = stack[-1][0]
        raise ParseError("unbalanced parentheses", opener.line, opener.col)
    raise ParseError("unexpected end of input: unbalanced parentheses")


def _head(sexp: _Sexp) -> str:
    if sexp.is_atom or len(sexp) == 0 or not sexp[0].is_atom:
        raise ParseError("expected a named form", sexp.line, sexp.col)
    return sexp[0].atom


def _parse_typed_list(items: list[_Sexp], what: str) -> list[tuple[str, str]]:
    """Parse ``a b - t c - s`` into (name, type) pairs; untyped means object."""
    pairs: list[tuple[str, str]] = []
    pending: list[_Sexp] = []
    i = 0
    while i < len(items):
        item = items[i]
        if not item.is_atom:
            raise ParseError(f"expected a name in {what} list", item.line, item.col)
        if item.atom == "-":
            if i + 1 >= len(items) or not items[i + 1].is_atom:
                raise ParseError(f"missing type after '-' in {what} list", item.line, item.col)
            tname = items[i + 1].atom
            for p in pending:
                pairs.append((p.atom, tname))
            pending = []
            i += 2
            continue
        pending.append(item)
        i += 1
    for p in pending:
        pairs.append((p.atom, "object"))
    return pairs


# ---------------------------------------------------------------------------
# Domain / problem ASTs


class LiftedAtom(NamedTuple):
    name: str
    args: tuple[str, ...]


class PredicateDecl(NamedTuple):
    name: str
    params: tuple[tuple[str, str], ...]


class ActionSchema(NamedTuple):
    name: str
    params: tuple[tuple[str, str], ...]
    preconditions: tuple[LiftedAtom, ...]
    add_effects: tuple[LiftedAtom, ...]
    delete_effects: tuple[LiftedAtom, ...]
    cost: int | None = None


class DomainAst(NamedTuple):
    name: str
    requirements: tuple[str, ...]
    types: tuple[str, ...]
    predicates: tuple[PredicateDecl, ...]
    actions: tuple[ActionSchema, ...]
    has_total_cost: bool = False


class ProblemAst(NamedTuple):
    name: str
    domain: str
    objects: tuple[tuple[str, str], ...]
    init: tuple[LiftedAtom, ...]
    goal: tuple[LiftedAtom, ...]
    minimize_total_cost: bool = False


def _parse_atom(sexp: _Sexp) -> LiftedAtom:
    if sexp.is_atom:
        raise ParseError("expected an atom in parentheses", sexp.line, sexp.col)
    parts = []
    for item in sexp:
        if not item.is_atom:
            raise ParseError("nested form where an atom was expected", item.line, item.col)
        parts.append(item.atom)
    if not parts:
        raise ParseError("empty atom", sexp.line, sexp.col)
    return LiftedAtom(parts[0], tuple(parts[1:]))


def _parse_conjunction(sexp: _Sexp) -> list[_Sexp]:
    """Unwrap ``(and ...)`` or treat a single form as a one-element conjunction."""
    if not sexp.is_atom and len(sexp) > 0 and sexp[0].is_atom and sexp[0].atom == "and":
        return list(sexp)[1:]
    if not sexp.is_atom and len(sexp) == 0:
        return []
    return [sexp]


def _parse_action(sexp: _Sexp) -> ActionSchema:
    items = list(sexp)
    if len(items) < 2 or not items[1].is_atom:
        raise ParseError("expected action name", sexp.line, sexp.col)
    name = items[1].atom
    params: tuple[tuple[str, str], ...] = ()
    pre: list[LiftedAtom] = []
    add: list[LiftedAtom] = []
    dele: list[LiftedAtom] = []
    cost: int | None = None
    i = 2
    while i < len(items):
        key = items[i]
        if not key.is_atom or not key.atom.startswith(":"):
            raise ParseError("expected :parameters/:precondition/:effect", key.line, key.col)
        if i + 1 >= len(items):
            raise ParseError(f"missing value after {key.atom}", key.line, key.col)
        value = items[i + 1]
        if key.atom == ":parameters":
            params = tuple(_parse_typed_list(list(value), "parameter"))
        elif key.atom == ":precondition":
            for part in _parse_conjunction(value):
                if not part.is_atom and len(part) > 0 and part[0].is_atom and part[0].atom == "not":
                    raise ParseError(
                        f"negative preconditions are not supported (action {name})",
                        part.line,
                        part.col,
                    )
                pre.append(_parse_atom(part))
        elif key.atom == ":effect":
            for part in _parse_conjunction(value):
                if part.is_atom:
                    raise ParseError("expected effect form", part.line, part.col)
                head = part[0].atom if len(part) > 0 and part[0].is_atom else None
                if head == "not":
                    if len(part) != 2:
                        raise ParseError("malformed (not ...) effect", part.line, part.col)
                    dele.append(_parse_atom(part[1]))
                elif head == "increase":
                    if (
                        len(part) != 3
                        or part[1].is_atom
                        or len(part[1]) != 1
                        or not part[1][0].is_atom
                        or part[1][0].atom != "total-cost"
                    ):
                        raise ParseError(
                            "only (increase (total-cost) <int>) is supported",
                            part.line,
                            part.col,
                        )
                    amount = part[2]
                    if not amount.is_atom or not amount.atom.isdigit():
                        raise ParseError(
                            f"non-constant total-cost increase in action {name}",
                            part.line,
                            part.col,
                        )
                    cost = int(amount.atom)
                else:
                    add.append(_parse_atom(part))
        else:
            raise ParseError(f"unsupported action section {key.atom}", key.line, key.col)
        i += 2
    return ActionSchema(name, params, tuple(pre), tuple(add), tuple(dele), cost)


def parse_domain(text: str) -> DomainAst:
    """Parse a typed-STRIPS domain with optional constant action costs."""
    root = _parse_sexp(text)
    if _head(root) != "define":
        raise ParseError("expected (define (domain ...) ...)", root.line, root.col)
    items = list(root)[1:]
    if not items or _head(items[0]) != "domain" or len(items[0]) != 2 or not items[0][1].is_atom:
        raise ParseError("expected (domain <name>)", root.line, root.col)
    name = items[0][1].atom
    requirements: tuple[str, ...] = ()
    types: tuple[str, ...] = ()
    predicates: list[PredicateDecl] = []
    actions: list[ActionSchema] = []
    has_total_cost = False
    for section in items[1:]:
        head = _head(section)
        if head == ":requirements":
            reqs = []
            for item in list(section)[1:]:
                if not item.is_atom:
                    raise ParseError("malformed requirement", item.line, item.col)
                if item.atom not in _SUPPORTED_REQUIREMENTS:
                    raise ParseError(f"unsupported requirement {item.atom}", item.line, item.col)
                reqs.append(item.atom)
            requirements = tuple(reqs)
        elif head == ":types":
            pairs = _parse_typed_list(list(section)[1:], "type")
            for tname, parent in pairs:
                if parent != "object":
                    raise ParseError(
                        f"type hierarchies are not supported (type {tname} - {parent})",
                        section.line,
                        section.col,
                    )
            types = tuple(t for t, _ in pairs)
        elif head == ":predicates":
            for decl in list(section)[1:]:
                if decl.is_atom or len(decl) == 0 or not decl[0].is_atom:
                    raise ParseError("malformed predicate declaration", decl.line, decl.col)
                params = tuple(_parse_typed_list(list(decl)[1:], "predicate parameter"))
                predicates.append(PredicateDecl(decl[0].atom, params))
        elif head == ":functions":
            for decl in list(section)[1:]:
                if decl.is_atom or len(decl) != 1 or not decl[0].is_atom or decl[0].atom != "total-cost":
                    raise ParseError("only the (total-cost) function is supported", decl.line, decl.col)
                has_total_cost = True
        elif head == ":action":
            actions.append(_parse_action(section))
        else:
            raise ParseError(f"unsupported domain section {head}", section.line, section.col)
    return DomainAst(name, requirements, types, tuple(predicates), tuple(actions), has_total_cost)


def parse_problem(text: str) -> ProblemAst:
    """Parse a problem file matching the supported domain fragment."""
    root = _parse_sexp(text)
    if _head(root) != "define":
        raise ParseError("expected (define (problem ...) ...)", root.line, root.col)
    items = list(root)[1:]
    if not items or _head(items[0]) != "problem" or len(items[0]) != 2 or not items[0][1].is_atom:
        raise ParseError("expected (problem <name>)", root.line, root.col)
    name = items[0][1].atom
    domain = ""
    objects: tuple[tuple[str, str], ...] = ()
    init: list[LiftedAtom] = []
    goal: tuple[LiftedAtom, ...] = ()
    minimize = False
    for section in items[1:]:
        head = _head(section)
        if head == ":domain":
            if len(section) != 2 or not section[1].is_atom:
                raise ParseError("malformed :domain", section.line, section.col)
            domain = section[1].atom
        elif head == ":objects":
            objects = tuple(_parse_typed_list(list(section)[1:], "object"))
        elif head == ":init":
            for item in list(section)[1:]:
                if not item.is_atom and len(item) == 3 and item[0].is_atom and item[0].atom == "=":
                    continue  # tolerate (= (total-cost) 0)
                init.append(_parse_atom(item))
        elif head == ":goal":
            if len(section) != 2:
                raise ParseError("malformed :goal", section.line, section.col)
            goal = tuple(_parse_atom(part) for part in _parse_conjunction(section[1]))
        elif head == ":metric":
            parts = list(section)[1:]
            if (
                len(parts) != 2
                or not parts[0].is_atom
                or parts[0].atom != "minimize"
                or parts[1].is_atom
                or len(parts[1]) != 1
                or parts[1][0].atom != "total-cost"
            ):
                raise ParseError("only (:metric minimize (total-cost)) is supported", section.line, section.col)
            minimize = True
        else:
            raise ParseError(f"unsupported problem section {head}", section.line, section.col)
    if not domain:
        raise ParseError("problem is missing a :domain declaration", root.line, root.col)
    return ProblemAst(name, domain, objects, tuple(init), goal, minimize)


# ---------------------------------------------------------------------------
# Grounding


def _ground_atom(atom: LiftedAtom, binding: dict[str, str], arities: dict[str, int]) -> Fact:
    if atom.name not in arities:
        raise GroundingError(f"unknown predicate {atom.name!r}")
    if len(atom.args) != arities[atom.name]:
        raise GroundingError(
            f"arity mismatch for predicate {atom.name!r}: "
            f"expected {arities[atom.name]} arguments, got {len(atom.args)}"
        )
    args = tuple(binding.get(a, a) for a in atom.args)
    for arg in args:
        if arg.startswith("?"):
            raise GroundingError(f"unbound variable {arg!r} in {atom.name}")
    return Fact(atom.name, args)


# One Fact object per distinct ground atom, across every call of ground().
_FACTS: dict[Fact, Fact] = {}


def ground(domain: DomainAst, problem: ProblemAst) -> Model:
    """Ground a domain/problem pair into a model.

    Grounded action names join the schema name and its arguments with
    hyphens.  An action without ``(increase (total-cost) k)`` costs 1.
    Actions whose preconditions can never hold (by static facts or
    delete-relaxed reachability) are pruned; actions whose delete effects
    overlap their add effects are normalized with the add winning.

    Every model ground in a process shares one object per atom and per
    action name: facts come from one module-level table, and names are
    interned by ``sys.intern``.  Set operations over a model's facts, and
    over every model edited from it, then match facts by identity, and the
    models a study keeps hold one copy of each.  Like ``sys.intern``'s
    table, the fact table grows only with the distinct atoms ground.
    """
    if problem.domain != domain.name:
        raise GroundingError(
            f"problem declares domain {problem.domain!r}, expected {domain.name!r}"
        )
    known_types = set(domain.types) | {"object"}
    by_type: dict[str, list[str]] = {t: [] for t in known_types}
    for obj, tname in problem.objects:
        if tname not in known_types:
            raise GroundingError(f"object {obj!r} has undeclared type {tname!r}")
        by_type[tname].append(obj)
        if tname != "object":
            by_type["object"].append(obj)
    for objs in by_type.values():
        objs.sort()

    arities = {p.name: len(p.params) for p in domain.predicates}

    def atoms(lifted: Iterable[LiftedAtom], binding: dict[str, str]) -> frozenset[Fact]:
        facts = (_ground_atom(a, binding, arities) for a in lifted)
        return frozenset(_FACTS.setdefault(f, f) for f in facts) or _NO_FACTS

    init_facts = atoms(problem.init, {})
    goal_facts = atoms(problem.goal, {})

    dynamic = {a.name for schema in domain.actions for a in schema.add_effects}
    dynamic |= {a.name for schema in domain.actions for a in schema.delete_effects}

    from itertools import product

    candidates: list[GroundAction] = []
    for schema in domain.actions:
        cost = schema.cost if schema.cost is not None else 1
        pools = []
        for var, tname in schema.params:
            if tname not in known_types:
                raise GroundingError(
                    f"parameter {var} of action {schema.name} has undeclared type {tname!r}"
                )
            pools.append(by_type[tname])
        for combo in product(*pools):
            binding = {var: obj for (var, _), obj in zip(schema.params, combo)}
            pre = atoms(schema.preconditions, binding)
            add = atoms(schema.add_effects, binding)
            dele = atoms(schema.delete_effects, binding)
            statics = {f for f in pre if f.name not in dynamic}
            if not statics <= init_facts:
                continue
            dele = dele - add or _NO_FACTS  # add wins when an action both adds and deletes
            name = sys.intern("-".join((schema.name,) + combo))
            candidates.append(GroundAction(name, pre, add, dele, cost))

    # Delete-relaxed reachability: keep only actions that can ever fire.
    reachable = set(init_facts)
    kept: dict[str, GroundAction] = {}
    changed = True
    while changed:
        changed = False
        for act in candidates:
            if act.name in kept:
                continue
            if act.preconditions <= reachable:
                kept[act.name] = act
                new = act.add_effects - reachable
                if new:
                    reachable |= new
                changed = True
    actions = tuple(kept[name] for name in sorted(kept))

    universe = frozenset(reachable) | goal_facts | init_facts
    for act in actions:
        universe |= act.preconditions | act.add_effects | act.delete_effects
    return Model(universe, actions, init_facts, goal_facts)


# ---------------------------------------------------------------------------
# Native fixture format


def _split_fact_line(rest: str, where: str, lineno: int) -> tuple[list[str], list[str]]:
    """Split ``f1 f2 (c1 c2)`` into plain tokens and parenthesized tokens."""
    before, paren, tail = rest.partition("(")
    inner, sep, after = tail.partition(")")
    if paren and (not sep or after.strip()):
        raise ParseError(f"malformed parenthesized group in {where}", lineno, 1)
    return before.split(), inner.split()


def parse_fixture(text: str) -> dict[str, Model]:
    """Parse the line-oriented fixture format into ground models.

    ``model NAME`` opens a named model (a file with no header defines a
    single model named ``model``); within a model, ``init:``/``goal:`` list
    facts and ``action NAME COST [(CHEAPCOST)]`` opens an action with at
    most one ``pre:``, ``eff+:`` and ``eff-:`` line each.  The ``pre:`` line
    of an action with a cheap cost may end in a parenthesized group of
    facts, and the action becomes two: the base one, and a ``NAME-cheap``
    variant whose preconditions also include the group's facts and whose
    cost is the cheap cost.
    """
    models: dict[str, Model] = {}
    name: str | None = None
    implicit = False
    init: list[Fact] = []
    goal: list[Fact] = []
    actions: list[GroundAction] = []
    declared: set[str] = set()
    cheap_lines: dict[str, int] = {}  # action with a cheap cost -> its header line
    header: tuple[str, int, int | None] | None = None  # the open action's name, cost, cheap cost
    facts_of: dict[str, frozenset[Fact]] = {}  # the open action's lines by key; "(pre)" the group

    def close_action() -> None:
        nonlocal header
        if header is not None:
            aname, cost, cheap = header
            pre, add, dele = (facts_of.get(key, _NO_FACTS) for key in ("pre", "eff+", "eff-"))
            actions.append(GroundAction(aname, pre, add, dele, cost))
            if cheap is not None:
                cond = facts_of.get("(pre)", _NO_FACTS)
                actions.append(GroundAction(f"{aname}-cheap", pre | cond, add, dele, cheap))
            header = None
            facts_of.clear()

    def close_model() -> None:
        close_action()
        if name is None:
            return
        for aname, line in cheap_lines.items():
            variant = f"{aname}-cheap"
            if variant in declared:
                raise ParseError(
                    f"action {aname}: variant name {variant!r} collides with a declared action", line, 1
                )
        universe = set(init) | set(goal)
        for act in actions:
            universe |= act.preconditions | act.add_effects | act.delete_effects
        models[name] = Model(universe, actions, init, goal)  # copies all four
        for per_model in (init, goal, actions, declared, cheap_lines):
            per_model.clear()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        lowered = line.lower()
        if lowered.startswith("model "):
            if implicit:
                raise ParseError("content before the first model header", lineno, 1)
            close_model()
            name = lowered.split(None, 1)[1].strip()
            if name in models:
                raise ParseError(f"duplicate model name {name!r}", lineno, 1)
            continue
        if name is None:
            name = "model"
            implicit = True
        if lowered.startswith("action "):
            close_action()
            parts = lowered.split()
            if len(parts) < 3:
                raise ParseError("expected 'action NAME COST [(CHEAPCOST)]'", lineno, 1)
            aname = parts[1]
            if not parts[2].isdigit():
                raise ParseError(f"action {aname}: cost must be an unsigned integer", lineno, 1)
            cheap: int | None = None
            if len(parts) == 4:
                inner = parts[3]
                if not (inner.startswith("(") and inner.endswith(")") and inner[1:-1].isdigit()):
                    raise ParseError(f"action {aname}: malformed cheap cost {inner!r}", lineno, 1)
                cheap = int(inner[1:-1])
                cheap_lines[aname] = lineno
            elif len(parts) > 4:
                raise ParseError(f"action {aname}: trailing content", lineno, 1)
            header = (aname, int(parts[2]), cheap)
            declared.add(aname)
            continue
        key, sep, rest = lowered.partition(":")
        if not sep:
            raise ParseError(f"unrecognized line {line!r}", lineno, 1)
        key = key.strip()
        if key in ("init", "goal"):
            close_action()
            facts = [_parse_fixture_fact(tok, lineno) for tok in rest.split()]
            if key == "init":
                init.extend(facts)
            else:
                goal.extend(facts)
        elif key in ("pre", "eff+", "eff-"):
            if header is None:
                raise ParseError(f"{key}: outside an action block", lineno, 1)
            if key in facts_of:
                raise ParseError(f"action {header[0]}: repeated {key}: line", lineno, 1)
            plain, cond = _split_fact_line(rest, key, lineno)
            if cond and key != "pre":
                raise ParseError(f"{key}: parenthesized groups only belong on pre lines", lineno, 1)
            if cond and header[2] is None:
                raise ParseError(
                    f"action {header[0]}: conditional facts given without a cheap cost", lineno, 1
                )
            facts_of[key] = frozenset(_parse_fixture_fact(t, lineno) for t in plain)
            if cond:
                facts_of["(pre)"] = frozenset(_parse_fixture_fact(t, lineno) for t in cond)
        else:
            raise ParseError(f"unrecognized line {line!r}", lineno, 1)
    close_model()
    if not models:
        raise ParseError("fixture defines no model")
    return models


def _parse_fixture_fact(token: str, lineno: int) -> Fact:
    try:
        return parse_fact(token)
    except ModelError as exc:
        raise ParseError(str(exc), lineno, 1) from None


def load_fixture(path: str | Path) -> dict[str, Model]:
    """Read a fixture file and return its models, cost variants split."""
    return parse_fixture(Path(path).read_text())

