"""Reading planning models.

Two input dialects are supported: a small typed-STRIPS slice of PDDL
(``:strips``, flat ``:typing``, ``:action-costs`` with constant increases of
``total-cost``), and a line-oriented fixture format for hand-written ground
models with optional conditional costs.  Both produce :class:`~pegplan.model.Model`
values.

PDDL goes through four layers: a regular expression cuts the text into
tokens (atoms, lowercased and interned, with their line and column);
:func:`_parse_sexp` nests them into forms, plain lists that keep the
position of their ``(``; :func:`parse_domain` and :func:`parse_problem` read
the forms into ASTs; and :func:`ground` turns a domain and a problem into a
model.  The first three layers raise :class:`ParseError` with a source
position; grounding raises :class:`GroundingError`.
"""

from __future__ import annotations

import re
import sys
from itertools import product
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from .model import _NO_FACTS, Fact, GroundAction, Model, ModelError, _as_fact_set, _check_ident
from .model import parse_fact

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
# Tokens and forms

# One token per match: a newline, a comment, a parenthesis or an atom.  The
# only characters no match covers are the separators space, tab and CR.
_TOKENS = re.compile(r"\n|;[^\n]*|[()]|[^ \t\r\n();]+")


class _Token(NamedTuple):
    text: str
    line: int
    col: int


class _Form(list):
    """A parenthesized form: its tokens and forms, at the position of its '('."""

    __slots__ = ("line", "col")

    def __init__(self, line: int, col: int):
        self.line = line
        self.col = col


def _tokenize(text: str) -> Iterator[_Token]:
    line, line_start = 1, 0
    for match in _TOKENS.finditer(text):
        tok = match.group()
        if tok == "\n":
            line += 1
            line_start = match.end()
        elif tok[0] != ";":
            # Interned: the models read in one process share one string per
            # identifier, however often their text is parsed.
            yield _Token(sys.intern(tok.lower()), line, match.start() - line_start + 1)


def _parse_sexp(text: str) -> _Token | _Form:
    """Parse exactly one top-level form.

    Iterative, with an explicit stack of open forms, so nesting depth is
    bounded by memory rather than by Python's recursion limit.
    """
    tokens = _tokenize(text)
    stack: list[_Form] = []  # open forms, innermost last
    for tok in tokens:
        if tok.text == "(":
            stack.append(_Form(tok.line, tok.col))
            continue
        if tok.text == ")":
            if not stack:
                raise ParseError("unmatched ')'", tok.line, tok.col)
            node = stack.pop()
        else:
            node = tok
        if stack:
            stack[-1].append(node)
            continue
        extra = next(tokens, None)
        if extra is not None:
            raise ParseError("trailing content after top-level form", extra.line, extra.col)
        return node
    if stack:
        raise ParseError("unbalanced parentheses", stack[-1].line, stack[-1].col)
    raise ParseError("unexpected end of input: unbalanced parentheses")


def _is_form(node: _Token | _Form, head: str | None = None) -> bool:
    """Whether ``node`` is a form, and with ``head``, one whose first item is that atom."""
    if not isinstance(node, _Form):
        return False
    return head is None or (bool(node) and not _is_form(node[0]) and node[0].text == head)


def _head(node: _Token | _Form, message: str = "expected a named form") -> str:
    if not _is_form(node) or not node or _is_form(node[0]):
        raise ParseError(message, node.line, node.col)
    return node[0].text


def _parse_typed_list(items: Iterable[_Token | _Form], what: str) -> list[tuple[str, str]]:
    """Parse ``a b - t c - s`` into (name, type) pairs; untyped means object."""
    pairs: list[tuple[str, str]] = []
    pending: list[str] = []
    items = iter(items)
    for item in items:
        if _is_form(item):
            raise ParseError(f"expected a name in {what} list", item.line, item.col)
        if item.text == "-":
            tname = next(items, None)
            if tname is None or _is_form(tname):
                raise ParseError(f"missing type after '-' in {what} list", item.line, item.col)
            pairs += ((name, tname.text) for name in pending)
            pending = []
        else:
            pending.append(item.text)
    pairs += ((name, "object") for name in pending)
    return pairs


def _parse_define(text: str, kind: str) -> tuple[_Form, str, list[_Token | _Form]]:
    """Read ``(define (KIND NAME) SECTION...)``: the root form, NAME and the sections."""
    root = _parse_sexp(text)
    if _head(root) != "define":
        raise ParseError(f"expected (define ({kind} ...) ...)", root.line, root.col)
    if len(root) < 2 or _head(root[1]) != kind or len(root[1]) != 2 or _is_form(root[1][1]):
        raise ParseError(f"expected ({kind} <name>)", root.line, root.col)
    return root, root[1][1].text, root[2:]


# ---------------------------------------------------------------------------
# Domain / problem ASTs


class LiftedAtom(NamedTuple):
    """An atom as written: a predicate over objects or ``?variables``."""

    name: str
    args: tuple[str, ...]


class PredicateDecl(NamedTuple):
    """A ``:predicates`` entry: the name and its typed parameters."""

    name: str
    params: tuple[tuple[str, str], ...]


class ActionSchema(NamedTuple):
    """A lifted ``:action``; ``cost`` is its ``total-cost`` increase, if any."""

    name: str
    params: tuple[tuple[str, str], ...]
    preconditions: tuple[LiftedAtom, ...]
    add_effects: tuple[LiftedAtom, ...]
    delete_effects: tuple[LiftedAtom, ...]
    cost: int | None = None


class DomainAst(NamedTuple):
    """A parsed ``define (domain ...)``, as :func:`parse_domain` returns it."""

    name: str
    requirements: tuple[str, ...]
    types: tuple[str, ...]
    predicates: tuple[PredicateDecl, ...]
    actions: tuple[ActionSchema, ...]
    has_total_cost: bool = False


class ProblemAst(NamedTuple):
    """A parsed ``define (problem ...)``, as :func:`parse_problem` returns it."""

    name: str
    domain: str
    objects: tuple[tuple[str, str], ...]
    init: tuple[LiftedAtom, ...]
    goal: tuple[LiftedAtom, ...]
    minimize_total_cost: bool = False


def _parse_atom(node: _Token | _Form) -> LiftedAtom:
    if not _is_form(node):
        raise ParseError("expected an atom in parentheses", node.line, node.col)
    for item in node:
        if _is_form(item):
            raise ParseError("nested form where an atom was expected", item.line, item.col)
    if not node:
        raise ParseError("empty atom", node.line, node.col)
    for arg in node[1:]:
        if not arg.text.startswith("?"):  # a ?variable is bound, or refused, by ground
            try:
                _check_ident(arg.text, "atom argument")
            except ModelError as exc:
                raise ParseError(str(exc), arg.line, arg.col) from None
    return LiftedAtom(node[0].text, tuple(item.text for item in node[1:]))


def _parse_conjunction(node: _Token | _Form) -> list[_Token | _Form]:
    """Unwrap ``(and ...)`` or treat a single form as a one-element conjunction."""
    if _is_form(node, "and"):
        return node[1:]
    return [node] if node else []  # () is the empty conjunction; a token is never empty


def _parse_action(form: _Form) -> ActionSchema:
    if len(form) < 2 or _is_form(form[1]):
        raise ParseError("expected action name", form.line, form.col)
    name = form[1].text
    params: tuple[tuple[str, str], ...] = ()
    pre: list[LiftedAtom] = []
    add: list[LiftedAtom] = []
    dele: list[LiftedAtom] = []
    cost: int | None = None
    items = iter(form[2:])
    for key in items:
        if _is_form(key) or not key.text.startswith(":"):
            raise ParseError("expected :parameters/:precondition/:effect", key.line, key.col)
        value = next(items, None)
        if value is None:
            raise ParseError(f"missing value after {key.text}", key.line, key.col)
        if key.text == ":parameters":
            if not _is_form(value):
                raise ParseError("expected a parameter list", value.line, value.col)
            params = tuple(_parse_typed_list(value, "parameter"))
        elif key.text == ":precondition":
            for part in _parse_conjunction(value):
                if _is_form(part, "not"):
                    raise ParseError(
                        f"negative preconditions are not supported (action {name})",
                        part.line,
                        part.col,
                    )
                pre.append(_parse_atom(part))
        elif key.text == ":effect":
            for part in _parse_conjunction(value):
                if not _is_form(part):
                    raise ParseError("expected effect form", part.line, part.col)
                if _is_form(part, "not"):
                    if len(part) != 2:
                        raise ParseError("malformed (not ...) effect", part.line, part.col)
                    dele.append(_parse_atom(part[1]))
                elif _is_form(part, "increase"):
                    if len(part) != 3 or not _is_form(part[1], "total-cost") or len(part[1]) != 1:
                        raise ParseError(
                            "only (increase (total-cost) <int>) is supported", part.line, part.col
                        )
                    amount = part[2]
                    try:  # int() refuses some digits, such as '²', and over 4,300 of them
                        if _is_form(amount) or not amount.text.isdigit():
                            raise ValueError
                        cost = int(amount.text)
                    except ValueError:
                        raise ParseError(
                            f"non-constant total-cost increase in action {name}", part.line, part.col
                        ) from None
                else:
                    add.append(_parse_atom(part))
        else:
            raise ParseError(f"unsupported action section {key.text}", key.line, key.col)
    return ActionSchema(name, params, tuple(pre), tuple(add), tuple(dele), cost)


def parse_domain(text: str) -> DomainAst:
    """Parse a typed-STRIPS domain with optional constant action costs."""
    _, name, sections = _parse_define(text, "domain")
    requirements: tuple[str, ...] = ()
    types: tuple[str, ...] = ()
    predicates: list[PredicateDecl] = []
    actions: list[ActionSchema] = []
    has_total_cost = False
    for section in sections:
        head = _head(section)
        if head == ":requirements":
            for item in section[1:]:
                if _is_form(item):
                    raise ParseError("malformed requirement", item.line, item.col)
                if item.text not in _SUPPORTED_REQUIREMENTS:
                    raise ParseError(f"unsupported requirement {item.text}", item.line, item.col)
            requirements = tuple(item.text for item in section[1:])
        elif head == ":types":
            pairs = _parse_typed_list(section[1:], "type")
            for tname, parent in pairs:
                if parent != "object":
                    raise ParseError(
                        f"type hierarchies are not supported (type {tname} - {parent})",
                        section.line,
                        section.col,
                    )
            types = tuple(t for t, _ in pairs)
        elif head == ":predicates":
            for decl in section[1:]:
                pname = _head(decl, "malformed predicate declaration")
                params = tuple(_parse_typed_list(decl[1:], "predicate parameter"))
                predicates.append(PredicateDecl(pname, params))
        elif head == ":functions":
            for decl in section[1:]:
                if not _is_form(decl, "total-cost") or len(decl) != 1:
                    raise ParseError("only the (total-cost) function is supported", decl.line, decl.col)
                has_total_cost = True
        elif head == ":action":
            actions.append(_parse_action(section))
        else:
            raise ParseError(f"unsupported domain section {head}", section.line, section.col)
    return DomainAst(name, requirements, types, tuple(predicates), tuple(actions), has_total_cost)


def parse_problem(text: str) -> ProblemAst:
    """Parse a problem file matching the supported domain fragment."""
    root, name, sections = _parse_define(text, "problem")
    domain = ""
    objects: tuple[tuple[str, str], ...] = ()
    init: list[LiftedAtom] = []
    goal: tuple[LiftedAtom, ...] = ()
    minimize = False
    for section in sections:
        head = _head(section)
        if head == ":domain":
            if len(section) != 2 or _is_form(section[1]):
                raise ParseError("malformed :domain", section.line, section.col)
            domain = section[1].text
        elif head == ":objects":
            objects = tuple(_parse_typed_list(section[1:], "object"))
        elif head == ":init":
            for item in section[1:]:
                if _is_form(item, "=") and len(item) == 3:
                    continue  # tolerate (= (total-cost) 0)
                init.append(_parse_atom(item))
        elif head == ":goal":
            if len(section) != 2:
                raise ParseError("malformed :goal", section.line, section.col)
            goal = tuple(_parse_atom(part) for part in _parse_conjunction(section[1]))
        elif head == ":metric":
            if (
                len(section) != 3
                or _is_form(section[1])
                or section[1].text != "minimize"
                or not _is_form(section[2], "total-cost")
                or len(section[2]) != 1
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
    hyphens; two different reachable actions that join to one name (schema
    ``move-a`` over ``b`` and ``move`` over ``a b``) are a
    :class:`GroundingError` that names both schemas, and so is a name the
    model refuses, such as an action name holding ``-has-`` (see
    :mod:`~pegplan.model`).  An action without ``(increase (total-cost) k)``
    costs 1.  Actions whose preconditions can never hold (by static facts
    or delete-relaxed reachability) are pruned; actions whose delete
    effects overlap their add effects are normalized with the add winning.

    Every model ground in a process shares one object per atom and per
    action name: facts come from one module-level table, and names are
    interned by ``sys.intern``.  Set operations over a model's facts, and
    over every model edited from it, then match facts by identity, and the
    models a study keeps hold one copy of each.  Like ``sys.intern``'s
    table, the fact table grows only with the distinct atoms ground.
    """
    try:
        return _ground(domain, problem)
    except ModelError as exc:
        raise GroundingError(str(exc)) from None


def _ground(domain: DomainAst, problem: ProblemAst) -> Model:
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

    def atoms(lifted: Iterable[LiftedAtom], binding: dict[str, str]) -> set[Fact]:
        facts = (_ground_atom(a, binding, arities) for a in lifted)
        return {_FACTS.setdefault(f, f) for f in facts}

    init_facts = atoms(problem.init, {})
    goal_facts = atoms(problem.goal, {})

    dynamic = {a.name for schema in domain.actions for a in schema.add_effects}
    dynamic |= {a.name for schema in domain.actions for a in schema.delete_effects}

    candidates: list[tuple[GroundAction, str]] = []  # each with its schema's name
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
            # add wins when an action both adds and deletes
            pre, add, dele = map(_as_fact_set, (pre, add, dele - add))
            name = sys.intern("-".join((schema.name,) + combo))
            candidates.append((GroundAction(name, pre, add, dele, cost), schema.name))

    # Delete-relaxed reachability: keep only actions that can ever fire.
    reachable = set(init_facts)
    kept: dict[str, tuple[GroundAction, str]] = {}
    grown = True
    while grown:
        grown = False
        for act, schema_name in candidates:
            if act.name not in kept and act.preconditions <= reachable:
                kept[act.name] = act, schema_name
                reachable |= act.add_effects
                grown = True
    for act, schema_name in candidates:
        first, first_schema = kept.get(act.name, (act, schema_name))
        if first != act and act.preconditions <= reachable:
            raise GroundingError(
                f"ground action {act.name!r} comes from two different actions, "
                f"of schemas {first_schema} and {schema_name}"
            )
    actions = tuple(kept[name][0] for name in sorted(kept))

    # Kept actions need and add only reachable facts, and init is reachable.
    universe = reachable.union(goal_facts, *(act.delete_effects for act in actions))
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
    header: tuple[str, int, int | None, int] | None = None  # the open action's name, costs, line
    facts_of: dict[str, frozenset[Fact]] = {}  # the open action's lines by key; "(pre)" the group

    def close_action() -> None:
        nonlocal header
        if header is not None:
            aname, cost, cheap, lineno = header
            pre, add, dele = (facts_of.get(key, _NO_FACTS) for key in ("pre", "eff+", "eff-"))
            try:
                actions.append(GroundAction(aname, pre, add, dele, cost))
                if cheap is not None:
                    cond = facts_of.get("(pre)", _NO_FACTS)
                    actions.append(GroundAction(f"{aname}-cheap", pre | cond, add, dele, cheap))
            except ModelError as exc:
                raise ParseError(str(exc), lineno, 1) from None
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
            if aname in declared:
                raise ParseError(f"duplicate action name {aname!r}", lineno, 1)
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
            header = (aname, int(parts[2]), cheap, lineno)
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

