"""Fuzzed inputs to every reader end in a documented error, never a crash.

The PDDL readers may raise only ``ParseError`` and ``GroundingError``; the
fixture reader only ``ParseError``, ``ModelError`` and ``ValueError``; the
fact, feature and change readers only ``ModelError`` and ``ValueError``.
``pegplan validate`` reading a change list from stdin (text lines or JSON)
must return 0, or 1 with exactly one line on stderr.
Examples are derandomized and bounded, so every run tries the same inputs.
"""

import contextlib
import io
import json
from unittest import mock

from hypothesis import given, settings, strategies as st

from pegplan import parse_change, parse_fact, parse_feature
from pegplan.cli import dispatch
from pegplan.model import ModelError
from pegplan.pddl import GroundingError, ParseError, ground, parse_domain, parse_fixture, parse_problem

from conftest import BENCHMARKS

FIXTURE = str(BENCHMARKS / "amy_monica.model")
PDDL_ERRORS = (ParseError, GroundingError)
FUZZ = settings(derandomize=True, max_examples=300, deadline=None, database=None)

DOMAIN = """
(define (domain d)
  (:requirements :strips :typing :action-costs)
  (:types t)
  (:predicates (p ?x - t) (q ?x - t ?y - t))
  (:functions (total-cost))
  (:action a
    :parameters (?x - t ?y - t)
    :precondition (and (p ?x))
    :effect (and (q ?x ?y) (not (p ?x)) (increase (total-cost) 2))))
"""

PDDL_TOKENS = (
    "(", ")", "(", ")", "define", "domain", "problem", "d", ":domain",
    ":requirements", ":strips", ":typing", ":action-costs", ":negative-preconditions",
    ":types", ":constants", ":predicates", ":functions", "(total-cost)", "number",
    ":action", ":parameters", ":precondition", ":effect", "and", "not", "increase",
    "?x", "?y", "-", "t", "object", "p", "q", "a", "o1", "o2", ":objects", ":init",
    ":goal", ":metric", "minimize", "=", "0", "1", "-1", "either", "forall", ";c\n", "\n",
)
FIXTURE_TOKENS = (
    "model", "robot", "human", "action", "a", "a-cheap", "b", "init:", "goal:", "pre:",
    "eff+:", "eff-:", "pre", "p", "q", "r(x,y)", "0", "1", "5", "-1", "(", ")", "(2)", "(x)",
    "#", ":", "\n", "\n", "\n",
)
FEATURE_PIECES = (
    "init", "goal", "-has-", "precondition-", "add-effect-", "delete-effect-", "cost-",
    "visit-park", "outlet-shopping-cheap", "happy", "car-ready", "p(x,y)", "(", ")",
    ",", " ", "-", "12", "x",
)


def _soup(tokens, max_size=60):
    return st.lists(st.sampled_from(tokens), max_size=max_size).map(" ".join)


pddl_texts = st.one_of(
    _soup(PDDL_TOKENS),
    _soup(PDDL_TOKENS).map(lambda s: f"(define (domain d) {s})"),
    _soup(PDDL_TOKENS).map(lambda s: f"(define (problem x) (:domain d) {s})"),
    st.text(max_size=40),
)
features = st.lists(st.sampled_from(FEATURE_PIECES), max_size=8).map("".join)
changes = st.tuples(st.sampled_from(("add ", "remove ", "", "befuddle ")), features).map("".join)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8) | features,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=10,
)
json_changes = st.lists(
    st.fixed_dictionaries({"direction": st.sampled_from(("add", "remove", "x")), "feature": features})
    | json_values,
    max_size=4,
)
stdin_texts = st.one_of(
    st.lists(changes, max_size=5).map("\n".join),
    json_changes.map(lambda c: json.dumps({"changes": c})),
    json_values.map(json.dumps),
    st.tuples(json_changes.map(lambda c: json.dumps({"changes": c})), st.integers(0, 60)).map(
        lambda t: t[0][: t[1]]
    ),
    st.integers(1, 20_000).map(lambda n: '{"changes": ' + "[" * n + "]" * n + "}"),
    st.text(max_size=40),
)


def _documented_only(reader, text, documented=(ModelError, ValueError)):
    try:
        reader(text)
    except documented:
        pass


@FUZZ
@given(pddl_texts)
def test_parse_domain(text):
    _documented_only(parse_domain, text, PDDL_ERRORS)


@FUZZ
@given(pddl_texts)
def test_parse_problem_and_ground(text):
    domain = parse_domain(DOMAIN)
    _documented_only(lambda t: ground(domain, parse_problem(t)), text, PDDL_ERRORS)


@FUZZ
@given(_soup(FIXTURE_TOKENS) | st.text(max_size=40))
def test_parse_fixture(text):
    with contextlib.suppress(ParseError, ModelError, ValueError):
        parse_fixture(text)


@FUZZ
@given(st.text(alphabet="ab(),? \t-_1", max_size=20) | st.text(max_size=20))
def test_parse_fact(text):
    _documented_only(parse_fact, text)


@FUZZ
@given(features | st.text(max_size=30))
def test_parse_feature(text):
    _documented_only(parse_feature, text)


@FUZZ
@given(changes | st.text(max_size=30))
def test_parse_change(text):
    _documented_only(parse_change, text)


def _validate_stdin(text: str) -> tuple[int, str]:
    err = io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(text)), contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        rc = dispatch(["validate", "-", "--fixture", FIXTURE])
    return rc, err.getvalue()


@FUZZ
@given(stdin_texts)
def test_validate_reads_any_stdin(text):
    rc, err = _validate_stdin(text)
    assert (rc, err) == (0, "") or (rc == 1 and err.count("\n") == 1 and err.endswith("\n"))


def test_deeply_nested_json_changes_are_a_one_line_error():
    rc, err = _validate_stdin('{"changes": ' + "[" * 100_000 + "]" * 100_000 + "}")
    assert rc == 1 and err == "error: -: JSON nested too deeply\n"
