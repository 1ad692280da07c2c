"""Parser, grounder, and fixture-format tests."""

import re
import sys

import pytest

from pegplan import Fact, ground, load_fixture, optimal_plan, pddl
from pegplan.model import _NO_FACTS
from pegplan.pddl import (
    GroundingError,
    ParseError,
    parse_domain,
    parse_fixture,
    parse_problem,
)

from conftest import BENCHMARKS


TOGGLER = """
(define (domain toggler)
  (:requirements :strips)
  (:predicates (on) (off))
  (:action flip
    :parameters ()
    :precondition (off)
    :effect (and (on) (not (on)) (not (off)))))
"""

TOGGLER_PROBLEM = """
(define (problem flip-once)
  (:domain toggler)
  (:init (off))
  (:goal (on)))
"""


GROUND_PROBLEM = "(define (problem q) (:domain d) (:objects o - t) (:init (p o)) (:goal (p o)))"


def _ground_domain(text):
    return ground(parse_domain(text), parse_problem(GROUND_PROBLEM))


READERS = {
    "domain": parse_domain,
    "problem": parse_problem,
    "ground": _ground_domain,  # the domain text, ground against GROUND_PROBLEM
    "fixture": parse_fixture,
}
D = "(define (domain d) "
P = "(define (problem q) (:domain d) "
A = D + "(:predicates (p)) (:action a "
TYPED = "(define (domain d) (:types t) (:predicates (p ?x - t))\n  (:action a :parameters "

# (reader, text, message, line, column); line and column are None for the
# grounder's errors, which carry no source position.
REJECTIONS = [
    ("domain", D + "(:types a (b)))", "expected a name in type list", 1, 30),
    ("domain", D + "(:types a -))", "missing type after '-' in type list", 1, 30),
    ("domain", D + "(:types a - (b)))", "missing type after '-' in type list", 1, 30),
    ("problem", P + "(:objects o1 o2 -))", "missing type after '-' in object list", 1, 49),
    ("domain", A + ":parameters (?x - (t))))", "missing type after '-' in parameter list", 1, 65),
    ("problem", P + "(:init p))", "expected an atom in parentheses", 1, 40),
    ("problem", P + "(:init (p (q))))", "nested form where an atom was expected", 1, 43),
    ("problem", P + "(:init ()))", "empty atom", 1, 40),
    ("problem", P + "(:init (at rover0 -)))",
     "invalid atom argument '-': expected lowercase identifier", 1, 51),
    ("domain", A + ":parameters ?x :precondition (p ?x) :effect (p ?x)))",
     "expected a parameter list", 1, 61),
    ("domain", "; header\n(define (domain d)\n\t(:requirements\r :strips :adl))",
     "unsupported requirement :adl", 3, 26),
    ("domain", D + "(:action))", "expected action name", 1, 20),
    ("domain", D + "(:action (a)))", "expected action name", 1, 20),
    ("domain", A + ":parameters () foo (p)))", "expected :parameters/:precondition/:effect", 1, 64),
    ("domain", A + "(:precondition) (p)))", "expected :parameters/:precondition/:effect", 1, 49),
    ("domain", A + ":parameters))", "missing value after :parameters", 1, 49),
    ("domain", A + ":effect (and p)))", "expected effect form", 1, 62),
    ("domain", A + ":effect (not (p) (p))))", "malformed (not ...) effect", 1, 57),
    ("domain", A + ":effect (increase (cost) 1)))",
     "only (increase (total-cost) <int>) is supported", 1, 57),
    ("domain", A + ":effect (increase (total-cost))))",
     "only (increase (total-cost) <int>) is supported", 1, 57),
    ("domain", A + ":effect (increase (total-cost) ²)))",
     "non-constant total-cost increase in action a", 1, 57),
    ("domain", A + ":duration 1))", "unsupported action section :duration", 1, 49),
    ("domain", "(domain d)", "expected (define (domain ...) ...)", 1, 1),
    ("domain", "(define (problem d))", "expected (domain <name>)", 1, 1),
    ("domain", "(define)", "expected (domain <name>)", 1, 1),
    ("domain", "(define (domain d e))", "expected (domain <name>)", 1, 1),
    ("domain", "(define (domain (d)))", "expected (domain <name>)", 1, 1),
    ("problem", "(problem q)", "expected (define (problem ...) ...)", 1, 1),
    ("problem", "(define (domain d))", "expected (problem <name>)", 1, 1),
    ("problem", "(define (problem))", "expected (problem <name>)", 1, 1),
    ("domain", D + "(:requirements :strips (:typing)))", "malformed requirement", 1, 43),
    ("domain", D + "(:predicates p))", "malformed predicate declaration", 1, 33),
    ("domain", D + "(:predicates ((p))))", "malformed predicate declaration", 1, 33),
    ("domain", D + "(:functions (cost)))", "only the (total-cost) function is supported", 1, 32),
    ("domain", D + "(:functions (total-cost) total-cost))",
     "only the (total-cost) function is supported", 1, 45),
    ("problem", "(define (problem q) (:domain))", "malformed :domain", 1, 21),
    ("problem", "(define (problem q) (:domain (d)))", "malformed :domain", 1, 21),
    ("problem", P + "(:goal))", "malformed :goal", 1, 33),
    ("problem", P + "(:goal (p) (p)))", "malformed :goal", 1, 33),
    ("problem", P + "(:metric maximize (total-cost)))",
     "only (:metric minimize (total-cost)) is supported", 1, 33),
    ("problem", P + "(:metric minimize total-cost))",
     "only (:metric minimize (total-cost)) is supported", 1, 33),
    ("problem", P + "(:metric minimize (cost)))",
     "only (:metric minimize (total-cost)) is supported", 1, 33),
    ("domain", D + "(:constants c))", "unsupported domain section :constants", 1, 20),
    ("problem", P + "(:requirements :strips))", "unsupported problem section :requirements", 1, 33),
    ("ground", TYPED + "(?x - t)\n    :precondition (and (p ?x) (r ?x)) :effect (p ?x)))",
     "unknown predicate 'r'", None, None),
    ("ground", TYPED + "(?x - t) :precondition (p ?y) :effect (p ?x)))",
     "unbound variable '?y' in p", None, None),
    ("ground", TYPED + "(?x - car) :precondition (p ?x) :effect (p ?x)))",
     "parameter ?x of action a has undeclared type 'car'", None, None),
    ("ground", TYPED.replace("action a", "action b-has")
     + "(?x - t) :precondition (p ?x) :effect (p ?x)))",
     "invalid action name 'b-has-o': '-has-' is reserved", None, None),
    ("fixture", "action a 5 (1)\n  pre: p (q\n  eff+: r\n", "malformed parenthesized group in pre", 2, 1),
    ("fixture", "action a 5 (1)\n  pre: (q) p\n  eff+: r\n", "malformed parenthesized group in pre", 2, 1),
    ("fixture", "init: p\naction a\n", "expected 'action NAME COST [(CHEAPCOST)]'", 2, 1),
    ("fixture", "action a 1 (2) x\n", "action a: trailing content", 1, 1),
]


@pytest.mark.parametrize("reader, text, message, line, col", REJECTIONS)
def test_rejection_message_and_position(reader, text, message, line, col):
    with pytest.raises((ParseError, GroundingError)) as info:
        READERS[reader](text)
    exc = info.value
    assert type(exc) is (GroundingError if reader == "ground" else ParseError)
    assert (getattr(exc, "line", None), getattr(exc, "col", None)) == (line, col)
    assert str(exc) == (message if line is None else f"line {line}, column {col}: {message}")


class TestDomainParsing:
    def test_rover_domain_parses(self, rover_domain):
        assert rover_domain.name == "rover"
        assert len(rover_domain.actions) == 9
        assert rover_domain.has_total_cost

    def test_rover_action_costs_are_constant_one(self, rover_domain):
        assert {a.cost for a in rover_domain.actions} == {1}

    def test_unsupported_requirement_rejected(self):
        with pytest.raises(ParseError, match="unsupported requirement"):
            parse_domain("(define (domain d) (:requirements :adl))")

    def test_type_hierarchy_rejected(self):
        with pytest.raises(ParseError, match="type hierarchies"):
            parse_domain("(define (domain d) (:types car - vehicle))")

    def test_flat_types_accepted(self):
        ast = parse_domain("(define (domain d) (:types a b - object c))")
        assert ast.types == ("a", "b", "c")

    def test_negative_precondition_rejected(self):
        text = """
        (define (domain d) (:predicates (p))
          (:action a :parameters () :precondition (not (p)) :effect (p)))
        """
        with pytest.raises(ParseError, match="negative preconditions"):
            parse_domain(text)

    def test_non_constant_cost_rejected(self):
        text = """
        (define (domain d) (:predicates (p)) (:functions (total-cost))
          (:action a :parameters ()
            :precondition (p)
            :effect (and (p) (increase (total-cost) (distance)))))
        """
        with pytest.raises(ParseError, match="non-constant total-cost increase in action a"):
            parse_domain(text)

    def test_parse_error_carries_position(self):
        try:
            parse_domain("(define (domain d)\n  (:requirements :adl))")
        except ParseError as exc:
            assert exc.line == 2
            assert "line 2" in str(exc)
        else:
            pytest.fail("expected a ParseError")

    def test_unbalanced_parens_rejected(self):
        with pytest.raises(ParseError, match="unbalanced"):
            parse_domain("(define (domain d)")

    def test_deep_nesting_is_a_parse_error_not_a_recursion_error(self):
        depth = 5000
        with pytest.raises(ParseError, match="line 1, column 1: expected a named form"):
            parse_domain("(" * depth + ")" * depth)
        with pytest.raises(ParseError, match=f"line 1, column {depth}: unbalanced"):
            parse_problem("(" * depth)


class TestProblemParsing:
    def test_rover_problem_parses(self, rover_domain):
        ast = parse_problem((BENCHMARKS / "rover" / "p01.pddl").read_text())
        assert ast.domain == "rover"
        assert ast.minimize_total_cost
        assert len(ast.goal) == 3

    def test_total_cost_assignment_in_init_is_ignored(self):
        ast = parse_problem(
            "(define (problem p) (:domain d) (:init (= (total-cost) 0) (p)) (:goal (p)))"
        )
        assert [a.name for a in ast.init] == ["p"]

    def test_missing_domain_declaration_rejected(self):
        with pytest.raises(ParseError, match="missing a :domain"):
            parse_problem("(define (problem p) (:init) (:goal (p)))")


class TestGrounding:
    def test_rover_p01_ground_action_names(self, rover_p01):
        assert [a.name for a in rover_p01.actions] == [
            "calibrate-rover0-camera0-objective0-w0",
            "communicate_image_data-rover0-general-objective0-high_res-w1-w0",
            "communicate_rock_data-rover0-general-w2-w1-w0",
            "communicate_soil_data-rover0-general-w1-w1-w0",
            "drop-rover0-store0",
            "navigate-rover0-w0-w1",
            "navigate-rover0-w1-w0",
            "navigate-rover0-w2-w1",
            "sample_rock-rover0-store0-w2",
            "sample_soil-rover0-store0-w1",
            "take_image-rover0-w0-objective0-camera0-high_res",
        ]

    def test_one_way_traverse_prunes_reverse_navigation(self, rover_p01):
        names = {a.name for a in rover_p01.actions}
        assert "navigate-rover0-w1-w2" not in names

    def test_unreachable_samples_are_pruned(self, rover_p01):
        # soil only at w1, so sampling elsewhere never fires
        names = {a.name for a in rover_p01.actions}
        assert "sample_soil-rover0-store0-w0" not in names
        assert "sample_soil-rover0-store0-w2" not in names

    def test_grounded_preconditions_keep_static_facts(self, rover_p01):
        nav = rover_p01.action("navigate-rover0-w2-w1")
        assert Fact("can_traverse", ("rover0", "w2", "w1")) in nav.preconditions
        assert Fact("visible", ("w2", "w1")) in nav.preconditions

    def test_one_fact_object_per_atom(self, rover_p01):
        universe = {id(f) for f in rover_p01.facts}
        used = [rover_p01.init, rover_p01.goal]
        for act in rover_p01.actions:
            used += [act.preconditions, act.add_effects, act.delete_effects]
        assert all(id(f) in universe for facts in used for f in facts)

    def test_empty_sets_and_names_are_shared(self, rover_p01):
        used = [rover_p01.init, rover_p01.goal]
        for act in rover_p01.actions:
            used += [act.preconditions, act.add_effects, act.delete_effects]
        empty = [facts for facts in used if not facts]
        assert empty and all(facts is _NO_FACTS for facts in empty)
        names = [name for f in rover_p01.facts for name in (f.name, *f.args)]
        assert all(sys.intern(name) is name for name in names)

    def test_fact_sets_are_frozen_to_fit(self, rover_p02):
        # A frozenset built fact by fact keeps a table sized for growth, up
        # to twice the one a frozenset made from a set gets.
        used = [rover_p02.facts, rover_p02.init, rover_p02.goal]
        for act in rover_p02.actions:
            used += [act.preconditions, act.add_effects, act.delete_effects]
        assert max(map(len, used)) > 4  # past the inline table of a small set
        assert all(sys.getsizeof(facts) <= sys.getsizeof(frozenset(set(facts))) for facts in used)

    def test_two_grounds_share_every_fact_and_action_name(self):
        rover = BENCHMARKS / "rover"
        domain, problem = ((rover / name).read_text() for name in ("domain.pddl", "p01.pddl"))
        first, second = (ground(parse_domain(domain), parse_problem(problem)) for _ in range(2))
        assert first == second
        facts = {f: f for f in first.facts}
        assert all(facts[f] is f for f in second.facts)
        used = [second.init, second.goal]
        for act in second.actions:
            used += [act.preconditions, act.add_effects, act.delete_effects]
        assert all(facts[f] is f for facts_used in used for f in facts_used)
        assert all(a.name is b.name for a, b in zip(first.actions, second.actions))

    def test_a_new_atom_still_grounds(self):
        domain = parse_domain("""
            (define (domain lamps)
              (:requirements :strips :typing)
              (:types lamp)
              (:predicates (lit ?l - lamp))
              (:action light :parameters (?l - lamp) :precondition (and) :effect (lit ?l)))
        """)
        problem = parse_problem("""
            (define (problem one-lamp)
              (:domain lamps)
              (:objects lamp-only-ground-here - lamp)
              (:init)
              (:goal (lit lamp-only-ground-here)))
        """)
        model = ground(domain, problem)
        (fact,) = model.goal
        assert fact == Fact("lit", ("lamp-only-ground-here",))
        assert pddl._FACTS[fact] is fact
        assert optimal_plan(model).plan.actions == ("light-lamp-only-ground-here",)

    def test_add_wins_when_effects_overlap(self):
        model = ground(parse_domain(TOGGLER), parse_problem(TOGGLER_PROBLEM))
        flip = model.action("flip")
        assert flip.add_effects == frozenset({Fact("on")})
        assert flip.delete_effects == frozenset({Fact("off")})

    def test_default_cost_when_domain_has_no_costs(self):
        model = ground(parse_domain(TOGGLER), parse_problem(TOGGLER_PROBLEM))
        assert model.action("flip").cost == 1

    def test_undeclared_object_type_rejected(self, rover_domain):
        text = """
        (define (problem p) (:domain rover)
          (:objects rover0 - rover x1 - spaceship)
          (:init (available rover0)) (:goal (available rover0)))
        """
        with pytest.raises(GroundingError, match="x1"):
            ground(rover_domain, parse_problem(text))

    def test_mismatched_domain_name_rejected(self, rover_domain):
        text = "(define (problem p) (:domain other) (:init) (:goal (available rover0)))"
        with pytest.raises(GroundingError, match="other"):
            ground(rover_domain, parse_problem(text))

    def test_colliding_ground_action_names_rejected(self):
        domain = """
        (define (domain d)
          (:predicates (p ?x) (q ?x ?y) (never))
          (:action move-a :parameters (?x) :precondition (and) :effect (p ?x))
          (:action move :parameters (?x ?y) :precondition (%s) :effect (q ?x ?y)))
        """
        problem = parse_problem("(define (problem q) (:domain d) (:objects a b) (:init) (:goal (p b)))")
        with pytest.raises(GroundingError) as info:
            ground(parse_domain(domain % "and"), problem)
        assert str(info.value) == (
            "ground action 'move-a-a' comes from two different actions, of schemas move-a and move"
        )
        # a colliding action that can never fire is pruned, as before
        model = ground(parse_domain(domain % "never"), problem)
        assert [a.name for a in model.actions] == ["move-a-a", "move-a-b"]

    def test_arity_mismatch_rejected(self, rover_domain):
        text = "(define (problem p) (:domain rover) (:init (available)) (:goal (available)))"
        with pytest.raises(GroundingError, match="arity"):
            ground(rover_domain, parse_problem(text))


class TestFixtureFormat:
    def test_errand_fixture_matches_programmatic_models(self, errand_pair, errand_fixture_pair):
        assert errand_fixture_pair[0] == errand_pair[0]
        assert errand_fixture_pair[1] == errand_pair[1]

    def test_cheap_variant_splitting(self):
        models = parse_fixture(
            """
            action ship 9 (2)
              pre: packed (truck-ready)
              eff+: delivered
            init: packed
            goal: delivered
            """
        )
        model = models["model"]
        names = sorted(a.name for a in model.actions)
        assert names == ["ship", "ship-cheap"]
        assert model.action("ship").cost == 9
        cheap = model.action("ship-cheap")
        assert cheap.cost == 2
        assert Fact("truck-ready") in cheap.preconditions
        assert Fact("truck-ready") not in model.action("ship").preconditions

    def test_headerless_fixture_defines_single_model(self):
        models = parse_fixture("action a 1\n  eff+: p\ngoal: p\n")
        assert list(models) == ["model"]

    def test_comments_and_blank_lines_ignored(self):
        models = parse_fixture("# note\n\naction a 1  # trailing\n  eff+: p\ngoal: p\n")
        assert len(models["model"].actions) == 1

    def test_content_before_first_header_rejected(self):
        with pytest.raises(ParseError, match="before the first model header"):
            parse_fixture("init: p\nmodel robot\ngoal: p\n")

    def test_duplicate_model_names_rejected(self):
        with pytest.raises(ParseError, match="line 3, .*duplicate model name"):
            parse_fixture("model a\ngoal: p\nmodel a\ngoal: p\n")

    def test_malformed_cheap_cost_rejected(self):
        with pytest.raises(ParseError, match="cheap cost"):
            parse_fixture("action a 5 (x)\n  eff+: p\n")

    def test_conditions_without_cheap_cost_rejected(self):
        with pytest.raises(ParseError, match="line 2, .*without a cheap cost"):
            parse_fixture("action a 5\n  pre: p (q)\n  eff+: r\ngoal: r\n")

    def test_parenthesized_group_outside_pre_rejected(self):
        with pytest.raises(ParseError, match="only belong on pre lines"):
            parse_fixture("action a 5 (1)\n  eff+: p (q)\n")

    def test_variant_name_collision_rejected(self):
        text = """
        action a 5 (1)
          pre: (q)
          eff+: p
        action a-cheap 2
          eff+: p
        goal: p
        """
        with pytest.raises(ParseError, match="collides"):
            parse_fixture(text)

    def test_variant_declared_before_its_cheap_action_rejected(self):
        text = "action a-cheap 2\n  eff+: p\naction a 5 (1)\n  eff+: p\ngoal: p\n"
        with pytest.raises(ParseError, match="line 3, .*'a-cheap' collides"):
            parse_fixture(text)

    @pytest.mark.parametrize("key", ["pre", "eff+", "eff-"])
    def test_repeated_action_line_rejected(self, key):
        text = f"action a 1\n  {key}: p\n  {key}: q\ngoal: p\n"
        with pytest.raises(ParseError, match=f"line 3, .*repeated {re.escape(key)}: line"):
            parse_fixture(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("model a\naction x 1\n eff+: p\n eff-: p\ngoal: p\n",
             "line 2, column 1: action x: add and delete effects overlap on p"),
            ("action init 1\n", "line 1, column 1: action name 'init' is reserved"),
            ("goal: p\naction a-has-b 1 (0)\n  eff+: p\n",
             "line 2, column 1: invalid action name 'a-has-b': '-has-' is reserved"),
            ("action x 1\n  eff+: p\naction x 2\n  eff+: p\ngoal: p\n",
             "line 3, column 1: duplicate action name 'x'"),
        ],
    )
    def test_invalid_action_is_a_parse_error_at_its_header(self, text, message):
        with pytest.raises(ParseError) as info:
            parse_fixture(text)
        assert str(info.value) == message

    def test_effect_lines_outside_action_rejected(self):
        with pytest.raises(ParseError, match="outside an action"):
            parse_fixture("model m\neff+: p\n")

    def test_empty_fixture_rejected(self):
        with pytest.raises(ParseError, match="no model"):
            parse_fixture("# only a comment\n")


class TestDump:
    def test_load_fixture_returns_ground_models(self):
        models = load_fixture(BENCHMARKS / "amy_monica.model")
        assert set(models) == {"robot", "human"}
        assert len(models["robot"].actions) == 4
