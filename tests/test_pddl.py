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
