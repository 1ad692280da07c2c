"""Unit tests for the feature calculus: facts, features, diffs, edits."""

import copy
import pickle
import random
import re

import pytest
from hypothesis import given, strategies as st

from pegplan import (
    ChangePreconditionError,
    Fact,
    FeatureChange,
    FeatureKind,
    GroundAction,
    InvalidEditError,
    Model,
    ModelError,
    UniverseMismatchError,
    apply_change,
    delta,
    gamma,
    parse_change,
    parse_fact,
    parse_feature,
)
from pegplan.model import _NO_FACTS, Feature
from pegplan.pddl import LiftedAtom

from oracles import gamma_delta, gamma_digest, random_edit_chain, random_model, reconstruct

P, Q, G = Fact("p"), Fact("q"), Fact("g")


def tiny_model(cost: int = 3) -> Model:
    act = GroundAction("go", frozenset({P}), frozenset({G}), frozenset({Q}), cost)
    return Model(frozenset({P, Q, G}), (act,), frozenset({P, Q}), frozenset({G}))


class TestFacts:
    def test_zero_arg_fact_renders_bare(self):
        assert Fact("at-home").render() == "at-home"

    def test_fact_with_args_renders_parenthesized(self):
        assert Fact("at", ("rover0", "w1")).render() == "at(rover0,w1)"

    @pytest.mark.parametrize("text", ["p", "at(a,b)", "holds(o3)", "x_1-y"])
    def test_parse_render_round_trip(self, text):
        assert parse_fact(text).render() == text

    def test_parse_accepts_empty_parens(self):
        assert parse_fact("p()") == Fact("p")

    @pytest.mark.parametrize("bad", ["", "Upper", "sp ace", "a-has-b", "-lead"])
    def test_invalid_fact_names_rejected(self, bad):
        with pytest.raises(ModelError):
            Fact(bad)

    def test_facts_order_by_rendered_identity(self):
        assert sorted([Fact("b"), Fact("a", ("z",)), Fact("a", ("y",))]) == [
            Fact("a", ("y",)),
            Fact("a", ("z",)),
            Fact("b"),
        ]


class TestActionsAndModels:
    def test_overlapping_add_delete_rejected(self):
        with pytest.raises(ModelError):
            GroundAction("a", frozenset(), frozenset({P}), frozenset({P}), 1)

    def test_negative_cost_rejected(self):
        with pytest.raises(ModelError):
            GroundAction("a", frozenset(), frozenset({P}), frozenset(), -1)

    @pytest.mark.parametrize("cost", [1.5, True])
    def test_non_int_cost_rejected(self, cost):
        with pytest.raises(ModelError, match="^action a: cost must be an int$"):
            GroundAction("a", frozenset(), frozenset({P}), frozenset(), cost)

    @pytest.mark.parametrize("name", ["init", "goal"])
    def test_reserved_action_names_rejected(self, name):
        with pytest.raises(ModelError):
            GroundAction(name, frozenset(), frozenset({P}), frozenset(), 1)

    def test_action_name_with_reserved_infix_rejected(self):
        with pytest.raises(ModelError):
            GroundAction("a-has-b", frozenset(), frozenset({P}), frozenset(), 1)

    def test_model_sorts_actions_by_name(self):
        a = GroundAction("zzz", frozenset(), frozenset({P}), frozenset(), 1)
        b = GroundAction("aaa", frozenset(), frozenset({Q}), frozenset(), 1)
        m = Model(frozenset({P, Q}), (a, b), frozenset(), frozenset({P}))
        assert [act.name for act in m.actions] == ["aaa", "zzz"]

    def test_model_rejects_init_outside_universe(self):
        with pytest.raises(ModelError):
            Model(frozenset({P}), (), frozenset({Q}), frozenset({P}))

    def test_model_rejects_action_facts_outside_universe(self):
        act = GroundAction("a", frozenset({Q}), frozenset({P}), frozenset(), 1)
        with pytest.raises(ModelError):
            Model(frozenset({P}), (act,), frozenset(), frozenset({P}))

    def test_duplicate_action_names_rejected(self):
        a1 = GroundAction("a", frozenset(), frozenset({P}), frozenset(), 1)
        a2 = GroundAction("a", frozenset(), frozenset({Q}), frozenset(), 2)
        with pytest.raises(ModelError):
            Model(frozenset({P, Q}), (a1, a2), frozenset(), frozenset({P}))

    def test_digest_stable_under_action_order(self):
        a = GroundAction("a", frozenset(), frozenset({P}), frozenset(), 1)
        b = GroundAction("b", frozenset(), frozenset({Q}), frozenset(), 1)
        m1 = Model(frozenset({P, Q}), (a, b), frozenset(), frozenset({P}))
        m2 = Model(frozenset({P, Q}), (b, a), frozenset(), frozenset({P}))
        assert m1.digest() == m2.digest()
        assert m1 == m2

    def test_model_classes_carry_no_instance_dict(self):
        m = tiny_model()
        feature = Feature(FeatureKind.INIT, fact=P)
        for obj in (P, m.action("go"), m, feature, FeatureChange("add", feature)):
            assert not hasattr(obj, "__dict__"), type(obj)

    def test_with_facts_copies_only_a_grown_universe(self):
        m = tiny_model()
        assert m.with_facts([P, G]) is m
        assert m.with_facts(iter(())) is m
        r = Fact("r")
        grown = m.with_facts([r, P])
        assert grown.facts == m.facts | {r}
        assert (grown.actions, grown.init, grown.goal) == (m.actions, m.init, m.goal)


def value_pairs() -> dict:
    """Two separately built, equal instances of each model value class."""

    def build():
        at = Fact("at", ("rover0", "w1"))
        feature = Feature(FeatureKind.PRECONDITION, owner="go", fact=at)
        return {
            "Fact": at,
            "GroundAction": GroundAction("go", frozenset({P}), frozenset({G}), frozenset({Q}), 3),
            "Model": tiny_model(),
            "Feature": feature,
            "FeatureChange": FeatureChange("remove", feature),
        }

    first, second = build(), build()
    return {name: (first[name], second[name]) for name in first}


VALUES = sorted(value_pairs())


class TestValueSemantics:
    """The model values are immutable, slotted, type-strict values."""

    @pytest.mark.parametrize("name", VALUES)
    def test_equal_values_hash_equal(self, name):
        a, b = value_pairs()[name]
        assert a is not b and a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    @pytest.mark.parametrize("name", VALUES)
    def test_equality_is_type_strict(self, name):
        value, _ = value_pairs()[name]
        as_tuple = tuple(getattr(value, field) for field in value._fields)
        assert value != as_tuple and as_tuple != value
        assert not isinstance(value, tuple)

    def test_fact_differs_from_tuple_and_lifted_atom(self):
        assert Fact("p") != ("p", ())
        assert Fact("p") != LiftedAtom("p", ())
        assert LiftedAtom("p", ()) != Fact("p")

    @pytest.mark.parametrize("name", VALUES)
    def test_fields_cannot_be_assigned_or_deleted(self, name):
        value, twin = value_pairs()[name]
        for field in value._fields:
            with pytest.raises(AttributeError):
                setattr(value, field, getattr(value, field))
            with pytest.raises(AttributeError):
                delattr(value, field)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert value == twin

    @pytest.mark.parametrize("name", VALUES)
    def test_no_instance_dict(self, name):
        value, _ = value_pairs()[name]
        assert not hasattr(value, "__dict__")

    @pytest.mark.parametrize("name", VALUES)
    def test_copy_and_pickle_round_trip(self, name):
        value, _ = value_pairs()[name]
        for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert clone == value and type(clone) is type(value)

    def test_sorted_orders_facts_by_name_then_args(self):
        facts = [Fact("b"), Fact("a", ("z",)), Fact("a"), Fact("a", ("y", "x")), Fact("a", ("y",))]
        assert [f.render() for f in sorted(facts)] == ["a", "a(y)", "a(y,x)", "a(z)", "b"]

    @pytest.mark.parametrize("name", ["Fact", "Feature", "FeatureChange"])
    def test_every_comparison_operator_orders(self, name):
        value, twin = value_pairs()[name]
        assert value <= twin and value >= twin and not value < twin and not value > twin
        with pytest.raises(TypeError):
            value < tuple(getattr(value, field) for field in value._fields)

    @pytest.mark.parametrize("name", ["GroundAction", "Model"])
    def test_actions_and_models_are_unordered(self, name):
        value, twin = value_pairs()[name]
        for compare in (lambda a, b: a < b, lambda a, b: a <= b, lambda a, b: a > b,
                        lambda a, b: a >= b):
            with pytest.raises(TypeError):
                compare(value, twin)

    @pytest.mark.parametrize("name", VALUES)
    def test_hash_is_the_hash_of_the_key(self, name):
        # Set orders, and so every output, rest on these hashes staying put.
        value, _ = value_pairs()[name]
        if name == "Feature":
            key = (value.render(),)
        else:
            key = tuple(getattr(value, field) for field in value._fields)
        assert hash(value) == hash(key)

    def test_sorted_orders_features_by_rendered_string(self):
        features = [
            Feature(FeatureKind.INIT, fact=Fact("z")),
            Feature(FeatureKind.GOAL, fact=Fact("a")),
            Feature(FeatureKind.COST, owner="go", cost=10),
            Feature(FeatureKind.COST, owner="go", cost=9),
            Feature(FeatureKind.ADD_EFFECT, owner="go", fact=P),
            Feature(FeatureKind.PRECONDITION, owner="a", fact=P),
        ]
        assert [f.render() for f in sorted(features)] == sorted(f.render() for f in features)
        assert [f.render() for f in sorted(features)] == [
            "a-has-precondition-p", "go-has-add-effect-p", "go-has-cost-10",
            "go-has-cost-9", "goal-has-a", "init-has-z",
        ]
        changes = [FeatureChange(d, f) for d in ("remove", "add") for f in features[:3]]
        assert [c.render() for c in sorted(changes)] == [
            "add go-has-cost-10", "add goal-has-a", "add init-has-z",
            "remove go-has-cost-10", "remove goal-has-a", "remove init-has-z",
        ]

    def test_equal_features_share_one_string(self):
        for text in ("go-has-precondition-p(x,y)", "go-has-cost-12", "init-has-q"):
            built = parse_feature(text)
            again = parse_feature(" " + text)
            assert built == again and built.sort_index is again.sort_index
        rendered = Feature(FeatureKind.PRECONDITION, owner="go", fact=Fact("p", ("x", "y")))
        assert rendered.sort_index is parse_feature("go-has-precondition-p(x,y)").sort_index

    def test_repr_strings(self):
        at = Fact("at", ("r", "w1"))
        feature = Feature(FeatureKind.PRECONDITION, owner="go", fact=at)
        go = GroundAction("go", frozenset(), frozenset({P}), frozenset())
        assert repr(at) == "Fact(name='at', args=('r', 'w1'))"
        assert repr(GroundAction("go", frozenset({P}), frozenset(), frozenset(), 2)) == (
            "GroundAction(name='go', preconditions=frozenset({Fact(name='p', args=())}), "
            "add_effects=frozenset(), delete_effects=frozenset(), cost=2)"
        )
        assert repr(Model(frozenset({P}), (go,), frozenset(), frozenset({P}))) == (
            "Model(facts=frozenset({Fact(name='p', args=())}), actions=(GroundAction("
            "name='go', preconditions=frozenset(), add_effects=frozenset({Fact(name='p', "
            "args=())}), delete_effects=frozenset(), cost=1),), init=frozenset(), "
            "goal=frozenset({Fact(name='p', args=())}))"
        )
        assert repr(feature) == (
            "Feature(kind=<FeatureKind.PRECONDITION: 'precondition'>, owner='go', "
            "fact=Fact(name='at', args=('r', 'w1')), cost=None)"
        )
        assert repr(Feature(FeatureKind.COST, owner="go", cost=2)) == (
            "Feature(kind=<FeatureKind.COST: 'cost'>, owner='go', fact=None, cost=2)"
        )
        assert repr(FeatureChange("remove", feature)) == (
            "FeatureChange(direction='remove', feature=" + repr(feature) + ")"
        )

    def test_replace_revalidates(self):
        act = tiny_model().action("go")
        assert act._replace(cost=5) == GroundAction("go", act.preconditions, act.add_effects,
                                                   act.delete_effects, 5)
        with pytest.raises(ModelError, match="overlap"):
            act._replace(add_effects=act.delete_effects)
        with pytest.raises(ModelError):
            act._replace(cost=-1)
        with pytest.raises(TypeError):
            act._replace(colour="red")


class TestFeatureGrammar:
    def test_feature_strings(self):
        m = tiny_model()
        assert sorted(f.render() for f in gamma(m)) == [
            "go-has-add-effect-g",
            "go-has-cost-3",
            "go-has-delete-effect-q",
            "go-has-precondition-p",
            "goal-has-g",
            "init-has-p",
            "init-has-q",
        ]

    @pytest.mark.parametrize(
        "text",
        [
            "init-has-not-holiday",
            "goal-has-happy",
            "visit-park-has-precondition-car-ready",
            "navigate-rover0-w0-w1-has-add-effect-at(rover0,w1)",
            "sample_soil-rover0-store0-w1-has-delete-effect-empty(store0)",
            "visit-park-has-cost-10",
        ],
    )
    def test_feature_parse_render_round_trip(self, text):
        assert parse_feature(text).render() == text

    def test_first_infix_occurrence_splits_owner(self):
        feat = parse_feature("visit-park-has-precondition-car-ready")
        assert feat.owner == "visit-park"
        assert feat.fact == Fact("car-ready")
        assert feat.kind is FeatureKind.PRECONDITION

    @pytest.mark.parametrize(
        "bad",
        [
            "no-separator",
            "go-has-unknown-p",
            "go-has-cost-x",
            "go-has-cost--3",
            "init-has-",
        ],
    )
    def test_unparseable_features_rejected(self, bad):
        with pytest.raises(ModelError):
            parse_feature(bad)

    def test_cost_feature_requires_cost(self):
        with pytest.raises(ModelError):
            Feature(FeatureKind.COST, owner="go")

    def test_init_feature_rejects_owner(self):
        with pytest.raises(ModelError):
            Feature(FeatureKind.INIT, owner="go", fact=P)

    def test_cost_feature_rejects_a_negative_cost(self):
        with pytest.raises(ModelError, match="^cost features carry a non-negative integer$"):
            Feature(FeatureKind.COST, "a", cost=-1)

    def test_precondition_feature_requires_a_fact(self):
        message = "^precondition features carry an owner and a fact$"
        with pytest.raises(ModelError, match=message):
            Feature(FeatureKind.PRECONDITION, "a")

    def test_change_round_trip(self):
        for text in ("add init-has-p", "remove go-has-precondition-p"):
            assert parse_change(text).render() == text

    def test_change_rejects_bad_direction(self):
        with pytest.raises(ModelError):
            parse_change("toggle init-has-p")
        feature = Feature(FeatureKind.INIT, fact=P)
        with pytest.raises(ModelError, match=re.escape("invalid change direction 'toggle'")):
            FeatureChange("toggle", feature)


class TestGammaReconstruct:
    def test_reconstruct_inverts_gamma(self):
        m = tiny_model()
        assert reconstruct(gamma(m), facts=m.facts) == m

    def test_reconstruct_infers_universe_from_features(self):
        m = tiny_model()
        rebuilt = reconstruct(gamma(m))
        assert rebuilt.init == m.init
        assert rebuilt.goal == m.goal
        assert rebuilt.actions == m.actions

    def test_reconstruct_round_trip_on_random_models(self):
        rng = random.Random(7)
        for _ in range(25):
            m = random_model(rng)
            assert reconstruct(gamma(m), facts=m.facts) == m

    def test_gamma_has_exactly_one_cost_feature_per_action(self):
        rng = random.Random(8)
        for _ in range(25):
            m = random_model(rng)
            cost_feats = [f for f in gamma(m) if f.kind is FeatureKind.COST]
            assert sorted(f.owner for f in cost_feats) == sorted(a.name for a in m.actions)


class TestAgainstFeatureSets:
    """``digest`` and ``delta`` agree with their definitions over ``gamma``."""

    def test_random_model_pairs(self):
        rng = random.Random(21)
        shared = 0
        for _ in range(300):
            m1, m2 = random_model(rng), random_model(rng, min_cost=0)
            assert (m1.digest(), m2.digest()) == (gamma_digest(m1), gamma_digest(m2))
            if {a.name for a in m1.actions} != {a.name for a in m2.actions}:
                with pytest.raises(UniverseMismatchError):
                    delta(m1, m2)
                continue
            shared += 1
            assert delta(m1, m2) == gamma_delta(m1, m2)
            assert delta(m2, m1) == gamma_delta(m2, m1)
        assert shared >= 50

    def test_edit_chains(self):
        rng = random.Random(22)
        kinds = set()
        for _ in range(40):
            chain = random_edit_chain(rng, random_model(rng), 8)
            for before, after in zip(chain, chain[1:]):
                (change,) = delta(before, after)
                kinds.add(change.feature.kind)
            for model in chain:
                assert model.digest() == gamma_digest(model)
                for other in (chain[0], chain[-1]):
                    assert delta(model, other) == gamma_delta(model, other)
                    assert delta(other, model) == gamma_delta(other, model)
        assert kinds == set(FeatureKind)


class TestDelta:
    def test_identical_models_have_empty_delta(self):
        assert delta(tiny_model(), tiny_model()) == frozenset()

    def test_errand_pair_differs_in_three_init_facts(self, errand_pair):
        robot, human = errand_pair
        changes = sorted(c.render() for c in delta(human, robot))
        assert changes == [
            "add init-has-car-ready",
            "add init-has-is-sunny",
            "remove init-has-not-holiday",
        ]

    def test_cost_difference_yields_single_replace_style_add(self):
        m1, m2 = tiny_model(3), tiny_model(8)
        changes = delta(m1, m2)
        assert {c.render() for c in changes} == {"add go-has-cost-8"}

    def test_distance_is_symmetric(self):
        rng = random.Random(9)
        for _ in range(20):
            m1, m2 = random_model(rng), random_model(rng)
            if {a.name for a in m1.actions} != {a.name for a in m2.actions}:
                continue
            universe = m1.facts | m2.facts
            m1u, m2u = m1.with_facts(universe), m2.with_facts(universe)
            assert len(delta(m1u, m2u)) == len(delta(m2u, m1u))

    def test_mismatched_action_universe_rejected(self):
        m1 = tiny_model()
        act = GroundAction("other", frozenset(), frozenset({G}), frozenset(), 1)
        m2 = Model(m1.facts, (act,), m1.init, m1.goal)
        with pytest.raises(UniverseMismatchError):
            delta(m1, m2)

    def test_applying_full_delta_reaches_target(self):
        rng = random.Random(10)
        tried = 0
        while tried < 15:
            m1 = random_model(rng)
            m2 = random_model(rng)
            if {a.name for a in m1.actions} != {a.name for a in m2.actions}:
                continue
            tried += 1
            universe = m1.facts | m2.facts
            m1u, m2u = m1.with_facts(universe), m2.with_facts(universe)
            model = m1u
            # removals first: an addition into one effect slot may need the
            # opposite slot vacated before it becomes a valid edit
            changes = sorted(
                delta(m1u, m2u), key=lambda c: (c.direction != "remove", c.render())
            )
            for change in changes:
                model = apply_change(model, change)
            assert gamma(model) == gamma(m2u)


class TestApplyChange:
    def test_add_and_remove_init(self):
        m = tiny_model()
        m2 = apply_change(m, parse_change("add init-has-g"))
        assert Fact("g") in m2.init
        m3 = apply_change(m2, parse_change("remove init-has-g"))
        assert m3 == m

    def test_add_precondition(self):
        m = apply_change(tiny_model(), parse_change("add go-has-precondition-q"))
        assert Fact("q") in m.action("go").preconditions

    def test_cost_add_replaces(self):
        m = apply_change(tiny_model(3), parse_change("add go-has-cost-7"))
        assert m.action("go").cost == 7

    def test_adding_present_feature_fails(self):
        with pytest.raises(ChangePreconditionError):
            apply_change(tiny_model(), parse_change("add init-has-p"))

    def test_removing_absent_feature_fails(self):
        with pytest.raises(ChangePreconditionError):
            apply_change(tiny_model(), parse_change("remove init-has-g"))

    def test_adding_current_cost_fails(self):
        with pytest.raises(ChangePreconditionError):
            apply_change(tiny_model(3), parse_change("add go-has-cost-3"))

    def test_removing_cost_feature_is_invalid(self):
        with pytest.raises(InvalidEditError):
            apply_change(tiny_model(3), parse_change("remove go-has-cost-3"))

    def test_unknown_action_is_invalid(self):
        with pytest.raises(InvalidEditError):
            apply_change(tiny_model(), parse_change("add fly-has-precondition-p"))

    def test_fact_outside_universe_is_invalid(self):
        with pytest.raises(InvalidEditError):
            apply_change(tiny_model(), parse_change("add init-has-unknown"))

    def test_overlapping_effect_edit_is_invalid(self):
        # go already adds g, so making it also delete g must fail
        with pytest.raises(InvalidEditError):
            apply_change(tiny_model(), parse_change("add go-has-delete-effect-g"))

    def test_a_removal_that_empties_a_set_shares_one_empty_set(self):
        m = tiny_model()
        for feature in ("goal-has-g", "go-has-delete-effect-q", "init-has-p", "init-has-q"):
            m = apply_change(m, parse_change(f"remove {feature}"))
        assert m.goal is _NO_FACTS and m.init is _NO_FACTS
        assert m.action("go").delete_effects is _NO_FACTS

    def test_inverse_changes_cancel(self):
        m = tiny_model()
        change = parse_change("add goal-has-p")
        inverse = FeatureChange("remove", change.feature)
        assert apply_change(apply_change(m, change), inverse) == m


def every_change(model: Model) -> list[FeatureChange]:
    """Both directions of every feature over the model's facts and actions,
    plus cost replacements to the current, a lower and a higher cost."""
    features = []
    for fact in sorted(model.facts):
        features.append(Feature(FeatureKind.INIT, fact=fact))
        features.append(Feature(FeatureKind.GOAL, fact=fact))
        for act in model.actions:
            for kind in (FeatureKind.PRECONDITION, FeatureKind.ADD_EFFECT, FeatureKind.DELETE_EFFECT):
                features.append(Feature(kind, owner=act.name, fact=fact))
    for act in model.actions:
        for cost in {0, act.cost, act.cost + 1}:
            features.append(Feature(FeatureKind.COST, owner=act.name, cost=cost))
    return [FeatureChange(d, f) for f in features for d in ("add", "remove")]


class TestDerivedModels:
    """apply_change builds each child through the validating constructor;
    a child must equal, and hash like, the same model built from its parts
    and the one rebuilt from its features, also a level further down."""

    def assert_derivations_match_validated_models(self, model: Model) -> int:
        derived = 0
        for change in every_change(model):
            try:
                child = apply_change(model, change)
            except (ChangePreconditionError, InvalidEditError):
                continue
            derived += 1
            validated = Model(child.facts, child.actions, child.init, child.goal)
            assert child == validated and hash(child) == hash(validated), change
            rebuilt = reconstruct(gamma(child), child.facts)
            assert child == rebuilt and hash(child) == hash(rebuilt), change
        return derived

    def test_random_models_and_their_children(self):
        rng = random.Random(5)
        for _ in range(30):
            m = random_model(rng, min_cost=0)
            assert self.assert_derivations_match_validated_models(m) > 0
            # and one level further down, from a derived parent
            child = apply_change(m, FeatureChange("add", Feature(
                FeatureKind.COST, owner=m.actions[0].name, cost=m.actions[0].cost + 1
            )))
            self.assert_derivations_match_validated_models(child)

    def test_rover_model(self, rover_p01):
        assert self.assert_derivations_match_validated_models(rover_p01) > 0

    def test_derived_children_keep_every_edit_check(self):
        # start from a derived model so each check runs on an edited parent
        m = apply_change(tiny_model(3), parse_change("add go-has-cost-5"))
        with pytest.raises(InvalidEditError):
            apply_change(m, parse_change("add go-has-delete-effect-g"))  # overlap
        with pytest.raises(InvalidEditError):
            apply_change(m, parse_change("add go-has-add-effect-unknown"))
        with pytest.raises(InvalidEditError):
            apply_change(m, parse_change("add fly-has-cost-2"))
        with pytest.raises(InvalidEditError):
            apply_change(m, parse_change("remove fly-has-precondition-p"))
        with pytest.raises(ChangePreconditionError):
            apply_change(m, parse_change("add go-has-precondition-p"))
        with pytest.raises(ChangePreconditionError):
            apply_change(m, parse_change("remove go-has-delete-effect-p"))
        with pytest.raises(ChangePreconditionError):
            apply_change(m, parse_change("add go-has-cost-5"))
        with pytest.raises(ChangePreconditionError):
            apply_change(m, parse_change("remove goal-has-q"))

    def test_public_constructor_still_validates(self):
        m = apply_change(tiny_model(), parse_change("add init-has-g"))
        with pytest.raises(ModelError):
            Model(m.facts - {G}, m.actions, m.init, m.goal)


@given(
    st.lists(
        st.sampled_from([Fact("p"), Fact("q"), Fact("g"), Fact("r", ("o1",))]),
        max_size=4,
        unique=True,
    )
)
def test_init_features_mirror_init_set(init_facts):
    universe = frozenset({Fact("p"), Fact("q"), Fact("g"), Fact("r", ("o1",))})
    m = Model(universe, (), frozenset(init_facts), frozenset())
    got = {f.fact for f in gamma(m) if f.kind is FeatureKind.INIT}
    assert got == set(init_facts)
