"""Ground STRIPS models and their unit-feature calculus.

A model is broken down into atomic features: membership of a fact in the
initial state, in the goal, or in an action's precondition/add/delete sets,
plus one cost feature per action.  Feature strings follow a fixed grammar
(``init-has-<fact>``, ``<action>-has-precondition-<fact>``, ...) so that two
models can be diffed, edited, and reconciled one feature at a time.
"""

from __future__ import annotations

import re
import sys
from enum import Enum
from functools import total_ordering
from operator import attrgetter
from typing import Iterable

# The built-in sha256, imported as ``random`` imports its sha512: through
# ``hashlib`` it would load OpenSSL, several megabytes for one hash.
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256

__all__ = [
    "Fact",
    "GroundAction",
    "Model",
    "FeatureKind",
    "Feature",
    "FeatureChange",
    "ModelError",
    "UniverseMismatchError",
    "ChangePreconditionError",
    "InvalidEditError",
    "parse_fact",
    "parse_feature",
    "parse_change",
    "gamma",
    "delta",
    "apply_change",
]

# "-has-" is the reserved infix of the feature grammar; identifiers must not
# contain it, or feature strings would no longer parse unambiguously.
_IDENT_RE = re.compile(r"[a-z0-9_][a-z0-9_-]*")
_RESERVED_INFIX = "-has-"
_RESERVED_NAMES = frozenset({"init", "goal"})


class ModelError(Exception):
    """Base class for model construction and editing errors."""


class UniverseMismatchError(ModelError):
    """Two models that should share a universe do not."""


class ChangePreconditionError(ModelError):
    """A change's presence/absence precondition does not hold."""


class InvalidEditError(ModelError):
    """Applying a change would produce an invalid model."""


def _check_ident(text: str, what: str) -> str:
    if not _IDENT_RE.fullmatch(text or ""):
        raise ModelError(f"invalid {what} {text!r}: expected lowercase identifier")
    if _RESERVED_INFIX in text:
        raise ModelError(f"invalid {what} {text!r}: {_RESERVED_INFIX!r} is reserved")
    return text


def _unsigned(text: str) -> int | None:
    """``text`` as an unsigned integer, or None: every model format writes
    its costs in ASCII digits, and ``int`` refuses more than 4,300 of them."""
    try:
        return int(text) if text.isascii() and text.isdigit() else None
    except ValueError:
        return None


class _Value:
    """Base of the slotted, immutable model values: each names its
    constructor's arguments in ``_fields`` and stores them with one ``_set``.
    Equality, hashing and, for the classes that take ``_lt`` as ``__lt__``,
    order follow ``_key``: the ``_fields`` tuple, or a :class:`Feature`'s
    rendered string.  :class:`Fact` orders by ``_lt`` but spells out its
    equality and a cached hash: grounding hashes and compares facts in its
    inner loop, and the generic ones made each ``ground`` of rover p02 about
    10% slower (2.25 to 2.49 ms, best of 5 on Python 3.11, a shared 2-vCPU VM)."""

    __slots__ = ()

    def _set(self, *values) -> None:
        """Set the slots, in ``__slots__`` order: how a constructor stores its value."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __init_subclass__(cls) -> None:
        if "_key" not in vars(cls):  # in C: a generator here made delta 30% slower
            cls._key = property(attrgetter(*cls._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key)

    def _lt(self, other):
        if other.__class__ is self.__class__:
            return self._key < other._key
        return NotImplemented

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({args})"

    def __reduce__(self):  # copy and pickle rebuild through __init__, not setattr
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def _replace(self, **changes):
        """A copy with ``changes`` applied, validated like a new value."""
        return type(self)(**{**{name: getattr(self, name) for name in self._fields}, **changes})


@total_ordering
class Fact(_Value):
    """A ground atom, rendered as ``name`` or ``name(arg1,arg2,...)``."""

    _fields = ("name", "args")
    # _hash is computed once, as fact-set lookups hash every fact; the weak
    # reference lets grounding's table of live facts drop one no model holds.
    __slots__ = _fields + ("_hash", "__weakref__")

    def __init__(self, name: str, args: tuple[str, ...] = ()) -> None:
        _check_ident(name, "fact name")
        for a in args:
            _check_ident(a, "fact argument")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "_hash", hash((name, args)))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.name, self.args) == (other.name, other.args)
        return NotImplemented

    __lt__ = _Value._lt

    def __hash__(self) -> int:
        return self._hash

    def render(self) -> str:
        if not self.args:
            return self.name
        return f"{self.name}({','.join(self.args)})"

    __str__ = render


# One empty fact set for every empty init, goal or action slot that an edit
# or grounding makes: each empty frozenset is a separate 216-byte object.
_NO_FACTS: frozenset[Fact] = frozenset()


_FACT_RE = re.compile(r"(?P<name>[^(),\s]+)(?:\((?P<args>[^()]*)\))?$")


def parse_fact(text: str) -> Fact:
    """Inverse of :meth:`Fact.render`; accepts ``p`` and ``p()`` alike."""
    m = _FACT_RE.fullmatch(text.strip())
    if m is None:
        raise ModelError(f"cannot parse fact {text!r}")
    raw_args = m.group("args")
    if raw_args is None or raw_args == "":
        args: tuple[str, ...] = ()
    else:
        args = tuple(a.strip() for a in raw_args.split(","))
    return Fact(m.group("name"), args)


class GroundAction(_Value):
    """A ground action with disjoint add/delete effects and an integer cost."""

    __slots__ = _fields = ("name", "preconditions", "add_effects", "delete_effects", "cost")

    def __init__(self, name: str, preconditions: frozenset[Fact], add_effects: frozenset[Fact],
                 delete_effects: frozenset[Fact], cost: int = 1) -> None:
        _check_ident(name, "action name")
        if name in _RESERVED_NAMES:
            raise ModelError(f"action name {name!r} is reserved")
        if not isinstance(cost, int) or isinstance(cost, bool):
            raise ModelError(f"action {name}: cost must be an int")
        if cost < 0:
            raise ModelError(f"action {name}: cost must be non-negative")
        overlap = add_effects & delete_effects
        if overlap:
            names = ", ".join(sorted(f.render() for f in overlap))
            raise ModelError(f"action {name}: add and delete effects overlap on {names}")
        self._set(name, preconditions, add_effects, delete_effects, cost)


def _as_fact_set(facts: Iterable[Fact]) -> frozenset[Fact]:
    """``facts`` as a frozenset, the shared empty one when empty; a frozenset
    is kept as it is.  Other facts are frozen from a set: CPython sizes a
    frozenset made from a set for its contents, but one made fact by fact
    for growth, up to twice as large, and a model keeps its sets."""
    return frozenset(facts if isinstance(facts, (set, frozenset)) else set(facts)) or _NO_FACTS


class Model(_Value):
    """A ground planning model: fact universe, actions, initial state, goal."""

    _fields = ("facts", "actions", "init", "goal")
    # Not a field, so equality, hashing and copies ignore it: a private memo
    # where a ReconciliationProblem keeps the robot model's optimal-plan
    # result, so later problems over the same robot object reuse it.
    __slots__ = _fields + ("_plan_result",)

    def __init__(self, facts: Iterable[Fact], actions: Iterable[GroundAction],
                 init: Iterable[Fact], goal: Iterable[Fact]) -> None:
        facts, init, goal = _as_fact_set(facts), _as_fact_set(init), _as_fact_set(goal)
        actions = tuple(sorted(actions, key=lambda a: a.name))
        names = [a.name for a in actions]
        if len(set(names)) != len(names):
            raise ModelError("duplicate action names in model")
        holders = [("init", init), ("goal", goal)] + [
            (f"action {act.name}", act.preconditions | act.add_effects | act.delete_effects)
            for act in actions
        ]
        for label, referenced in holders:
            missing = referenced - facts
            if missing:
                raise ModelError(
                    f"{label} references facts outside the universe: "
                    + ", ".join(sorted(f.render() for f in missing))
                )
        self._set(facts, actions, init, goal, None)

    def action(self, name: str) -> GroundAction:
        for act in self.actions:
            if act.name == name:
                return act
        raise KeyError(name)

    def with_facts(self, extra: Iterable[Fact]) -> "Model":
        """Return the same model with the fact universe extended.

        A model whose universe already holds every fact in ``extra`` is
        returned as it is, so no copy of its fact set is made.
        """
        extra = frozenset(extra)
        if extra <= self.facts:
            return self
        return Model(self.facts | extra, self.actions, self.init, self.goal)

    def replace_action(self, action: GroundAction) -> "Model":
        rest = tuple(a for a in self.actions if a.name != action.name)
        if len(rest) == len(self.actions):
            raise InvalidEditError(f"model has no action named {action.name!r}")
        return Model(self.facts, rest + (action,), self.init, self.goal)

    def digest(self) -> str:
        """Short stable hash of the model's feature content.

        The first 12 hex digits of the sha256 of the model's feature strings
        (the renderings of :func:`gamma`'s features), sorted and joined by
        newlines.  The strings are rendered directly, with no
        :class:`Feature` built.
        """
        return _digest(_feature_strings(self))


class FeatureKind(Enum):
    """What a feature states: a fact of the init or goal, a fact of an
    action's precondition, add or delete effects, or an action's cost."""

    INIT = "init"
    GOAL = "goal"
    PRECONDITION = "precondition"
    ADD_EFFECT = "add-effect"
    DELETE_EFFECT = "delete-effect"
    COST = "cost"


# The action field holding each fact-carrying feature kind of an action.
_ACTION_SLOTS = {
    FeatureKind.PRECONDITION: "preconditions",
    FeatureKind.ADD_EFFECT: "add_effects",
    FeatureKind.DELETE_EFFECT: "delete_effects",
}
# The field holding each fact-carrying feature kind, of the model or of an action.
_SLOTS = {FeatureKind.INIT: "init", FeatureKind.GOAL: "goal", **_ACTION_SLOTS}


def _feature_string(kind: FeatureKind, owner: str | None, value: object) -> str:
    """The feature grammar: ``value`` is the fact (formatted as rendered), or
    the cost.

    Init and goal features have no owner: ``init-has-<fact>``.  An action's
    features name it and their kind: ``<action>-has-precondition-<fact>``,
    ``<action>-has-cost-<cost>``.
    """
    if owner is None:
        return f"{kind.value}-has-{value}"
    return f"{owner}-has-{kind.value}-{value}"


def _feature_strings(model: Model) -> list[str]:
    """The model's feature strings, sorted: what :meth:`Model.digest` hashes."""
    return sorted(_feature_string(*feature) for feature in _features(model))


def _digest(strings: list[str]) -> str:
    """:meth:`Model.digest` of the model whose sorted feature strings these are."""
    return sha256("\n".join(strings).encode()).hexdigest()[:12]


def _features(model: Model) -> Iterable[tuple[FeatureKind, str | None, object]]:
    """Each feature of ``model`` as (kind, owner, value), with no
    :class:`Feature` built: ``value`` is the fact, or the action's cost."""
    for kind, facts in ((FeatureKind.INIT, model.init), (FeatureKind.GOAL, model.goal)):
        for fact in facts:
            yield kind, None, fact
    for act in model.actions:
        for kind, slot in _ACTION_SLOTS.items():
            for fact in getattr(act, slot):
                yield kind, act.name, fact
        yield FeatureKind.COST, act.name, act.cost


@total_ordering
class Feature(_Value):
    """One atomic statement about a model, identified (compared, ordered and
    hashed) by its rendered string, ``sort_index``."""

    _fields = ("kind", "owner", "fact", "cost")
    __slots__ = _fields + ("sort_index",)
    __lt__ = _Value._lt

    def __init__(self, kind: FeatureKind, owner: str | None = None, fact: Fact | None = None,
                 cost: int | None = None) -> None:
        if kind in (FeatureKind.INIT, FeatureKind.GOAL):
            if owner is not None or fact is None or cost is not None:
                raise ModelError(f"{kind.value} features carry a fact and nothing else")
        elif kind is FeatureKind.COST:
            if owner is None or fact is not None or cost is None:
                raise ModelError("cost features carry an owner and an integer cost")
            _check_ident(owner, "action name")
            if not isinstance(cost, int) or isinstance(cost, bool) or cost < 0:
                raise ModelError("cost features carry a non-negative integer")
        else:
            if owner is None or fact is None or cost is not None:
                raise ModelError(f"{kind.value} features carry an owner and a fact")
            _check_ident(owner, "action name")
        value = cost if kind is FeatureKind.COST else fact.render()
        # interned: equal features, from any model, share one string
        self._set(kind, owner, fact, cost, sys.intern(_feature_string(kind, owner, value)))

    @property
    def _key(self) -> tuple:
        return (self.sort_index,)

    def render(self) -> str:
        return self.sort_index

    __str__ = render


def parse_feature(text: str) -> Feature:
    """Inverse of :meth:`Feature.render`; a cost is ASCII digits."""
    text = text.strip()
    head, sep, rest = text.partition(_RESERVED_INFIX)
    if not sep:
        raise ModelError(f"cannot parse feature {text!r}: missing {_RESERVED_INFIX!r}")
    if head in _RESERVED_NAMES:  # "init" and "goal" are the kinds of their features
        return Feature(FeatureKind(head), fact=parse_fact(rest))
    owner = _check_ident(head, "action name")
    for kind in (FeatureKind.PRECONDITION, FeatureKind.ADD_EFFECT, FeatureKind.DELETE_EFFECT):
        prefix = kind.value + "-"
        if rest.startswith(prefix):
            return Feature(kind, owner=owner, fact=parse_fact(rest[len(prefix):]))
    if rest.startswith("cost-"):
        cost = _unsigned(rest[len("cost-"):])
        if cost is None:
            raise ModelError(f"cannot parse feature {text!r}: cost must be an unsigned integer")
        return Feature(FeatureKind.COST, owner=owner, cost=cost)
    raise ModelError(f"cannot parse feature {text!r}: unknown feature kind")


@total_ordering
class FeatureChange(_Value):
    """One unit edit: add or remove a feature.

    Adding a cost feature replaces the action's current cost (each action
    carries exactly one cost feature, so cost edits are replace-style);
    removing a cost feature is never valid.
    """

    __slots__ = _fields = ("direction", "feature")
    __lt__ = _Value._lt

    def __init__(self, direction: str, feature: Feature) -> None:
        if direction not in ("add", "remove"):
            raise ModelError(f"invalid change direction {direction!r}")
        self._set(direction, feature)

    def render(self) -> str:
        return f"{self.direction} {self.feature.render()}"

    __str__ = render


def parse_change(text: str) -> FeatureChange:
    """Parse ``add <feature>`` / ``remove <feature>`` lines."""
    parts = text.strip().split(None, 1)
    if len(parts) != 2 or parts[0] not in ("add", "remove"):
        raise ModelError(f"cannot parse change {text!r}: expected 'add <feature>' or 'remove <feature>'")
    return FeatureChange(parts[0], parse_feature(parts[1]))


def gamma(model: Model) -> frozenset[Feature]:
    """Decompose a model into its feature set."""
    return frozenset(
        Feature(kind, owner, cost=value) if kind is FeatureKind.COST else Feature(kind, owner, value)
        for kind, owner, value in _features(model)
    )


def _check_action_names(m1: Model, m2: Model, message: str) -> None:
    """Raise :class:`UniverseMismatchError`, ``message`` followed by the
    names only one model has, unless both have the same action names."""
    differ = {a.name for a in m1.actions} ^ {a.name for a in m2.actions}
    if differ:
        raise UniverseMismatchError(message + ", ".join(sorted(differ)))


def delta(m1: Model, m2: Model) -> frozenset[FeatureChange]:
    """The unit changes that transform ``m1`` into a model feature-equal to ``m2``.

    Cost differences contribute a single replace-style ``add`` of the target
    cost feature rather than an add/remove pair.  Features are built only
    for the init and goal facts that differ and for the actions that
    differ; an action that is the same, or equal, in both models adds none.
    """
    _check_action_names(m1, m2, "models do not share an action-name universe: ")
    changes: set[FeatureChange] = set()

    def toggle(kind: FeatureKind, owner: str | None, had: frozenset, wants: frozenset):
        for fact in wants - had:
            changes.add(FeatureChange("add", Feature(kind, owner=owner, fact=fact)))
        for fact in had - wants:
            changes.add(FeatureChange("remove", Feature(kind, owner=owner, fact=fact)))

    toggle(FeatureKind.INIT, None, m1.init, m2.init)
    toggle(FeatureKind.GOAL, None, m1.goal, m2.goal)
    # Both action tuples are sorted by name over one name set, so they pair up.
    for a1, a2 in zip(m1.actions, m2.actions):
        if a1 is a2 or a1 == a2:
            continue
        for kind, slot in _ACTION_SLOTS.items():
            toggle(kind, a1.name, getattr(a1, slot), getattr(a2, slot))
        if a1.cost != a2.cost:
            cost = Feature(FeatureKind.COST, owner=a1.name, cost=a2.cost)
            changes.add(FeatureChange("add", cost))
    return frozenset(changes)


def apply_change(model: Model, change: FeatureChange) -> Model:
    """Apply one unit change, returning a new model.

    Raises :class:`ChangePreconditionError` if the feature is already in the
    asserted state, and :class:`InvalidEditError` if the edit would leave the
    model invalid (unknown action, unknown fact, overlapping effects).  The
    result is built, and validated, like any other :class:`Model`.
    """
    feat = change.feature
    adding = change.direction == "add"
    if feat.kind is FeatureKind.COST and not adding:
        raise InvalidEditError(f"cannot remove {feat.render()}: cost features are replace-only")
    if feat.fact is not None and feat.fact not in model.facts:
        raise InvalidEditError(
            f"cannot apply {change.render()}: fact {feat.fact.render()} is outside the universe"
        )
    holder = model  # the model, or the action, whose field holds the feature
    if feat.owner is not None:
        try:
            holder = model.action(feat.owner)
        except KeyError:
            raise InvalidEditError(f"model has no action named {feat.owner!r}") from None
        if feat.kind is FeatureKind.COST:
            if holder.cost == feat.cost:
                raise ChangePreconditionError(f"{feat.render()} is already present")
            return model.replace_action(holder._replace(cost=feat.cost))
    slot = _SLOTS[feat.kind]
    current = getattr(holder, slot)
    if adding and feat.fact in current:
        raise ChangePreconditionError(f"{feat.render()} is already present")
    if not adding and feat.fact not in current:
        raise ChangePreconditionError(f"{feat.render()} is absent")
    updated = current | {feat.fact} if adding else (current - {feat.fact} or _NO_FACTS)
    try:
        edited = holder._replace(**{slot: updated})
    except ModelError as exc:
        raise InvalidEditError(f"cannot apply {change.render()}: {exc}") from None
    return edited if holder is model else model.replace_action(edited)
