"""Typespecs — extensible descriptions of information flows (section 2.3).

A :class:`Typespec` maps property names to *property values*.  A property
value is one of

* :data:`ANY` — undefined, "meaning either don't know or don't care";
* :class:`Choices` — a finite set of acceptable alternatives;
* :class:`Interval` — a closed numeric range (QoS parameters);
* a plain scalar — exactly one acceptable value.

Typespecs are immutable.  The two fundamental operations are

* **intersection** (:meth:`Typespec.intersect`) — the flows acceptable to
  both sides of a connection; an empty intersection on any property raises
  :class:`~repro.errors.TypespecMismatch`, and
* **subset** (:meth:`Typespec.is_subset_of`) — "an input or output Typespec
  can be a subset of a given output or input Typespec, because that stage
  supports only a subset of flow types".

Because Typespecs are incremental, components do not carry one fixed
Typespec; each pipeline component *transforms* a Typespec on one port to
Typespecs on its other ports (see
:meth:`repro.core.component.Component.transform_typespec`).
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Number
from typing import Any, Iterable, Iterator, Mapping

from repro.errors import TypespecMismatch


class _Any:
    """Singleton "don't know / don't care" property value (the top element)."""

    _instance: "_Any | None" = None

    def __new__(cls) -> "_Any":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "ANY"


#: The undefined property value.
ANY = _Any()


@dataclass(frozen=True)
class Choices:
    """A finite set of acceptable alternatives for a property."""

    options: frozenset

    def __init__(self, options: Iterable):
        object.__setattr__(self, "options", frozenset(options))

    def __repr__(self) -> str:
        inner = ", ".join(sorted(map(repr, self.options)))
        return f"Choices({{{inner}}})"


@dataclass(frozen=True)
class Interval:
    """A closed numeric range ``[lo, hi]`` for a QoS parameter."""

    lo: float
    hi: float

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    def __contains__(self, value: float) -> bool:
        return self.lo <= value <= self.hi

    def __repr__(self) -> str:
        return f"Interval({self.lo}, {self.hi})"


def normalize(value: Any) -> Any:
    """Coerce user input into a canonical property value.

    Sets/frozensets/lists become :class:`Choices`; scalars stay scalars;
    :data:`ANY`, :class:`Choices` and :class:`Interval` pass through.
    """
    if value is ANY or isinstance(value, Interval):
        return value
    if isinstance(value, (Choices, set, frozenset, list)):
        options = value.options if isinstance(value, Choices) \
            else frozenset(value)
        if not options:
            raise ValueError(
                "a property with no acceptable alternatives admits no flow"
            )
        # Canonical form: a singleton set of alternatives IS that value,
        # keeping the algebra idempotent.
        return _simplify_choices(options)
    if isinstance(value, tuple):
        raise TypeError(
            "ambiguous tuple property value; use Interval(lo, hi) for ranges "
            "or Choices([...]) for alternatives"
        )
    return value


def intersect_values(a: Any, b: Any) -> Any:
    """Intersection of two property values; ``None`` when empty.

    Mixed scalar/Choices/Interval combinations behave set-theoretically: a
    scalar is a singleton, an Interval is the set of numbers it contains.
    """
    if a is ANY:
        return b
    if b is ANY:
        return a
    if isinstance(a, Choices) and isinstance(b, Choices):
        common = a.options & b.options
        return _simplify_choices(common)
    if isinstance(a, Choices):
        return _intersect_choices_other(a, b)
    if isinstance(b, Choices):
        return _intersect_choices_other(b, a)
    if isinstance(a, Interval) and isinstance(b, Interval):
        lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
        return Interval(lo, hi) if lo <= hi else None
    if isinstance(a, Interval):
        return _intersect_interval_scalar(a, b)
    if isinstance(b, Interval):
        return _intersect_interval_scalar(b, a)
    return a if a == b else None


def _simplify_choices(options: frozenset) -> Any:
    if not options:
        return None
    if len(options) == 1:
        return next(iter(options))
    return Choices(options)


def _intersect_choices_other(choices: Choices, other: Any) -> Any:
    if isinstance(other, Interval):
        kept = frozenset(
            o for o in choices.options if isinstance(o, Number) and o in other
        )
        return _simplify_choices(kept)
    return other if other in choices.options else None


def _intersect_interval_scalar(interval: Interval, scalar: Any) -> Any:
    if isinstance(scalar, Number) and scalar in interval:
        return scalar
    return None


def value_is_subset(a: Any, b: Any) -> bool:
    """True when every concrete value satisfying ``a`` also satisfies ``b``."""
    if b is ANY:
        return True
    if a is ANY:
        return False
    meet = intersect_values(a, b)
    if meet is None:
        return False
    return _values_equal(meet, a)


def _values_equal(a: Any, b: Any) -> bool:
    if isinstance(a, Choices) and not isinstance(b, Choices):
        return False
    if isinstance(b, Choices) and not isinstance(a, Choices):
        return False
    return a == b


class Typespec(Mapping):
    """An immutable mapping of property names to property values.

    Properties absent from the mapping are :data:`ANY`.
    """

    __slots__ = ("_props",)

    def __init__(self, props_map: Mapping[str, Any] | None = None, **props_kw: Any):
        merged: dict[str, Any] = {}
        for source in (props_map or {}), props_kw:
            for key, value in source.items():
                value = normalize(value)
                if value is not ANY:
                    merged[key] = value
        self._props = merged

    # -- construction helpers ------------------------------------------------

    @classmethod
    def _of(cls, props_map: dict[str, Any]) -> "Typespec":
        """Wrap properties that are already canonical (normalized values,
        no :data:`ANY`): what the algebra below produces from the
        properties of existing Typespecs."""
        spec = cls.__new__(cls)
        spec._props = props_map
        return spec

    @staticmethod
    def any() -> "Typespec":
        """The Typespec that admits every flow (one shared instance:
        Typespecs are immutable)."""
        return _ANY_SPEC

    def with_props(self, **props_kw: Any) -> "Typespec":
        """Functional update: returns a new Typespec with properties set or,
        when a value is :data:`ANY`, removed."""
        merged = dict(self._props)
        for key, value in props_kw.items():
            value = normalize(value)
            if value is ANY:
                merged.pop(key, None)
            else:
                merged[key] = value
        return Typespec._of(merged)

    def without(self, *keys: str) -> "Typespec":
        return Typespec._of(
            {k: v for k, v in self._props.items() if k not in keys}
        )

    # -- Mapping protocol ----------------------------------------------------

    def __getitem__(self, key: str) -> Any:
        return self._props.get(key, ANY)

    def __iter__(self) -> Iterator[str]:
        return iter(self._props)

    def __len__(self) -> int:
        return len(self._props)

    def __contains__(self, key: object) -> bool:
        return key in self._props

    # -- core operations -------------------------------------------------

    def intersect(self, other: "Typespec", context: str = "") -> "Typespec":
        """The common flows of two Typespecs.

        Raises :class:`TypespecMismatch` when any shared property has an
        empty intersection, reporting all conflicting properties at once.
        An operand comes back unchanged when the other admits every flow
        or is the same object; only a narrowing builds a new Typespec.
        Numerically equal scalars (``0`` and ``0.0``) keep the left
        operand's spelling: ``a.intersect(b)`` and ``b.intersect(a)`` are
        equal and hash alike, but their ``repr`` may differ.
        """
        if other is self or not other._props:
            return self
        if not self._props:
            return other
        merged: dict[str, Any] = dict(self._props)
        conflicts: dict[str, tuple] = {}
        for key, value in other._props.items():
            if key not in merged:
                merged[key] = value
                continue
            meet = intersect_values(merged[key], value)
            if meet is None:
                conflicts[key] = (merged[key], value)
            else:
                merged[key] = meet
        if conflicts:
            detail = "; ".join(
                f"{key}: {left!r} vs {right!r}"
                for key, (left, right) in sorted(conflicts.items())
            )
            mismatch = TypespecMismatch(
                f"no common flow ({detail})", conflicts=conflicts
            )
            raise mismatch.in_context(context) if context else mismatch
        return Typespec._of(merged)

    def compatible_with(self, other: "Typespec") -> bool:
        """True when the intersection is non-empty."""
        try:
            self.intersect(other)
        except TypespecMismatch:
            return False
        return True

    def is_subset_of(self, other: "Typespec") -> bool:
        """True when every flow satisfying ``self`` satisfies ``other``."""
        return all(
            value_is_subset(self[key], other[key]) for key in other._props
        )

    def admits(self, **concrete: Any) -> bool:
        """True when concrete property values satisfy this Typespec."""
        for key, value in concrete.items():
            constraint = self[key]
            if constraint is ANY:
                continue
            if isinstance(constraint, Choices):
                if value not in constraint.options:
                    return False
            elif isinstance(constraint, Interval):
                if not (isinstance(value, Number) and value in constraint):
                    return False
            elif constraint != value:
                return False
        return True

    # -- misc --------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Typespec) and self._props == other._props

    def __hash__(self) -> int:
        return hash(frozenset(self._props.items()))

    def __repr__(self) -> str:
        if not self._props:
            return "Typespec.any()"
        inner = ", ".join(f"{k}={v!r}" for k, v in sorted(self._props.items()))
        return f"Typespec({inner})"


_ANY_SPEC = Typespec()


class props:
    """Standard property names used by the built-in components.

    The set is open — "Typespecs are extensible and new properties can be
    added as needed" — these constants merely keep the built-ins consistent.
    """

    #: Kind of information item, e.g. ``"video-frame"``, ``"midi-event"``.
    ITEM_TYPE = "item_type"
    #: Encoding of the item, e.g. ``"mpeg"``, ``"raw"``, ``"bytes"``.
    FORMAT = "format"
    #: Behaviour of push on a full buffer: ``"block"`` or ``"drop"``.
    ON_FULL = "on_full"
    #: Behaviour of pull on an empty buffer: ``"block"`` or ``"nil"``.
    ON_EMPTY = "on_empty"
    #: Frames (items) per second.
    FRAME_RATE = "frame_rate"
    #: Video frame dimensions, pixels.
    FRAME_WIDTH = "frame_width"
    FRAME_HEIGHT = "frame_height"
    #: End-to-end latency bound, seconds.
    LATENCY = "latency"
    #: Jitter bound, seconds.
    JITTER = "jitter"
    #: Bandwidth of the underlying transport, bytes per second.
    BANDWIDTH = "bandwidth"
    #: Expected loss rate of the underlying transport, 0..1.
    LOSS_RATE = "loss_rate"
    #: Node where the flow currently is; "changed only by netpipes".
    LOCATION = "location"
