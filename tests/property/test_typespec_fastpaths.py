"""The fast Typespec algebra equals the slow one.

``Typespec.intersect`` returns an operand unchanged when the other admits
every flow (or is the same object), and ``intersect`` / ``with_props`` /
``without`` wrap their already-canonical results without re-normalising
them.  The reference below takes neither shortcut: it merges property by
property and rebuilds every result through the normalising constructor,
which is what the algebra did before.  Results, hashes, subset verdicts
and — on conflict — the mismatch message and ``conflicts`` must agree.

NaN is left out of the value strategies: it is the one scalar that does
not equal itself, so ``a.intersect(a)`` was a conflict for it before and
is ``a`` now.
"""

import pytest
from hypothesis import given, strategies as st

from repro.core.typespec import (
    ANY,
    Choices,
    Interval,
    Typespec,
    intersect_values,
    normalize,
    value_is_subset,
)
from repro.errors import TypespecMismatch

scalars = st.one_of(
    st.integers(min_value=-20, max_value=20),
    st.floats(min_value=-20, max_value=20, allow_nan=False),
    st.sampled_from(["mpeg", "raw", "bytes", "video", "audio"]),
)
#: As a user writes them: any non-empty collection, singletons included
#: (the constructor turns ``{x}`` into ``x``).
alternatives = st.one_of(
    st.frozensets(scalars, min_size=1, max_size=4),
    st.lists(scalars, min_size=1, max_size=4),
    st.frozensets(scalars, min_size=1, max_size=4).map(Choices),
)
intervals = st.tuples(
    st.integers(min_value=-20, max_value=20),
    st.integers(min_value=0, max_value=20),
).map(lambda t: Interval(t[0], t[0] + t[1]))
flat_values = st.one_of(st.just(ANY), scalars, alternatives, intervals)
keys = st.sampled_from(["a", "b", "c", "format", "rate"])
flat_specs = st.dictionaries(keys, flat_values, max_size=4).map(Typespec)
#: A marshalled flow carries the item-level spec as a property value.
values = st.one_of(flat_values, flat_specs)
typespecs = st.dictionaries(
    st.one_of(keys, st.just("carried")), values, max_size=5
).map(Typespec)
contexts = st.sampled_from(["", "flow into 'sink'", "merging flows into 'm'"])


# ---------------------------------------------------------------- reference


def stored(spec: Typespec) -> dict:
    return dict(spec.items())


def ref_intersect(a: Typespec, b: Typespec, context: str = "") -> Typespec:
    merged = stored(a)
    conflicts = {}
    for key, value in stored(b).items():
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
        prefix = f"{context}: " if context else ""
        raise TypespecMismatch(
            f"{prefix}no common flow ({detail})", conflicts=conflicts
        )
    return Typespec(merged)


def ref_with_props(spec: Typespec, **changes) -> Typespec:
    merged = stored(spec)
    for key, value in changes.items():
        if normalize(value) is ANY:
            merged.pop(key, None)
        else:
            merged[key] = value
    return Typespec(merged)


def ref_without(spec: Typespec, *dropped: str) -> Typespec:
    return Typespec(
        {k: v for k, v in stored(spec).items() if k not in dropped}
    )


def ref_is_subset(a: Typespec, b: Typespec) -> bool:
    return all(value_is_subset(a[key], b[key]) for key in stored(b))


def outcome(fn, *args, **kwargs):
    """("ok", result) or ("mismatch", message, conflicts)."""
    try:
        return ("ok", fn(*args, **kwargs))
    except TypespecMismatch as mismatch:
        return ("mismatch", str(mismatch), mismatch.conflicts)


def assert_same_spec(
    fast: Typespec, slow: Typespec, *, check_repr: bool = True
) -> None:
    assert fast == slow and slow == fast
    assert hash(fast) == hash(slow)
    assert stored(fast) == stored(slow)
    if check_repr:
        assert repr(fast) == repr(slow)
    # Canonical all the way down: normalising again changes nothing.
    for value in stored(fast).values():
        assert value is not ANY
        again = normalize(value)
        assert again == value and type(again) is type(value)


# ---------------------------------------------------------------- intersect


@given(typespecs, typespecs, contexts)
def test_intersect_equals_reference(a, b, context):
    fast = outcome(a.intersect, b, context=context)
    slow = outcome(ref_intersect, a, b, context)
    assert fast[0] == slow[0]
    if fast[0] == "ok":
        assert_same_spec(fast[1], slow[1])
    else:
        assert fast[1:] == slow[1:]


@given(typespecs, contexts)
def test_any_is_a_two_sided_identity(a, context):
    top = Typespec.any()
    assert a.intersect(top, context=context) is a
    assert a.intersect(Typespec(), context=context) is a
    if stored(a):
        assert top.intersect(a, context=context) is a
        assert Typespec().intersect(a, context=context) is a
    else:  # two tops meet in either of them
        assert_same_spec(top.intersect(a, context=context), a)
    assert top.intersect(top) is top and not stored(top)


@given(typespecs)
def test_intersect_is_idempotent(a):
    assert a.intersect(a) is a
    twin = Typespec(stored(a))
    assert twin is not a
    assert_same_spec(a.intersect(twin), a)
    assert_same_spec(a.intersect(twin), ref_intersect(a, a))


@given(typespecs, typespecs)
def test_intersect_commutes_up_to_equality(a, b):
    ab, ba = outcome(a.intersect, b), outcome(b.intersect, a)
    assert ab[0] == ba[0]
    if ab[0] == "ok":
        # Where one side says 0 and the other 0.0 each result keeps its
        # left operand's spelling, so repr alone may differ — declared in
        # Typespec.intersect's docstring.
        assert_same_spec(ab[1], ba[1], check_repr=False)
    else:
        assert set(ab[2]) == set(ba[2])
        for key, (left, right) in ab[2].items():
            assert ba[2][key] == (right, left)


@given(typespecs, typespecs)
def test_mismatch_in_context_is_the_prefixed_mismatch(a, b):
    bare = outcome(a.intersect, b)
    if bare[0] == "ok":
        return
    with pytest.raises(TypespecMismatch) as caught:
        a.intersect(b)
    moved = caught.value.in_context("flow into 'sink'")
    assert type(moved) is TypespecMismatch
    assert str(moved) == f"flow into 'sink': {bare[1]}"
    assert moved.conflicts == bare[2]
    assert outcome(a.intersect, b, context="flow into 'sink'") == (
        "mismatch", str(moved), moved.conflicts
    )


# ------------------------------------------------------- with_props / without


@given(typespecs, st.dictionaries(keys, values, max_size=3))
def test_with_props_equals_reference(a, changes):
    assert_same_spec(a.with_props(**changes), ref_with_props(a, **changes))
    assert stored(a) == stored(Typespec(stored(a)))  # a itself untouched


@given(typespecs, st.lists(st.one_of(keys, st.just("carried")), max_size=3))
def test_without_equals_reference(a, dropped):
    assert_same_spec(a.without(*dropped), ref_without(a, *dropped))


# ------------------------------------------------------- subset / eq / hash


@given(typespecs, typespecs)
def test_is_subset_of_equals_reference(a, b):
    assert a.is_subset_of(b) == ref_is_subset(a, b)
    met = outcome(a.intersect, b)
    if met[0] == "ok":
        assert met[1].is_subset_of(a) and met[1].is_subset_of(b)
        assert met[1].is_subset_of(a) == ref_is_subset(met[1], a)


@given(typespecs, typespecs)
def test_eq_and_hash_follow_the_stored_properties(a, b):
    assert (a == b) == (stored(a) == stored(b))
    if a == b:
        assert hash(a) == hash(b)
    rebuilt = Typespec(stored(a))
    assert rebuilt == a and hash(rebuilt) == hash(a)
    assert (a == Typespec.any()) == (not stored(a))
