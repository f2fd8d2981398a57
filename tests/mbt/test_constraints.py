"""Unit tests for scheduling constraints."""

from repro.mbt import Constraint


def test_higher_priority_is_more_urgent():
    assert Constraint(priority=5).sort_key() < Constraint(priority=1).sort_key()
    assert not (
        Constraint(priority=1).sort_key() < Constraint(priority=5).sort_key()
    )


def test_earlier_deadline_breaks_priority_ties():
    early = Constraint(priority=3, deadline=1.0)
    late = Constraint(priority=3, deadline=2.0)
    assert early.sort_key() < late.sort_key()
    assert not late.sort_key() < early.sort_key()


def test_deadline_beats_no_deadline_at_equal_priority():
    with_deadline = Constraint(priority=0, deadline=10.0)
    without = Constraint(priority=0)
    assert with_deadline.sort_key() < without.sort_key()


def test_priority_dominates_deadline():
    urgent = Constraint(priority=10)
    tight = Constraint(priority=1, deadline=0.001)
    assert urgent.sort_key() < tight.sort_key()


def test_constraint_is_hashable_and_frozen():
    c = Constraint(priority=2, deadline=1.5)
    assert hash(c) == hash(Constraint(priority=2, deadline=1.5))
    try:
        c.priority = 3
    except AttributeError:
        pass
    else:  # pragma: no cover
        raise AssertionError("Constraint should be frozen")
