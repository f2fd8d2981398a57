"""Unit tests for the priority mailbox."""

from repro.mbt import Constraint, Mailbox, Message


def msg(kind="data", priority=None, deadline=None):
    constraint = None
    if priority is not None or deadline is not None:
        constraint = Constraint(priority=priority or 0, deadline=deadline)
    return Message(kind=kind, constraint=constraint)


def test_fifo_for_equal_urgency():
    box = Mailbox()
    first, second, third = msg("a"), msg("b"), msg("c")
    for m in (first, second, third):
        box.put(m)
    assert [box.get().kind for _ in range(3)] == ["a", "b", "c"]


def test_higher_priority_overtakes():
    box = Mailbox()
    box.put(msg("data", priority=0))
    box.put(msg("control", priority=10))
    assert box.get().kind == "control"
    assert box.get().kind == "data"


def test_unconstrained_messages_rank_below_positive_priority():
    box = Mailbox()
    box.put(msg("plain"))
    box.put(msg("urgent", priority=1))
    assert box.get().kind == "urgent"


def test_deadline_orders_within_priority():
    box = Mailbox()
    box.put(msg("late", priority=5, deadline=9.0))
    box.put(msg("early", priority=5, deadline=1.0))
    assert box.get().kind == "early"


def test_peek_does_not_remove():
    box = Mailbox()
    box.put(msg("only"))
    assert box.peek().kind == "only"
    assert len(box) == 1
    assert box.get().kind == "only"
    assert box.peek() is None


def test_get_with_match_skips_nonmatching():
    box = Mailbox()
    box.put(msg("data"))
    box.put(msg("event"))
    got = box.get(match=lambda m: m.kind == "event")
    assert got.kind == "event"
    assert len(box) == 1
    assert box.peek().kind == "data"


def test_get_with_match_respects_priority_order():
    box = Mailbox()
    box.put(msg("event-low", priority=1))
    box.put(msg("event-high", priority=9))
    got = box.get(match=lambda m: m.kind.startswith("event"))
    assert got.kind == "event-high"


def test_get_returns_none_when_empty_or_no_match():
    box = Mailbox()
    assert box.get() is None
    box.put(msg("data"))
    assert box.get(match=lambda m: m.kind == "nope") is None
    assert len(box) == 1


def test_iteration_in_delivery_order_nondestructive():
    box = Mailbox()
    box.put(msg("low", priority=0))
    box.put(msg("high", priority=3))
    box.put(msg("mid", priority=1))
    assert [m.kind for m in box] == ["high", "mid", "low"]
    assert len(box) == 3


def test_equal_urgency_arrival_order_survives_selective_receive():
    """Regression for the single-pass selective receive: removing a middle
    message must not perturb the arrival order of the constraint-equal
    messages that were skipped and restored."""
    box = Mailbox()
    kinds = ["d0", "d1", "reply", "d2", "d3", "d4"]
    for kind in kinds:
        box.put(msg(kind))
    got = box.get(match=lambda m: m.kind == "reply")
    assert got.kind == "reply"
    assert [m.kind for m in box] == ["d0", "d1", "d2", "d3", "d4"]
    assert [box.get().kind for _ in range(len(box))] == [
        "d0", "d1", "d2", "d3", "d4",
    ]


def test_equal_urgency_arrival_order_with_constrained_peers():
    """Equal-constraint messages keep FIFO order around a selective receive
    even when more- and less-urgent messages share the queue."""
    box = Mailbox()
    box.put(msg("data-a", priority=1))
    box.put(msg("control", priority=9))
    box.put(msg("data-b", priority=1))
    box.put(msg("reply", priority=1))
    box.put(msg("data-c", priority=1))
    got = box.get(match=lambda m: m.kind == "reply")
    assert got.kind == "reply"
    assert [m.kind for m in box] == ["control", "data-a", "data-b", "data-c"]


def test_failed_selective_receive_preserves_queue_exactly():
    box = Mailbox()
    for kind in ("a", "b", "c"):
        box.put(msg(kind))
    assert box.get(match=lambda m: m.kind == "missing") is None
    assert [m.kind for m in box] == ["a", "b", "c"]
    assert [box.get().kind for _ in range(3)] == ["a", "b", "c"]


def test_match_exception_restores_skipped_prefix():
    """A raising predicate must not lose the already-popped prefix."""
    box = Mailbox()
    for kind in ("a", "b", "c"):
        box.put(msg(kind))

    def explode(message):
        if message.kind == "b":
            raise RuntimeError("boom")
        return False

    try:
        box.get(match=explode)
    except RuntimeError:
        pass
    assert len(box) == 3
    assert [m.kind for m in box] == ["a", "b", "c"]
