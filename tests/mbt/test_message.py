"""Unit tests for messages."""

from repro.mbt import Constraint, Message


def test_message_ids_are_unique_and_increasing():
    a = Message(kind="x")
    b = Message(kind="x")
    assert b.msg_id > a.msg_id


def test_make_reply_swaps_endpoints_and_links_ids():
    request = Message(kind="pull", sender="pump", target="decoder", needs_reply=True)
    reply = request.make_reply(payload="frame")
    assert reply.sender == "decoder"
    assert reply.target == "pump"
    assert reply.reply_to == request.msg_id
    assert reply.kind == "pull-reply"
    assert reply.payload == "frame"
    assert reply.is_reply_to(request)


def test_make_reply_preserves_constraint():
    c = Constraint(priority=4)
    request = Message(kind="pull", sender="a", target="b", constraint=c)
    assert request.make_reply().constraint is c


def test_is_reply_to_rejects_other_messages():
    request = Message(kind="pull", sender="a", target="b")
    other = Message(kind="pull", sender="a", target="b")
    assert not other.make_reply().is_reply_to(request)
