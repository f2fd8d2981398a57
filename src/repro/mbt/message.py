"""Messages exchanged between user-level threads.

All inter-thread communication in the substrate is message passing: data
items crossing coroutine boundaries, control events, timer ticks, network
packet arrivals and OS signals are all delivered as :class:`Message` objects
("allowing all types of events to be handled by a uniform message interface",
paper section 4).
"""

from __future__ import annotations

import itertools
from typing import Any

from repro.mbt.constraints import Constraint

_message_ids = itertools.count(1)
_next_message_id = _message_ids.__next__


class Message:
    """A single message.

    Attributes
    ----------
    kind:
        Application-defined tag used for dispatch (e.g. ``"tick"``,
        ``"push"``, ``"pull-reply"``, ``"event"``).
    payload:
        Arbitrary data carried by the message.
    sender:
        Name of the sending thread, or a platform tag such as ``"timer"`` or
        ``"network"`` for external events mapped to messages.
    target:
        Name of the destination thread.
    constraint:
        Optional scheduling constraint; see :mod:`repro.mbt.constraints`.
    reply_to:
        For replies, the ``msg_id`` of the request being answered.
    needs_reply:
        True for synchronous sends, where the sender blocks awaiting a reply.
    """

    __slots__ = (
        "kind",
        "payload",
        "sender",
        "target",
        "constraint",
        "reply_to",
        "needs_reply",
        "msg_id",
    )

    def __init__(
        self,
        kind: str,
        payload: Any = None,
        sender: str = "",
        target: str = "",
        constraint: Constraint | None = None,
        reply_to: int | None = None,
        needs_reply: bool = False,
    ):
        self.kind = kind
        self.payload = payload
        self.sender = sender
        self.target = target
        self.constraint = constraint
        self.reply_to = reply_to
        self.needs_reply = needs_reply
        self.msg_id = _next_message_id()

    def make_reply(self, payload: Any = None) -> "Message":
        """Build the reply to this message, preserving its constraint."""
        return Message(
            kind=self.kind + "-reply",
            payload=payload,
            sender=self.target,
            target=self.sender,
            constraint=self.constraint,
            reply_to=self.msg_id,
        )

    def is_reply_to(self, request: "Message") -> bool:
        return self.reply_to == request.msg_id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        extra = f" reply_to={self.reply_to}" if self.reply_to is not None else ""
        return (
            f"<Message #{self.msg_id} {self.kind!r} "
            f"{self.sender or '?'}->{self.target or '?'}{extra}>"
        )
