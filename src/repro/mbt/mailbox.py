"""Per-thread message queues ordered by constraint urgency.

Messages carrying a more urgent constraint overtake less urgent ones, which
is how control events reach a component before queued data items (paper
section 2.2: control handlers "are executed with higher priority than
potentially long-running data processing").  Messages of equal urgency are
delivered in arrival order.

The queue is a binary heap of ``(priority, deadline, seq, message)``
entries.  Selective receive (``get(match)``) is a *single ordered pass*:
entries are popped in delivery order until one matches; the skipped
prefix is then restored (it is popped in sorted order, so when the whole
heap was drained it is already heap-shaped and is adopted wholesale).
This replaces the old ``sorted()`` + ``remove()`` + ``heapify()`` pattern,
which paid O(n log n) + O(n) + O(n) on *every* selective receive — e.g.
on every coroutine crossing's reply.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable, Iterator

from repro.mbt.message import Message


class Mailbox:
    """Priority queue of messages with selective receive."""

    __slots__ = ("_heap", "_seq", "_listener")

    def __init__(self):
        self._heap: list[tuple[float, float, int, Message]] = []
        self._seq = itertools.count()
        #: Optional zero-arg callback fired whenever the queue contents
        #: change; the scheduler uses it to invalidate the owning thread's
        #: cached sort key and ready-queue membership.
        self._listener: Callable[[], None] | None = None

    def put(self, message: Message) -> None:
        constraint = message.constraint
        prio, deadline = (
            (0.0, math.inf) if constraint is None else constraint.sort_key()
        )
        heapq.heappush(self._heap, (prio, deadline, next(self._seq), message))
        if self._listener is not None:
            self._listener()

    def put_many(self, messages: list[Message]) -> None:
        """Enqueue a run of messages with ONE listener notification.

        Ordering is identical to calling :meth:`put` per message (the seq
        counter still advances one per message); only the change callback
        — and hence the owner's reindexing work — is coalesced.
        """
        heap = self._heap
        seq = self._seq
        for message in messages:
            constraint = message.constraint
            prio, deadline = (
                (0.0, math.inf) if constraint is None else constraint.sort_key()
            )
            heapq.heappush(heap, (prio, deadline, next(seq), message))
        if messages and self._listener is not None:
            self._listener()

    def peek(self) -> Message | None:
        return self._heap[0][3] if self._heap else None

    def get(self, match: Callable[[Message], bool] | None = None) -> Message | None:
        """Remove and return the first message, or first matching message.

        Returns ``None`` when nothing (matching) is queued.
        """
        heap = self._heap
        if not heap:
            return None
        if match is None:
            message = heapq.heappop(heap)[3]
            if self._listener is not None:
                self._listener()
            return message

        # Single ordered pass: pop in delivery order until a match.
        skipped: list[tuple[float, float, int, Message]] = []
        found: Message | None = None
        try:
            while heap:
                entry = heapq.heappop(heap)
                skipped.append(entry)  # restored even if ``match`` raises
                if match(entry[3]):
                    found = skipped.pop()[3]
                    break
        finally:
            if skipped:
                if heap:
                    for entry in skipped:
                        heapq.heappush(heap, entry)
                else:
                    # Drained completely: ``skipped`` is sorted ascending,
                    # hence already a valid heap.
                    heap[:] = skipped
        if found is not None and self._listener is not None:
            self._listener()
        return found

    def __len__(self) -> int:
        return len(self._heap)

    def _ordered_entries(self) -> list[tuple[float, float, int, Message]]:
        """Heap entries in delivery order (shared by ``__iter__`` and
        ``snapshot``)."""
        return sorted(self._heap)

    def __iter__(self) -> Iterator[Message]:
        """Iterate messages in delivery order without removing them."""
        return (entry[3] for entry in self._ordered_entries())

    def snapshot(self) -> list[tuple[str, str]]:
        """``(kind, sender)`` of every queued message, delivery order.

        Non-destructive; used by the deadlock detector's hang reports to
        show messages that are queued but unmatched by the owner's
        selective receive (the classic lost-wakeup shape).
        """
        return [
            (entry[3].kind, entry[3].sender)
            for entry in self._ordered_entries()
        ]
