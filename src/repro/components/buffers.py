"""Buffers — passive temporary storage (paper sections 2.1 and 2.3).

"Buffers provide temporary storage and remove rate fluctuations."  Both
buffer ends are passive: the in-port receives pushes, the out-port receives
pulls, so buffers are the boundaries at which pipeline sections (and their
pump threads) meet.

Section 2.3's blocking behaviour is a Typespec property: "if a buffer is
full, the push operation can either be blocked or can drop the pushed item.
Likewise, if a buffer is empty, a pull operation can either be blocked or
return a nil item."  Blocking itself is implemented by the runtime
(:mod:`repro.runtime.engine`), which parks the calling pump thread on the
buffer's gate; the buffer only reports ``"full"`` / ``"empty"``.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Any

from repro.core.component import Component, Role
from repro.core.events import EOS, is_eos
from repro.core.items import NIL
from repro.core.polarity import Mode
from repro.core.typespec import props


class OnFull(enum.Enum):
    """Policy for a push arriving at a full buffer."""

    BLOCK = "block"
    DROP_NEW = "drop-new"
    DROP_OLD = "drop-old"


class OnEmpty(enum.Enum):
    """Policy for a pull arriving at an empty buffer."""

    BLOCK = "block"
    NIL = "nil"


#: Outcomes of the non-blocking buffer operations.
OK = "ok"
FULL = "full"
EMPTY = "empty"


class Boundary(Component):
    """A passive boundary between pipeline sections — what a
    :class:`~repro.runtime.section.BufferGate` mediates (docs/RUNTIME.md,
    "Seams and their contracts").  A boundary only reports ``OK`` /
    ``FULL`` / ``EMPTY`` through ``try_push`` / ``try_pull``; blocking is
    the gate's.  The batched operations default to the per-item loop.
    """

    role = Role.BUFFER
    #: True for a boundary joining several in-port queues (``in_names``)
    #: N:1 on pull: its gate keeps one positional record per queue.
    joins = False

    @property
    def fill_level(self) -> int:
        """Items currently retained."""
        raise NotImplementedError

    def try_push_many(self, items: list, port: str = "in") -> int:
        """Accept a prefix of ``items`` (no EOS among them); returns how
        many were taken."""
        taken = 0
        for item in items:
            if self.try_push(item, port) == FULL:
                break
            taken += 1
        return taken

    def try_pull_many(self, n: int, port: str = "out") -> tuple[str, list]:
        """``(OK, run)`` of up to ``n`` items, EOS at most once and last,
        ``[]`` for nil-now; ``(EMPTY, [])`` when a pull would block."""
        run: list = []
        while len(run) < n:
            status, value = self.try_pull(port)
            if status == EMPTY:
                return (OK, run) if run else (EMPTY, run)
            if value is NIL:
                break
            run.append(value)
            if is_eos(value):
                break
        return OK, run


class Buffer(Boundary):
    """A bounded FIFO buffer with configurable overflow/underflow policy."""

    def __init__(
        self,
        capacity: int = 16,
        on_full: OnFull = OnFull.BLOCK,
        on_empty: OnEmpty = OnEmpty.BLOCK,
        name: str | None = None,
    ):
        if capacity < 1:
            raise ValueError("buffer capacity must be at least 1")
        super().__init__(name)
        self.add_in_port(mode=Mode.PUSH)
        self.add_out_port(mode=Mode.PULL)
        self.capacity = int(capacity)
        self.on_full = on_full
        self.on_empty = on_empty
        self._items: deque[Any] = deque()
        self._eos_pending = False
        self.stats.update(drops=0, high_watermark=0)

    # -- typespec ---------------------------------------------------------

    @property
    def output_props(self) -> dict:  # type: ignore[override]
        return {
            props.ON_FULL: self.on_full.value,
            props.ON_EMPTY: self.on_empty.value,
        }

    # -- state ------------------------------------------------------------

    @property
    def fill_level(self) -> int:
        return len(self._items)

    @property
    def is_full(self) -> bool:
        return len(self._items) >= self.capacity

    @property
    def fill_fraction(self) -> float:
        return len(self._items) / self.capacity

    # -- non-blocking operations used by the runtime -----------------------

    def try_push(self, item: Any, port: str = "in") -> str:
        """Accept ``item`` if policy allows; returns OK or FULL.

        FULL is only ever returned under the BLOCK policy — the dropping
        policies always accept (possibly discarding something).
        """
        if is_eos(item):
            self._eos_pending = True
            return OK
        if self.is_full:
            if self.on_full is OnFull.BLOCK:
                return FULL
            if self.on_full is OnFull.DROP_NEW:
                self.stats["drops"] += 1
                return OK
            # DROP_OLD: evict the oldest queued item to make room.
            self._items.popleft()
            self.stats["drops"] += 1
        self._items.append(item)
        self.stats["items_in"] += 1
        self.stats["high_watermark"] = max(
            self.stats["high_watermark"], len(self._items)
        )
        return OK

    def try_pull(self, port: str = "out") -> tuple[str, Any]:
        """Return ``(OK, item)``, ``(OK, NIL)`` under the NIL policy, or
        ``(EMPTY, None)`` under the BLOCK policy."""
        if self._items:
            item = self._items.popleft()
            self.stats["items_out"] += 1
            return OK, item
        if self._eos_pending:
            # EOS is not re-ordered past data, and is delivered exactly once
            # per puller request after the queue drains.
            self._eos_pending = False
            return OK, EOS
        if self.on_empty is OnEmpty.NIL:
            return OK, NIL
        return EMPTY, None

    # -- batched non-blocking operations ----------------------------------
    # Same contracts as try_push/try_pull, amortized: one call moves a run
    # of items, stats still count individual items, and EOS/NIL keep their
    # per-item placement (EOS only ever rides as the last element of a
    # pulled run).

    def try_push_many(self, items: list, port: str = "in") -> int:
        """Accept a prefix of ``items``; returns how many were taken.

        Under BLOCK the count can be short of ``len(items)`` when the
        buffer fills; the dropping policies always take everything.  The
        caller must not include EOS in ``items`` (EOS travels through the
        per-item path so its single-delivery bookkeeping stays exact).
        """
        n = len(items)
        free = self.capacity - len(self._items)
        if n <= free:
            self._items.extend(items)
            self.stats["items_in"] += n
            if len(self._items) > self.stats["high_watermark"]:
                self.stats["high_watermark"] = len(self._items)
            return n
        return super().try_push_many(items, port)

    def try_pull_many(self, n: int, port: str = "out") -> tuple[str, list]:
        """Return ``(OK, run)`` of up to ``n`` items, with EOS at most once
        as the final element; ``(OK, [])`` under the NIL policy when empty;
        ``(EMPTY, [])`` under the BLOCK policy when empty."""
        queued = len(self._items)
        if queued:
            k = queued if queued < n else n
            items = self._items
            run = [items.popleft() for _ in range(k)]
            self.stats["items_out"] += k
            if k < n and self._eos_pending:
                self._eos_pending = False
                run.append(EOS)
            return OK, run
        if self._eos_pending:
            self._eos_pending = False
            return OK, [EOS]
        if self.on_empty is OnEmpty.NIL:
            return OK, []
        return EMPTY, []

    def clear(self) -> int:
        """Drop all buffered items (``flush`` event); returns count."""
        count = len(self._items)
        self._items.clear()
        return count

    events_handled = frozenset({"flush"})

    def on_flush(self, event) -> None:
        self.stats["drops"] += self.clear()


class ZipBuffer(Boundary):
    """A combining merge with temporary storage (section 2.1: "Merge tees
    can combine items from different sources into one item").

    Items pushed at each in-port queue up; a pull succeeds once every input
    has at least one item queued, returning the tuple of heads.  Both ends
    are passive, so — like a plain buffer — it separates pipeline sections,
    giving each upstream flow its own pump while avoiding the unpredictable
    implicit buffering the paper warns about for non-buffering multi-port
    components.
    """

    conserving = False  # N:1 combine
    joins = True

    def __init__(
        self,
        n_inputs: int = 2,
        capacity: int = 16,
        on_empty: OnEmpty = OnEmpty.BLOCK,
        name: str | None = None,
    ):
        if n_inputs < 2:
            raise ValueError("ZipBuffer needs at least two inputs")
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        super().__init__(name)
        self.in_names = [f"in{i}" for i in range(n_inputs)]
        for in_name in self.in_names:
            self.add_in_port(in_name, mode=Mode.PUSH)
        self.add_out_port(mode=Mode.PULL)
        self.capacity = int(capacity)
        self.on_empty = on_empty
        self._queues: dict[str, deque] = {n: deque() for n in self.in_names}
        self._eos_seen: set[str] = set()
        self._eos_delivered = False
        self.stats.update(drops=0)

    @property
    def fill_level(self) -> int:
        return sum(map(len, self._queues.values()))

    def port_fill(self, port: str) -> int:
        """Items queued at one in-port."""
        return len(self._queues[port])

    def try_push(self, item: Any, port: str = "in0") -> str:
        queue = self._queues[port]
        if is_eos(item):
            self._eos_seen.add(port)
            return OK
        if len(queue) >= self.capacity:
            return FULL
        queue.append(item)
        self.stats["items_in"] += 1
        return OK

    def try_pull(self, port: str = "out") -> tuple[str, Any]:
        if all(self._queues.values()):
            combined = tuple(q.popleft() for q in self._queues.values())
            self.stats["items_out"] += 1
            return OK, combined
        # End of stream once any exhausted input can never contribute again.
        starved = {
            n for n, q in self._queues.items() if not q and n in self._eos_seen
        }
        if starved and not self._eos_delivered:
            self._eos_delivered = True
            return OK, EOS
        if self.on_empty is OnEmpty.NIL:
            return OK, NIL
        return EMPTY, None
