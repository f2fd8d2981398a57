"""User-level threads driven by messages.

Each :class:`MThread` "consists of a code function and a queue for incoming
messages.  Unlike conventional threads, the code function is not called at
thread creation time but each time a message is received" (paper, section 4).
The code function receives ``(thread, message)`` and either

* returns :data:`~repro.mbt.syscalls.CONTINUE` / ``TERMINATE`` directly, or
* is a generator function, yielding :mod:`~repro.mbt.syscalls` requests to
  suspend, and finally returning a return code.

Per-message state lives in ``thread.local`` (a plain dict), making threads
behave like the paper's extended finite state machines.

Scheduling key caching
----------------------
:meth:`MThread.effective_sort_key` is on the scheduler's hottest path (it
used to be recomputed, with fresh allocations, for *every* thread on
*every* dispatch and preemption check).  The key is now cached and
invalidated only by the events that can change it: a mailbox change
(delivery, receive, drain — wired through the mailbox's change listener),
a donation granted or revoked, and the start or completion of message
processing (the static priority is fixed at spawn).  Invalidation also
notifies the owning scheduler so its indexed ready queue stays current; see
:class:`repro.mbt.scheduler.Scheduler`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

from repro.mbt.constraints import Constraint
from repro.mbt.mailbox import Mailbox
from repro.mbt.message import Message

#: Sort key of the least urgent possible thread.
_IDLE_KEY = (math.inf, math.inf)

_INF = float("inf")

CodeFunction = Callable[["MThread", Message], Any]


@dataclass(slots=True)
class WaitState:
    """Why a thread is blocked.

    ``kind`` is ``"receive"`` (waiting for a matching message) or ``"time"``
    (sleeping).  ``timer`` holds a cancellable timer handle used for receive
    timeouts and sleep wake-ups.

    ``waiting_on`` and ``reason`` are diagnostic metadata for the
    deadlock detector (:mod:`repro.check.deadlock`): the name of the
    thread this wait depends on, when the blocker knows it (synchronous
    ``Call`` replies; the detector also reads a match predicate's own
    ``waiting_on``), and a human-readable cause.  They never influence
    scheduling.
    """

    kind: str
    match: Callable[[Message], bool] | None = None
    timer: Any = None
    waiting_on: str | None = None
    reason: str | None = None


class MThread:
    """A message-driven user-level thread.

    Parameters
    ----------
    name:
        Unique name; also the address used by :class:`~repro.mbt.message.Message`.
    code:
        The code function invoked once per received message.
    priority:
        Static priority (larger is more urgent), used whenever no message
        constraint applies.  Assigning to it invalidates the cached
        scheduling key.
    """

    __slots__ = (
        "name",
        "code",
        "_priority",
        "mailbox",
        "local",
        "terminated",
        "crashed",
        "_gen",
        "_current_message",
        "_resume_value",
        "_resume_exc",
        "_pending_work",
        "_wait",
        "_donations",
        "_last_ran",
        "_index",
        "_key_cache",
        "_scheduler",
        "_heap_entry",
        "meter",
        "_tenant",
        "parked",
    )

    def __init__(
        self,
        name: str,
        code: CodeFunction,
        priority: int = 0,
        mailbox: Mailbox | None = None,
        local: dict | None = None,
    ):
        self.name = name
        self.code = code
        self._priority = priority
        self.mailbox = mailbox if mailbox is not None else Mailbox()
        #: Per-thread user state (the "extended" part of the FSM).
        self.local = local if local is not None else {}

        self.terminated = False
        self.crashed: BaseException | None = None

        # -- scheduler-private execution state -----------------------------
        self._gen: Any = None
        self._current_message: Message | None = None
        self._resume_value: Any = None
        self._resume_exc: BaseException | None = None
        self._pending_work: float = 0.0
        self._wait: WaitState | None = None
        #: Priority donations from synchronous callers, keyed by request
        #: msg id.
        self._donations: dict[int, Constraint] = {}
        #: Scheduler bookkeeping for fair tie-breaking.
        self._last_ran = 0
        self._index = 0
        #: Cached effective sort key; None means dirty.
        self._key_cache: tuple[float, float] | None = None
        #: Owning scheduler (set by Scheduler.add_thread); notified on
        #: key/readiness changes so the ready queue stays indexed.
        self._scheduler: Any = None
        #: The thread's live entry in the scheduler's ready heap, if any.
        self._heap_entry: list | None = None
        #: This thread's scheduler instruments (a repro.obs.sched.ThreadMeter
        #: planted by SchedulerProbe.install); None = unmetered.
        self.meter: Any = None
        #: Fair-share tenant (repro.mbt.scheduler.Tenant) this thread is
        #: charged to; None (the default) keeps the classic sort order.
        self._tenant: Any = None
        #: Parked (quiesced-session) threads are never ready and hold no
        #: ready-heap entry; see Scheduler.park_thread.
        self.parked = False

        self.mailbox._listener = self._invalidate_key

    # ------------------------------------------------------------------ API

    def is_ready(self) -> bool:
        """True when the thread can use the CPU right now."""
        if self.terminated:
            return False
        if self.parked:
            return False
        if self._wait is not None:
            return False
        if self._pending_work > 0.0:
            return True
        if self._gen is not None:
            return True
        return bool(self.mailbox._heap)

    def is_blocked(self) -> bool:
        return self._wait is not None and not self.terminated

    @property
    def tenant(self) -> Any:
        """The fair-share tenant this thread is charged to, or None."""
        return self._tenant

    def effective_sort_key(self) -> tuple[float, float]:
        """Scheduling key; smaller sorts first (more urgent).

        Implements the paper's rule: the effective priority is derived from
        the constraint of the message currently being processed or, when the
        thread is merely waiting for the CPU, from the constraint of the
        first message in its incoming queue; absent any constraint the
        static thread priority applies.  Donations from synchronous callers
        (priority inheritance) are folded in.

        The result is cached; see the module docstring for the
        invalidation events.
        """
        key = self._key_cache
        if key is None:
            key = self._compute_sort_key()
            self._key_cache = key
        return key

    def _compute_sort_key(self) -> tuple[float, float]:
        best: Constraint | None = None
        message = self._current_message
        if message is not None:
            best = message.constraint
        elif self._gen is None:
            head = self.mailbox.peek()
            if head is not None:
                best = head.constraint
        donations = self._donations
        if donations:
            for constraint in donations.values():
                if constraint is not None and (
                    best is None or constraint.is_more_urgent_than(best)
                ):
                    best = constraint
        if best is None:
            return (-float(self._priority), math.inf)
        return best.sort_key()

    def effective_priority(self) -> float:
        """Convenience view of the priority component of the sort key."""
        return -self.effective_sort_key()[0]

    # ------------------------------------------------------ scheduler hooks

    def _invalidate_key(self) -> None:
        """Drop the cached sort key; reindex, unless dispatched (deferred)."""
        self._key_cache = None
        scheduler = self._scheduler
        if scheduler is not None and scheduler._current is not self:
            scheduler._reindex(self)

    def _readiness_changed(self) -> None:
        """Reindex in the ready queue (key inputs unchanged)."""
        scheduler = self._scheduler
        if scheduler is not None:
            scheduler._reindex(self)

    def donate(self, msg_id: int, constraint: Constraint) -> None:
        self._donations[msg_id] = constraint
        self._invalidate_key()

    def revoke_donation(self, msg_id: int) -> None:
        if self._donations.pop(msg_id, None) is not None:
            self._invalidate_key()

    def clear_execution_state(self) -> None:
        if self._gen is not None:
            try:
                self._gen.close()
            except Exception:  # pragma: no cover - defensive
                pass
        self._gen = None
        self._current_message = None
        self._resume_value = None
        self._resume_exc = None
        self._pending_work = 0.0
        self._wait = None
        self._donations.clear()
        self._invalidate_key()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "terminated"
            if self.terminated
            else "blocked"
            if self._wait is not None
            else "ready"
            if self.is_ready()
            else "idle"
        )
        return f"<MThread {self.name!r} prio={self._priority} {state}>"
