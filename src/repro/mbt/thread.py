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
(delivery, receive, drain — wired through the mailbox's change listener)
and the start or completion of message processing (the static priority
is fixed at spawn).  Invalidation also notifies the owning scheduler so
its indexed ready queue stays current; see
:class:`repro.mbt.scheduler.Scheduler`.
"""

from __future__ import annotations

import math
from typing import Any, Callable

from repro.mbt.constraints import Constraint
from repro.mbt.mailbox import Mailbox
from repro.mbt.message import Message
from repro.mbt.syscalls import Receive

CodeFunction = Callable[["MThread", Message], Any]


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
        "_last_ran",
        "_index",
        "_key_cache",
        "_scheduler",
        "_heap_entry",
        "meter",
        "_tenant",
        "parked",
    )

    def __init__(self, name: str, code: CodeFunction, priority: int = 0):
        self.name = name
        self.code = code
        self._priority = priority
        self.mailbox = Mailbox()
        #: Per-thread user state (the "extended" part of the FSM).
        self.local: dict = {}

        self.terminated = False
        self.crashed: BaseException | None = None

        # -- scheduler-private execution state -----------------------------
        self._gen: Any = None
        self._current_message: Message | None = None
        self._resume_value: Any = None
        self._resume_exc: BaseException | None = None
        self._pending_work: float = 0.0
        #: The ``Receive`` the thread yielded and is blocked in: a delivery
        #: tests its ``match``, and :mod:`repro.check.deadlock` reads what
        #: the match declares of itself (its ``waiting_on`` and name).
        self._wait: Receive | None = None
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
        static thread priority applies.

        The result is cached; see the module docstring for the
        invalidation events.
        """
        key = self._key_cache
        if key is None:
            key = self._compute_sort_key()
            self._key_cache = key
        return key

    def _compute_sort_key(self) -> tuple[float, float]:
        constraint: Constraint | None = None
        message = self._current_message
        if message is not None:
            constraint = message.constraint
        elif self._gen is None:
            head = self.mailbox.peek()
            if head is not None:
                constraint = head.constraint
        if constraint is None:
            return (-float(self._priority), math.inf)
        return constraint.sort_key()

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
