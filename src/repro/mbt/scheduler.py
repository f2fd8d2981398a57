"""Deterministic priority scheduler for message-based user-level threads.

One :class:`Scheduler` owns a set of :class:`~repro.mbt.thread.MThread`
objects, a clock and a timer wheel.  It repeatedly picks the ready thread
with the most urgent effective constraint and runs it until it blocks
(receive/sleep), completes its current message, or is preempted.

Preemption happens at yield points (every syscall) and *during* simulated
CPU work (:class:`~repro.mbt.syscalls.Work`), so a high-priority audio pump
interrupts a long-running video decode exactly as the paper requires
("threads can be preempted in favor of threads driven by other pumps").

With the default :class:`~repro.mbt.clock.VirtualClock` execution is a pure
discrete-event simulation: deterministic, repeatable, and far faster than
real time.

The ready queue
---------------
Dispatch used to scan every thread and recompute its sort key on every
pick and every preemption check — O(n) with fresh allocations each time.
The scheduler now maintains an **indexed ready queue**: a binary heap of
``[prio, vtime, deadline, last_ran, index, seq, thread]`` entries, one
live entry per ready thread.  Whenever an event changes a thread's key or readiness
(message delivery, receive, donation, message start/finish, wait set or
cleared, priority change) the thread notifies the scheduler via
:meth:`_reindex`, which tombstones the old entry (lazily discarded at the
heap top) and pushes a fresh one.  ``_pick_ready`` and
``_exists_more_urgent_ready`` are then heap peeks — O(1) amortised, O(log
n) worst case — and, because the entry key embeds the same
``(sort key, last_ran, index)`` tuple the linear scan used, the pick order
is *bit-for-bit identical* to the reference linear scan
(:meth:`_pick_ready_linear`, kept for the property-based equivalence
tests).

Weighted-fair multi-tenancy
---------------------------
The ``vtime`` key component implements start-time fair queueing across
**tenants** (sessions multiplexed onto one scheduler by
:mod:`repro.fabric`).  Threads with no tenant carry ``vtime == 0.0``, so
the key degenerates to the original ``(prio, deadline, last_ran, index)``
order and single-session schedules stay bit-for-bit identical (pinned by
the golden traces).  A tenanted thread is keyed by its tenant's virtual
time; each dispatch charges the tenant ``1 / weight``, so a hot tenant's
threads drift later in the queue and every backlogged tenant receives CPU
in proportion to its weight.  Priorities still dominate (vtime only
orders threads of equal effective priority), and a tenant waking from
idle is clamped to the scheduler's fair clock so it cannot burst on
banked credit.  Parked threads (quiesced sessions, see
:meth:`park_thread`) are excluded from ``is_ready`` and therefore hold no
heap entry at all: dispatch cost is independent of the number of idle
sessions, and :meth:`unpark_thread` is a single heap push.

Before-idle callbacks
---------------------
Middleware that gathers what threads emit during dispatch (the frame
trains of :mod:`repro.net.mux`) must let go of it before the scheduler
waits, or a peer only those bytes can wake never runs.
:meth:`Scheduler.before_idle` registers a one-shot callback for that
moment: it fires when :meth:`Scheduler.run` next finds no thread ready —
before timers or the clock are touched; ``run`` then looks again, as a
callback may have woken a thread — and on every way out of ``run``.
Outside ``run`` registration is refused and the caller acts at once.
Cost: a truthiness test per idle pass and per call, nothing per step.

Checking hooks
--------------
Three optional hooks exist solely for the deterministic-simulation
toolkit in :mod:`repro.check`; each is a single ``is not None`` test on
the relevant path and therefore free when unused:

* :attr:`Scheduler.choice_hook` — called by ``_pick_ready`` (and the
  linear oracle) with the list of *equally most urgent* ready threads
  whenever there is more than one; it returns the thread to dispatch.
  Because only ties are delegated, every schedule the hook can produce
  is one the priority/constraint semantics already allow — the schedule
  explorer perturbs exactly this choice.
* :attr:`Scheduler.delivery_interceptor` — called by ``_deliver`` with
  each message before it is enqueued; may drop or delay it (fault
  injection at mailbox granularity, see :mod:`repro.check.faults`).
* :meth:`Scheduler.inject_crash` — kills a live thread through the
  normal ``_crash`` path, as if its code function had raised.

Observability hooks
-------------------
Two further optional facilities serve :mod:`repro.obs` and cost nothing
when unused:

* :attr:`Scheduler._obs` — a probe object (normally
  :class:`repro.obs.sched.SchedulerProbe`) whose ``on_dispatch`` /
  ``on_cpu`` / ``on_wall`` / ``on_donation`` / ``on_constraint`` methods
  are invoked from the dispatch path, each behind an ``is not None``
  test.  With no probe installed the trace stream and timing are
  bit-for-bit what they were before the hooks existed (the golden trace
  tests pin this).
* Bounded tracing — ``trace_limit`` (or :meth:`enable_trace` with a
  limit) keeps the trace in a ring (``deque(maxlen=...)``) instead of an
  unbounded list, counting evictions in :attr:`trace_dropped`.  This is
  the substrate of :class:`repro.obs.recorder.FlightRecorder`.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from time import perf_counter as _perf_counter
from types import GeneratorType
from typing import Any, Callable, Iterable

from repro.errors import InjectedFault, SchedulerError
from repro.mbt.clock import Clock, VirtualClock
from repro.mbt.constraints import Constraint
from repro.mbt.message import Message
from repro.mbt.syscalls import (
    CONTINUE,
    TERMINATE,
    TIMED_OUT,
    Call,
    Exit,
    Receive,
    Reply,
    Send,
    Sleep,
    Syscall,
    WaitUntil,
    Work,
    Yield,
)
from repro.mbt.thread import MThread, WaitState

_INF = float("inf")

_EPS = 1e-12

#: Default bound on the dead-letter queue; beyond it the oldest letters are
#: dropped (and counted), so week-long runs cannot grow memory unboundedly.
DEAD_LETTER_LIMIT = 1000


class TimerHandle:
    """Cancellable handle returned by :meth:`Scheduler.at`."""

    __slots__ = ("when", "callback", "cancelled")

    def __init__(self, when: float, callback: Callable[[], None]):
        self.when = when
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class Tenant:
    """Fair-share accounting unit for a group of threads (one session).

    ``weight`` sets the tenant's share of the scheduler relative to other
    backlogged tenants; ``vtime`` is its virtual finish time, advanced by
    ``1 / weight`` per dispatch.  Threads are attached via
    :meth:`Scheduler.assign_tenant`, which keeps ``threads`` (attachment
    order) so that dropping a tenant visits its own threads only.
    """

    __slots__ = (
        "name", "_weight", "_inv_weight", "vtime", "dispatches", "threads",
    )

    def __init__(self, name: str, weight: float = 1.0):
        if weight <= 0:
            raise SchedulerError(f"tenant weight must be positive, got {weight}")
        self.name = name
        self._weight = float(weight)
        self._inv_weight = 1.0 / float(weight)
        self.vtime = 0.0
        self.dispatches = 0
        self.threads: dict[MThread, None] = {}

    @property
    def weight(self) -> float:
        return self._weight

    @weight.setter
    def weight(self, value: float) -> None:
        if value <= 0:
            raise SchedulerError(f"tenant weight must be positive, got {value}")
        self._weight = float(value)
        self._inv_weight = 1.0 / float(value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Tenant {self.name!r} weight={self._weight} "
            f"vtime={self.vtime:.3f} dispatches={self.dispatches}>"
        )


class Scheduler:
    """Runs user-level threads over a virtual or real clock."""

    def __init__(
        self,
        clock: Clock | None = None,
        trace: bool = False,
        on_thread_error: str = "raise",
        dead_letter_limit: int | None = DEAD_LETTER_LIMIT,
        trace_limit: int | None = None,
        fair_quantum: int = 1,
    ):
        if on_thread_error not in ("raise", "collect"):
            raise ValueError("on_thread_error must be 'raise' or 'collect'")
        if fair_quantum < 1:
            raise ValueError("fair_quantum must be >= 1")
        self.clock = clock if clock is not None else VirtualClock()
        # Bound once: tracing and probe hooks stamp times on every event,
        # and the attribute chain is measurable there.
        self._clock_now = self.clock.now
        self.threads: dict[str, MThread] = {}
        #: Undeliverable messages, newest last; bounded by
        #: ``dead_letter_limit`` (None = unbounded).
        self.dead_letters: deque[Message] = deque(maxlen=dead_letter_limit)
        #: Dead letters evicted because the queue was full.
        self.dead_letters_dropped = 0
        self.errors: list[tuple[str, BaseException]] = []
        self.on_thread_error = on_thread_error

        #: Number of times the CPU moved from one thread to another.
        self.context_switches = 0
        #: Number of thread dispatches performed.
        self.steps = 0
        #: Total messages delivered.
        self.messages_delivered = 0

        self._timer_heap: list[tuple[float, int, TimerHandle]] = []
        self._timer_seq = itertools.count()
        self._thread_seq = itertools.count()
        self._run_seq = itertools.count(1)
        self._last_running: MThread | None = None
        #: Event trace: None (off), a list (unbounded), or a ring
        #: (``deque(maxlen=trace_limit)``) keeping only the newest events.
        self._trace: Any = None
        if trace or trace_limit is not None:
            self._trace = [] if trace_limit is None else deque(maxlen=trace_limit)
        #: Events evicted from a bounded trace ring.
        self.trace_dropped = 0
        #: Observability probe (see module docstring); None = uninstrumented.
        self._obs: Any = None
        self._reservations: dict[str, float] = {}

        #: Indexed ready queue: heap of [prio, vtime, deadline, last_ran,
        #: index, seq, thread] entries.  A tombstoned entry has thread
        #: slot None.
        self._ready_heap: list[list] = []
        self._ready_seq = itertools.count()
        #: Tombstoned entries still sitting in the heap.  Lazy invalidation
        #: only discards tombstones that reach the top, so key churn on
        #: threads that rarely get picked (priority flapping under a
        #: feedback controller) can grow the heap without bound; once
        #: tombstones outnumber live entries 2:1 the heap is compacted.
        self._ready_stale = 0
        #: The thread currently being dispatched (kept out of the heap).
        self._current: MThread | None = None

        #: Tie-break hook for schedule exploration (see module docstring):
        #: ``hook(candidates) -> MThread`` with ``candidates`` the equally
        #: most urgent ready threads in the default dispatch order, so
        #: ``candidates[0]`` is what the unhooked scheduler would pick.
        self.choice_hook: Callable[[list[MThread]], MThread] | None = None
        #: Fault-injection hook: ``interceptor(message)`` returning None
        #: (deliver now), ``"drop"``, or a positive delay in seconds.
        self.delivery_interceptor: Callable[[Message], Any] | None = None
        #: Messages discarded by the delivery interceptor.
        self.messages_dropped = 0

        #: Weighted-fair tenants by name (see :class:`Tenant`); empty when
        #: no fabric is multiplexing sessions onto this scheduler.
        self._tenants: dict[str, Tenant] = {}
        #: Virtual start time of the most recently dispatched tenanted
        #: thread; waking tenants are clamped to it (strict start-time
        #: fair queueing), so idleness does not bank credit.
        self._fair_clock = 0.0
        #: Dispatch quantum for tenanted threads: how many consecutive
        #: dispatches a tenant may burst before the fair order is
        #: re-evaluated.  1 (the default) is strict per-dispatch fairness;
        #: larger values amortize ready-queue maintenance over the burst
        #: (the fabric's multi-tenant hot path) at the cost of quantum-
        #: bounded short-term unfairness.  Virtual-time *charging* stays
        #: per-dispatch, so long-run weighted shares are unaffected.
        self.fair_quantum = int(fair_quantum)
        #: Active burst: the tenanted thread currently holding the CPU
        #: between fair re-evaluations, and how many dispatches remain.
        self._burst_thread: MThread | None = None
        self._burst_left = 0
        #: Set when a deadline-constrained entry enters the ready heap;
        #: aborts any burst so EDF urgency is never deferred behind a
        #: quantum (priority urgency needs no flag: a more-urgent
        #: priority always surfaces at the heap top).
        self._deadline_push = False
        #: Parked (quiesced) threads; they hold no ready-heap entry, so
        #: dispatch cost is independent of the number of idle sessions.
        self._parked: set[MThread] = set()
        #: One-shot :meth:`before_idle` callbacks of the run in progress;
        #: None outside :meth:`run`.
        self._before_idle: list[Callable[[], None]] | None = None

    # ------------------------------------------------------------ threads

    def add_thread(self, thread: MThread) -> MThread:
        if thread.name in self.threads:
            raise SchedulerError(f"duplicate thread name {thread.name!r}")
        thread._index = next(self._thread_seq)
        thread._scheduler = self
        self.threads[thread.name] = thread
        self._reindex(thread)
        return thread

    def spawn(self, name: str, code, priority: int = 0) -> MThread:
        """Create, register and return a new thread."""
        return self.add_thread(MThread(name=name, code=code, priority=priority))

    def remove_thread(self, name: str) -> None:
        """Forget thread ``name`` and give back the CPU reservation made
        in its name."""
        self._reservations.pop(name, None)
        thread = self.threads.pop(name, None)
        if thread is not None:
            thread.terminated = True
            thread.clear_execution_state()
            self._parked.discard(thread)
            if thread._tenant is not None:
                thread._tenant.threads.pop(thread, None)

    # ------------------------------------------------------------ tenants

    def add_tenant(self, name: str, weight: float = 1.0) -> Tenant:
        """Get or create the fair-share :class:`Tenant` called ``name``.

        An existing tenant keeps its virtual time but adopts the new
        ``weight`` (weights are live-tunable).
        """
        tenant = self._tenants.get(name)
        if tenant is None:
            tenant = Tenant(name, weight)
            self._tenants[name] = tenant
        elif tenant.weight != weight:
            tenant.weight = weight
        return tenant

    def remove_tenant(self, name: str) -> None:
        """Drop a tenant; its remaining threads revert to untenanted."""
        tenant = self._tenants.pop(name, None)
        if tenant is None:
            return
        for thread in tenant.threads:
            thread._tenant = None
            self._reindex(thread)
        tenant.threads.clear()

    @property
    def tenants(self) -> dict[str, Tenant]:
        return dict(self._tenants)

    def tenant(self, name: str) -> Tenant | None:
        """The tenant called ``name``, if any (no copy of the table)."""
        return self._tenants.get(name)

    def assign_tenant(self, thread: MThread, tenant: Tenant | str | None) -> None:
        """Attach ``thread`` to a tenant (or detach with ``None``)."""
        if isinstance(tenant, str):
            tenant = self.add_tenant(tenant)
        if thread._tenant is not None:
            thread._tenant.threads.pop(thread, None)
        if tenant is not None:
            tenant.threads[thread] = None
        thread._tenant = tenant
        self._reindex(thread)

    # ------------------------------------------------------------ parking

    def park_thread(self, thread: MThread) -> None:
        """Quiesce ``thread``: not ready, holds no ready-heap entry.

        Parked threads cost the dispatcher nothing — the microbench in
        ``benchmarks`` asserts dispatch cost is independent of how many
        threads are parked.  Messages delivered meanwhile queue in the
        mailbox and run on :meth:`unpark_thread`.
        """
        if thread.parked:
            return
        thread.parked = True
        self._parked.add(thread)
        self._reindex(thread)  # tombstones any live entry

    def unpark_thread(self, thread: MThread) -> None:
        """O(1) wake: clear the parked flag and push one heap entry."""
        if not thread.parked:
            return
        thread.parked = False
        self._parked.discard(thread)
        self._reindex(thread)

    @property
    def parked_threads(self) -> set[MThread]:
        return set(self._parked)

    # ------------------------------------------------------------ reservations

    def reserve(self, name: str, cpu_fraction: float) -> None:
        """Record a CPU reservation; raises when over-committed.

        The paper's pumps "can make reservations, if supported, according to
        estimated or worst case execution times of the pipeline stages they
        run".  The virtual scheduler implements the admission check.
        """
        if cpu_fraction <= 0:
            raise SchedulerError("reservation must be positive")
        committed = sum(self._reservations.values()) - self._reservations.get(name, 0.0)
        if committed + cpu_fraction > 1.0 + _EPS:
            raise SchedulerError(
                f"reservation of {cpu_fraction:.3f} for {name!r} rejected: "
                f"{committed:.3f} already committed"
            )
        self._reservations[name] = cpu_fraction

    def release_reservation(self, name: str) -> None:
        self._reservations.pop(name, None)

    @property
    def reservations(self) -> dict[str, float]:
        return dict(self._reservations)

    # ------------------------------------------------------------ messaging

    def post(self, message: Message) -> None:
        """Inject a message from outside the scheduler (tests, devices)."""
        self._deliver(message)

    def post_many(self, messages: Iterable[Message]) -> None:
        """Inject a run of messages.

        Delivery order, interception, and tracing are identical to calling
        :meth:`post` once per message — this exists so batch producers
        (e.g. a buffer gate waking a run of consumers) make one scheduler
        call per run instead of one per message.
        """
        deliver = self._deliver
        for message in messages:
            deliver(message)

    def _deliver(self, message: Message) -> None:
        interceptor = self.delivery_interceptor
        if interceptor is not None:
            action = interceptor(message)
            if action is not None:
                if action == "drop":
                    self.messages_dropped += 1
                    if self._trace is not None:
                        self._record(
                            "fault-drop", message.kind,
                            message.sender, message.target,
                        )
                    return
                # A positive number delays the message; the re-delivery
                # bypasses the interceptor (one fault per message).
                self.after(float(action), lambda: self._deliver_now(message))
                return
        self._deliver_now(message)

    def _deliver_now(self, message: Message) -> None:
        target = self.threads.get(message.target)
        if target is None or target.terminated:
            letters = self.dead_letters
            if letters.maxlen is not None and len(letters) == letters.maxlen:
                self.dead_letters_dropped += 1
            letters.append(message)
            return
        self.messages_delivered += 1
        trace = self._trace
        if trace is not None:
            # _record inlined: "deliver" is one of the three per-message
            # event kinds, and the call overhead shows up in the
            # flight-recorder benchmarks.
            if type(trace) is deque and len(trace) == trace.maxlen:
                self.trace_dropped += 1
            trace.append((
                self._clock_now(), "deliver",
                message.kind, message.sender, message.target,
            ))
        wait = target._wait
        if (
            wait is not None
            and wait.kind == "receive"
            and (wait.match is None or wait.match(message))
        ):
            if wait.timer is not None:
                wait.timer.cancel()
            target._wait = None
            target._resume_value = message
            target._readiness_changed()
        else:
            target.mailbox.put(message)  # mailbox listener reindexes

    # ------------------------------------------------------------ timers

    def now(self) -> float:
        return self.clock.now()

    def at(self, when: float, callback: Callable[[], None]) -> TimerHandle:
        handle = TimerHandle(when, callback)
        heapq.heappush(self._timer_heap, (when, next(self._timer_seq), handle))
        return handle

    def after(self, delay: float, callback: Callable[[], None]) -> TimerHandle:
        return self.at(self.clock.now() + delay, callback)

    def _next_timer_time(self) -> float | None:
        while self._timer_heap and self._timer_heap[0][2].cancelled:
            heapq.heappop(self._timer_heap)
        return self._timer_heap[0][0] if self._timer_heap else None

    def _fire_due_timers(self) -> None:
        now = self.clock.now()
        while self._timer_heap and self._timer_heap[0][0] <= now + _EPS:
            _, _, handle = heapq.heappop(self._timer_heap)
            if not handle.cancelled:
                handle.callback()

    # ------------------------------------------------------------ main loop

    def run(
        self,
        until: float | None = None,
        max_steps: int | None = None,
    ) -> None:
        """Run until quiescent, until virtual time ``until``, or ``max_steps``.

        Quiescent means: no thread is ready and no timer is pending.  Threads
        blocked in a receive without timeout (servers awaiting requests) do
        not keep the scheduler alive.
        """
        nested = self._before_idle is not None
        if not nested:
            self._before_idle = []
        try:
            while True:
                if max_steps is not None and self.steps >= max_steps:
                    return
                if until is not None and self.clock.now() > until + _EPS:
                    # Hard horizon: once time passed `until` (e.g. simulated
                    # work overran it), stop even if threads are still ready.
                    return
                thread = self._pick_ready()
                if thread is None:
                    if self._before_idle:
                        # What they release may make a thread ready.
                        self._fire_before_idle([])
                        continue
                    next_t = self._next_timer_time()
                    if next_t is None:
                        return
                    if until is not None and next_t > until + _EPS:
                        if until > self.clock.now():
                            self.clock.advance_to(until)
                        return
                    self.clock.advance_to(next_t)
                    self._fire_due_timers()
                    continue
                self._run_thread(thread)
        finally:
            if not nested:  # any exit; registering is refused from now
                self._fire_before_idle(None)

    def before_idle(self, callback: Callable[[], None]) -> bool:
        """Ask for ``callback()`` once, before :meth:`run` next waits or
        returns (module docstring).  False, and nothing registered, when
        no run is in progress: the caller acts now."""
        pending = self._before_idle
        if pending is None:
            return False
        pending.append(callback)
        return True

    def _fire_before_idle(self, fresh: list | None) -> None:
        callbacks, self._before_idle = self._before_idle, fresh
        errors = []
        for callback in callbacks:
            try:
                callback()
            except Exception as exc:  # noqa: BLE001 - the others still fire
                errors.append(exc)
        if errors:
            raise errors[0]

    def run_until_idle(self, max_steps: int | None = None) -> None:
        self.run(until=None, max_steps=max_steps)

    # ------------------------------------------------------------ ready queue

    def _reindex(self, thread: MThread) -> None:
        """Refresh ``thread``'s entry in the ready heap.

        Tombstones any previous entry (discarded lazily at the heap top)
        and, when the thread is ready and not currently dispatched, pushes
        a fresh entry keyed exactly like the reference linear scan:
        ``(*effective_sort_key(), last_ran, index)``.
        """
        if thread is self._current:
            # Deferred: _run_thread refreshes the entry once the dispatch
            # settles (see _reindex_after_dispatch), so mid-dispatch key
            # churn — the self-repost of every pump cycle — costs nothing.
            return
        entry = thread._heap_entry
        if entry is not None:
            entry[6] = None
            thread._heap_entry = None
            stale = self._ready_stale + 1
            self._ready_stale = stale
            # Lazy invalidation only pops tombstones that surface at the
            # heap top; mid-heap ones from key churn on rarely-picked
            # threads would otherwise accumulate without bound.
            if stale > 64 and 3 * stale > 2 * len(self._ready_heap):
                self._compact_ready_heap()
        if thread.terminated or not thread.is_ready():
            return
        if self._obs is not None and thread._ready_since is None:
            thread._ready_since = self._clock_now()
        key = thread.effective_sort_key()
        tenant = thread._tenant
        if tenant is None:
            vtime = 0.0
        else:
            vtime = tenant.vtime
            floor = self._fair_clock
            if vtime < floor:
                # Waking from idle: no banked credit.
                vtime = tenant.vtime = floor
        entry = [
            key[0],
            vtime,
            key[1],
            thread._last_ran,
            thread._index,
            next(self._ready_seq),
            thread,
        ]
        thread._heap_entry = entry
        heapq.heappush(self._ready_heap, entry)
        if key[1] != _INF and self._burst_thread is not None:
            self._deadline_push = True

    def _reindex_after_dispatch(self, thread: MThread) -> None:
        """Refresh the dispatched thread's heap entry (hot path).

        Mid-burst (``fair_quantum`` > 1) the refresh is skipped entirely:
        the stale entry stays in the heap and ``_pick_ready`` hands the
        CPU straight back, so a quantum of Q touches the heap once per Q
        dispatches instead of once per dispatch.
        """
        if (
            thread is self._burst_thread
            and self._burst_left > 0
            and not self._deadline_push
            and self.choice_hook is None
            and not thread.terminated
            and thread.is_ready()
        ):
            return
        if thread is self._burst_thread:
            self._burst_thread = None
            self._burst_left = 0
        self._refresh_entry(thread)

    def _refresh_entry(self, thread: MThread) -> None:
        """Re-key the dispatched thread's heap entry.

        The thread came off the heap top and — in the steady state of a
        saturated fabric — goes straight back with a later virtual time.
        When its pre-dispatch entry is still sitting at ``heap[0]`` the
        swap is a single :func:`heapq.heapreplace` sift instead of the
        generic tombstone + push + lazy-pop triple, which halves the
        heap traffic per dispatch at thousand-tenant scale.
        """
        heap = self._ready_heap
        entry = thread._heap_entry
        if thread.terminated or not thread.is_ready():
            if entry is not None:
                entry[6] = None
                thread._heap_entry = None
                stale = self._ready_stale + 1
                self._ready_stale = stale
                if stale > 64 and 3 * stale > 2 * len(heap):
                    self._compact_ready_heap()
            return
        if self._obs is not None and thread._ready_since is None:
            thread._ready_since = self._clock_now()
        key = thread.effective_sort_key()
        tenant = thread._tenant
        if tenant is None:
            vtime = 0.0
        else:
            vtime = tenant.vtime
            floor = self._fair_clock
            if vtime < floor:
                # Waking from idle: no banked credit.
                vtime = tenant.vtime = floor
        new_entry = [
            key[0],
            vtime,
            key[1],
            thread._last_ran,
            thread._index,
            next(self._ready_seq),
            thread,
        ]
        thread._heap_entry = new_entry
        if entry is not None:
            if heap and heap[0] is entry:
                entry[6] = None
                heapq.heapreplace(heap, new_entry)
                return
            # Displaced mid-heap (hooked pick, or a more urgent arrival
            # sifted past it): fall back to tombstone + push.
            entry[6] = None
            self._ready_stale += 1
        heapq.heappush(heap, new_entry)

    def _compact_ready_heap(self) -> None:
        """Rebuild the ready heap without tombstones.

        The live entry *objects* are kept (``thread._heap_entry``
        references stay valid); only the dead ones are dropped.
        """
        heap = [entry for entry in self._ready_heap if entry[6] is not None]
        heapq.heapify(heap)
        self._ready_heap = heap
        self._ready_stale = 0

    def _pick_ready(self) -> MThread | None:
        if self.choice_hook is not None:
            if self._burst_thread is not None:
                self._finish_burst()
            return self._pick_ready_hooked()
        burst = self._burst_thread
        if burst is not None:
            if (
                self._burst_left > 0
                and not self._deadline_push
                and not burst.terminated
                and burst.is_ready()
            ):
                top = self._peek_live()
                if top is None or top[6] is burst:
                    self._burst_left -= 1
                    return burst
                # Someone displaced the burst thread's (stale) entry at
                # the top.  Keep bursting unless the rival is strictly
                # more urgent ignoring virtual time — quantum-bounded
                # vtime unfairness is the whole point, but priority and
                # deadline urgency rotate immediately.
                key = burst.effective_sort_key()
                if not (
                    top[0] < key[0]
                    or (top[0] == key[0] and top[2] < key[1])
                ):
                    self._burst_left -= 1
                    return burst
            self._finish_burst()
        heap = self._ready_heap
        while heap:
            thread = heap[0][6]
            if thread is None:
                heapq.heappop(heap)
                self._ready_stale -= 1
                continue
            if self.fair_quantum > 1 and thread._tenant is not None:
                self._burst_thread = thread
                self._burst_left = self.fair_quantum - 1
                self._deadline_push = False
            return thread
        return None

    def _peek_live(self) -> list | None:
        heap = self._ready_heap
        while heap:
            entry = heap[0]
            if entry[6] is None:
                heapq.heappop(heap)
                self._ready_stale -= 1
                continue
            return entry
        return None

    def _finish_burst(self) -> None:
        """End the active burst and perform its deferred heap refresh."""
        thread = self._burst_thread
        self._burst_thread = None
        self._burst_left = 0
        if thread is not None:
            self._refresh_entry(thread)

    def _ready_candidates(self) -> list[MThread]:
        """The equally most urgent ready threads, default dispatch order.

        ``candidates[0]`` is exactly the thread the heap (or linear) pick
        would return; any other candidate shares its ``(priority, vtime,
        deadline)`` key, so dispatching it instead is a legal schedule.
        """
        best: tuple[float, float, float] | None = None
        candidates: list[MThread] = []
        for thread in self.threads.values():
            if not thread.is_ready():
                continue
            sort_key = thread.effective_sort_key()
            tenant = thread._tenant
            key = (
                sort_key[0],
                tenant.vtime if tenant is not None else 0.0,
                sort_key[1],
            )
            if best is None or key < best:
                best, candidates = key, [thread]
            elif key == best:
                candidates.append(thread)
        candidates.sort(key=lambda t: (t._last_ran, t._index))
        return candidates

    def _pick_ready_hooked(self) -> MThread | None:
        candidates = self._ready_candidates()
        if not candidates:
            return None
        if len(candidates) == 1:
            return candidates[0]
        return self.choice_hook(candidates)

    def _exists_more_urgent_ready(self, current: MThread) -> bool:
        heap = self._ready_heap
        while heap:
            entry = heap[0]
            if entry[6] is None:
                heapq.heappop(heap)
                self._ready_stale -= 1
                continue
            if entry[6] is current:
                # The dispatched thread's own pre-charge entry is not a
                # rival; evict it (the post-dispatch refresh re-inserts).
                heapq.heappop(heap)
                current._heap_entry = None
                continue
            key = current.effective_sort_key()
            tenant = current._tenant
            vtime = tenant.vtime if tenant is not None else 0.0
            return entry[0] < key[0] or (
                entry[0] == key[0]
                and (
                    entry[1] < vtime
                    or (entry[1] == vtime and entry[2] < key[1])
                )
            )
        return False

    def _other_ready(self, current: MThread) -> bool:
        heap = self._ready_heap
        while heap:
            occupant = heap[0][6]
            if occupant is None:
                heapq.heappop(heap)
                self._ready_stale -= 1
                continue
            if occupant is current:
                # The dispatched thread's own live entry; see
                # _exists_more_urgent_ready.
                heapq.heappop(heap)
                current._heap_entry = None
                continue
            return True
        return False

    # -- reference implementations (equivalence oracle for tests) ----------

    def _pick_ready_linear(self) -> MThread | None:
        """The original O(n) scan; must pick exactly what the heap picks."""
        if self.choice_hook is not None:
            return self._pick_ready_hooked()
        best: MThread | None = None
        best_key: tuple | None = None
        for thread in self.threads.values():
            if not thread.is_ready():
                continue
            sort_key = thread.effective_sort_key()
            tenant = thread._tenant
            key = (
                sort_key[0],
                tenant.vtime if tenant is not None else 0.0,
                sort_key[1],
                thread._last_ran,
                thread._index,
            )
            if best_key is None or key < best_key:
                best, best_key = thread, key
        return best

    def _fair_key_linear(self, thread: MThread) -> tuple[float, float, float]:
        sort_key = thread.effective_sort_key()
        tenant = thread._tenant
        return (
            sort_key[0],
            tenant.vtime if tenant is not None else 0.0,
            sort_key[1],
        )

    def _exists_more_urgent_ready_linear(self, current: MThread) -> bool:
        current_key = self._fair_key_linear(current)
        for thread in self.threads.values():
            if thread is current or not thread.is_ready():
                continue
            if self._fair_key_linear(thread) < current_key:
                return True
        return False

    # ------------------------------------------------------------ dispatch

    def _run_thread(self, thread: MThread) -> None:
        if self._last_running is not thread:
            self.context_switches += 1
            if self._trace is not None:
                self._record(
                    "switch",
                    self._last_running.name if self._last_running else None,
                    thread.name,
                )
            self._last_running = thread
        self.steps += 1
        thread._last_ran = next(self._run_seq)

        tenant = thread._tenant
        if tenant is not None:
            # Start-time fair queueing: the fair clock follows the virtual
            # start of the thread in service; the tenant is then charged
            # one quantum scaled by its weight.
            self._fair_clock = tenant.vtime
            tenant.vtime += tenant._inv_weight
            tenant.dispatches += 1

        obs = self._obs
        if obs is not None:
            obs.on_dispatch(thread, self._clock_now())
            wall_start = _perf_counter()

        # The thread's heap entry stays live (usually at heap[0]) for the
        # duration of the dispatch; _reindex defers to the post-dispatch
        # refresh below, and the heap-top scans treat it as non-rival.
        self._current = thread
        try:
            # Inlined _dispatch (one frame fewer on the per-message path).
            if thread._pending_work > 0.0:
                if not self._do_work(thread):
                    return  # preempted mid-work; remainder pending
                # fall through and resume the generator with the stored value
            if thread._gen is not None:
                self._drive(thread)
                return
            message = thread.mailbox.get()
            if message is None:
                return
            thread._current_message = message
            thread._key_cache = None
            if obs is not None and message.constraint is not None:
                obs.on_constraint(thread.name)
            trace = self._trace
            if trace is not None:
                # _record inlined (per-message hot path).
                if type(trace) is deque and len(trace) == trace.maxlen:
                    self.trace_dropped += 1
                trace.append((
                    self._clock_now(), "dispatch", thread.name, message.kind,
                ))
            try:
                result = thread.code(thread, message)
            except Exception as exc:
                self._crash(thread, exc)
                return
            if type(result) is GeneratorType:
                thread._gen = result
                self._drive(thread, first=True)
            else:
                self._finish_message(thread, result)
        finally:
            self._current = None
            self._reindex_after_dispatch(thread)
            if obs is not None:
                obs.on_wall(thread, _perf_counter() - wall_start)

    def _drive(self, thread: MThread, first: bool = False) -> None:
        """Advance the thread's generator until it blocks or completes."""
        gen = thread._gen
        value, exc = thread._resume_value, thread._resume_exc
        thread._resume_value = None
        thread._resume_exc = None

        while True:
            # -- one generator step -----------------------------------------
            try:
                if exc is not None:
                    pending_exc, exc = exc, None
                    request = gen.throw(pending_exc)
                elif first:
                    first = False
                    request = next(gen)
                else:
                    request = gen.send(value)
            except StopIteration as stop:
                self._finish_message(thread, stop.value)
                return
            except Exception as error:
                self._crash(thread, error)
                return
            value = None

            request_type = type(request)

            if request_type is Send:
                message = request.message
                if not message.sender:
                    message.sender = thread.name
                self._deliver(message)
                if message.target == thread.name and thread._tenant is not None:
                    # A tenanted thread re-posting to itself (the greedy
                    # pump loop): with many backlogged tenants some peer
                    # is ALWAYS more urgent, and preempting here would
                    # strand the continuation's trailing bookkeeping in a
                    # second, do-nothing dispatch — doubling the fabric's
                    # per-item dispatch cost.  The tenant was charged at
                    # dispatch start; finishing the generator now steals
                    # nothing.  Untenanted threads keep the preemption
                    # point, bit-for-bit.
                    continue
                if self._preempt_if_needed(thread):
                    return
                continue

            if request_type is Receive:
                message = thread.mailbox.get(request.match)
                if message is not None:
                    value = message
                    continue
                self._block_receive(
                    thread,
                    request.match,
                    request.timeout,
                    waiting_on=getattr(request.match, "waiting_on", None),
                )
                return

            if request_type is Reply:
                reply = request.to.make_reply(request.payload)
                thread.revoke_donation(request.to.msg_id)
                self._deliver(reply)
                if self._preempt_if_needed(thread):
                    return
                continue

            if request_type is Work:
                thread._pending_work = float(request.duration)
                thread._resume_value = None
                if not self._do_work(thread):
                    return  # preempted; scheduler resumes the work later
                if self._preempt_if_needed(thread):
                    return
                value = None
                continue

            if request_type is Call:
                message = Message(
                    kind=request.kind,
                    payload=request.payload,
                    sender=thread.name,
                    target=request.target,
                    constraint=self._call_constraint(thread, request),
                    needs_reply=True,
                )
                callee = self.threads.get(request.target)
                if callee is not None and not callee.terminated:
                    inherited = Constraint(
                        priority=int(thread.effective_priority()))
                    callee.donate(message.msg_id, inherited)
                    if self._obs is not None:
                        self._obs.on_donation(callee.name)
                self._deliver(message)
                request_id = message.msg_id
                self._block_receive(
                    thread,
                    lambda m, _rid=request_id: m.reply_to == _rid,
                    request.timeout,
                    waiting_on=request.target,
                    reason=f"reply to {request.kind!r} call",
                )
                return

            if request_type is Sleep:
                self._block_until(thread, self.clock.now() + request.duration)
                return

            if request_type is WaitUntil:
                if request.when <= self.clock.now() + _EPS:
                    value = None
                    continue
                self._block_until(thread, request.when)
                return

            if request_type is Yield:
                thread._resume_value = None
                if self._other_ready(thread):
                    return
                value = None
                continue

            if request_type is Exit:
                self._finish_message(thread, TERMINATE)
                return

            if not isinstance(request, Syscall):
                self._crash(
                    thread,
                    SchedulerError(
                        f"thread {thread.name!r} yielded non-syscall {request!r}"
                    ),
                )
                return

            self._crash(
                thread,
                SchedulerError(f"unhandled syscall {request!r}"),
            )
            return

    # ------------------------------------------------------------ helpers

    @staticmethod
    def _call_constraint(thread: MThread, request: Call) -> Constraint | None:
        if request.constraint is not None:
            return request.constraint
        current = thread._current_message
        if current is not None and current.constraint is not None:
            # Messages sent on behalf of a constrained message inherit its
            # constraint (paper: "Messages between coroutines inherit the
            # constraint from the message received by the sending component").
            return current.constraint
        return None

    def _block_receive(
        self,
        thread,
        match,
        timeout,
        waiting_on: str | None = None,
        reason: str | None = None,
    ) -> None:
        wait = WaitState(
            kind="receive", match=match, waiting_on=waiting_on, reason=reason
        )
        if timeout is not None:
            def on_timeout(t=thread, w=wait):
                if t._wait is w:
                    t._wait = None
                    t._resume_value = TIMED_OUT
                    t._readiness_changed()

            wait.timer = self.after(timeout, on_timeout)
        thread._wait = wait
        thread._readiness_changed()
        if self._trace is not None:
            self._record("block", thread.name, "receive")

    def _block_until(self, thread: MThread, when: float) -> None:
        wait = WaitState(kind="time")

        def on_wake(t=thread, w=wait):
            if t._wait is w:
                t._wait = None
                t._resume_value = None
                t._readiness_changed()

        wait.timer = self.at(when, on_wake)
        thread._wait = wait
        thread._readiness_changed()
        if self._trace is not None:
            self._record("block", thread.name, "time")

    def _do_work(self, thread: MThread) -> bool:
        """Consume the thread's pending CPU work; False when preempted."""
        while thread._pending_work > _EPS:
            now = self.clock.now()
            target = now + thread._pending_work
            next_t = self._next_timer_time()
            if next_t is None or next_t >= target - _EPS:
                self.clock.advance_to(target)
                if self._obs is not None:
                    self._obs.on_cpu(thread.name, target - now)
                thread._pending_work = 0.0
                return True
            self.clock.advance_to(next_t)
            thread._pending_work -= next_t - now
            if self._obs is not None:
                self._obs.on_cpu(thread.name, next_t - now)
            self._fire_due_timers()
            if self._exists_more_urgent_ready(thread):
                if self._trace is not None:
                    self._record("preempt", thread.name)
                return False
        thread._pending_work = 0.0
        return True

    def _preempt_if_needed(self, thread: MThread) -> bool:
        if self._exists_more_urgent_ready(thread):
            thread._resume_value = None
            if self._trace is not None:
                self._record("preempt", thread.name)
            return True
        return False

    def _finish_message(self, thread: MThread, result: Any) -> None:
        thread._gen = None
        thread._current_message = None
        thread._resume_value = None
        thread._resume_exc = None
        thread._key_cache = None
        trace = self._trace
        if trace is not None:
            # _record inlined (per-message hot path).
            if type(trace) is deque and len(trace) == trace.maxlen:
                self.trace_dropped += 1
            trace.append((self._clock_now(), "done", thread.name))
        if result is TERMINATE:
            thread.terminated = True
            thread.clear_execution_state()
            if self._trace is not None:
                self._record("terminate", thread.name)
        elif result is not CONTINUE and result is not None:
            self._crash(
                thread,
                SchedulerError(
                    f"thread {thread.name!r} returned {result!r}; expected "
                    "CONTINUE or TERMINATE"
                ),
            )

    def inject_crash(self, name: str, exc: BaseException | None = None) -> bool:
        """Crash a live thread as if its code function had raised.

        Fault-injection entry for :mod:`repro.check.faults`: the thread
        dies through the normal ``_crash`` path (state cleared, error
        collected or raised per ``on_thread_error``).  Returns False when
        no live thread by that name exists.
        """
        thread = self.threads.get(name)
        if thread is None or thread.terminated:
            return False
        if exc is None:
            exc = InjectedFault(f"injected crash of thread {name!r}")
        self._crash(thread, exc)
        return True

    def _crash(self, thread: MThread, exc: BaseException) -> None:
        thread.crashed = exc
        thread.terminated = True
        thread.clear_execution_state()
        self.errors.append((thread.name, exc))
        if self._trace is not None:
            self._record("crash", thread.name, repr(exc))
        if self.on_thread_error == "raise":
            raise SchedulerError(f"thread {thread.name!r} crashed") from exc

    # ------------------------------------------------------------ tracing

    def enable_trace(self, limit: int | None = None) -> None:
        """Start tracing (unbounded list, or a ring of ``limit`` events).

        A no-op when tracing is already on — an existing unbounded trace
        subsumes any ring, and an existing ring keeps its capacity.
        """
        if self._trace is None:
            self._trace = [] if limit is None else deque(maxlen=limit)

    def _record(self, *event: Any) -> None:
        trace = self._trace
        if trace is not None:
            if type(trace) is deque and len(trace) == trace.maxlen:
                self.trace_dropped += 1
            trace.append((self._clock_now(), *event))

    @property
    def trace(self):
        """The event trace: a list, or a ``deque`` when ring-bounded."""
        if self._trace is None:
            raise SchedulerError("tracing was not enabled")
        return self._trace

    def trace_events(self, kind: str) -> Iterable[tuple]:
        return [event for event in self.trace if event[1] == kind]
