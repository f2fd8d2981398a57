"""Deterministic priority scheduler for message-based user-level threads.

One :class:`Scheduler` owns a set of :class:`~repro.mbt.thread.MThread`
objects, a clock and a timer wheel.  It repeatedly picks the ready thread
with the most urgent effective constraint and runs it until it blocks in
a receive, completes its current message, or is preempted.  The syscalls
it performs are the ones the middleware yields
(:mod:`repro.mbt.syscalls`); waiting for time is a timer that posts a
message (:meth:`Scheduler.at` / :meth:`Scheduler.after`).

Preemption happens at yield points (every syscall) and *during* simulated
CPU work (:class:`~repro.mbt.syscalls.Work`), so a high-priority audio pump
interrupts a long-running video decode exactly as the paper requires
("threads can be preempted in favor of threads driven by other pumps").

With the default :class:`~repro.mbt.clock.VirtualClock` execution is a pure
discrete-event simulation: deterministic, repeatable, and far faster than
real time.

The ready queue
---------------
Rather than scan every thread per pick, the scheduler keeps an **indexed
ready queue**: a binary heap of ``[prio, vtime, deadline, last_ran,
index, seq, thread]`` entries, one live entry per ready thread.  Whenever
an event changes a thread's key or readiness (message delivery, receive,
message start/finish, wait set or cleared, tenant or parking change)
the thread notifies the scheduler via
:meth:`_reindex`, which tombstones the old entry (lazily discarded at the
heap top) and pushes a fresh one.  The pick, the burst, preemption,
``Yield`` and Repost tests all peek at :meth:`_live_top` — O(1)
amortised, O(log n) worst case — and, because the entry key embeds the same
``(sort key, last_ran, index)`` tuple the linear scan used, the pick order
is *bit-for-bit identical* to the reference linear scan
(:meth:`_pick_ready_linear`, kept for the property-based equivalence
tests).

Fair multi-tenancy
------------------
The ``vtime`` key component implements start-time fair queueing across
**tenants** (sessions multiplexed onto one scheduler by
:mod:`repro.fabric`).  Threads with no tenant carry ``vtime == 0.0``, so
the key degenerates to the original ``(prio, deadline, last_ran, index)``
order and single-session schedules stay bit-for-bit identical (pinned by
the golden traces).  A tenanted thread is keyed by its tenant's virtual
time; each dispatch charges the tenant one unit, so a hot tenant's
threads drift later in the queue and every backlogged tenant receives an
equal share of the dispatches.  Priorities still dominate (vtime only
orders threads of equal effective priority), and a tenant waking from
idle is clamped to the scheduler's fair clock so it cannot burst on
banked credit.  Parked threads (quiesced sessions, see
:meth:`park_thread`) are excluded from ``is_ready`` and therefore hold no
heap entry at all: dispatch cost is independent of the number of idle
sessions, and :meth:`unpark_thread` is a single heap push.
With ``fair_quantum`` > 1 a tenant holds the CPU for a burst of
dispatches.  A greedy pump's self-posted next ``cycle`` is a
:class:`~repro.mbt.syscalls.Repost`: when ``run()`` would dispatch it
next anyway — the thread holds its burst (:meth:`_holds_burst`) or,
untenanted, no ready rival runs first — and nothing is queued, the
scheduler books the dispatch (step, fair charge, meter, and the trace's
``deliver`` / ``done`` / ``dispatch``) and resumes the generator in
place.  A step stays the fairness unit and the trace a view of the
schedule; only the message, mailbox round trip and heap visit go.

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

* :attr:`Scheduler.choice_hook` — called by ``_pick_ready`` with the
  ready threads tied at the heap top whenever there is more than one; it
  returns the thread to dispatch.  Bursts and Reposts follow production
  policy under the hook (a taken Repost has one candidate), so every
  schedule it can produce is one the shipped scheduler allows — the
  schedule explorer perturbs exactly this choice.
* :attr:`Scheduler.delivery_interceptor` — called by ``_deliver`` with
  each message before it is enqueued; may drop or delay it (fault
  injection at mailbox granularity, see :mod:`repro.check.faults`).
* :meth:`Scheduler.inject_crash` — kills a live thread through the
  normal ``_crash`` path, as if its code function had raised.

Observability hooks
-------------------
The scheduler keeps one record of what it did, and :mod:`repro.obs`
reads views of it; both cost nothing when unused:

* Per-thread metering — ``MThread.meter``, a slot planted on the thread
  it describes (normally a :class:`repro.obs.sched.ThreadMeter`, by
  :meth:`repro.obs.sched.SchedulerProbe.install`), whose ``on_dispatch``
  / ``on_wall`` / ``on_cpu`` / ``on_constraint`` methods the dispatch
  path calls behind one ``is not None`` test on the thread
  (``on_dispatch`` when the meter's ``countdown`` runs out).  An
  unmetered thread is bit-for-bit the unhooked scheduler (golden traces
  pin this); a removed thread takes its meter and errors' tracebacks.
* The trace — a ``deque`` appended by :meth:`_record` alone: unbounded,
  or a ring of the newest ``trace_limit`` events whose evictions
  :attr:`trace_dropped` counts.  The ring is the flight recorder;
  :func:`repro.mbt.tracing.dump_on` attaches its tail to an escaping
  exception.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from time import perf_counter as _perf_counter
from types import GeneratorType
from typing import Any, Callable, Iterable, NoReturn

from repro.errors import InjectedFault, SchedulerError
from repro.mbt.clock import Clock, VirtualClock
from repro.mbt.message import Message
from repro.mbt.syscalls import (
    CONTINUE,
    TERMINATE,
    Receive,
    Reply,
    Repost,
    Send,
    Syscall,
    Work,
    Yield,
)
from repro.mbt.thread import MThread

_INF = float("inf")

_EPS = 1e-12

#: The bound on the dead letters and the errors: beyond it the oldest are
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
        """A cancelled handle waits in the heap until its time comes; it
        lets go of its callback, which may hold a closed session's graph."""
        self.cancelled = True
        self.callback = None


class Tenant:
    """Fair-share accounting unit for a group of threads (one session).

    ``vtime`` is its virtual finish time, advanced by one per dispatch, so
    backlogged tenants share the scheduler equally.  Threads are attached
    via :meth:`Scheduler.assign_tenant`, which keeps ``threads``
    (attachment order) so that dropping a tenant visits its own threads
    only.
    """

    __slots__ = ("name", "vtime", "dispatches", "threads")

    def __init__(self, name: str):
        self.name = name
        self.vtime = 0.0
        self.dispatches = 0
        self.threads: dict[MThread, None] = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Tenant {self.name!r} "
            f"vtime={self.vtime:.3f} dispatches={self.dispatches}>"
        )


class Scheduler:
    """Runs user-level threads over a virtual or real clock."""

    def __init__(
        self,
        clock: Clock | None = None,
        trace: bool = False,
        trace_limit: int | None = None,
        fair_quantum: int = 1,
    ):
        if fair_quantum < 1:
            raise ValueError("fair_quantum must be >= 1")
        self.clock = clock if clock is not None else VirtualClock()
        # Bound once: tracing and probe hooks stamp times on every event,
        # and the attribute chain is measurable there.
        self._clock_now = self.clock.now
        self.threads: dict[str, MThread] = {}
        #: Undeliverable messages, newest last (``DEAD_LETTER_LIMIT``).
        self.dead_letters: deque[Message] = deque(maxlen=DEAD_LETTER_LIMIT)
        #: Dead letters evicted because the queue was full.
        self.dead_letters_dropped = 0
        #: Crashed threads' ``(name, exc)``, bounded like the dead letters.
        self.errors: deque[tuple[str, Any]] = deque(maxlen=DEAD_LETTER_LIMIT)
        self.errors_dropped = 0  # evicted past the bound

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
        #: Event trace: None (off) or a deque — unbounded, or a ring
        #: (``maxlen=trace_limit``) keeping only the newest events.
        self._trace: deque | None = None
        if trace or trace_limit is not None:
            self._trace = deque(maxlen=trace_limit)
        #: Events evicted from a bounded trace ring.
        self.trace_dropped = 0
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
        #: ``hook(candidates) -> MThread`` with ``candidates`` the threads
        #: tied at the heap top in the default dispatch order, so
        #: ``candidates[0]`` is what the unhooked scheduler would pick.
        self.choice_hook: Callable[[list[MThread]], MThread] | None = None
        #: Fault-injection hook: ``interceptor(message)`` returning None
        #: (deliver now), ``"drop"``, or a positive delay in seconds.
        self.delivery_interceptor: Callable[[Message], Any] | None = None
        #: Messages discarded by the delivery interceptor.
        self.messages_dropped = 0

        #: Fair-share tenants by name (see :class:`Tenant`); empty when
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
        #: per-dispatch, so long-run shares are unaffected.
        self.fair_quantum = int(fair_quantum)
        #: Active burst: the tenanted thread currently holding the CPU
        #: between fair re-evaluations, and how many dispatches remain.
        self._burst_thread: MThread | None = None
        self._burst_left = 0
        #: Set when a deadline-constrained entry enters the ready heap;
        #: aborts any burst so EDF urgency is never deferred behind a
        #: quantum (priority urgency needs no flag: a more-urgent
        #: priority surfaces at the heap top, or sits below the burst
        #: thread's own stale entry, which is then more urgent too).
        self._deadline_push = False
        #: Parked (quiesced) threads; they hold no ready-heap entry, so
        #: dispatch cost is independent of the number of idle sessions.
        self._parked: set[MThread] = set()
        #: One-shot :meth:`before_idle` callbacks of the run in progress;
        #: None outside :meth:`run`.
        self._before_idle: list[Callable[[], None]] | None = None
        #: ``(until, max_steps)`` of the run in progress: a taken Repost
        #: is a step, so it must be one that run would still make.
        self._limits: tuple[float | None, int | None] = (None, None)

    def __repr__(self) -> str:
        names = ", ".join(itertools.islice(self.threads, 3))
        return (f"<Scheduler {type(self.clock).__name__} t={self.now():g} "
                f"threads={len(self.threads)} ({names})>")

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
            # Its errors drop their tracebacks, whose frames hold its graph.
            for index, (who, exc) in enumerate(self.errors):
                if who == name and isinstance(exc, BaseException):
                    self.errors[index] = (who, repr(exc))
            thread.terminated = True
            thread.clear_execution_state()
            self._parked.discard(thread)
            if thread._tenant is not None:
                thread._tenant.threads.pop(thread, None)
            if self._last_running is thread:  # pin no removed thread
                self._last_running = None
            if self._burst_thread is thread:
                self._burst_thread, self._burst_left = None, 0

    # ------------------------------------------------------------ tenants

    def add_tenant(self, name: str) -> Tenant:
        """Get or create the fair-share :class:`Tenant` called ``name``;
        an existing tenant keeps its virtual time."""
        tenant = self._tenants.get(name)
        if tenant is None:
            tenant = self._tenants[name] = Tenant(name)
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

        Parked threads cost the dispatcher nothing —
        ``tests/fabric/test_fairness.py`` counts the same scheduler steps
        however many threads are parked.  Messages delivered meanwhile queue in the
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

    def post_many(self, messages: list[Message]) -> None:
        """Inject a run of messages, exactly as :meth:`post` one by one
        (order, interception, trace, ``messages_delivered``).  A run of
        consecutive messages to one live target that is not blocked and
        no interceptor must see enters its mailbox as one
        :meth:`Mailbox.put_many`: the owner is re-keyed once per run (an
        engine's event fan-out, a gate's wakes), not once per message.
        Plain loops, not ``itertools.groupby``: every open's START and an
        engine's ``stop()`` run this cold (``setup_s``, ``teardown_s``);
        a closing session posts nothing, its threads being deleted."""
        start, end = 0, len(messages)
        while start < end:
            name = messages[start].target
            stop = start + 1
            while stop < end and messages[stop].target == name:
                stop += 1
            run, start = messages[start:stop], stop
            target = self.threads.get(name)
            if (
                self.delivery_interceptor is not None
                or target is None
                or target.terminated
                or target._wait is not None
            ):
                for message in run:
                    self._deliver(message)
                continue
            self.messages_delivered += len(run)
            if self._trace is not None:
                for message in run:
                    self._record("deliver", message.kind, message.sender, name)
            target.mailbox.put_many(run)

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
            if len(self.dead_letters) == DEAD_LETTER_LIMIT:
                self.dead_letters_dropped += 1
            self.dead_letters.append(message)
            return
        self.messages_delivered += 1
        if self._trace is not None:
            self._record(
                "deliver", message.kind, message.sender, message.target
            )
        wait = target._wait
        if wait is not None and (wait.match is None or wait.match(message)):
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
        blocked in a receive (servers awaiting requests) do not keep the
        scheduler alive.
        """
        nested = self._before_idle is not None
        if not nested:
            self._before_idle = []
        outer, self._limits = self._limits, (until, max_steps)
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
            self._limits = outer
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

    # ------------------------------------------------------------ ready queue

    def _reindex(self, thread: MThread) -> None:
        """Refresh ``thread``'s entry in the ready heap.

        Tombstones any previous entry (discarded lazily at the heap top)
        and, when the thread is ready and not currently dispatched, pushes
        a fresh entry keyed exactly like the reference linear scan:
        ``(*effective_sort_key(), last_ran, index)``, with the tenant's
        virtual time after the priority.  An entry still at ``heap[0]`` —
        the dispatched thread of a saturated fabric going straight back
        with a later virtual time — is swapped in one
        :func:`heapq.heapreplace` sift instead of the tombstone + push +
        lazy-pop triple, which halves the heap traffic per dispatch at
        thousand-tenant scale.
        """
        if thread is self._current:
            # Deferred: _run_thread refreshes the entry once the dispatch
            # settles (see _reindex_after_dispatch), so mid-dispatch key
            # churn — a declined Repost's self-message — costs nothing.
            return
        heap = self._ready_heap
        old = thread._heap_entry
        if old is not None:
            old[6] = None
            thread._heap_entry = None
        if not thread.terminated and thread.is_ready():
            meter = thread.meter
            if meter is not None and meter.countdown == 1:  # sampled next
                if meter.ready_since is None:
                    meter.ready_since = self._clock_now()
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
                key[0], vtime, key[1], thread._last_ran, thread._index,
                next(self._ready_seq), thread,
            ]
            thread._heap_entry = entry
            if key[1] != _INF and self._burst_thread is not None:
                self._deadline_push = True
            if old is not None and heap[0] is old:
                heapq.heapreplace(heap, entry)
                return
            heapq.heappush(heap, entry)
        if old is not None:
            stale = self._ready_stale + 1
            self._ready_stale = stale
            # Lazy invalidation only pops tombstones that surface at the
            # heap top; mid-heap ones from key churn on rarely-picked
            # threads would otherwise accumulate without bound.
            if stale > 64 and 3 * stale > 2 * len(heap):
                self._compact_ready_heap()

    def _reindex_after_dispatch(self, thread: MThread) -> None:
        """Refresh the dispatched thread's heap entry (hot path).

        Mid-burst (``fair_quantum`` > 1) the refresh is skipped entirely:
        the stale entry stays in the heap and ``_pick_ready`` hands the
        CPU straight back, so a quantum of Q touches the heap once per Q
        dispatches instead of once per dispatch.
        """
        if thread is not self._burst_thread:
            self._reindex(thread)
        elif not self._holds_burst(thread):
            self._finish_burst()

    def _compact_ready_heap(self) -> None:
        """Rebuild the ready heap without tombstones.

        The live entry *objects* are kept (``thread._heap_entry``
        references stay valid); only the dead ones are dropped.
        """
        heap = [entry for entry in self._ready_heap if entry[6] is not None]
        heapq.heapify(heap)
        self._ready_heap = heap
        self._ready_stale = 0

    def _holds_burst(self, thread: MThread) -> bool:
        """The burst predicate: ``thread`` takes its next dispatch with no
        heap visit — it holds the burst with quantum left, no deadline
        entry asks for a fair re-evaluation, it is ready (mid-dispatch:
        live and unparked), and the live top — a rival, or its own stale
        entry, which may carry a more urgent key than the one it now
        runs under — is not more urgent ignoring virtual time.
        Quantum-bounded vtime unfairness is the point of a burst, but
        priority and deadline urgency rotate at once."""
        if (
            thread is not self._burst_thread
            or self._burst_left <= 0
            or self._deadline_push
            or not thread.is_ready()
        ):
            return False
        top = self._live_top()
        return top is None or not (top[0], top[2]) < thread.effective_sort_key()

    def _pick_ready(self) -> MThread | None:
        """The one pick: the held burst, else the live heap top.  A
        ``choice_hook`` is asked only at a real tie — two or more live
        entries sharing the top's ``(priority, vtime, deadline)``, in
        ``(last_ran, index)`` order, so the top comes first."""
        burst = self._burst_thread
        if burst is not None:
            if self._holds_burst(burst):
                self._burst_left -= 1
                return burst
            self._finish_burst()
        top = self._live_top()
        if top is None:
            return None
        thread = top[6]
        if self.choice_hook is not None:
            ties = sorted(
                entry for entry in self._ready_heap
                if entry[6] is not None and entry[:3] == top[:3]
            )
            if len(ties) > 1:
                thread = self.choice_hook([entry[6] for entry in ties])
        if self.fair_quantum > 1 and thread._tenant is not None:
            self._burst_thread = thread
            self._burst_left = self.fair_quantum - 1
            self._deadline_push = False
        return thread

    def _live_top(self, thread: MThread | None = None) -> list | None:
        """The ready heap's live top entry that is not ``thread``'s.

        Tombstones surfacing at the top are discarded, and so is
        ``thread``'s own entry: the dispatched thread's pre-dispatch
        entry is no rival, and the post-dispatch refresh re-inserts it.
        """
        heap = self._ready_heap
        while heap:
            entry = heap[0]
            occupant = entry[6]
            if occupant is None:
                self._ready_stale -= 1
            elif occupant is thread:
                thread._heap_entry = None
            else:
                return entry
            heapq.heappop(heap)
        return None

    def _finish_burst(self) -> None:
        """End the active burst and perform its deferred heap refresh."""
        thread = self._burst_thread
        self._burst_thread, self._burst_left = None, 0
        if thread is not None:
            self._reindex(thread)

    def _exists_more_urgent_ready(self, current: MThread) -> bool:
        """The preemption test: a ready rival is strictly more urgent by
        ``(priority, vtime, deadline)``."""
        top = self._live_top(current)
        if top is None:
            return False
        return (top[0], top[1], top[2]) < self._fair_key(current)

    def _fair_key(self, thread: MThread) -> tuple[float, float, float]:
        """``thread``'s ``(priority, vtime, deadline)``: its heap key
        before the ``(last_ran, index)`` tie-break."""
        priority, deadline = thread.effective_sort_key()
        tenant = thread._tenant
        return priority, 0.0 if tenant is None else tenant.vtime, deadline

    # -- reference implementations (equivalence oracle for tests) ----------

    def _pick_ready_linear(self) -> MThread | None:
        """The original O(n) scan; must pick exactly what the heap picks."""
        best: MThread | None = None
        best_key: tuple | None = None
        for thread in self.threads.values():
            if not thread.is_ready():
                continue
            key = (*self._fair_key(thread), thread._last_ran, thread._index)
            if best_key is None or key < best_key:
                best, best_key = thread, key
        return best

    def _exists_more_urgent_ready_linear(self, current: MThread) -> bool:
        current_key = self._fair_key(current)
        for thread in self.threads.values():
            if thread is current or not thread.is_ready():
                continue
            if self._fair_key(thread) < current_key:
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
        self._account(thread)
        meter = thread.meter
        if meter is not None:
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
            if meter is not None and message.constraint is not None:
                meter.on_constraint()
            if self._trace is not None:
                self._record("dispatch", thread.name, message.kind)
            try:
                result = thread.code(thread, message)
            except Exception as exc:
                self._crash(thread, exc)
            if type(result) is GeneratorType:
                thread._gen = result
                self._drive(thread, first=True)
            else:
                self._finish_message(thread, result)
        finally:
            self._current = None
            self._reindex_after_dispatch(thread)
            if meter is not None:
                meter.on_wall(_perf_counter() - wall_start)

    def _account(self, thread: MThread) -> None:
        """A dispatch's bookkeeping, for a message or a taken Repost."""
        self.steps += 1
        thread._last_ran = next(self._run_seq)
        tenant = thread._tenant
        if tenant is not None:
            # Start-time fair queueing: the fair clock follows the virtual
            # start of the thread in service; the tenant is then charged
            # one unit.
            self._fair_clock = tenant.vtime
            tenant.vtime += 1.0
            tenant.dispatches += 1
        if thread.meter is not None:
            meter = thread.meter
            meter.countdown -= 1
            if not meter.countdown:
                meter.on_dispatch(self._clock_now())

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
            value = None

            request_type = type(request)

            if request_type is Send:
                message = request.message
                if not message.sender:
                    message.sender = thread.name
                self._deliver(message)
                if self._preempt_if_needed(thread):
                    return
                continue

            if request_type is Repost:
                name = thread.name
                if self._takes_repost(thread, request):
                    # Taken: what run() would do next — finish the message,
                    # pick the thread again and dispatch its self-message —
                    # booked and traced as that message would be.
                    if self._trace is not None:
                        self._record("deliver", request.kind, name, name)
                        self._record("done", name)
                    meter = thread.meter
                    if thread._tenant is not None:
                        self._burst_left -= 1
                    elif meter is not None and meter.countdown == 1:
                        # The re-key's stamp, if sampled next: a zero wait.
                        meter.ready_since = self._clock_now()
                    self._account(thread)
                    if meter is not None and request.constraint is not None:
                        meter.on_constraint()
                    if self._trace is not None:
                        self._record("dispatch", name, request.kind)
                    value = True
                    continue
                self._deliver(Message(
                    kind=request.kind, sender=name, target=name,
                    constraint=request.constraint,
                ))
                # Declined: Send's delivery.  A tenanted thread has no
                # preemption point: a peer is always more urgent, and the
                # code function's return would cost a do-nothing dispatch.
                if thread._tenant is None and self._preempt_if_needed(thread):
                    return
                continue

            if request_type is Receive:
                message = thread.mailbox.get(request.match)
                if message is not None:
                    value = message
                    continue
                thread._wait = request
                thread._readiness_changed()
                if self._trace is not None:
                    self._record("block", thread.name, "receive")
                return

            if request_type is Reply:
                self._deliver(request.to.make_reply(request.payload))
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

            if request_type is Yield:
                thread._resume_value = None
                if self._live_top(thread) is not None:
                    return
                value = None
                continue

            what = ("unhandled syscall" if isinstance(request, Syscall)
                    else f"thread {thread.name!r} yielded non-syscall")
            self._crash(thread, SchedulerError(f"{what} {request!r}"))

    # ------------------------------------------------------------ helpers

    def _takes_repost(self, thread: MThread, request: Repost) -> bool:
        """Whether run() would dispatch ``request``'s self-message next
        with nothing in between: nothing is queued ahead of it (a control
        event would run first), no interceptor must see it, it keeps the
        running message's constraint, run's step and time limits allow
        one more step, and the thread is picked next: its burst holds,
        or, untenanted, the live heap top is strictly less urgent by
        ``(priority, vtime, deadline)`` — on a tie the rival, having run
        longer ago, is picked."""
        until, max_steps = self._limits
        if (
            thread.mailbox._heap
            or thread.parked
            or self.delivery_interceptor is not None
            or thread._current_message.constraint is not request.constraint
            or (max_steps is not None and self.steps >= max_steps)
            or (until is not None and self._clock_now() > until + _EPS)
        ):
            return False
        if thread._tenant is not None:
            return self._holds_burst(thread)
        rival = self._live_top(thread)
        if rival is None:
            return True
        prio, deadline = thread.effective_sort_key()
        return (prio, 0.0, deadline) < (rival[0], rival[1], rival[2])

    def _do_work(self, thread: MThread) -> bool:
        """Consume the thread's pending CPU work; False when preempted."""
        meter = thread.meter
        while thread._pending_work > _EPS:
            now = self.clock.now()
            target = now + thread._pending_work
            next_t = self._next_timer_time()
            if next_t is None or next_t >= target - _EPS:
                self.clock.advance_to(target)
                if meter is not None:
                    meter.on_cpu(target - now)
                thread._pending_work = 0.0
                return True
            self.clock.advance_to(next_t)
            thread._pending_work -= next_t - now
            if meter is not None:
                meter.on_cpu(next_t - now)
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
        if self._trace is not None:
            self._record("done", thread.name)
        if result is TERMINATE:
            thread.terminated = True
            thread.clear_execution_state()
            if self._trace is not None:
                self._record("terminate", thread.name)
        elif result is not CONTINUE and result is not None:
            self._crash(thread, SchedulerError(
                f"thread {thread.name!r} returned {result!r}; expected "
                "CONTINUE or TERMINATE"))

    def inject_crash(self, name: str, exc: BaseException | None = None) -> bool:
        """Crash a live thread as if its code function had raised (the
        fault-injection entry of :mod:`repro.check.faults`): through the one
        ``_crash`` path, so it raises :class:`SchedulerError` from ``exc``.
        The only value returned is False, with nothing done, when no live
        thread by that name exists."""
        thread = self.threads.get(name)
        if thread is None or thread.terminated:
            return False
        if exc is None:
            exc = InjectedFault(f"injected crash of thread {name!r}")
        self._crash(thread, exc)

    def _crash(self, thread: MThread, exc: BaseException) -> NoReturn:
        """The one crash path: record it on the thread and in :attr:`errors`
        and raise out of :meth:`run`, whose next call goes on."""
        thread.crashed = exc
        thread.terminated = True
        thread.clear_execution_state()
        if len(self.errors) == self.errors.maxlen:
            self.errors_dropped += 1
        self.errors.append((thread.name, exc))
        if self._trace is not None:
            self._record("crash", thread.name, repr(exc))
        raise SchedulerError(f"thread {thread.name!r} crashed") from exc

    # ------------------------------------------------------------ tracing

    def enable_trace(self) -> None:
        """Keep every event from now on: start the trace, or widen a ring
        to the full record (what it already evicted stays counted in
        :attr:`trace_dropped`).  A no-op on a full trace."""
        trace = self._trace
        if trace is None:
            self._trace = deque()
        elif trace.maxlen is not None:
            self._trace = deque(trace)

    def _record(self, *event: Any) -> None:
        """The trace's one writer; callers test ``_trace is not None``."""
        trace = self._trace
        if len(trace) == trace.maxlen:
            self.trace_dropped += 1
        trace.append((self._clock_now(), *event))

    @property
    def trace(self) -> deque:
        """The event trace, oldest first (a ring keeps the newest)."""
        if self._trace is None:
            raise SchedulerError("tracing was not enabled")
        return self._trace

    def trace_events(self, kind: str) -> Iterable[tuple]:
        return [event for event in self.trace if event[1] == kind]
