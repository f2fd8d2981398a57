"""The Infopipe engine: realizing an allocation plan on the thread package.

"The Infopipe platform creates a thread for each pump.  If there is no need
for coroutines in the pipeline section a pump controls, the thread calls the
pull functions of all components upstream of the pump, then calls push with
the returned item to the components downstream of the pump, and finally
returns to the pump, which schedules the next pull. ... If such coroutines
are needed, each of them is implemented by an additional thread of the
underlying thread package."  (paper, section 4)
"""

from __future__ import annotations

from typing import Any, Callable, Union

from repro.components.buffers import Buffer
from repro.core import events as ev
from repro.core.component import Component, Role
from repro.core.composition import Pipeline
from repro.core.events import EOS, Event, EventService
from repro.core.glue import (
    AllocationPlan,
    BoundaryRef,
    FlowNode,
    SectionPlan,
    allocate,
)
from repro.core.items import NIL
from repro.core.polarity import Mode
from repro.core.styles import EndOfStream, PullOp, PushOp, Style
from repro.errors import PortError, RuntimeFault
from repro.mbt.constraints import Constraint
from repro.mbt.coroutine import Done, Suspendable
from repro.mbt.message import Message
from repro.mbt.scheduler import Scheduler
from repro.mbt.syscalls import CONTINUE, Reply, Repost, Work
from repro.mbt.timers import PeriodicTimer
from repro.runtime.bridge import PendingEmits, ReplayIntake, build_suspendable
from repro.runtime.section import (
    BufferGate,
    SegmentLock,
    ThreadCtx,
    compile_pull,
    compile_pull_many,
    compile_push,
    compile_push_many,
    ends_in_eos,
    serving,
    traced_hand,
)
from repro.runtime.stats import PipelineStats

FlowTarget = Union[FlowNode, BoundaryRef]


class PumpDriver:
    """Runs one section: the pump's (or active endpoint's) thread."""

    def __init__(self, engine: "Engine", section: SectionPlan):
        self.engine = engine
        self.section = section
        self.origin = section.origin
        self.thread_name = f"pump:{self.origin.name}"
        self.ctx = ThreadCtx(engine, self.thread_name)
        self.timer: PeriodicTimer | None = None
        self.finished = False
        self.cycles = 0
        self.nil_cycles = 0
        self.items_moved = 0
        self.waiting_for_data = False
        self._loop_active = False
        self._pull_gates: list[BufferGate] = []
        #: Compiled flow walkers (bound by Engine._compile_walkers).
        self._pull_walker = None
        self._push_walker = None
        #: Batched data plane (bound only when the batch policy or a
        #: per-pump override allows batch_max > 1 on a greedy pump).
        self._pull_many = None
        self._push_many = None
        self._pump_batch_max: int | None = None
        self._cycle = self._run_cycle
        self.batches = 0
        self.batched_items = 0
        self.flush_full = 0
        self.flush_dry = 0
        self.flush_eos = 0
        self._origin_drain = self.origin.drain_cost
        self._max_items = self.origin.max_items
        #: The greedy loop's request for its next cycle.  The loop's first
        #: ``cycle`` and the ticks carry its very constraint: a Repost is
        #: taken only under the running message's own (by identity).
        priority = self.origin.priority
        self._repost = Repost(
            "cycle", Constraint(priority=priority) if priority else None
        )
        #: An active source's ``generate`` (bound by compile_walkers, which
        #: counts its births like any source's plain entry's).
        self._generate = None

    # -- setup -------------------------------------------------------------

    def setup(self) -> None:
        scheduler = self.engine.scheduler
        scheduler.spawn(
            self.thread_name, self.code, priority=self.origin.priority
        )
        if self.origin.reservation:
            scheduler.reserve(self.thread_name, self.origin.reservation)
        if self.timing == "clocked":
            period = self.origin.period()
            if period is None:
                raise RuntimeFault(
                    f"{self.origin.name!r} is clocked but has no period"
                )
            slack = self.origin.deadline_slack
            constraint_fn = None
            if slack is not None:
                def constraint_fn(fire_time, _slack=slack):
                    return Constraint(
                        priority=self.origin.priority,
                        deadline=fire_time + _slack,
                    )
            self.timer = PeriodicTimer(
                scheduler,
                self.thread_name,
                period=period,
                kind="tick",
                constraint=self._repost.constraint,
                constraint_fn=constraint_fn,
            )
            self.origin._rate_listener = self._apply_rate

    def compile_walkers(self) -> None:
        """(Re)build the section's bound flow walkers; see
        :func:`repro.runtime.section.compile_pull`."""
        section = self.section
        self._pull_gates = list(
            _boundary_gates(self.engine, section.pull_root)
        )
        self._pull_walker = (
            compile_pull(self.ctx, section.pull_root)
            if section.pull_root is not None
            else None
        )
        self._push_walker = (
            compile_push(self.ctx, section.push_root)
            if section.push_root is not None
            else None
        )
        if section.pull_root is None:
            self._generate = serving(
                self.origin.generate, None, traced_hand(self.ctx)
            )
        self._max_items = self.origin.max_items
        # Batch mode is a compile-time decision: only greedy pumps whose
        # effective batch limit exceeds 1 get the batched cycle and the
        # batch walkers.  At the default batch_max=1 nothing here runs,
        # so the per-item scheduler traces are reproduced bit-for-bit.
        self._pump_batch_max = self.origin.batch_max
        limit = self._pump_batch_max or self.engine.batch_max
        if limit > 1 and self.timing == "greedy":
            self._pull_many = (
                compile_pull_many(self.ctx, section.pull_root)
                if section.pull_root is not None
                else None
            )
            self._push_many = (
                compile_push_many(self.ctx, section.push_root)
                if section.push_root is not None
                else None
            )
            self._cycle = self._run_cycle_batch
        else:
            self._pull_many = None
            self._push_many = None
            self._cycle = self._run_cycle

    @property
    def timing(self) -> str:
        return self.origin.timing

    def _apply_rate(self, rate_hz: float) -> None:
        if self.timer is not None:
            self.timer.period = 1.0 / rate_hz

    # -- thread code function ------------------------------------------------

    def code(self, thread, message):
        """Plain dispatch: the hot path hands the scheduler a single
        ``_run_cycle`` generator per message instead of nesting one inside
        a ``code`` generator."""
        kind = message.kind
        if kind == "cycle":
            self.waiting_for_data = False
            if self.origin.running and not self.finished:
                return self._cycle(repost=True)
            self._loop_active = False
        elif kind == "tick":
            if self.origin.running and not self.finished:
                return self._cycle(repost=False)
        elif kind == "event":
            self.ctx.dispatch_event_message(message)
        self.sync_running_state()
        return CONTINUE

    def sync_running_state(self) -> None:
        running = self.origin.running and not self.finished
        if self.timer is not None:
            if running and not self.timer.running:
                self.timer.start()
            elif not running and self.timer.running:
                self.timer.stop()
        elif running and not self._loop_active and not self.waiting_for_data:
            self._loop_active = True
            self.engine.scheduler.post(
                Message(
                    kind="cycle",
                    sender=self.thread_name,
                    target=self.thread_name,
                    constraint=self._repost.constraint,
                )
            )

    # -- one cycle -----------------------------------------------------------

    def _run_cycle(self, repost: bool):
        """Pump cycles plus the post-cycle trailer (:meth:`_loops`) in a
        single generator: while the scheduler takes the greedy loop's
        :class:`Repost`, the next cycle runs here, with no message."""
        origin = self.origin
        while True:
            self.cycles += 1
            pull = self._pull_walker
            push = self._push_walker
            # The thread's hand (repro.obs) while a collector is attached:
            # it times the cycle of a sampled dispatch and is told when a
            # timed cycle's, or a carried context's, items are all moved —
            # an active sink's walker being this loop.
            hand = self.ctx.hand
            if hand is not None:
                cycle_start = hand.sample_cycle() if hand.timed else None

            if pull is not None:
                item = yield from pull()
            else:
                item = self._generate()
                cost = self._origin_drain()
                if cost > 0.0:
                    yield Work(cost)

            if item is NIL:
                self.nil_cycles += 1
                if self.timer is None:
                    self._enter_waiting()
            elif item is EOS:
                if push is not None:
                    yield from push(EOS)
                self.finish()
            else:
                if pull is not None:
                    origin.stats["items_in"] += 1
                else:
                    origin.stats["items_out"] += 1

                if push is not None:
                    yield from push(item)
                    if pull is not None:
                        origin.stats["items_out"] += 1
                else:
                    # Active sink: consume in place.
                    origin.consume(item)
                    cost = self._origin_drain()
                    if cost > 0.0:
                        yield Work(cost)

                if hand is not None:
                    if cycle_start is not None or hand.carried:
                        hand.cycle_end(
                            cycle_start, 1, None if push else origin.name
                        )
                    else:  # what cycle_end's sweep would leave
                        hand.pending, hand.last = 0, None
                self.items_moved += 1
                max_items = self._max_items
                if max_items is not None and self.items_moved >= max_items:
                    # A bounded origin ends the stream: tell downstream.
                    if push is not None:
                        yield from push(EOS)
                    self.finish()

            if not self._loops(repost) or not (yield self._repost):
                return CONTINUE

    def _run_cycle_batch(self, repost: bool):
        """Batched pump cycles: drain up to the policy's batch size per
        scheduler dispatch (tentpole of the batched data plane).

        The run conventions mirror the per-item cycle exactly — an empty
        run is a nil cycle, a trailing EOS ends the stream through the
        per-item push walker (so fan-out and sink bookkeeping stay exact),
        and stats count individual items.  The post-cycle trailer and the
        Repost loop are :meth:`_run_cycle`'s.
        """
        origin = self.origin
        while True:
            self.cycles += 1
            pull_many = self._pull_many
            push_many = self._push_many
            hand = self.ctx.hand
            if hand is not None:
                cycle_start = hand.sample_cycle() if hand.timed else None

            n = self._pump_batch_max
            if n is None:
                n = self.engine.batch_max
            max_items = self._max_items
            if max_items is not None:
                headroom = max_items - self.items_moved
                if headroom < n:
                    n = headroom if headroom > 0 else 1

            if pull_many is not None:
                run = yield from pull_many(n)
            else:
                # Active source: drain up to n generated items.
                run = []
                generate = self._generate
                while len(run) < n:
                    item = generate()
                    if item is NIL:
                        break
                    run.append(item)
                    if item is EOS:
                        break
                cost = self._origin_drain()
                if cost > 0.0:
                    yield Work(cost)

            eos = ends_in_eos(run)
            data = run[:-1] if eos else run

            if data:
                count = len(data)
                if pull_many is not None:
                    origin.stats["items_in"] += count
                else:
                    origin.stats["items_out"] += count

                if push_many is not None:
                    yield from push_many(data)
                    if pull_many is not None:
                        origin.stats["items_out"] += count
                else:
                    # Active sink: consume in place.
                    consume = origin.consume
                    for item in data:
                        consume(item)
                    cost = self._origin_drain()
                    if cost > 0.0:
                        yield Work(cost)

                if hand is not None:
                    # Weighted by the items inside the run, so stage-latency
                    # percentiles in stats.summary() count items, not runs.
                    if cycle_start is not None or hand.carried:
                        hand.cycle_end(cycle_start, count,
                                       None if push_many else origin.name)
                    else:  # what cycle_end's sweep would leave
                        hand.pending, hand.last = 0, None
                self.items_moved += count
                self.batches += 1
                self.batched_items += count
                if eos:
                    self.flush_eos += 1
                elif count >= n:
                    self.flush_full += 1
                else:
                    self.flush_dry += 1
            elif not eos:
                self.nil_cycles += 1
                if self.timer is None:
                    self._enter_waiting()

            if eos or (
                max_items is not None and self.items_moved >= max_items
            ):
                push = self._push_walker
                if push is not None:
                    yield from push(EOS)
                self.finish()

            if not self._loops(repost) or not (yield self._repost):
                return CONTINUE

    def _loops(self, repost: bool) -> bool:
        """The post-cycle trailer: True when the greedy loop goes on — it
        is still running, not finished, not waiting for data and (having
        no timer) needs no resync — so the caller yields its Repost.
        Otherwise the loop is marked inactive and the running state
        resynced."""
        if repost:
            if (
                self.origin.running
                and not self.finished
                and not self.waiting_for_data
            ):
                return True
            self._loop_active = False
        self.sync_running_state()
        return False

    def _enter_waiting(self) -> None:
        """Greedy pump found no data under a nil policy: sleep until any
        upstream gate sees a push."""
        self.waiting_for_data = True
        for gate in self._pull_gates:
            gate.idle_pumps.add(self.thread_name)

    def finish(self) -> None:
        self.finished = True
        self.origin.running = False
        if self.timer is not None:
            self.timer.stop()


class CoroutineDriver:
    """Runs one coroutine component on its own user-level thread.

    Push/pull to the component arrive as ``ip-push``/``ip-pull`` request
    messages; the driver resumes the component's suspendable body, serves
    its requests against the continuation subtree, and replies when the
    component next needs input (push mode) or has produced output (pull
    mode).
    """

    def __init__(
        self,
        engine: "Engine",
        component: Component,
        mode: Mode,
        node: FlowNode,
    ):
        self.engine = engine
        self.component = component
        self.mode = mode
        self.node = node
        self.thread_name = f"coro:{component.name}"
        self.ctx = ThreadCtx(engine, self.thread_name)
        self.susp: Suspendable | None = None
        self.started = False
        self.finished = False
        self._drain = component.drain_cost
        #: Compiled per-port continuation walkers (push mode uses push
        #: walkers, pull mode uses pull walkers); bound by
        #: Engine._compile_walkers.
        self._push_walkers: dict[str, Any] = {}
        self._pull_walkers: dict[str, Any] = {}

    def setup(self, priority: int) -> None:
        self.engine.scheduler.spawn(self.thread_name, self.code, priority)

    def compile_walkers(self) -> None:
        branches = self.node.branches
        if self.mode is Mode.PUSH:
            self._push_walkers = {
                port: compile_push(self.ctx, child)
                for port, child in branches.items()
            }
            self._pull_walkers = {}
        else:
            self._pull_walkers = {
                port: compile_pull(self.ctx, child)
                for port, child in branches.items()
            }
            self._push_walkers = {}

    def _suspendable(self) -> Suspendable:
        if self.susp is None:
            self.susp = build_suspendable(self.component, self.engine.backend)
        return self.susp

    # -- resume helpers ------------------------------------------------------

    def _resume(self, value: Any):
        """Resume the body; returns a request, or Done."""
        try:
            return self._suspendable().resume(value)
        except EndOfStream:
            return Done(None)

    def _start(self):
        self.started = True
        try:
            return self._suspendable().resume(None)
        except EndOfStream:
            return Done(None)

    def _resume_eos(self):
        """Deliver end-of-stream to the body: thrown into active bodies,
        passed as a value to the generated wrappers."""
        if self.component.style is Style.ACTIVE:
            try:
                return self._suspendable().throw(EndOfStream())
            except EndOfStream:
                return Done(None)
        return self._resume(EOS)

    # -- thread code function ------------------------------------------------

    def code(self, thread, message):
        """Plain dispatch returning the handler generator directly (its
        ``None`` return is accepted as CONTINUE by the scheduler)."""
        kind = message.kind
        if kind == "event":
            self.ctx.dispatch_event_message(message)
            return CONTINUE
        if kind in ("ip-push", "ip-push-batch") and self.mode is Mode.PUSH:
            return self._handle_push(message)
        if kind in ("ip-pull", "ip-pull-batch") and self.mode is Mode.PULL:
            return self._handle_pull(message)
        raise RuntimeFault(
            f"coroutine {self.component.name!r} ({self.mode} mode) got "
            f"unexpected message {message.kind!r}"
        )

    # -- push mode -------------------------------------------------------------

    def _handle_push(self, message: Message):
        """One ``ip-push`` / ``ip-push-batch`` crossing: feed the pushed
        items to the body, one resume/drive round per item, then reply.
        A batch payload is a pure-data run and a per-item payload the run
        of one; EOS only ever arrives through the per-item kind."""
        if not self.finished and not self.started:
            yield from self._drive_to_pull(self._start())
        payload = message.payload
        if payload is EOS:
            # A body asking for more input after EOS stays ended.
            while not self.finished:
                yield from self._drive_to_pull(self._resume_eos())
        else:
            run = payload if message.kind == "ip-push-batch" else (payload,)
            # Active bodies count on actual delivery, like pull mode does
            # — the body's *request* for input (its PullOp) may only ever
            # be answered by EOS, which is not an item.
            active = self.component.style is Style.ACTIVE
            for item in run:
                if self.finished:
                    break
                if active:
                    self.component.stats["items_in"] += 1
                yield from self._drive_to_pull(self._resume(item))
        yield Reply(message, "ok")

    def _drive_to_pull(self, request):
        """Serve PushOps downstream until the body wants input again."""
        push_walkers = self._push_walkers
        while True:
            cost = self._drain()
            if cost > 0.0:
                yield Work(cost)
            if isinstance(request, Done):
                yield from self._forward_eos_downstream()
                self.finished = True
                return None
            if isinstance(request, PushOp):
                if self.component.style is Style.ACTIVE:
                    # wrapper styles count via receive_push/serve_pull
                    self.component.stats["items_out"] += 1
                walker = push_walkers.get(request.port)
                if walker is None:
                    raise RuntimeFault(
                        f"{self.component.name!r} used unknown port "
                        f"{request.port!r}"
                    )
                yield from walker(request.item)
                request = self._resume(None)
                continue
            if isinstance(request, PullOp):
                return request
            raise RuntimeFault(
                f"{self.component.name!r} yielded unexpected {request!r}"
            )

    def _forward_eos_downstream(self):
        for walker in self._push_walkers.values():
            yield from walker(EOS)

    # -- pull mode --------------------------------------------------------------

    def _handle_pull(self, message: Message):
        """One ``ip-pull`` / ``ip-pull-batch`` crossing: collect up to n
        outputs (one for the per-item kind) before replying.  A batch
        reply follows the batch walkers' run conventions (data first, at
        most one trailing EOS, [] means no data now); the per-item reply
        is the item itself, EOS, or NIL."""
        batch = message.kind == "ip-pull-batch"
        n = message.payload if batch else 1
        run = []
        while len(run) < n:
            if self.finished:
                run.append(EOS)
                break
            value = yield from self._next_output()
            if value is NIL:
                break
            run.append(value)
            if value is EOS:
                break
        if batch:
            yield Reply(message, run)
        else:
            yield Reply(message, run[0] if run else NIL)

    def _next_output(self):
        """Advance the body to its next output item; returns the item, or
        EOS when the body finishes (setting ``finished``)."""
        if not self.started:
            request = self._start()
        else:
            request = self._resume(None)

        pull_walkers = self._pull_walkers
        while True:
            cost = self._drain()
            if cost > 0.0:
                yield Work(cost)
            if isinstance(request, Done):
                self.finished = True
                return EOS
            if isinstance(request, PushOp):
                if self.component.style is Style.ACTIVE:
                    self.component.stats["items_out"] += 1
                return request.item
            if isinstance(request, PullOp):
                walker = pull_walkers.get(request.port)
                if walker is None:
                    raise RuntimeFault(
                        f"{self.component.name!r} used unknown port "
                        f"{request.port!r}"
                    )
                value = yield from walker()
                if value is EOS:
                    request = self._resume_eos()
                else:
                    if value is not NIL and \
                            self.component.style is Style.ACTIVE:
                        self.component.stats["items_in"] += 1
                    request = self._resume(value)
                continue
            raise RuntimeFault(
                f"{self.component.name!r} yielded unexpected {request!r}"
            )


def _boundary_gates(engine: "Engine", root: FlowTarget | None):
    """All buffer gates at the boundaries of a section side."""
    if root is None:
        return
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, BoundaryRef):
            gate = engine.gate_for(node.component)
            if gate is not None:
                yield gate
        else:
            stack.extend(node.branches.values())


def drive_with_io(
    scheduler: Scheduler,
    completed: Callable[[], bool],
    io: Any,
    idle_timeout: float = 0.05,
    max_steps: int | None = None,
    horizon: float = 1.0,
) -> None:
    """Run ``scheduler`` until ``completed()`` while pumping an external
    I/O source: the one main loop of a shard process
    (:meth:`Engine.run_with_io`) and of a session fabric
    (:meth:`repro.fabric.SessionFabric.run_with_io`).

    ``io`` is anything with ``pump() -> int`` (drain ready inbound
    messages into the pipeline, returning how many arrived),
    ``wait(timeout) -> bool`` (block until inbound bytes or timeout)
    and ``should_stop() -> bool`` (external shutdown, e.g. a control
    message from the deployment parent; a shared link never asks).  The loop
    alternates scheduler runs with I/O pumping: the scheduler runs
    until quiescent, arrivals wake the boundary gates
    (``external_wake_pullers``), and an engine completes when
    every pump driver finished — which for a downstream shard means
    its netpipe receivers saw the cross-process EOS.

    Each scheduler run is bounded to ``horizon`` virtual seconds: a
    periodic timer (a clocked pump waiting on wire data) keeps the
    scheduler non-quiescent forever, so an unbounded run would never
    hand control back to the I/O pump.  Each shard's virtual clock
    is local and free-running, so burning through idle virtual time
    while real bytes are in flight only skews timestamps, never the
    data flow.
    """
    while True:
        scheduler.run(
            until=scheduler.clock.now() + horizon, max_steps=max_steps
        )
        if completed():
            return
        if io.pump():
            continue
        if io.should_stop():
            return
        io.wait(idle_timeout)

class Engine:
    """Executes a pipeline: thread transparency made concrete.

    Parameters
    ----------
    pipe:
        The composed :class:`~repro.core.composition.Pipeline`.
    backend:
        ``"generator"`` (default; deterministic generator coroutines) or
        ``"thread"`` (OS-thread coroutine bodies with genuinely blocking
        calls, the paper-faithful programming model).
    scheduler:
        The scheduler to run on (default: a fresh one over a virtual
        clock); the one way to give an engine another clock.
    batch_max:
        The batched data plane's transmission policy: how many items a
        greedy pump may move per scheduler message (docs/RUNTIME.md §11).
        It lives on the engine — batch size is a property of the
        transmission, not of any component; ``GreedyPump(batch_max=)``
        overrides it for one pump.  The default of 1 compiles exactly the
        per-item walkers (and reproduces their golden traces).
    """

    def __init__(
        self,
        pipe: Pipeline,
        backend: str = "generator",
        scheduler: Scheduler | None = None,
        trace: bool = False,
        trace_limit: int | None = None,
        batch_max: int | None = None,
    ):
        if not isinstance(pipe, Pipeline):
            raise RuntimeFault("Engine requires a composed Pipeline")
        if batch_max is None:
            batch_max = 1
        if batch_max < 1:
            raise RuntimeFault("batch_max must be at least 1")
        self.batch_max = int(batch_max)
        self.pipeline = pipe
        self.backend = backend
        self.scheduler = scheduler or Scheduler(
            trace=trace, trace_limit=trace_limit
        )
        #: The event table: component name -> owner thread, in pipeline
        #: order once set up (the order a broadcast reaches them).
        self._owner: dict[str, str] = {}
        self.events = EventService(self._owner, self._post_events)
        self.plan: AllocationPlan | None = None

        self._gates: dict[Component, BufferGate] = {}
        self._locks: dict[Component, SegmentLock] = {}
        self._replays: dict[Component, ReplayIntake] = {}
        self._pendings: dict[Component, PendingEmits] = {}
        self._thread_components: dict[str, dict[str, Component]] = {}
        self._coroutine_drivers: dict[Component, CoroutineDriver] = {}
        self.pump_drivers: list[PumpDriver] = []
        self._drivers_by_origin: dict[str, PumpDriver] = {}
        self.stats_counters: dict[str, int] = {"coroutine_switches": 0}
        #: Per-walker batched switch counters ([int] cells); flushed into
        #: ``stats_counters`` whenever ``stats`` is read or walkers are
        #: recompiled, so the hot path pays one list-cell increment instead
        #: of a dict update per coroutine crossing.
        self._switch_counters: list[list[int]] = []
        self._setup_done = False
        self._started = False  # START broadcast, and no STOP since
        #: The network its netpipes bound, for cross-node event latency.
        self.network = None
        #: Attached services (feedback loops, sensors): stop_services().
        self._services: list[Any] = []
        #: Observability front-end (repro.obs.Telemetry) when attached,
        #: for the latency decoration of ``stats``.  What the runtime
        #: reports movements to is the plant: ``ThreadCtx.hand`` per
        #: thread, ``BufferGate.lane`` per queue, ``MThread.meter``.
        self._telemetry: Any = None
        #: Committed live restructurings (repro.runtime.restructure
        #: Replacement records), in application order — the audit trail
        #: refinement certificates archive.
        self.restructure_log: list[Any] = []

    def add_service(self, service: Any) -> None:
        """Register an auxiliary service: anything with a ``stop()``,
        which :meth:`stop_services` calls (feedback loops register
        themselves here)."""
        self._services.append(service)

    def attach_network(self, network) -> "Engine":
        """Run ``network`` (None: none) on this scheduler as the one the
        engine's nodes share, whose control latency delays events between
        them ("control events are delivered to remote components through
        the platform", section 2.4); its netpipes call this as they attach."""
        if network is not None:
            self.network = network.bind(self.scheduler, self.network)
        return self

    # ------------------------------------------------------------ setup

    def setup(self) -> "Engine":
        if self._setup_done:
            return self
        self.plan = allocate(self.pipeline)

        # Pump drivers and ownership / coroutine drivers via tree walks.
        coroutine_stages = {
            stage.component: stage
            for section in self.plan.sections
            for stage in section.stages
            if stage.coroutine
        }
        for section in self.plan.sections:
            driver = PumpDriver(self, section)
            self.pump_drivers.append(driver)
            self._drivers_by_origin[section.origin.name] = driver
            self._own(section.origin, driver.thread_name)
            for root in (section.pull_root, section.push_root):
                if root is not None:
                    self._own_tree(
                        root, driver.thread_name, coroutine_stages,
                        priority=section.origin.priority,
                    )

        # Spawn the pump threads after the coroutine threads of every
        # section (the spawn order certificates record).
        for driver in self.pump_drivers:
            driver.setup()

        # Segment locks for shared clusters.
        self._build_locks()

        # One pass in pipeline order: a buffer's gate, then the component's
        # row of the event table (re-filed in this order), then its attach
        # hook (which may read both).
        walked = dict(self._owner)
        self._owner.clear()
        for component in self.pipeline:
            if component.role is Role.BUFFER:
                self._gates[component] = BufferGate(self, component)
            owner = walked.get(component.name)
            if owner is not None:
                self._file_receiver(component, owner)
            component.on_attach(self)

        # Compile the flow walkers last: gates, locks, replay intakes and
        # coroutine ownership are all settled by now.
        self._compile_walkers()
        self._setup_done = True
        return self

    def _compile_walkers(self) -> None:
        """(Re)compile every driver's bound flow walkers.

        Called at the end of setup and again after any structural change
        (see :func:`repro.runtime.restructure.replace_component`, which
        swaps ``node.component`` in place)."""
        self._flush_switches()
        self._switch_counters.clear()
        for driver in self.pump_drivers:
            driver.compile_walkers()
        for driver in self._coroutine_drivers.values():
            driver.compile_walkers()

    def _switch_counter(self) -> list:
        """A fresh batched coroutine-switch counter cell for a compiled
        walker (see ``stats_counters``)."""
        counter = [0]
        self._switch_counters.append(counter)
        return counter

    def _flush_switches(self) -> None:
        total = 0
        for counter in self._switch_counters:
            if counter[0]:
                total += counter[0]
                counter[0] = 0
        if total:
            self.stats_counters["coroutine_switches"] += total

    def _own(self, component: Component, thread_name: str) -> None:
        if component.name in self._owner:
            return  # first owner wins (shared components, buffers)
        self._owner[component.name] = thread_name
        self._thread_components.setdefault(thread_name, {})[
            component.name
        ] = component

    def _own_tree(
        self,
        target: FlowTarget,
        owner_thread: str,
        coroutine_stages: dict,
        priority: int,
    ) -> None:
        if isinstance(target, BoundaryRef):
            self._own(target.component, owner_thread)
            return
        component = target.component
        if component in coroutine_stages:
            if component not in self._coroutine_drivers:
                driver = CoroutineDriver(
                    self, component, target.mode, target
                )
                driver.setup(priority)
                self._coroutine_drivers[component] = driver
                self._own(component, driver.thread_name)
            owner_thread = self._coroutine_drivers[component].thread_name
        else:
            self._own(component, owner_thread)
            if component.style is Style.CONSUMER:
                self.pending_for(component)
            if component.style is Style.PRODUCER:
                self.replay_for(component)
        for child in target.branches.values():
            self._own_tree(child, owner_thread, coroutine_stages, priority)

    def _build_locks(self) -> None:
        assert self.plan is not None
        shared = self.plan.shared_components
        if not shared:
            return
        # Connected clusters of shared components share one lock.
        remaining = set(shared)
        while remaining:
            seed = remaining.pop()
            cluster = {seed}
            stack = [seed]
            while stack:
                component = stack.pop()
                for port in component.ports.values():
                    if port.peer is None:
                        continue
                    neighbour = port.peer.component
                    if neighbour in remaining:
                        remaining.discard(neighbour)
                        cluster.add(neighbour)
                        stack.append(neighbour)
            lock = SegmentLock(name=f"segment:{seed.name}")
            for member in cluster:
                self._locks[member] = lock

    def _file_receiver(self, component: Component, owner: str) -> None:
        """Enter ``component`` in the event table under its owner thread;
        a second component under a taken name is refused."""
        if component.name in self._owner:
            raise RuntimeFault(
                f"duplicate event receiver {component.name!r}"
            )
        self._owner[component.name] = owner
        component._events = self.events

    def _post_events(self, event: Event, names: list[str]) -> None:
        """The event service's delivery: a prioritized message to each
        receiver's owner thread, as the event table names it, posted as
        one run (:meth:`Scheduler.post_many`) — a message crossing nodes
        after the control latency instead."""
        run = []
        for name in names:
            thread = self._owner[name]
            message = Message(kind="event", payload=(event, name),
                              sender="event-service", target=thread,
                              constraint=ev.EVENT_CONSTRAINT)
            if self.network is not None and event.source:
                receiver = self._thread_components[thread][name]
                delay = self._event_delay(event.source, receiver)
                if delay > 0.0:
                    self.scheduler.after(
                        delay, lambda m=message: self.scheduler.post(m)
                    )
                    continue
            run.append(message)
        self.scheduler.post_many(run)

    def _event_delay(self, source_name: str, receiver: Component) -> float:
        """Cross-node control latency for an event (0 locally)."""
        try:
            source = self.pipeline.component(source_name)
        except PortError:  # a sender outside the pipeline
            return 0.0
        src_loc, dst_loc = source.location, receiver.location
        if not src_loc or not dst_loc or src_loc == dst_loc:
            return 0.0
        return self.network.control_latency(src_loc, dst_loc)

    # ------------------------------------------------------------ accessors

    def gate_for(self, component: Component) -> BufferGate | None:
        return self._gates.get(component)

    def lock_for(self, component: Component) -> SegmentLock | None:
        return self._locks.get(component)

    def replay_for(self, component: Component) -> ReplayIntake:
        replay = self._replays.get(component)
        if replay is None:
            replay = ReplayIntake([p.name for p in component.in_ports()])
            replay.install(component)
            self._replays[component] = replay
        return replay

    def pending_for(self, component: Component) -> PendingEmits:
        pending = self._pendings.get(component)
        if pending is None:
            pending = PendingEmits()
            pending.install(component)
            self._pendings[component] = pending
        return pending

    def is_coroutine(self, component: Component) -> bool:
        return component in self._coroutine_drivers

    def thread_of(self, component: Component) -> str:
        owner = self._owner.get(component.name)
        if owner is None:
            raise RuntimeFault(f"{component.name!r} has no owning thread")
        return owner

    # ------------------------------------------------------------ control

    def send_event(self, kind: str, payload: Any = None) -> None:
        """Broadcast a control event to every component (like the paper's
        ``send_event(START)``)."""
        self.setup()
        self.events.broadcast(Event(kind=kind, payload=payload, source=""))

    def start(self) -> "Engine":
        self.setup()
        self.send_event(ev.START)
        self._started = True
        return self

    def stop_services(self) -> "Engine":
        """Stop the attached services, and send no event: what a session
        being closed needs, whose threads go next (no STOP handler would
        ever run)."""
        for service in self._services:
            service.stop()
        return self

    def stop(self) -> "Engine":
        """Stop the services, then broadcast STOP: for an engine that will
        run again (its handlers run on the next dispatch)."""
        self.stop_services()
        self.send_event(ev.STOP)
        self._started = False
        return self

    def run(self, until: float | None = None, max_steps: int | None = None) -> "Engine":
        self.setup()
        self.scheduler.run(until=until, max_steps=max_steps)
        return self

    def run_to_completion(self, max_steps: int | None = None) -> "Engine":
        """Start the pipeline unless started since its last ``stop()``, and
        run until it goes quiescent (finite flows end by EOS; infinite
        flows need ``run(until=...)`` + ``stop()``)."""
        if not self._started:
            self.start()
        self.scheduler.run(max_steps=max_steps)
        return self

    def run_with_io(self, io: Any, **loop: Any) -> "Engine":
        """Run to completion while pumping ``io`` — the shard-local main
        loop of a multi-process deployment (:mod:`repro.deploy`).  ``io``
        and the ``idle_timeout`` / ``max_steps`` / ``horizon`` keywords
        are :func:`drive_with_io`'s."""
        self.setup()
        drive_with_io(self.scheduler, lambda: self.completed, io, **loop)
        return self

    @property
    def completed(self) -> bool:
        return bool(self.pump_drivers) and all(
            d.finished for d in self.pump_drivers
        )

    @property
    def drivers(self) -> tuple:
        """Every thread's driver (the only spawn sites), pumps first."""
        return (*self.pump_drivers, *self._coroutine_drivers.values())

    def now(self) -> float:
        return self.scheduler.now()

    # ------------------------------------------------------------ stats

    @property
    def stats(self) -> PipelineStats:
        self._flush_switches()
        retained = {
            component.name: level
            for component in self.pipeline.components
            if component.role is Role.BUFFER
            and (level := component.fill_level) > 0
        }
        batching = {}
        for driver in self.pump_drivers:
            if driver.batches:
                batching[driver.origin.name] = {
                    "batches": driver.batches,
                    "items": driver.batched_items,
                    "avg_batch": driver.batched_items / driver.batches,
                    "flush_full": driver.flush_full,
                    "flush_dry": driver.flush_dry,
                    "flush_eos": driver.flush_eos,
                }
        snapshot = PipelineStats(
            components={
                c.name: dict(c.stats) for c in self.pipeline.components
            },
            batching=batching,
            retained=retained,
            held={
                c.name: n for c, r in self._replays.items() if (n := r.held())
            },
            context_switches=self.scheduler.context_switches,
            coroutine_switches=self.stats_counters["coroutine_switches"],
            messages_delivered=self.scheduler.messages_delivered,
            cycles={d.origin.name: d.cycles for d in self.pump_drivers},
            nil_cycles={
                d.origin.name: d.nil_cycles for d in self.pump_drivers
            },
            time=self.scheduler.now(),
            threads=len(self.drivers),
            dead_letters=len(self.scheduler.dead_letters),
            dead_letters_dropped=self.scheduler.dead_letters_dropped,
        )
        if self._telemetry is not None:
            self._telemetry.decorate(snapshot)
        return snapshot
