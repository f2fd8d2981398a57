"""Chain execution: direct calls, gates, locks and coroutine messaging.

All driver code here is written as generators over
:mod:`repro.mbt.syscalls`, composed with ``yield from`` into the code
functions of pump and coroutine threads.  Three kinds of suspension occur
mid-chain, and each stays responsive to control events:

* **buffer gates** — a push on a full BLOCK buffer, or a pull on an empty
  BLOCK buffer, parks the thread until a wake message arrives;
* **coroutine boundaries** — push/pull to a component running in another
  thread becomes an asynchronous ``ip-push``/``ip-pull`` message plus a
  wait for the reply ("the thread blocks waiting for either a control
  message or the data reply message", section 4);
* **simulated CPU work** — ``component.charge()`` is drained into ``Work``
  syscalls, making stage costs preemptible.

Chains are walked by **compiled walkers**: :func:`compile_pull` /
:func:`compile_push` (and their ``*_many`` batch forms) run at
plan-realization time (see ``Engine._compile_walkers``), resolve every
isinstance check, gate/lock/replay lookup and style dispatch *once per
node*, and return bound generator closures, so steady-state item movement
does one dict-free call per hop.  The walkers are the flow semantics; any
recompilation trigger (today:
:func:`repro.runtime.restructure.replace_component`) re-runs the
compilation pass.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import TYPE_CHECKING, Any, Union

from repro.core.component import Component
from repro.core.events import EOS
from repro.core.glue import BoundaryRef, FlowNode
from repro.core.items import NIL
from repro.core.styles import EndOfStream, Style
from repro.components.buffers import EMPTY, FULL
from repro.errors import RuntimeFault
from repro.mbt.message import Message
from repro.mbt.syscalls import Receive, Send, Work
from repro.runtime.bridge import NeedMoreInput

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.engine import Engine

FlowTarget = Union[FlowNode, BoundaryRef]


class ThreadCtx:
    """Per-thread execution context used by all driver generators."""

    def __init__(self, engine: "Engine", thread_name: str):
        self.engine = engine
        self.thread_name = thread_name
        #: The thread's hand on the items it is moving (repro.obs.flow
        #: Hand) while a collector is attached: the cycle clock and the
        #: positional lineage.  None keeps every site that reports a
        #: movement at one identity check.
        self.hand = None

    # -- receiving with event transparency ---------------------------------

    def receive_data(self, kinds: set[str]):
        """Wait for a message of one of ``kinds``, dispatching control
        events that arrive in the meantime."""
        while True:
            message = yield Receive(
                match=lambda m: m.kind in kinds or m.kind == "event"
            )
            if message.kind == "event":
                self.dispatch_event_message(message)
                continue
            return message

    def dispatch_event_message(self, message: Message) -> None:
        event, target_name = message.payload
        self.engine.dispatch_event_local(self.thread_name, event, target_name)


# ---------------------------------------------------------------------------
# Buffer gates
# ---------------------------------------------------------------------------


class BufferGate:
    """Runtime mediation of one buffer's blocking behaviour.

    The buffer itself only reports full/empty; the gate parks the calling
    thread (keeping it event-responsive) and wakes it with ``buffer-item``
    / ``buffer-space`` messages when the state changes.
    """

    #: The queue's positional record (repro.obs.flow Lane) while a
    #: collector is attached: every successful transfer is reported to it
    #: with the mover's hand.  None when nothing is attached, so the data
    #: path pays one identity check per transfer and no new scheduler
    #: events ever (golden traces unchanged).
    lane = None

    def __init__(self, engine: "Engine", buffer):
        self.engine = engine
        self.buffer = buffer
        self._push_waiters: deque[str] = deque()
        self._pull_waiters: deque[str] = deque()
        #: Greedy pumps waiting for data (poked on every successful put).
        self.idle_pumps: set[str] = set()
        # Batched entry points, resolved once (a Boundary's default is
        # the per-item loop).
        self._try_push_many = buffer.try_push_many
        self._try_pull_many = buffer.try_pull_many

    def put(self, ctx: ThreadCtx, item: Any, port: str = "in"):
        while True:
            status = self.buffer.try_push(item, port)
            if status != FULL:
                if self.lane is not None and item is not EOS:
                    self.lane.put(ctx.hand, 1, port)
                yield from self._wake_pullers(ctx)
                return
            self._push_waiters.append(ctx.thread_name)
            yield from ctx.receive_data({"buffer-space"})

    def get(self, ctx: ThreadCtx, port: str = "out"):
        while True:
            status, item = self.buffer.try_pull(port)
            if status != EMPTY:
                if (
                    self.lane is not None
                    and item is not EOS
                    and item is not NIL
                ):
                    self.lane.get(ctx.hand, 1, port)
                yield from self._wake_pushers(ctx)
                return item
            self._pull_waiters.append(ctx.thread_name)
            yield from ctx.receive_data({"buffer-item"})

    def put_many(self, ctx: ThreadCtx, items: list, port: str = "in"):
        """Deliver a run of data items; one puller wake per successful
        sub-run instead of one per item.  ``items`` must not contain EOS
        (EOS travels through the per-item path)."""
        push_many = self._try_push_many
        total = len(items)
        start = 0
        while True:
            taken = push_many(items[start:] if start else items, port)
            if taken:
                if self.lane is not None:
                    self.lane.put(ctx.hand, taken, port)
                yield from self._wake_pullers(ctx)
                start += taken
                if start >= total:
                    return
                continue
            self._push_waiters.append(ctx.thread_name)
            yield from ctx.receive_data({"buffer-space"})

    def get_many(self, ctx: ThreadCtx, n: int, port: str = "out"):
        """Obtain a run of up to ``n`` items; one pusher wake per run.

        Returns a list: data items, optionally ending in EOS.  An empty
        list means "no data now" under a NIL policy (the per-item NIL)."""
        pull_many = self._try_pull_many
        while True:
            status, run = pull_many(n, port)
            if status != EMPTY:
                if self.lane is not None:
                    count = _run_data_count(run)
                    if count:
                        self.lane.get(ctx.hand, count, port)
                yield from self._wake_pushers(ctx)
                return run
            self._pull_waiters.append(ctx.thread_name)
            yield from ctx.receive_data({"buffer-item"})

    def _wake_pullers(self, ctx: ThreadCtx):
        if self._pull_waiters:
            waiter = self._pull_waiters.popleft()
            yield Send(Message(kind="buffer-item", target=waiter,
                               sender=ctx.thread_name))
        for pump_thread in list(self.idle_pumps):
            self.idle_pumps.discard(pump_thread)
            yield Send(Message(kind="cycle", target=pump_thread,
                               sender=ctx.thread_name))

    def _wake_pushers(self, ctx: ThreadCtx):
        if self._push_waiters:
            waiter = self._push_waiters.popleft()
            yield Send(Message(kind="buffer-space", target=waiter,
                               sender=ctx.thread_name))

    def external_put(self, chunks, framed: bool):
        """Wire data is about to enter the buffer from outside any driver
        context (a netpipe receiver's packet, or the chunks of a coalesced
        frame when ``framed``).  Returns the chunks to queue: an attached
        lane records the arrival and strips what the sending side's
        runtime added to the frame."""
        lane = self.lane
        return chunks if lane is None else lane.arrive(chunks, framed)

    def external_wake_pullers(self) -> None:
        """Wake waiting pullers from outside any driver context (used by
        netpipe receivers when a packet — or a coalesced frame — arrives
        from the network).  All wakes for one arrival go through a single
        multi-deliver post."""
        wakes = []
        if self._pull_waiters:
            waiter = self._pull_waiters.popleft()
            wakes.append(
                Message(kind="buffer-item", target=waiter, sender="network")
            )
        for pump_thread in list(self.idle_pumps):
            self.idle_pumps.discard(pump_thread)
            wakes.append(
                Message(kind="cycle", target=pump_thread, sender="network")
            )
        if wakes:
            self.engine.scheduler.post_many(wakes)

    def external_wake_pushers(self) -> None:
        """Wake every parked pusher from outside any driver context: a
        ``flush`` emptied the buffer and no pull will announce the space.
        Each retries its put (and parks again if it lost the race)."""
        if self._push_waiters:
            wakes = [
                Message(kind="buffer-space", target=waiter, sender="flush")
                for waiter in self._push_waiters
            ]
            self._push_waiters.clear()
            self.engine.scheduler.post_many(wakes)


# ---------------------------------------------------------------------------
# Segment locks (shared chains below merges / above activity routers)
# ---------------------------------------------------------------------------


class SegmentLock:
    """Mutual exclusion for chains shared between pipeline sections.

    Cooperative scheduling already serializes plain calls; the lock matters
    when a shared chain suspends (a blocking buffer at its end) — without
    it, a second pump could interleave half-processed items.
    """

    def __init__(self, name: str):
        self.name = name
        self.holder: str | None = None
        self._waiters: deque[str] = deque()
        self.contentions = 0

    def held_by(self, ctx: ThreadCtx) -> bool:
        return self.holder == ctx.thread_name

    def acquire(self, ctx: ThreadCtx):
        while self.holder is not None and self.holder != ctx.thread_name:
            self.contentions += 1
            self._waiters.append(ctx.thread_name)
            yield from ctx.receive_data({"segment-free"})
        self.holder = ctx.thread_name

    def release(self, ctx: ThreadCtx):
        if self.holder != ctx.thread_name:
            raise RuntimeFault(
                f"lock {self.name!r} released by {ctx.thread_name!r} "
                f"but held by {self.holder!r}"
            )
        self.holder = None
        if self._waiters:
            waiter = self._waiters.popleft()
            yield Send(Message(kind="segment-free", target=waiter,
                               sender=ctx.thread_name))


# ---------------------------------------------------------------------------
# Compiled walkers
# ---------------------------------------------------------------------------
#
# One bound generator closure per (thread, flow node), with the gate, lock,
# replay intake, pending-emit queue, coroutine target thread and per-port
# child walkers all resolved at compile time.  The run-time body of a hop
# is then just the user code plus the unavoidable suspension points.


def _stock_pull(component):
    """``component.pull`` if the stock ``serve_pull`` dispatches to it."""
    if type(component).serve_pull is Component.serve_pull:
        return getattr(component, "pull", None)


def _bind_serve_pull(component, port: str):
    """Zero-arg per-item pull entry for ``component``.

    When the component keeps the stock :meth:`Component.serve_pull`, its
    per-call getattr dispatch and stats bookkeeping are folded into a bound
    closure; overriding components (activity routers) keep their own entry.
    """
    pull_impl = _stock_pull(component)
    if pull_impl is not None:
        stats = component.stats

        def serve():
            item = pull_impl()
            if item is not EOS and item is not NIL:
                stats["items_out"] += 1
            return item

        return serve
    if port == "out":  # the signature default: the bound method suffices
        return component.serve_pull
    return partial(component.serve_pull, port)


def _bind_receive_push(component, port: str):
    """One-arg per-item push entry for ``component`` (see
    :func:`_bind_serve_pull`); tees keep their overridden entry."""
    if type(component).receive_push is Component.receive_push:
        push_impl = getattr(component, "push", None)
        if push_impl is not None:
            stats = component.stats

            def receive(item):
                stats["items_in"] += 1
                push_impl(item)

            return receive
    if port == "in":  # the signature default: the bound method suffices
        return component.receive_push
    return partial(component.receive_push, port=port)


def ends_in_eos(run) -> bool:
    """True when ``run`` carries a trailing EOS.  Columnar runs are pure
    data by convention and are never indexed here (indexing one would
    materialize a per-item object just to compare it with EOS)."""
    return (
        len(run) > 0
        and not getattr(run, "columnar", False)
        and run[-1] is EOS
    )


def _run_data_count(run) -> int:
    """Data items in a run (excluding a trailing EOS)."""
    return len(run) - 1 if ends_in_eos(run) else len(run)


def _item_data_count(item) -> int:
    """Data items in a per-item payload: EOS and NIL carry none."""
    return 0 if item is EOS or item is NIL else 1


def _run_entry(component, item_entry: str):
    """The component's run entry — ``pull_many(n)`` for ``"pull"``,
    ``push_many(items)`` for ``"push"`` — or None when the batch walkers
    must loop the per-item entry.

    A run entry is a transmission policy: it moves a run the way that many
    per-item calls would (data first, at most one trailing EOS, stopping
    at NIL), so it may only stand in for the per-item entry its author
    knew.  Walking the instance and then the class's MRO, whichever of
    the two names is defined first decides: an instance-tapped ``push``
    or a subclass overriding ``pull`` below the class that provides the
    run entry *is* the semantics, and the per-item loop stays; a subclass
    (or a tap) that supplies the run entry itself is taken whole.
    """
    run_name = {"pull": "pull_many", "push": "push_many"}[item_entry]
    entry = getattr(component, run_name, None)
    if entry is None:
        return None
    for holder in (component, *type(component).__mro__):
        namespace = getattr(holder, "__dict__", {})  # {}: slotted instance
        if run_name in namespace:
            return entry
        if item_entry in namespace:
            return None
    return entry


def plant_source(ctx: ThreadCtx, entry, count=None):
    """``entry`` — a source's plain per-item entry, or with ``count`` its
    ``(n) -> run`` entry — hooked so that what it hands out is born in
    the thread's hand; ``entry`` itself while no flow tracer holds that
    hand.  With :func:`plant_sink`, the walkers' whole compile-time seam
    to :mod:`repro.obs`: no walker body exists in a traced variant."""
    hand = ctx.hand
    if hand is None or hand.tracer is None:
        return entry
    return hand.source(entry, count)


def plant_sink(ctx: ThreadCtx, component, entry, count=None):
    """``(entry, deliver)`` for sink ``component``'s plain entry (per
    item, or with ``count`` per run).  A wire sink's entry is hooked to
    send its items' lineage along; any other sink's walker calls
    ``deliver(name, k)`` once ``k`` items have landed and their cost is
    drained.  ``(entry, None)`` while no flow tracer holds the hand."""
    hand = ctx.hand
    if hand is None or hand.tracer is None:
        return entry, None
    if getattr(component, "wire_sink", False):
        return hand.wire(entry, component, count), None
    return entry, hand.deliver


def _compile_crossing(ctx: ThreadCtx, component, kind: str):
    """Bound round trip to a coroutine component's thread.

    ``kind`` is ``ip-pull`` / ``ip-push`` (one item per crossing) or
    ``ip-pull-batch`` / ``ip-push-batch`` (one run per crossing).  The
    walker sends its argument as the request payload — nothing for a
    per-item pull, the item or pure-data run for a push, the run limit
    for a batch pull — waits for the reply while dispatching control
    events that arrive in the meantime (the paper's mechanism for keeping
    a blocked push/pull responsive), and returns the reply payload.

    While a collector is attached the thread's hand is told when the
    request departs and when the reply arrives, with the data items that
    crossed: it times the round trip and moves the items' lineage to or
    from the coroutine's hand.
    """
    engine = ctx.engine
    target = engine.thread_of(component)
    sender = ctx.thread_name
    thread = engine.scheduler.threads[sender]
    dispatch_event = ctx.dispatch_event_message
    counter = engine._switch_counter()
    pushing = kind in ("ip-push", "ip-push-batch")
    data_count = (
        _run_data_count if kind.endswith("-batch") else _item_data_count
    )

    def crossing(payload=None):
        hand = ctx.hand
        if hand is not None:
            pushed = data_count(payload) if pushing else 0
            start = hand.depart(target, pushed)
        message = thread._current_message
        request = Message(
            kind=kind,
            payload=payload,
            sender=sender,
            target=target,
            constraint=message.constraint if message is not None else None,
            needs_reply=True,
        )
        counter[0] += 1
        yield Send(request)
        rid = request.msg_id
        while True:
            reply = yield Receive(
                match=lambda m, _rid=rid: m.reply_to == _rid
                or m.kind == "event"
            )
            if reply.kind == "event":
                dispatch_event(reply)
                continue
            if hand is not None:
                hand.arrive(
                    target, start, pushed,
                    0 if pushing else data_count(reply.payload),
                )
            return reply.payload

    return crossing


def _under_lock(ctx: ThreadCtx, lock: SegmentLock, walker):
    """Run ``walker`` holding ``lock`` (reentrant per thread).

    Uncontended acquire/release never suspend: the lock is taken and
    dropped inline, falling back to the generator protocol only under
    actual contention (a holder to wait for, a waiter to wake).  Exactly
    the steps lock.acquire/release would perform.
    """
    acquire, release = lock.acquire, lock.release
    thread_name = ctx.thread_name

    def locked(*args):
        holder = lock.holder
        if holder == thread_name:
            return (yield from walker(*args))
        if holder is None:
            lock.holder = thread_name
        else:
            yield from acquire(ctx)
        try:
            return (yield from walker(*args))
        finally:
            if lock._waiters:
                yield from release(ctx)
            else:
                lock.holder = None

    return locked


def compile_pull(ctx: ThreadCtx, target: FlowTarget):
    """Compile ``target`` into a bound pull walker: ``() -> generator``
    producing one item, NIL (no data under a nil policy) or EOS."""
    engine = ctx.engine
    if isinstance(target, BoundaryRef):
        component = target.component
        gate = engine.gate_for(component)
        port = target.port.name
        if gate is not None:
            gate_get = gate.get

            def gate_pull():
                return gate_get(ctx, port)

            return gate_pull

        serve = plant_source(ctx, _bind_serve_pull(component, port))

        def source_pull():
            item = serve()
            cost = component._cost_accumulator
            if cost > 0.0:
                component._cost_accumulator = 0.0
                yield Work(cost)
            return item

        return source_pull

    node_pull = _compile_pull_node(ctx, target)
    lock = engine.lock_for(target.component)
    if lock is None:
        return node_pull
    return _under_lock(ctx, lock, node_pull)


def _compile_pull_node(ctx: ThreadCtx, node: FlowNode):
    engine = ctx.engine
    component = node.component

    if engine.is_coroutine(component):
        return _compile_crossing(ctx, component, "ip-pull")


    if component.style is Style.FUNCTION:
        inner = compile_pull(ctx, node.branches["in"])
        convert = component.convert
        stats = component.stats

        def function_pull():
            item = yield from inner()
            if item is EOS or item is NIL:
                return item
            stats["items_in"] += 1
            result = convert(item)
            stats["items_out"] += 1
            cost = component._cost_accumulator
            if cost > 0.0:
                component._cost_accumulator = 0.0
                yield Work(cost)
            return result

        return function_pull

    # Producer style (possibly multi-input).  A get() on a direct port
    # calls upstream inside serve(); one on a replayed port aborts the
    # pull, and it is re-run once the walker has fed that port an item.
    replay, replayed, drains = _bind_intake(ctx, node)
    serve = _bind_serve_pull(component, node.entry_port)
    branch_pulls = {
        port: compile_pull(ctx, child) for port, child in replayed.items()
    }
    begin, feed, commit = replay.begin, replay.feed, replay.commit

    def producer_pull():
        while True:
            begin()
            try:
                result = serve()
            except NeedMoreInput as need:
                pull_upstream = branch_pulls.get(need.port)
                if pull_upstream is None:
                    result = NIL  # a direct port's upstream answered NIL
                else:
                    cost = component._cost_accumulator
                    if cost > 0.0:
                        component._cost_accumulator = 0.0
                        yield Work(cost)
                    result = yield from pull_upstream()
                    if result is not NIL:
                        feed(need.port, result)
                        continue
                # NIL: cannot complete now; what was read stays buffered.
            except EndOfStream:
                result = EOS
            else:
                commit()
            # Whatever ran inside the pull — the producer and the plain
            # subtrees its direct ports called — is charged as one Work.
            cost = 0.0
            for take in drains:
                cost += take()
            if cost > 0.0:
                yield Work(cost)
            return result

    return producer_pull


def _bind_intake(ctx: ThreadCtx, node: FlowNode):
    """Choose, per input port of producer ``node``, how a ``get()`` that
    misses the intake's buffer is satisfied — read off the compiled graph,
    so the last compilation decides.

    A port whose upstream subtree is plain (:func:`_compile_pull_plain`:
    it can never suspend) under an unlocked producer is *direct*: the
    intake calls the subtree's plain per-item pull — of a stock boundary
    source its own planted entry, ``get()`` doing the serve frame's count.
    Any other port is *replayed*: the intake aborts the pull and the walker
    fetches through the compiled generator hop.  Returns ``(intake,
    replayed, drains)`` — the replayed ports' children and the cost takers
    of the producer and its direct subtrees.
    """
    engine = ctx.engine
    component = node.component
    replay = engine.replay_for(component)
    locked = engine.lock_for(component) is not None
    replayed = {}
    drains = [_bind_drain_fn(component)]
    for port, child in node.branches.items():
        plain = None if locked else _compile_pull_plain(ctx, child)
        if plain is None:
            replay.bind(port, None)
            replayed[port] = child
            continue
        drains.extend(plain[1])
        entry = None
        if isinstance(child, BoundaryRef):
            entry = _stock_pull(child.component)
        if entry is None:
            replay.bind(port, plain[0])
        else:
            replay.bind(port, plant_source(ctx, entry), child.component.stats)
    return replay, replayed, drains


def compile_push(ctx: ThreadCtx, target: FlowTarget):
    """Compile ``target`` into a bound push walker: ``(item) -> generator``
    delivering one item (or EOS) into the push-side continuation."""
    engine = ctx.engine
    if isinstance(target, BoundaryRef):
        component = target.component
        gate = engine.gate_for(component)
        port = target.port.name
        if gate is not None:
            gate_put = gate.put

            def gate_push(item):
                return gate_put(ctx, item, port)

            return gate_push

        receive, deliver = plant_sink(
            ctx, component, _bind_receive_push(component, port)
        )
        name = component.name
        note_sink_eos = engine.note_sink_eos
        on_eos = getattr(component, "on_eos", None)

        def sink_push(item):
            if item is EOS:
                note_sink_eos(component)
                if on_eos is not None:
                    on_eos()
                return
            receive(item)
            cost = component._cost_accumulator
            if cost > 0.0:
                component._cost_accumulator = 0.0
                yield Work(cost)
            if deliver is not None:
                deliver(name, 1)

        return sink_push

    node_push = _compile_push_node(ctx, target)
    lock = engine.lock_for(target.component)
    if lock is None:
        return node_push
    return _under_lock(ctx, lock, node_push)


def _compile_push_node(ctx: ThreadCtx, node: FlowNode):
    engine = ctx.engine
    component = node.component

    if engine.is_coroutine(component):
        return _compile_crossing(ctx, component, "ip-push")

    branch_pushes = {
        port: compile_push(ctx, child) for port, child in node.branches.items()
    }
    # EOS bypasses user code and fans out to every downstream branch.
    children = tuple(branch_pushes.values())

    if component.style is Style.FUNCTION:
        out_push = branch_pushes["out"]
        convert = component.convert
        stats = component.stats

        def function_push(item):
            if item is EOS:
                for child in children:
                    yield from child(EOS)
                return
            stats["items_in"] += 1
            result = convert(item)
            stats["items_out"] += 1
            cost = component._cost_accumulator
            if cost > 0.0:
                component._cost_accumulator = 0.0
                yield Work(cost)
            yield from out_push(result)

        return function_push

    # Consumer style (including push tees): emissions are collected and
    # delivered after push() returns, possibly suspending between them.
    queue = engine.pending_for(component).queue
    receive = _bind_receive_push(component, node.entry_port)

    def consumer_push(item):
        if item is EOS:
            for child in children:
                yield from child(EOS)
            return
        receive(item)
        cost = component._cost_accumulator
        if cost > 0.0:
            component._cost_accumulator = 0.0
            yield Work(cost)
        while queue:
            port, out = queue.popleft()
            yield from branch_pushes[port](out)

    return consumer_push


# ---------------------------------------------------------------------------
# Batch walkers
# ---------------------------------------------------------------------------
#
# The batched twins of compile_pull/compile_push: ``pull_many(n)`` yields a
# run of up to n items (data first; the run may end in EOS; an empty run
# means "no data now"), ``push_many(items)`` delivers a non-empty pure-data
# run.  Compiled only when the engine's batch policy allows batch_max > 1;
# at batch_max == 1 the per-item walkers run unchanged, so golden traces
# are untouched.
#
# Two tiers, chosen per subtree at compile time:
#
# * **plain subtrees** — no gates, locks or coroutine boundaries anywhere
#   below: the whole hop chain collapses to plain Python callables invoked
#   in a tight loop, with every component's simulated CPU cost coalesced
#   into ONE ``Work`` syscall per run.  Per-item stats stay exact; only
#   the *placement* of Work coarsens (documented in docs/RUNTIME.md §11),
#   and never at batch_max == 1 because these walkers are not compiled
#   then.
# * **everything else** — gates move runs via put_many/get_many (one wake
#   per run), coroutine boundaries cross once per run via
#   ip-push-batch/ip-pull-batch, and any structure without a batch-aware
#   form falls back to looping the compiled per-item walker.


def _bind_drain_fn(component):
    """Zero-arg "take accumulated cost" closure for batch walkers."""

    def take():
        cost = component._cost_accumulator
        if cost:
            component._cost_accumulator = 0.0
        return cost

    return take


def _convert_many_fn(component):
    """The component's vectorized convert, or a per-item fallback.

    ``convert_many`` must stay 1:1 in-order (FunctionComponent's default
    guarantees it); stats are charged by the caller per item.
    """
    convert_many = getattr(component, "convert_many", None)
    if convert_many is not None:
        return convert_many
    convert = component.convert
    return lambda items: [convert(item) for item in items]


def _subtree_batch_source(engine, target) -> bool:
    """True when ``target`` is a chain of plain FUNCTION nodes over a
    gate-less boundary source with a run entry (:func:`_run_entry`).

    Such subtrees must NOT collapse into the per-item plain tier — the
    recursive FUNCTION composition reaches the source's run entry
    instead, so whole runs (columnar batches included) flow through
    ``convert_many`` without a per-item call or per-item objects.
    """
    while isinstance(target, FlowNode):
        component = target.component
        if (
            engine.is_coroutine(component)
            or engine.lock_for(component) is not None
            or component.style is not Style.FUNCTION
        ):
            return False
        target = target.branches["in"]
    component = target.component
    return (
        engine.gate_for(component) is None
        and _run_entry(component, "pull") is not None
    )


def _compile_pull_plain(ctx: ThreadCtx, target: FlowTarget):
    """Compile ``target`` into ``(fn, drains)`` of plain callables when the
    whole subtree has no gate, lock or coroutine boundary — else None.

    ``fn()`` returns one item (or NIL/EOS) without suspending; ``drains``
    are the per-component cost takers the batch loop sums into one Work.
    """
    engine = ctx.engine
    if isinstance(target, BoundaryRef):
        component = target.component
        if engine.gate_for(component) is not None:
            return None
        serve = plant_source(
            ctx, _bind_serve_pull(component, target.port.name)
        )
        return serve, [_bind_drain_fn(component)]

    component = target.component
    if engine.is_coroutine(component) or engine.lock_for(component) is not None:
        return None

    if component.style is Style.FUNCTION:
        inner = _compile_pull_plain(ctx, target.branches["in"])
        if inner is None:
            return None
        inner_fn, drains = inner
        convert = component.convert
        stats = component.stats

        def function_plain():
            item = inner_fn()
            if item is EOS or item is NIL:
                return item
            stats["items_in"] += 1
            result = convert(item)
            stats["items_out"] += 1
            return result

        return function_plain, drains + [_bind_drain_fn(component)]

    # Producer style: plain when every port is direct, so one attempt
    # answers — NeedMoreInput can only mean upstream said NIL.
    replay, replayed, drains = _bind_intake(ctx, target)
    if replayed:
        return None
    serve = _bind_serve_pull(component, target.entry_port)
    rewind, commit = replay.begin, replay.commit

    def producer_plain():
        # No begin(): commit and both aborts leave the cursor rewound, and
        # anything else raised ends the one thread that runs this walker.
        try:
            result = serve()
        except NeedMoreInput:
            rewind()
            return NIL  # cannot complete now; its reads stay in the intake
        except EndOfStream:
            rewind()
            return EOS
        commit()
        return result

    return producer_plain, drains


def _loop_run(fn):
    """``(n) -> run`` looping the plain per-item pull ``fn``: data first,
    stopping at NIL (dropped) or after EOS (kept, last)."""

    def fetch_run(n):
        run = []
        while len(run) < n:
            item = fn()
            if item is NIL:
                break
            run.append(item)
            if item is EOS:
                break
        return run

    return fetch_run


def compile_pull_many(ctx: ThreadCtx, target: FlowTarget):
    """Compile ``target`` into a batch pull walker ``(n) -> generator``
    returning a run of up to ``n`` items.

    Run conventions: data items first, in stream order; the run may end in
    EOS (at most once, always last); ``[]`` means "no data now" (the batch
    NIL).  Running ``pull_many(n)`` observes the same per-item stats as
    ``n`` per-item pulls.
    """
    engine = ctx.engine
    if isinstance(target, BoundaryRef):
        component = target.component
        gate = engine.gate_for(component)
        if gate is not None:
            get_many = gate.get_many
            port = target.port.name

            def gate_pull_many(n):
                return get_many(ctx, n, port)

            return gate_pull_many

        pull_run = _run_entry(component, "pull")
        if pull_run is not None:
            # Run-entry source: one call per run (a list, or a columnar
            # batch whose EOS arrives as its own [EOS] run later),
            # charging ``items_out`` as that many served pulls would.
            pull_run = plant_source(ctx, pull_run, _run_data_count)
            stats = component.stats
            take_cost = _bind_drain_fn(component)

            def source_pull_many(n):
                run = pull_run(n)
                count = len(run)  # _run_data_count, minus a call
                if count and ends_in_eos(run):
                    count -= 1
                if count:
                    stats["items_out"] += count
                cost = take_cost()
                if cost > 0.0:
                    yield Work(cost)
                return run

            return source_pull_many

    plain = (
        None
        if _subtree_batch_source(engine, target)
        else _compile_pull_plain(ctx, target)
    )
    if plain is not None:
        fetch_run = _loop_run(plain[0])
        drains = plain[1]

        def plain_pull_many(n):
            run = fetch_run(n)
            total = 0.0
            for take in drains:
                total += take()
            if total > 0.0:
                yield Work(total)
            return run

        return plain_pull_many

    if isinstance(target, FlowNode) and engine.lock_for(target.component) is None:
        component = target.component
        if engine.is_coroutine(component):
            return _compile_crossing(ctx, component, "ip-pull-batch")
        if component.style is Style.FUNCTION:
            inner_many = compile_pull_many(ctx, target.branches["in"])
            convert_many = _convert_many_fn(component)
            stats = component.stats
            take_cost = _bind_drain_fn(component)

            def function_pull_many(n):
                run = yield from inner_many(n)
                if not run:
                    return run
                eos = ends_in_eos(run)
                data = run[:-1] if eos else run
                if data:
                    stats["items_in"] += len(data)
                    results = convert_many(data)
                    stats["items_out"] += len(results)
                    cost = take_cost()
                    if cost > 0.0:
                        yield Work(cost)
                else:
                    results = []
                if eos:
                    if type(results) is not list:
                        # Columnar results materialize once at stream end
                        # so the trailing EOS keeps its list-run form.
                        results = list(results)
                    results.append(EOS)
                return results

            return function_pull_many

    # Generic fallback: loop the compiled per-item walker (locks, deep
    # producers over gates, mixed structures).  Still one scheduler
    # message per run at the pump level.
    item_pull = compile_pull(ctx, target)

    def generic_pull_many(n):
        run = []
        while len(run) < n:
            item = yield from item_pull()
            if item is NIL:
                break
            run.append(item)
            if item is EOS:
                break
        return run

    return generic_pull_many


def compile_push_many(ctx: ThreadCtx, target: FlowTarget):
    """Compile ``target`` into a batch push walker ``(items) -> generator``
    delivering a non-empty pure-data run (the pump strips EOS and routes it
    through the per-item walker so fan-out/sink bookkeeping stays exact).
    """
    engine = ctx.engine
    if isinstance(target, BoundaryRef):
        component = target.component
        gate = engine.gate_for(component)
        port = target.port.name
        if gate is not None:
            put_many = gate.put_many

            def gate_push_many(items):
                return put_many(ctx, items, port)

            return gate_push_many

        take_cost = _bind_drain_fn(component)
        name = component.name
        push_run = _run_entry(component, "push")
        if push_run is not None:
            # Run-entry sink (a collecting sink's extend, a netpipe
            # sender's one frame per run).
            push_run, deliver = plant_sink(ctx, component, push_run, len)
            stats = component.stats

            def sink_push_many(items):
                stats["items_in"] += len(items)
                push_run(items)
                cost = take_cost()
                if cost > 0.0:
                    yield Work(cost)
                if deliver is not None:
                    deliver(name, len(items))

        else:
            receive, deliver = plant_sink(
                ctx, component, _bind_receive_push(component, port)
            )

            def sink_push_many(items):
                for item in items:
                    receive(item)
                cost = take_cost()
                if cost > 0.0:
                    yield Work(cost)
                if deliver is not None:
                    deliver(name, len(items))

        return sink_push_many

    node_many = _compile_push_node_many(ctx, target)
    lock = engine.lock_for(target.component)
    if lock is None:
        return node_many
    # One acquire/release per run.
    return _under_lock(ctx, lock, node_many)


def _compile_push_node_many(ctx: ThreadCtx, node: FlowNode):
    engine = ctx.engine
    component = node.component

    if engine.is_coroutine(component):
        return _compile_crossing(ctx, component, "ip-push-batch")

    if component.style is Style.FUNCTION:
        out_many = compile_push_many(ctx, node.branches["out"])
        convert_many = _convert_many_fn(component)
        stats = component.stats
        take_cost = _bind_drain_fn(component)

        def function_push_many(items):
            stats["items_in"] += len(items)
            results = convert_many(items)
            stats["items_out"] += len(results)
            cost = take_cost()
            if cost > 0.0:
                yield Work(cost)
            yield from out_many(results)

        return function_push_many

    if len(node.branches) == 1:
        # Consumer with one out-branch: run user code for the whole batch,
        # then move the collected emissions downstream as one run.
        ((out_port, child),) = node.branches.items()
        child_many = compile_push_many(ctx, child)
        child_item = compile_push(ctx, child)
        receive = _bind_receive_push(component, node.entry_port)
        queue = engine.pending_for(component).queue
        take_cost = _bind_drain_fn(component)
        process_run = getattr(component, "process_run", None)

        def consumer_push_many(items):
            if process_run is not None and getattr(items, "columnar", False):
                # Vectorized consumer entry: the component transforms the
                # whole columnar run (updating its own stats, including
                # items_in/items_out and declared drops, exactly as the
                # per-item path would), or returns None to decline and
                # fall back to per-item receive().
                outs = process_run(items)
                if outs is not None:
                    cost = take_cost()
                    if cost > 0.0:
                        yield Work(cost)
                    if len(outs):
                        yield from child_many(outs)
                    return
            outs = []
            for item in items:
                receive(item)
                while queue:
                    _, out = queue.popleft()
                    outs.append(out)
            cost = take_cost()
            if cost > 0.0:
                yield Work(cost)
            if not outs:
                return
            for out in outs:
                if out is EOS or out is NIL:
                    # Control values among emissions: keep the per-item
                    # path so EOS fan-out bookkeeping stays exact.
                    for each in outs:
                        yield from child_item(each)
                    return
            yield from child_many(outs)

        return consumer_push_many

    # Multi-branch consumers/tees: per-item fallback over this node.
    item_push = _compile_push_node(ctx, node)

    def generic_push_many(items):
        for item in items:
            yield from item_push(item)

    return generic_push_many
