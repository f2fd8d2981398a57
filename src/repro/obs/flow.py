"""Causal flow tracing: end-to-end item lineage across batches and netpipes.

The span layer (:mod:`repro.obs.spans`) measures *boundaries* — each
histogram sees one buffer or one pump in isolation.  This module adds the
causal dimension: a sampled source item gets a :class:`TraceContext`
(trace id, hop vector, birth timestamp) that travels **positionally**
alongside the data, exactly like the span layer's parallel timestamp
deques — the item itself carries nothing, and an engine without a
:class:`FlowTracer` attached runs the identical instruction stream
(golden scheduler traces pin that bit-for-bit).

Mechanics
---------
The runtime reports each movement of an item at exactly one site; this
module owns the positional record those reports are kept in, and both
collectors (:class:`~repro.obs.spans.Telemetry` for histograms, the
:class:`FlowTracer` for lineage) read that one record:

* Every pump/coroutine thread has a :class:`Hand`: one slot (a context,
  or nothing for an unsampled item) per data item the thread holds
  mid-cycle, plus the thread's cycle clock.  What a source hands out is
  *born* in the hand where the intake already counts it: an unsampled
  birth is two inline integer adds, and only the countdown's 1-in-N
  calls :meth:`Hand.born`.  A sink's walker reports the items
  *delivered* (while the hand carries a context); a coroutine crossing
  moves slots to the peer thread's hand; the end of a pump cycle sweeps
  what is left (an item that reached neither sink nor boundary was
  dropped by the section's declared-lossy stage, or absorbed).
* Every buffer-like boundary (``Buffer``, netpipe receiver) has a
  :class:`Lane`, held by its ``BufferGate``: one entry
  per queued item — its enqueue timestamp, or its sampled context, whose
  open ``wait`` segment began at that same instant.  A gate put moves
  slots from the hand into the lane, a gate get moves them back and
  closes the wait; ``repro_buffer_wait_seconds`` and the trace's
  ``wait`` segment are the same subtraction on the same entry, so
  ``wait_p*`` and flow decompositions cannot disagree.  The lane only
  sees transfers, so it heals against the queue's fill level: what a
  drop policy (DROP_OLD the oldest entry, DROP_NEW the incoming one) or
  a ``flush`` discarded is finalized as *dropped at that buffer*.
* Runs move as runs: one clock read and one lane/hand call per run, and
  unsampled items cost an integer (``Hand.pending``), not an allocation.
* Clocks are sampled too: a dispatch's run-queue wait and the service
  time of the pump cycle it runs are read on every ``sample_every``-th
  dispatch of the thread (``ThreadMeter.countdown``); others make no call.
* A netpipe crossing serializes the run's sampled contexts into a
  trace-context side-chunk (first byte
  :data:`~repro.net.marshal.FLOW_CHUNK_MAGIC`) that the sender appends to
  the frame as its trailer — in place on the zero-copy
  :class:`~repro.net.marshal.EncodedRun` fast path.  The receiving
  gate's lane strips it and rebuilds the contexts (now carrying a closed
  ``wire`` segment) under the same ids, so one trace reassembles
  end-to-end across simulated-network hops.
* Fan-out forks: an underflowing take (a tee's branches) duplicates the
  last-taken context with a child id, so every branch keeps its lineage.

Segments tile the trace exactly: every ``advance`` closes the open
segment at time *t* and opens the next at the same *t*, so::

    sum(duration for _, _, duration in trace.segments)
        == trace.end_ts - trace.birth_ts

which is what lets the critical-path decomposition (queue wait vs. pump
service vs. wire time, per hop) account for every nanosecond of the
measured end-to-end latency.

Sampling is 1-in-N at birth (``sample_every``) plus tail-based
retention: the bounded :class:`LineageStore` evicts delivered traces
first and keeps dropped and lost ones.

Usage::

    engine = Engine(pipe, batch_max=32)  # its netpipes bind the network
    tracer = FlowTracer(sample_every=1).attach(engine)
    engine.start(); engine.run(until=3.0); engine.stop(); engine.run()
    for trace in tracer.delivered():
        print(trace.trace_id, trace.end_to_end, trace.decomposition())
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.components.buffers import OnFull
from repro.core.events import EOS
from repro.core.items import NIL
from repro.net.marshal import encode_flow_chunk, split_flow_chunk

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.engine import Engine

#: Safety bound on positional state: a hand or a lane never holds more
#: than this many entries; overflow finalizes the oldest as ``absorbed``
#: instead of growing without bound.
MAX_POSITIONAL = 4096

#: Terminal trace statuses.
DELIVERED = "delivered"
DROPPED = "dropped"
LOST = "lost"
ABSORBED = "absorbed"


class TraceContext:
    """One item's journey: a hop vector of contiguous timed segments.

    ``segments`` is a list of ``(kind, name, duration)`` triples with
    ``kind`` one of ``"service"`` / ``"wait"`` / ``"wire"``; the open
    segment (``_seg_*``) is closed by :meth:`advance` or :meth:`finish`.
    """

    __slots__ = (
        "trace_id", "parent", "birth_ts", "segments", "status", "end_ts",
        "site", "reason", "_seg_kind", "_seg_name", "_seg_start",
    )

    def __init__(self, trace_id: str, birth_ts: float, kind: str, name: str):
        self.trace_id = trace_id
        self.parent: str | None = None
        self.birth_ts = birth_ts
        self.segments: list[tuple[str, str, float]] = []
        self.status: str | None = None
        self.end_ts: float | None = None
        self.site: str | None = None
        self.reason: str | None = None
        self._seg_kind = kind
        self._seg_name = name
        self._seg_start = birth_ts

    # -- segment bookkeeping ------------------------------------------------

    def advance(self, kind: str, name: str, t: float) -> None:
        """Close the open segment at ``t`` and open ``(kind, name)``."""
        self.segments.append(
            (self._seg_kind, self._seg_name, t - self._seg_start)
        )
        self._seg_kind = kind
        self._seg_name = name
        self._seg_start = t

    def finish(
        self,
        t: float,
        status: str,
        site: str | None = None,
        reason: str | None = None,
    ) -> None:
        if self.status is not None:
            return  # already terminal (defensive: double finalize)
        self.segments.append(
            (self._seg_kind, self._seg_name, t - self._seg_start)
        )
        self.end_ts = t
        self.status = status
        self.site = site if site is not None else self._seg_name
        self.reason = reason

    def fork(self, child_id: str) -> "TraceContext":
        """A fan-out child: same history, new identity.

        Works on finished parents too (a sink delivery finalizes the
        first branch before the walker pushes the second): the closing
        segment :meth:`finish` appended duplicates the still-open one,
        so it is dropped and the child re-opens at the same point.
        """
        child = TraceContext(
            child_id, self.birth_ts, self._seg_kind, self._seg_name
        )
        child.parent = self.trace_id
        segments = self.segments
        if self.status is not None:
            segments = segments[:-1]
        child.segments = list(segments)
        child._seg_start = self._seg_start
        return child

    # -- wire form ----------------------------------------------------------

    def to_wire(self) -> dict:
        """Primitive-typed dict for the TLV side-chunk."""
        return {
            "id": self.trace_id,
            "p": self.parent,
            "b": self.birth_ts,
            "s": [list(seg) for seg in self.segments],
            "ok": self._seg_kind,
            "on": self._seg_name,
            "ot": self._seg_start,
        }

    @classmethod
    def from_wire(cls, fields: dict) -> "TraceContext":
        ctx = cls(fields["id"], fields["b"], fields["ok"], fields["on"])
        ctx.parent = fields["p"]
        ctx.segments = [tuple(seg) for seg in fields["s"]]
        ctx._seg_start = fields["ot"]
        return ctx


class FlowTrace:
    """Read-only query wrapper over a (usually finished) context."""

    __slots__ = ("_ctx",)

    def __init__(self, ctx: TraceContext):
        self._ctx = ctx

    @property
    def trace_id(self) -> str:
        return self._ctx.trace_id

    @property
    def parent(self) -> str | None:
        return self._ctx.parent

    @property
    def status(self) -> str:
        return self._ctx.status or "in-flight"

    @property
    def birth_ts(self) -> float:
        return self._ctx.birth_ts

    @property
    def end_ts(self) -> float | None:
        return self._ctx.end_ts

    @property
    def site(self) -> str | None:
        return self._ctx.site

    @property
    def reason(self) -> str | None:
        return self._ctx.reason

    @property
    def segments(self) -> list[tuple[str, str, float]]:
        return list(self._ctx.segments)

    @property
    def end_to_end(self) -> float:
        """Measured birth-to-finish latency (0.0 while in flight)."""
        end = self._ctx.end_ts
        return 0.0 if end is None else end - self._ctx.birth_ts

    def decomposition(self) -> dict[str, float]:
        """Total time per segment kind (wait / service / wire).

        The segments tile the trace, so the values sum to
        :attr:`end_to_end` exactly.
        """
        totals: dict[str, float] = {}
        for kind, _name, duration in self._ctx.segments:
            totals[kind] = totals.get(kind, 0.0) + duration
        return totals

    def critical_path(self) -> tuple[str, str, float] | None:
        """The single longest segment — where this item spent its time."""
        segments = self._ctx.segments
        if not segments:
            return None
        return max(segments, key=lambda seg: seg[2])

    def to_dict(self) -> dict[str, Any]:
        ctx = self._ctx
        return {
            "trace_id": ctx.trace_id,
            "parent": ctx.parent,
            "status": self.status,
            "birth_ts": ctx.birth_ts,
            "end_ts": ctx.end_ts,
            "end_to_end": self.end_to_end,
            "site": ctx.site,
            "reason": ctx.reason,
            "segments": [
                {"kind": kind, "name": name, "duration": duration}
                for kind, name, duration in ctx.segments
            ],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FlowTrace {self.trace_id} {self.status} "
            f"{self.end_to_end:.6f}s {len(self.segments)} segments>"
        )


#: How many traces a :class:`LineageStore` holds before it evicts.
MAX_TRACES = 512


class LineageStore:
    """Bounded trace retention with tail-based eviction.

    Delivered traces are the first evicted when the store exceeds
    :data:`MAX_TRACES`; dropped and lost traces — the ones an operator
    actually asks about — are kept until only they remain.  In-flight
    traces are never evicted (their population is bounded by the
    pipeline's in-flight item count).
    """

    def __init__(self):
        self._traces: dict[str, TraceContext] = {}
        #: Completed ids in completion order, split by interest.
        self._boring: deque[str] = deque()
        self._kept: deque[str] = deque()
        self.evicted = 0
        self.completed = 0

    def register(self, ctx: TraceContext) -> None:
        """Add (or replace, after a wire hop) a context."""
        self._traces[ctx.trace_id] = ctx

    def complete(self, ctx: TraceContext) -> None:
        self._traces[ctx.trace_id] = ctx
        self.completed += 1
        interesting = ctx.status != DELIVERED
        (self._kept if interesting else self._boring).append(ctx.trace_id)
        while len(self._traces) > MAX_TRACES:
            victims = self._boring or self._kept
            if not victims:
                break  # only in-flight traces remain
            victim = victims.popleft()
            if self._traces.pop(victim, None) is not None:
                self.evicted += 1

    # -- queries ------------------------------------------------------------

    def trace(self, trace_id: str) -> FlowTrace | None:
        ctx = self._traces.get(trace_id)
        return None if ctx is None else FlowTrace(ctx)

    def traces(self, status: str | None = None) -> list[FlowTrace]:
        out = [FlowTrace(ctx) for ctx in self._traces.values()]
        if status is not None:
            out = [trace for trace in out if trace.status == status]
        return out

    def inflight(self) -> list[FlowTrace]:
        return [
            FlowTrace(ctx)
            for ctx in self._traces.values()
            if ctx.status is None
        ]

    def __len__(self) -> int:
        return len(self._traces)


class Hand:
    """One pump or coroutine thread's hold on the items it is moving.

    ``carried`` keeps one slot per data item in the thread's hands, oldest
    first: a sampled item's :class:`TraceContext`, or ``None``.
    ``pending`` counts unsampled slots *younger* than all of those that
    were never materialized — the unsampled fast path is that one
    integer — and ``last`` anchors fan-out forks.

    The hand is also the thread's clock: ``stage`` (the pump's
    stage-latency histogram) and ``rtt`` (coroutine round-trip histograms
    by peer thread) are set by :class:`~repro.obs.spans.Telemetry`;
    ``tracer`` is the :class:`FlowTracer` holding the hand, and while it
    is None no slot is ever kept.  ``peers`` maps every thread of the
    engine to its hand.  ``stride`` is the tracer's ``sample_every``: the
    thread's meter samples every ``stride``-th dispatch and sets ``timed``
    so the pump cycle it runs is timed too.
    """

    __slots__ = (
        "thread", "now", "peers", "rtt", "stage", "tracer", "lossy",
        "carried", "pending", "last", "stride", "timed",
    )

    def __init__(self, thread: str, now: Callable[[], float],
                 peers: dict[str, "Hand"]):
        self.thread = thread
        self.now = now
        self.peers = peers
        self.rtt: dict[str, Any] = {}
        self.stage = None
        self.tracer: "FlowTracer | None" = None
        #: (component name, reason) of the thread's declared-lossy stage.
        self.lossy: tuple[str, str] | None = None
        self.carried: deque = deque()
        self.pending = 0
        self.last: TraceContext | None = None
        self.stride = 1
        self.timed = False

    # -- slots in and out ----------------------------------------------------

    def take(self, k: int) -> list:
        """The slots of the next ``k`` items leaving the hand, oldest
        first.  An underflow (fan-out: one pulled item became several
        pushed ones) forks the last-taken context, so every branch keeps
        the shared history under its own id."""
        carried = self.carried
        if not carried and self.pending >= k:
            self.pending -= k
            self.last = None
            return [None] * k
        slots = []
        for _ in range(k):
            if carried:
                ctx = self.last = carried.popleft()
            elif self.pending:
                self.pending -= 1
                ctx = self.last = None
            else:
                ctx = self.last
                if ctx is not None:
                    ctx = ctx.fork(self.tracer._new_id())
                    self.tracer.store.register(ctx)
            slots.append(ctx)
        return slots

    def hold(self, slots: list) -> None:
        """Take in the slots of items entering the hand (youngest last)."""
        if not any(slots):
            self.pending += len(slots)
            return
        carried = self.carried
        if self.pending:
            carried.extend([None] * min(self.pending, MAX_POSITIONAL))
            self.pending = 0
        carried.extend(slots)
        while len(carried) > MAX_POSITIONAL:
            stale = carried.popleft()
            if stale is not None:
                self.tracer._finish(stale, ABSORBED, site=self.thread)

    # -- the movements (one emitter each) -------------------------------------

    def born(self, k: int) -> None:
        """The newest ``k`` of ``pending`` were just born here (as they
        left the source, whose cost is service time in the trace) and ran
        the tracer's countdown out: each sampled one gets its context."""
        tracer = self.tracer
        left = tracer.countdown + k
        self.pending -= k
        for _ in range(k):
            left -= 1
            if left:
                self.pending += 1
                continue
            left = tracer.sample_every
            tracer._sampled += 1
            ctx = TraceContext(
                tracer._new_id(), self.now(), "service", self.thread
            )
            tracer.store.register(ctx)
            self.hold([ctx])
        tracer.countdown = left

    def deliver(self, site: str, k: int) -> None:
        """``k`` data items just landed in sink ``site``."""
        for ctx in self.take(k):
            if ctx is not None:  # only ever held by a tracer's hand
                self.tracer._finish(ctx, DELIVERED, site=site)

    def wire(self, entry: Callable, sender, count: Callable | None = None):
        """Hook a wire sink's plain entry (one item per call, or with
        ``count`` a run): the items continue on ``sender``'s wire, so
        their sampled contexts — advanced into a ``wire`` segment — leave
        the hand as the trailer chunk of the frame about to be sent."""
        name = sender.name

        def wire_out(payload):
            slots = self.take(1 if count is None else count(payload))
            if any(slots):
                t = self.now()
                staged = []
                for index, ctx in enumerate(slots):
                    if ctx is not None:
                        ctx.advance("wire", name, t)
                        staged.append((index, ctx.to_wire()))
                sender.trailer = encode_flow_chunk(staged)
            return entry(payload)

        return wire_out

    def depart(self, peer: str, pushed: int) -> float:
        """A crossing to coroutine thread ``peer`` is about to be sent.
        A push hands its ``pushed`` items' slots over first — the
        coroutine's own walkers take them while handling the request.
        Returns the departure time."""
        if pushed and self.tracer is not None:
            self.peers[peer].hold(self.take(pushed))
        return self.now()

    def arrive(self, peer: str, start: float, pushed: int,
               pulled: int) -> None:
        """The reply to the crossing sent at ``start`` is back, and with
        it a pull's ``pulled`` items crossed from ``peer`` into this
        hand.  The round trip is weighted by the data items that crossed
        either way (a crossing that carried only EOS/NIL counts once)."""
        if pulled and self.tracer is not None:
            self.hold(self.peers[peer].take(pulled))
        rtt = self.rtt.get(peer)
        if rtt is not None:
            rtt.observe(self.now() - start, pushed or pulled or 1)

    def sample_cycle(self) -> float:
        """The clock a timed cycle starts from (its dispatch's flag spent)."""
        self.timed = False
        return self.now()

    def cycle_end(self, start: float | None, count: int,
                  sink: str | None = None) -> None:
        """The cycle begun at ``start`` (None: unsampled) moved ``count``
        items, into the pump itself when it is the active ``sink``: record
        its service time, then sweep the hand — a context still here
        reached neither a sink nor a boundary, so the section's
        declared-lossy stage dropped it (or it was absorbed)."""
        if sink is not None:
            self.deliver(sink, count)
        if start is not None and self.stage is not None:
            self.stage.observe(self.now() - start, count)
        if self.carried:
            lossy = self.lossy
            for ctx in self.carried:
                if ctx is None:
                    continue
                if lossy is not None:
                    self.tracer._finish(
                        ctx, DROPPED, site=lossy[0], reason=lossy[1]
                    )
                else:
                    self.tracer._finish(ctx, ABSORBED, site=self.thread)
            self.carried.clear()
        self.pending = 0
        self.last = None


class Lane:
    """The positional record of one boundary queue, held by its gate.

    One entry per queued data item, oldest first: the enqueue timestamp,
    or the sampled item's :class:`TraceContext` — whose open ``wait``
    segment started at that same instant.  ``wait`` is the queue's
    ``repro_buffer_wait_seconds`` histogram (set by Telemetry) and
    ``tracer`` the FlowTracer reading the lane; either may be None.
    """

    __slots__ = (
        "name", "now", "queue", "drop_newest", "entries", "wait", "tracer",
    )

    def __init__(self, component, now: Callable[[], float]):
        self.name = component.name
        self.now = now
        self.queue = component
        self.drop_newest = component.on_full is OnFull.DROP_NEW
        # Items queued before the plant are timed from now.
        self.entries: deque = deque([now()] * component.fill_level)
        self.wait = None
        self.tracer: "FlowTracer | None" = None

    def put(self, hand: Hand, k: int) -> None:
        """``k`` data items moved from ``hand`` into the queue."""
        t = self.now()
        if self.tracer is None:
            self.entries.extend([t] * k)
        else:
            for ctx in hand.take(k):
                if ctx is not None:
                    ctx.advance("wait", self.name, t)
                self.entries.append(t if ctx is None else ctx)
        self._heal(0, self.drop_newest)

    def get(self, hand: Hand, k: int) -> None:
        """``k`` data items moved from the queue into ``hand``: each
        one's wait ends here, for the histogram and the trace alike."""
        self._heal(k)
        t = self.now()
        wait, entries = self.wait, self.entries
        slots = []
        for _ in range(min(k, len(entries))):
            entry = entries.popleft()
            if type(entry) is TraceContext:
                since = entry._seg_start
                entry.advance("service", hand.thread, t)
                slots.append(entry)
            else:
                since = entry
                slots.append(None)
            if wait is not None:
                wait.observe(t - since)
        if self.tracer is not None:
            hand.hold(slots)

    def arrive(self, chunks, framed: bool):
        """Wire data is about to enter the queue from outside any thread.
        A coalesced frame's trace side-chunk, if any, is stripped and its
        contexts — now waiting here — rebuilt under the sender-side ids,
        which reassembles each trace across the hop.  Returns the data
        chunks."""
        t = self.now()
        sampled: dict[int, TraceContext] = {}
        if framed and self.tracer is not None:
            chunks, wired = split_flow_chunk(chunks)
            for index, fields in wired or ():
                ctx = sampled[index] = TraceContext.from_wire(fields)
                ctx.advance("wait", self.name, t)
                self.tracer.store.register(ctx)
        self.entries.extend(
            sampled.get(index, t) for index in range(len(chunks))
        )
        # The caller extends the queue after this returns.
        self._heal(len(chunks))
        return chunks

    def _heal(self, in_transit: int, newest: bool = False) -> None:
        """The lane sees transfers only; entries beyond the queue's fill
        level (plus ``in_transit``) belong to items a drop policy or a
        ``flush`` discarded since the last look, and are attributed
        here: the incoming ones under DROP_NEW, else the oldest.  This
        also bounds the lane by the queue it mirrors."""
        entries = self.entries
        for _ in range(len(entries) - self.queue.fill_level - in_transit):
            entry = entries.pop() if newest else entries.popleft()
            if type(entry) is TraceContext:
                self.tracer._finish(
                    entry, DROPPED, site=self.name,
                    reason="rejected at full buffer" if newest
                    else "evicted at full buffer",
                )


def plant(engine: "Engine") -> dict[str, Hand]:
    """The engine's hands by thread name, created on the first call.

    :meth:`Telemetry.attach <repro.obs.spans.Telemetry.attach>` and
    :meth:`FlowTracer.attach` both start here, so two collectors on one
    engine share one hand per thread (``driver.hand``) and one lane
    per queue (``gate.lane``, see :func:`plant_lane`)."""
    engine.setup()
    drivers = engine.drivers
    for driver in drivers:
        if driver.hand is not None:
            return driver.hand.peers
    now = engine.scheduler.clock.now
    hands: dict[str, Hand] = {}
    for driver in drivers:
        driver.hand = hands[driver.thread_name] = Hand(
            driver.thread_name, now, hands
        )
    return hands


def plant_lane(engine: "Engine", component) -> Lane:
    """The lane of ``component``'s gate, created on the first call."""
    gate = engine.gate_for(component)
    if gate.lane is None:
        gate.lane = Lane(component, engine.scheduler.clock.now)
    return gate.lane


class FlowTracer:
    """Wires causal flow tracing through a pipeline engine.

    Parameters
    ----------
    sample_every:
        Trace 1 in N source items (1 = every item).  Unsampled items
        still occupy a positional slot, which is what keeps sampled
        contexts aligned with their items.
    registry:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` to publish
        trace counters into (``repro_flow_traces_total{status=}``,
        ``repro_flow_end_to_end_seconds``).
    """

    def __init__(
        self,
        sample_every: int = 1,
        registry=None,
    ):
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.sample_every = sample_every
        self.store = LineageStore()
        self.registry = registry
        self._engine: "Engine | None" = None
        self._now: Callable[[], float] | None = None
        #: Source items, over every hand, until the next sampled birth.
        self.countdown = sample_every
        self._sampled = 0
        self._next_id = 0
        self._e2e_hist = None
        self._status_counters: dict[str, Any] = {}

    # ------------------------------------------------------------ attach

    def attach(self, engine: "Engine") -> "FlowTracer":
        if self._engine is not None:
            raise RuntimeError("flow tracer is already attached")
        hands = plant(engine)
        self._engine = engine
        self._now = engine.scheduler.clock.now
        lossy = self._map_lossy(engine)
        for thread, hand in hands.items():
            hand.tracer = self
            hand.lossy = lossy.get(thread)
            hand.stride = self.sample_every
        for component in engine._gates:
            plant_lane(engine, component).tracer = self
        if self.registry is not None:
            self._publish(self.registry)
        # The one recompile of an attach: source, sink and wire walkers
        # bind the hand (everything else reads the hand or the lane when
        # it runs).  Untraced walkers never see one.
        engine._compile_walkers()
        return self

    @staticmethod
    def _map_lossy(engine) -> dict[str, tuple[str, str]]:
        """thread -> (component name, reason) of its declared-lossy stage."""
        lossy: dict[str, tuple[str, str]] = {}
        for thread, owned in engine._thread_components.items():
            for comp_name, component in owned.items():
                reason = component.loss_reason
                if reason:
                    lossy[thread] = (comp_name, str(reason))
                    break
                if component.conserving is False and \
                        engine.gate_for(component) is None:
                    lossy.setdefault(
                        thread, (comp_name, "declared non-conserving")
                    )
        return lossy

    def _publish(self, registry) -> None:
        for status in (DELIVERED, DROPPED, LOST, ABSORBED):
            self._status_counters[status] = registry.counter(
                "repro_flow_traces_total",
                help="Finished flow traces by terminal status",
                status=status,
            )
        self._e2e_hist = registry.histogram(
            "repro_flow_end_to_end_seconds",
            help="End-to-end latency of delivered traces",
        )
        registry.gauge(
            "repro_flow_store_size",
            help="Traces currently retained in the lineage store",
            fn=lambda s=self.store: len(s),
        )
        registry.gauge(
            "repro_flow_store_evicted_total",
            help="Traces evicted by the retention policy",
            fn=lambda s=self.store: s.evicted,
        )

    # ------------------------------------------------------------ identity

    def _new_id(self) -> str:
        self._next_id += 1
        return f"t{self._next_id}"

    def _finish(self, ctx: TraceContext, status: str,
                site: str | None = None, reason: str | None = None) -> None:
        ctx.finish(self._now(), status, site, reason)
        counter = self._status_counters.get(status)
        if counter is not None:
            counter.inc()
        if status == DELIVERED and self._e2e_hist is not None:
            self._e2e_hist.observe(ctx.end_ts - ctx.birth_ts)
        self.store.complete(ctx)

    def finalize_inflight(self) -> int:
        """Finish every still-open trace as lost (frames lost on the wire,
        items parked in queues at shutdown).  Returns how many were
        closed."""
        closed = 0
        for trace in self.store.inflight():
            self._finish(trace._ctx, LOST)
            closed += 1
        return closed

    # ------------------------------------------------------------ queries

    def traces(self, status: str | None = None) -> list[FlowTrace]:
        return self.store.traces(status)

    def delivered(self) -> list[FlowTrace]:
        return self.store.traces(DELIVERED)

    def dropped(self) -> list[FlowTrace]:
        return self.store.traces(DROPPED) + self.store.traces(LOST)

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready summary (the ``repro top`` FLOW pane)."""
        traces = self.store.traces()
        by_status: dict[str, int] = {}
        for trace in traces:
            by_status[trace.status] = by_status.get(trace.status, 0) + 1
        delivered = [t for t in traces if t.status == DELIVERED]
        slowest = sorted(
            delivered, key=lambda t: t.end_to_end, reverse=True
        )[:10]
        return {
            "births": (self._sampled + 1) * self.sample_every - self.countdown,
            "sample_every": self.sample_every,
            "completed": self.store.completed,
            "evicted": self.store.evicted,
            "retained": len(self.store),
            "by_status": by_status,
            "slowest": [trace.to_dict() for trace in slowest],
        }


def iter_finished(source: "FlowTracer | LineageStore") -> Iterable[FlowTrace]:
    """Every finished trace in a tracer or store (exporter entry point)."""
    store = source.store if isinstance(source, FlowTracer) else source
    for trace in store.traces():
        if trace.status != "in-flight":
            yield trace
