"""The paper's figure pipelines under schedule exploration and faults.

Satellite coverage: Figures 1, 2 and 5 each run under ``explore`` with at
least 25 seeded interleaving perturbations — every legal schedule must
preserve the flow invariants — plus a crash-one-pump fault plan per
figure.  Also the seeded regression for the bug class the checker is
built to catch: a FIFO buffer mutated into LIFO is found by the explorer
and shrunk to a deterministic repro.
"""

import pytest

from repro import (
    ActiveComponent,
    Buffer,
    CallbackSink,
    ClockedPump,
    CollectSink,
    CostFilter,
    Engine,
    GreedyPump,
    IterSource,
    MapFilter,
    Pipeline,
    connect,
    pipeline,
)
from repro.check import (
    CrashThread,
    FaultPlan,
    assert_fifo,
    assert_no_deadlock,
    check_conservation,
    check_flow,
    check_network,
    crash_one_pump,
    declare_lossy,
    explore,
    record_tap,
    replay,
)
from repro.components.buffers import OK
from repro.core.typespec import Typespec
from repro.errors import SchedulerError
from repro.media import (
    MpegDecoder,
    MpegFileSource,
    PriorityDropFilter,
    VideoDisplay,
)
from repro.net import Network, Node, RemoteBinder

SEEDS = 25

FRAMES = 90
FPS = 30.0


# ---------------------------------------------------------------------------
# Figure 1: distributed video pipeline over a lossy link
# ---------------------------------------------------------------------------


class Figure1Rig:
    """The Figure-1 topology of tests/integration/test_fig1_pipeline.py,
    built but *not* run (the explorer drives it), with a reduced frame
    count and no feedback loop — schedule perturbation is the subject
    here, congestion control is tested elsewhere."""

    def build(self):
        network = Network(seed=5)
        network.add_link(
            "producer", "consumer",
            bandwidth_bps=2_000_000, delay=0.02, jitter=0.002,
            loss_rate=0.01, queue_packets=16,
        )
        producer_node = Node("producer", network)
        consumer_node = Node("consumer", network)

        source = producer_node.place(MpegFileSource(frames=FRAMES))
        drop_filter = PriorityDropFilter()
        producer_side = source >> ClockedPump(FPS) >> drop_filter

        feeder = GreedyPump()
        # The decoder skips frames whose references were lost in the
        # network — a documented, declared loss (docs/CHECKING.md).
        decoder = declare_lossy(
            MpegDecoder(share_references=False),
            "skips frames whose references were lost",
        )
        jitter_buffer = Buffer(capacity=16)
        pump2 = ClockedPump(FPS)
        self.display = display = consumer_node.place(
            VideoDisplay(input_spec=Typespec())
        )
        consumer_side = Pipeline(
            [feeder, decoder, jitter_buffer, pump2, display]
        )
        connect(feeder.out_port, decoder.in_port)
        connect(decoder.out_port, jitter_buffer.in_port)
        connect(jitter_buffer.out_port, pump2.in_port)
        connect(pump2.out_port, display.in_port)

        pipe = RemoteBinder(network).bind(
            producer_side, consumer_side, "producer", "consumer",
            flow="video", protocol="datagram",
        )
        return Engine(pipe)

    @staticmethod
    def drive(engine):
        engine.start()
        engine.run(until=FRAMES / FPS + 3.0)
        engine.stop()
        engine.run(max_steps=100_000)

    def check(self, engine):
        check_flow(engine).raise_if_failed()
        assert_no_deadlock(engine.scheduler)
        displayed = engine.stats.components[self.display.name]["displayed"]
        assert displayed >= FRAMES * 0.5, displayed


def test_figure1_survives_schedule_exploration():
    rig = Figure1Rig()
    result = explore(
        rig.build, seeds=SEEDS, drive=Figure1Rig.drive, check=rig.check
    )
    assert result.ok, result.summary()
    assert result.distinct_interleavings > 1


def test_figure1_crash_one_pump_loses_frames_not_accounting():
    rig = Figure1Rig()
    engine = rig.build()
    engine.setup()
    # Crash the consumer-side feeder pump mid-stream: frames keep leaving
    # the producer, nothing past the netpipe moves anymore.
    feeder = next(
        d.thread_name for d in engine.pump_drivers
        if "greedy" in d.thread_name
    )
    plan = FaultPlan(crashes=(CrashThread(at=1.0, thread=feeder),))
    plan.arm(engine.scheduler)
    engine.start()  # Figure1Rig.drive, with the crash caught and run on
    with pytest.raises(SchedulerError):
        engine.run(until=FRAMES / FPS + 3.0)
    engine.run(until=FRAMES / FPS + 3.0)
    engine.stop()
    engine.run(max_steps=100_000)

    assert plan.crashes_fired == [feeder]
    names = [name for name, _ in engine.scheduler.errors]
    assert names == [feeder]
    displayed = engine.stats.components[rig.display.name]["displayed"]
    assert displayed < FRAMES
    # Packets already in flight are lost when their consumer dies, but
    # nothing may be duplicated, and link accounting must still balance.
    report = check_conservation(engine)
    assert not any(i.kind == "duplication" for i in report.issues), (
        report.format()
    )
    check_network(engine.network).raise_if_failed()


# ---------------------------------------------------------------------------
# Figure 2: activity stops at buffers — two pumps around one buffer
# ---------------------------------------------------------------------------


class Figure2Rig:
    """The Figure-2 shape (two independent activities meeting at a
    buffer), with a tap recording everything that crosses the buffer."""

    def __init__(self, n=24, cost=0.0):
        self.n = n
        self.cost = cost

    def build(self):
        self.records = records = []
        self.sink = sink = CollectSink()
        stages = [
            IterSource(range(self.n)),
            MapFilter(lambda x: x),
            GreedyPump(),
            Buffer(capacity=4),
        ]
        if self.cost:
            stages.append(CostFilter(self.cost))
        stages += [GreedyPump(), record_tap(records), sink]
        return Engine(pipeline(*stages))

    def check(self, engine):
        check_flow(engine).raise_if_failed()
        assert_no_deadlock(engine.scheduler)
        assert sorted(self.sink.items) == list(range(self.n))
        # One FIFO buffer between two pumps: order is preserved under
        # every legal schedule.
        assert_fifo(self.records, pipe="figure2-tap")


def test_figure2_survives_schedule_exploration():
    rig = Figure2Rig()
    result = explore(rig.build, seeds=SEEDS, check=rig.check)
    assert result.ok, result.summary()
    assert result.distinct_interleavings > 1


def test_figure2_crash_one_pump_keeps_accounting():
    rig = Figure2Rig(n=50, cost=0.001)
    engine = rig.build()
    plan = crash_one_pump(engine, at=0.005, which=1)
    with pytest.raises(SchedulerError):
        engine.run_to_completion(max_steps=500_000)
    engine.run(max_steps=500_000)  # the crash raised; the run goes on

    assert len(plan.crashes_fired) == 1
    assert 0 < len(rig.sink.items) < 50
    report = check_conservation(engine)
    assert not any(i.kind == "duplication" for i in report.issues), (
        report.format()
    )
    # What did arrive is still in order.
    assert_fifo(rig.records, pipe="figure2-tap")


# ---------------------------------------------------------------------------
# Figure 5: synchronous coroutine hand-off
# ---------------------------------------------------------------------------


class Figure5Rig:
    """The Figure-5 coroutine set: pump + two active stages + sink.  The
    paper's claim — the activity travels with the data, one runnable
    control flow at a time — must survive every schedule."""

    def __init__(self, n=3, cost=0.0):
        self.n = n
        self.cost = cost

    def build(self):
        self.trace = trace = []

        class Stage(ActiveComponent):
            def __init__(self, tag):
                super().__init__(name=f"stage-{tag}")
                self.tag = tag

            def run(self):
                while True:
                    item = yield self.pull()
                    trace.append((f"{self.tag}-pull", item))
                    yield self.push(item)
                    trace.append((f"{self.tag}-push", item))

        sink = CallbackSink(lambda item: trace.append(("sink", item)))
        stages = [IterSource(range(self.n)), GreedyPump()]
        if self.cost:
            stages.append(CostFilter(self.cost))
        stages += [Stage("first"), Stage("second"), sink]
        return Engine(pipeline(*stages))

    def check(self, engine):
        check_flow(engine).raise_if_failed()
        sunk = [item for tag, item in self.trace if tag == "sink"]
        assert sunk == list(range(self.n)), sunk
        # Synchronous, unbuffered hand-off: strict per-item phase order.
        for n in range(self.n):
            events = [tag for tag, item in self.trace if item == n]
            assert events == [
                "first-pull", "second-pull", "sink",
                "second-push", "first-push",
            ], (n, events)


def test_figure5_survives_schedule_exploration():
    rig = Figure5Rig()
    result = explore(rig.build, seeds=SEEDS, check=rig.check)
    assert result.ok, result.summary()
    assert result.distinct_interleavings > 1


def test_figure5_crash_pump_hangs_coroutines_without_cycle():
    rig = Figure5Rig(n=20, cost=0.001)
    engine = rig.build()
    plan = crash_one_pump(engine, at=0.005)
    with pytest.raises(SchedulerError):
        engine.run_to_completion(max_steps=500_000)
    engine.run(max_steps=500_000)  # the crash raised; the run goes on

    assert len(plan.crashes_fired) == 1
    sunk = [item for tag, item in rig.trace if tag == "sink"]
    assert 0 < len(sunk) < 20
    # The orphaned coroutines block on input forever — a hang, but not a
    # wait-for cycle; and nothing got duplicated on the way down.
    report = assert_no_deadlock(engine.scheduler)
    assert not report.has_cycle
    conservation = check_conservation(engine)
    assert not any(i.kind == "duplication" for i in conservation.issues)


# ---------------------------------------------------------------------------
# Seeded regression: a past-bug-shaped mutation is caught and minimized
# ---------------------------------------------------------------------------


class NewestFirstBuffer(Buffer):
    """Bug-shaped mutation: pops the newest queued item, not the oldest.

    This is the classic wrong-end deque bug; conservation holds (nothing
    lost or duplicated), so only the FIFO invariant can catch it — and
    only on schedules where the buffer ever holds two items at once.
    """

    def try_pull(self, port: str = "out"):
        if self._items:
            item = self._items.pop()  # the bug: LIFO instead of FIFO
            self.stats["items_out"] += 1
            return OK, item
        return super().try_pull(port)


class MutationRig(Figure2Rig):
    def __init__(self, buffer_cls):
        super().__init__(n=12)
        self.buffer_cls = buffer_cls

    def build(self):
        self.records = records = []
        self.sink = sink = CollectSink()
        return Engine(
            pipeline(
                IterSource(range(self.n)), GreedyPump(),
                self.buffer_cls(capacity=4), GreedyPump(),
                record_tap(records), sink,
            )
        )


def test_lifo_mutation_is_caught_minimized_and_replayable():
    healthy = MutationRig(Buffer)
    result = explore(healthy.build, seeds=SEEDS, check=healthy.check)
    assert result.ok, result.summary()

    mutated = MutationRig(NewestFirstBuffer)
    result = explore(mutated.build, seeds=SEEDS, check=mutated.check)
    assert not result.ok
    assert result.failures[0].seed is not None
    assert "figure2-tap" in (result.failures[0].error or "")
    # The minimized choice sequence is a standalone deterministic repro.
    assert result.minimized_choices is not None
    run, _ = replay(
        mutated.build, result.minimized_choices, check=mutated.check
    )
    assert run.failed
    with pytest.raises(AssertionError):
        result.raise_if_failed()
