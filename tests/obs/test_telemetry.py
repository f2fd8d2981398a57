"""Telemetry wiring: spans, scheduler probe, flight recorder, inertness."""

import pytest

from repro import (
    ActiveComponent,
    Buffer,
    CallbackSink,
    ClockedPump,
    CollectSink,
    Engine,
    FeedbackPump,
    GreedyPump,
    IterSource,
    pipeline,
)
from repro.components.buffers import OnFull
from repro.feedback import (
    FeedbackLoop,
    MetricSensor,
    PidController,
    PumpRateActuator,
    RateSensor,
)
from repro.mbt.scheduler import Scheduler
from repro.obs import FlightRecorder, FlowTracer, MetricsRegistry, Telemetry


class Stage(ActiveComponent):
    def run(self):
        while True:
            item = yield self.pull()
            yield self.push(item)


def buffered_pipeline(items=20, capacity=4):
    return pipeline(
        IterSource(range(items)), GreedyPump(), Buffer(capacity=capacity),
        GreedyPump(), CollectSink(),
    )


def coroutine_pipeline(items=10, pull_side=False, consume=lambda item: None):
    # Fixed names: auto-numbered names draw from process-global counters,
    # and the inertness test compares traces across two builds.
    stages = [
        IterSource(range(items), name="src"), GreedyPump(name="pump"),
        CallbackSink(consume, name="sink"),
    ]
    # An active stage is a coroutine on either side of the pump: pulled
    # from (ip-pull) upstream of it, pushed into (ip-push) downstream.
    stages.insert(1 if pull_side else 2, Stage(name="stage"))
    return pipeline(*stages)


#: crossing kind -> (coroutine on the pull side, batch_max, message kinds
#: crossing, crossings that carried only EOS).  A pushed EOS follows the
#: batched runs through the per-item kind; a pulled EOS rides the last run.
CROSSINGS = {
    "ip-push": (False, 1, {"ip-push"}, 1),
    "ip-pull": (True, 1, {"ip-pull"}, 1),
    "ip-push-batch": (False, 4, {"ip-push-batch", "ip-push"}, 1),
    "ip-pull-batch": (True, 4, {"ip-pull-batch"}, 0),
}


def run_with_telemetry(pipe, **kwargs):
    engine = Engine(pipe)
    telemetry = Telemetry(**kwargs).attach(engine)
    engine.start()
    engine.run()
    return engine, telemetry


class TestSpans:
    def test_buffer_wait_histogram_counts_every_item(self):
        _engine, telemetry = run_with_telemetry(buffered_pipeline(items=20))
        waits = telemetry.registry.family("repro_buffer_wait_seconds")
        assert len(waits) == 1
        assert waits[0].count == 20

    def test_stage_latency_histogram_counts_moved_items(self):
        _engine, telemetry = run_with_telemetry(buffered_pipeline(items=20))
        stages = telemetry.registry.family("repro_stage_latency_seconds")
        # Two pumps, each moved 20 items.
        assert sorted(h.count for h in stages) == [20, 20]

    @pytest.mark.parametrize("observed", ["plain", "telemetry", "flow"])
    @pytest.mark.parametrize("kind", list(CROSSINGS))
    def test_coroutine_roundtrip_histogram(self, kind, observed):
        pull_side, batch_max, message_kinds, eos_only = CROSSINGS[kind]
        seen = []
        engine = Engine(
            coroutine_pipeline(10, pull_side, seen.append),
            batch_max=batch_max, trace=True,
        )
        if observed == "telemetry":
            telemetry = Telemetry().attach(engine)
        elif observed == "flow":
            tracer = FlowTracer(sample_every=1).attach(engine)
        engine.start()
        engine.run()
        # The same sink stream whatever wraps the crossing.
        assert seen == list(range(10))
        assert {
            event[2] for event in engine.scheduler._trace
            if event[1] == "deliver" and event[2] in CROSSINGS
        } == message_kinds
        if observed == "telemetry":
            hists = telemetry.registry.family(
                "repro_coroutine_roundtrip_seconds"
            )
            assert len(hists) == 1
            # Weighted by the data items that crossed, not by runs; a
            # crossing that carried only EOS counts once, and an EOS that
            # ends a data run adds nothing.
            assert hists[0].count == 10 + eos_only
        elif observed == "flow":
            # Every sampled lineage crossed with its item and closed.
            assert [t.status for t in tracer.traces()] == ["delivered"] * 10

    def test_waits_measure_virtual_time(self):
        # Clocked consumer drains a pre-filled buffer: wait > 0.
        source = IterSource(range(8))
        pipe = pipeline(
            source, GreedyPump(), Buffer(capacity=32),
            ClockedPump(10.0), CollectSink(),
        )
        _engine, telemetry = run_with_telemetry(pipe)
        wait = telemetry.registry.family("repro_buffer_wait_seconds")[0]
        assert wait.count == 8
        assert wait.max > 0.0

    def test_drop_old_keeps_timestamp_queue_aligned(self):
        buffer = Buffer(capacity=2, on_full=OnFull.DROP_OLD)
        pipe = pipeline(
            IterSource(range(30)), GreedyPump(), buffer,
            ClockedPump(10.0), CollectSink(),
        )
        engine = Engine(pipe)
        Telemetry().attach(engine)
        engine.start()
        engine.run(until=0.05)
        # The gate's lane is the one positional record of the queue: it
        # holds no entry for an item the drop policy evicted, so every
        # pulled item is timed exactly once, against its own enqueue.
        lane = engine.gate_for(buffer).lane
        assert buffer.stats["drops"] > 0
        assert len(lane.entries) == len(buffer._items) > 0
        engine.run(until=1.0)
        assert len(lane.entries) == len(buffer._items) == 0
        assert lane.wait.count == buffer.stats["items_out"] > 0


class TestSchedulerProbe:
    def test_dispatch_and_cpu_attribution(self):
        _engine, telemetry = run_with_telemetry(buffered_pipeline())
        probe = telemetry.scheduler_probe
        counts = probe.dispatch_counts()
        assert sum(counts.values()) > 0
        assert all(name.startswith("pump:") for name in counts)
        # Wall-clock attribution accumulates for every dispatched thread.
        wall = probe.cpu_seconds("wall")
        assert set(wall) == set(counts)
        assert all(seconds >= 0.0 for seconds in wall.values())

    def test_run_queue_wait_observed(self):
        _engine, telemetry = run_with_telemetry(buffered_pipeline())
        assert telemetry.scheduler_probe.run_queue_wait.count > 0

    def test_virtual_cpu_tracks_work(self):
        from repro import MapFilter

        source = IterSource(range(5))
        work = MapFilter(lambda x: x, cost=0.01)
        pipe = pipeline(source, GreedyPump(), work, CollectSink())
        _engine, telemetry = run_with_telemetry(pipe)
        virtual = telemetry.scheduler_probe.cpu_seconds("virtual")
        assert sum(virtual.values()) == pytest.approx(0.05)


    def test_priority_donations_are_counted_for_the_callee(self):
        """A synchronous call lends the caller's priority to the callee;
        the probe counts it on the callee's series, nobody else's."""
        from repro.mbt import CONTINUE, Call, Message, Reply
        from repro.obs.sched import SchedulerProbe

        registry, sched = MetricsRegistry(), Scheduler()
        SchedulerProbe(registry).install(sched, ["server", "client"])

        def server(thread, msg):
            yield Reply(msg, payload="ok")
            return CONTINUE

        def client(thread, msg):
            yield Call("server", "req")
            return CONTINUE

        sched.spawn("server", server, priority=1)
        sched.spawn("client", client, priority=9)
        sched.post(Message(kind="go", target="client"))
        sched.run()
        family = "repro_sched_donations_total"
        assert registry.get(family, thread="server").value == 1
        assert [c.labels for c in registry.family(family)] == [
            (("thread", "server"),)
        ]


class TestStatsDecoration:
    def test_summary_includes_latency_aggregates(self):
        engine, _telemetry = run_with_telemetry(buffered_pipeline())
        summary = engine.stats.summary()
        assert "wait_p95=" in summary
        assert "service_p95=" in summary

    def test_decoration_absent_without_telemetry(self):
        engine = Engine(buffered_pipeline())
        engine.start()
        engine.run()
        assert "wait_p95" not in engine.stats.summary()


class TestFlightRecorder:
    def test_keeps_last_events_and_counts_dropped(self):
        engine = Engine(buffered_pipeline(items=30))
        recorder = FlightRecorder(capacity=16).attach(engine.scheduler)
        engine.start()
        engine.run()
        assert len(recorder) == 16
        assert recorder.dropped > 0
        # The retained events are the newest ones, in order.
        times = [event[0] for event in recorder.events()]
        assert times == sorted(times)
        assert "evicted" in recorder.format()

    def test_full_trace_subsumes_recorder(self):
        engine = Engine(buffered_pipeline(items=10), trace=True)
        FlightRecorder(capacity=4).attach(engine.scheduler)
        engine.start()
        engine.run()
        # attach() was a no-op: the unbounded trace kept everything.
        assert len(engine.scheduler.trace) > 4
        assert engine.scheduler.trace_dropped == 0

    def test_recorder_via_telemetry(self):
        _engine, telemetry = run_with_telemetry(
            buffered_pipeline(items=30), recorder_capacity=8
        )
        assert telemetry.recorder is not None
        assert len(telemetry.recorder) == 8


class TestInertness:
    """With no telemetry attached, nothing observable changes."""

    def test_golden_traces_pin_this(self):
        # The real guarantee lives in tests/integration/test_trace_stability
        # (bit-for-bit digests); here: no probe, no ring, no span state.
        engine = Engine(buffered_pipeline())
        engine.start()
        engine.run()
        scheduler = engine.scheduler
        assert scheduler._obs is None
        assert scheduler._trace is None
        assert scheduler.trace_dropped == 0
        # Every plant — one lane per gate, one hand per thread — is empty.
        assert [gate.lane for gate in engine._gates.values()] == [None]
        for driver in engine.pump_drivers:
            assert driver.ctx.hand is None
        assert engine._telemetry is None

    def test_trace_identical_with_and_without_probe(self):
        def run(with_probe):
            engine = Engine(coroutine_pipeline(items=12), trace=True)
            if with_probe:
                Telemetry().attach(engine)
            engine.start()
            engine.run()
            return list(engine.scheduler.trace)

        plain = run(False)
        probed = run(True)
        assert [e[1:] for e in plain] == [e[1:] for e in probed]
        assert [e[0] for e in plain] == pytest.approx(
            [e[0] for e in probed]
        )


class TestMetricSensorLoop:
    """Feedback sensors constructible from registry metrics (acceptance)."""

    def test_sensors_read_registry_values(self):
        engine, telemetry = run_with_telemetry(buffered_pipeline(items=20))
        registry = telemetry.registry
        buffer_name = next(
            c.name for c in engine.pipeline.components
            if isinstance(c, Buffer)
        )
        fill = MetricSensor(
            registry, "repro_buffer_fill_fraction",
            labels={"component": buffer_name},
        )
        assert fill.sample() == 0.0  # drained at EOS
        stage = next(iter(engine.pump_drivers)).origin.name
        latency = MetricSensor(
            registry, "repro_stage_latency_seconds",
            stat="p95", labels={"stage": stage},
        )
        assert latency.sample() >= 0.0

    def test_unknown_metric_samples_default(self):
        sensor = MetricSensor(MetricsRegistry(), "nope", default=0.25)
        assert sensor.sample() == 0.25

    def test_rate_stat_uses_bound_clock(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total")
        clock = [0.0]
        sensor = MetricSensor(
            registry, "c_total", stat="rate", now=lambda: clock[0]
        )
        sensor.sample()
        counter.inc(10)
        clock[0] = 2.0
        assert sensor.sample() == pytest.approx(5.0)

    def test_rejects_unknown_stat(self):
        with pytest.raises(ValueError):
            MetricSensor(MetricsRegistry(), "x", stat="median")

    def test_metric_driven_feedback_loop_controls_pump(self):
        """A loop driven by a registry metric actually actuates."""
        source = IterSource(range(10_000))
        pump = FeedbackPump(50.0)
        buffer = Buffer(capacity=64)
        drain = ClockedPump(10.0)
        sink = CollectSink()
        pipe = pipeline(source, pump, buffer, drain, sink)

        engine = Engine(pipe)
        telemetry = Telemetry().attach(engine)
        fill = MetricSensor(
            telemetry.registry, "repro_buffer_fill_fraction",
            labels={"component": buffer.name},
        )
        loop = FeedbackLoop(
            sensor=fill,
            controller=PidController(
                setpoint=0.5, kp=40.0,
                output_min=5.0, output_max=100.0, bias=50.0,
            ),
            actuator=PumpRateActuator(pump),
            period=0.25,
        )
        loop.attach(engine)
        engine.start()
        engine.run(until=20.0)
        engine.stop()
        engine.run()
        assert loop.history, "loop never sampled"
        # The controller saw real fill measurements and slowed the pump.
        measured = [m for _, m, _ in loop.history]
        assert max(measured) > 0.0
        outputs = [o for _, _, o in loop.history]
        assert min(outputs) < 50.0


class TestRateSensorBinding:
    def test_rate_sensor_binds_pipeline_clock_via_loop(self):
        source = IterSource(range(10_000))
        pump = FeedbackPump(20.0)
        sink = CollectSink()
        pipe = pipeline(source, pump, sink)
        engine = Engine(pipe)
        sensor = RateSensor(pump)  # no explicit clock
        loop = FeedbackLoop(
            sensor=sensor,
            # Zero-gain PID: holds the rate at its bias so the measured
            # items/second stays at the nominal 20/s.
            controller=PidController(setpoint=0.0, kp=0.0, bias=20.0),
            actuator=PumpRateActuator(pump),
            period=1.0,
        )
        loop.attach(engine)
        engine.start()
        engine.run(until=5.0)
        engine.stop()
        engine.run()
        rates = [m for _, m, _ in loop.history[1:]]
        assert rates, "loop never sampled"
        # True items/second on the virtual clock (~20/s), not a raw count
        # delta per period (which would also be ~20 here) — so check the
        # clock actually got bound.
        assert sensor._now == engine.scheduler.now
        assert any(rate == pytest.approx(20.0, rel=0.3) for rate in rates)

    def test_unattached_sensor_still_reports_deltas(self):
        class Fake:
            stats = {"items_out": 0}

        sensor = RateSensor(Fake())
        assert sensor.sample() == 0
        Fake.stats["items_out"] = 4
        assert sensor.sample() == 4


class TestSchedulerTraceRing:
    def test_trace_limit_bounds_memory(self):
        scheduler = Scheduler(trace=True, trace_limit=8)

        def code(thread, message):
            return None

        scheduler.spawn("a", code)
        for _ in range(30):
            from repro.mbt.message import Message

            scheduler.post(Message(kind="tick", sender="x", target="a"))
        scheduler.run()
        assert len(scheduler.trace) == 8
        assert scheduler.trace_dropped > 0

    def test_default_trace_unbounded(self):
        scheduler = Scheduler(trace=True)
        assert scheduler.trace == []
        scheduler._record("x")
        assert isinstance(scheduler._trace, list)

    def test_enable_trace_is_idempotent(self):
        scheduler = Scheduler()
        scheduler.enable_trace(limit=4)
        ring = scheduler._trace
        scheduler.enable_trace(limit=99)
        assert scheduler._trace is ring
