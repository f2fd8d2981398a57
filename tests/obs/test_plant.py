"""The one positional plant: a hand per thread, a lane per queue.

Wait histograms (``Telemetry``) and flow traces (``FlowTracer``) read the
same lane entries, the runtime reports each movement at one site, and the
components carry no instrumentation — checked here from the outside
(histogram vs. trace agreement) and from the source (AST guards).
"""

import ast
from pathlib import Path

import pytest

from repro import (
    ActiveComponent,
    Buffer,
    ClockedPump,
    CollectSink,
    Engine,
    GreedyPump,
    IterSource,
    MapFilter,
    OnFull,
    pipeline,
)
from repro.api import Pipeline
from repro.mbt import Scheduler, VirtualClock
from repro.net import Network, Node, RemoteBinder
from repro.obs import FlowTracer, Telemetry
from repro.obs.flow import DROPPED

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def pulled_waits(tracer, boundary):
    """Durations of the ``wait`` segments a pull from ``boundary`` closed.
    A trace that ended *in* the queue (dropped there, or still parked at
    shutdown) has that wait as its last segment: it was never pulled."""
    waits = []
    for trace in tracer.traces():
        segments = trace.segments
        for index, (kind, name, duration) in enumerate(segments[:-1]):
            if kind == "wait" and name == boundary:
                waits.append(duration)
    return waits


def assert_one_record(telemetry, tracer, boundary):
    (hist,) = [
        h for h in telemetry.registry.family("repro_buffer_wait_seconds")
        if dict(h.labels)["component"] == boundary
    ]
    waits = pulled_waits(tracer, boundary)
    assert hist.count == len(waits) > 0
    assert hist.sum == pytest.approx(sum(waits), abs=1e-12)
    return hist


def run_buffered(on_full, batch_max, flush_at=None, items=120):
    """The more urgent producer floods a small buffer whenever it can
    run; the consumer's section works 10 ms per item, so the queue is
    where items wait (or, under a drop policy, die)."""
    buffer = Buffer(capacity=8, on_full=on_full, name="queue")
    sink = CollectSink()
    pipe = pipeline(
        IterSource(range(items)), GreedyPump(priority=1), buffer,
        GreedyPump(), MapFilter(lambda x: x, cost=0.01), sink,
    )
    built = (
        Pipeline.from_pipeline(pipe).with_batching(batch_max)
        .with_metrics().with_tracing(sample_every=1).build()
    )
    engine = built.engine
    engine.start()
    if flush_at is not None:
        engine.run(until=flush_at)
        assert buffer.fill_level > 0
        engine.send_event("flush")
    engine.run()
    built.tracer.finalize_inflight()
    return built, buffer, sink


class TestOneRecordPerQueue:
    @pytest.mark.parametrize("batch_max", [1, 32])
    @pytest.mark.parametrize(
        "on_full", [OnFull.BLOCK, OnFull.DROP_OLD, OnFull.DROP_NEW]
    )
    def test_buffer_histogram_is_the_traces_wait_segments(
        self, on_full, batch_max
    ):
        built, buffer, sink = run_buffered(on_full, batch_max)
        hist = assert_one_record(built.telemetry, built.tracer, "queue")
        assert hist.count == buffer.stats["items_out"] == len(sink.items)
        dropped = built.tracer.traces(DROPPED)
        if on_full is OnFull.BLOCK:
            assert not dropped and len(sink.items) == 120
        else:
            assert len(dropped) == buffer.stats["drops"] > 0
            assert {trace.site for trace in dropped} == {"queue"}
        # Nothing is left in the lane once the queue drained.
        assert not built.engine.gate_for(buffer).lane.entries

    @pytest.mark.parametrize("batch_max", [1, 32])
    def test_flush_mid_run(self, batch_max):
        # The producer is parked on the full queue when the flush comes.
        built, buffer, sink = run_buffered(
            OnFull.BLOCK, batch_max, flush_at=0.035
        )
        hist = assert_one_record(built.telemetry, built.tracer, "queue")
        assert hist.count == buffer.stats["items_out"] == len(sink.items)
        flushed = built.tracer.traces(DROPPED)
        assert len(flushed) == buffer.stats["drops"] > 0
        assert len(sink.items) + len(flushed) == 120

    @pytest.mark.parametrize("batch_max", [1, 32])
    def test_netpipe_receiver(self, batch_max):
        scheduler = Scheduler(clock=VirtualClock())
        network = Network(scheduler, seed=3)
        network.add_link(
            "a", "b", bandwidth_bps=2_000_000, delay=0.01, jitter=0.0,
            loss_rate=0.0, queue_packets=256,
        )
        node_a, node_b = Node("a", network), Node("b", network)
        source = node_a.place(
            IterSource(bytes([i % 100]) * 16 for i in range(60))
        )
        sink = node_b.place(CollectSink())
        pipe = RemoteBinder(network).bind(
            source >> GreedyPump(), ClockedPump(200.0) >> sink,
            "a", "b", flow="data", protocol="stream",
        )
        engine = Engine(
            pipe, scheduler=scheduler, batch_max=batch_max
        ).attach_network(network)
        telemetry = Telemetry().attach(engine)
        tracer = FlowTracer(
            sample_every=1, registry=telemetry.registry
        ).attach(engine)
        engine.start()
        engine.run(until=30.0)
        engine.stop()
        engine.run(max_steps=500_000)
        tracer.finalize_inflight()
        assert len(sink.items) == 60
        hist = assert_one_record(telemetry, tracer, "netpipe-recv-data")
        assert hist.count == 60
        # The clocked consumer makes arrivals genuinely wait.
        assert hist.max > 0.0


class Stage(ActiveComponent):
    def run(self):
        while True:
            item = yield self.pull()
            yield self.push(item)


class TestOnePlant:
    def test_metrics_plus_tracing_compile_walkers_twice(self, monkeypatch):
        """Setup compiles, the tracer's attach recompiles once to bind the
        source / sink hooks; Telemetry reads the plant at run time and
        never recompiles — coroutine crossings included."""
        calls = []
        compile_walkers = Engine._compile_walkers
        monkeypatch.setattr(
            Engine, "_compile_walkers",
            lambda engine: (calls.append(engine), compile_walkers(engine)),
        )
        sink = CollectSink()
        pipe = pipeline(
            IterSource(range(20)), Stage(), GreedyPump(), Buffer(capacity=4),
            GreedyPump(), Stage(), sink,
        )
        built = (
            Pipeline.from_pipeline(pipe).with_metrics()
            .with_tracing(sample_every=1).build()
        )
        assert len(calls) == 2
        built.run()
        assert len(calls) == 2
        assert len(built.tracer.delivered()) == len(sink.items) == 20
        rtts = built.telemetry.registry.family(
            "repro_coroutine_roundtrip_seconds"
        )
        assert len(rtts) == 2 and all(h.count >= 20 for h in rtts)

        calls.clear()
        Pipeline.from_pipeline(
            pipeline(IterSource(range(3)), GreedyPump(), CollectSink())
        ).with_metrics().build()
        assert len(calls) == 1  # metrics alone: the setup compile only

    def test_collectors_share_the_plant(self):
        engine = Engine(pipeline(
            IterSource(range(5)), GreedyPump(), Buffer(capacity=4),
            GreedyPump(), CollectSink(),
        ))
        telemetry = Telemetry().attach(engine)
        hands = [driver.ctx.hand for driver in engine.pump_drivers]
        (lane,) = [gate.lane for gate in engine._gates.values()]
        assert None not in hands and lane.wait is not None
        assert lane.tracer is None and hands[0].tracer is None
        tracer = FlowTracer(registry=telemetry.registry).attach(engine)
        assert [d.ctx.hand for d in engine.pump_drivers] == hands
        assert [gate.lane for gate in engine._gates.values()] == [lane]
        assert lane.tracer is tracer and hands[0].tracer is tracer


def attribute_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name


def is_obs_name(name):
    return name.startswith(("_obs", "_flow")) or name in ("hand", "lane")


class TestComponentsCarryNoInstrumentation:
    def test_components_and_netpipe_name_no_collector_attribute(self):
        files = [*sorted((SRC / "components").glob("*.py")),
                 SRC / "net" / "netpipe.py"]
        assert len(files) > 5
        for path in files:
            tree = ast.parse(path.read_text())
            named = sorted(
                {n for n in attribute_names(tree) if is_obs_name(n)}
            )
            assert not named, (path.name, named)

    def test_section_defines_no_collector_only_walker(self):
        tree = ast.parse((SRC / "runtime" / "section.py").read_text())
        variants = [
            node.name for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
            and node.name.endswith(("_traced", "_timed", "_flow"))
        ]
        assert variants == []

    def test_drivers_and_gates_declare_at_most_one_obs_slot(self):
        """An obs slot is an attribute a class assigns (on itself or on
        ``self``) for a collector to fill: the hand, the lane, or anything
        spelled ``_obs*`` / ``_flow*``."""
        slots = {}
        for module in ("engine.py", "section.py"):
            tree = ast.parse((SRC / "runtime" / module).read_text())
            for cls in ast.walk(tree):
                if not isinstance(cls, ast.ClassDef):
                    continue
                declared = set()
                for node in ast.walk(cls):
                    if isinstance(node, ast.Assign):
                        targets = node.targets
                    elif isinstance(node, ast.AnnAssign):
                        targets = [node.target]
                    else:
                        continue
                    for target in targets:
                        if isinstance(target, ast.Name) and node in cls.body:
                            name = target.id  # class-level default
                        elif (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            name = target.attr
                        else:
                            continue
                        if is_obs_name(name):
                            declared.add(name)
                slots[cls.name] = declared
        assert slots["PumpDriver"] == set()
        assert slots["CoroutineDriver"] == set()
        assert slots["BufferGate"] == {"lane"}
        assert slots["ThreadCtx"] == {"hand"}
