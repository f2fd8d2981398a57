"""Direct intake: a direct-called producer's ``get()`` calls its
in-section upstream; abort-and-replay is what a ``get()`` over a gate,
lock or coroutine crossing does.  The property suite
(``tests/property/test_direct_intake.py``) holds the two routes equal;
here are the counts and the corners."""

import pytest

from repro import (
    ActivityRouter,
    Buffer,
    CollectSink,
    Engine,
    GreedyPump,
    IterSource,
    MapFilter,
    PullDefragmenter,
    PushDefragmenter,
    pipeline,
)
from repro.api import Pipeline
from repro.core.component import Component, Role
from repro.core.composition import Pipeline as Graph
from repro.core.styles import Producer, Style
from repro.mbt.syscalls import Work
from repro.obs.flow import DELIVERED
from repro.runtime import bridge, section


class CountingDefragmenter(PullDefragmenter):
    """Counts executions of ``pull`` — attempts, not outputs."""

    cost = 0.0
    executions = 0

    def pull(self):
        self.executions += 1
        if self.cost:
            self.charge(self.cost)
        return super().pull()


@pytest.fixture
def aborts(monkeypatch):
    """How often a ``get()`` aborted its pull."""
    raised = []

    class Counted(bridge.NeedMoreInput):
        def __init__(self, port):
            raised.append(port)

    monkeypatch.setattr(bridge, "NeedMoreInput", Counted)
    return raised


@pytest.mark.parametrize("batch_max", [1, 32])
def test_fig9a_pull_runs_once_per_output(batch_max, aborts):
    defrag, sink = CountingDefragmenter(), CollectSink()
    pipe = pipeline(
        IterSource(range(400)), defrag, GreedyPump(), PushDefragmenter(), sink
    )
    Engine(pipe, batch_max=batch_max).run_to_completion()
    assert len(sink.items) == 100
    assert defrag.stats["items_out"] == 200
    assert defrag.stats["items_in"] == 400
    assert defrag.executions == 200 + 1  # ... and the attempt that met EOS
    assert aborts == []


def test_charge_is_billed_once_per_output():
    """``pull()`` charges before its ``get()``s: an aborted attempt used
    to drain that charge into a ``Work`` of its own, k + 1 bills per
    output of k inputs."""
    defrag, sink = CountingDefragmenter(), CollectSink()
    defrag.cost = 0.001
    engine = Engine(pipeline(IterSource(range(20)), defrag, GreedyPump(), sink))
    engine.run_to_completion()
    assert len(sink.items) == 10
    assert engine.now() == pytest.approx(0.011)  # 10 outputs + the EOS attempt


@pytest.mark.parametrize("batch_max", [1, 32])
def test_costs_inside_a_pull_are_one_work(batch_max, monkeypatch):
    """The source's and the function hop's cost ride in the producer's
    one ``Work`` (per pull, or per run on the batch tier)."""
    works = []
    monkeypatch.setattr(
        section, "Work", lambda cost: works.append(cost) or Work(cost)
    )
    source = IterSource(range(8))
    source.pull = lambda pull=source.pull: (source.charge(0.25), pull())[1]
    engine = Engine(
        pipeline(
            source, MapFilter(lambda x: x, cost=0.5), CountingDefragmenter(),
            GreedyPump(), CollectSink(),
        ),
        batch_max=batch_max,
    )
    engine.run_to_completion()
    # 8 items at 0.75 each, and the source's ninth pull (EOS) at 0.25.
    if batch_max == 1:
        assert works == pytest.approx([1.5] * 4 + [0.25])
    else:
        assert works == pytest.approx([6.25])
    assert engine.now() == pytest.approx(6.25)


@pytest.mark.parametrize("batch_max", [1, 32])
def test_every_item_is_born_at_the_source_and_reassembled(batch_max):
    sink = CollectSink()
    pipe = pipeline(
        IterSource(range(400)), MapFilter(lambda x: x, cost=0.001),
        PullDefragmenter(), GreedyPump(), PushDefragmenter(), sink,
    )
    built = (
        Pipeline.from_pipeline(pipe).with_batching(batch_max)
        .with_tracing(sample_every=1).build()
    )
    built.engine.run_to_completion()
    traces = built.tracer.traces()
    assert len(traces) == 400
    assert len(built.tracer.traces(DELIVERED)) == len(sink.items) == 100
    for trace in traces:
        assert trace.end_ts is not None
        # Born in the pump's hand as it left the source's entry: the first
        # segment is that thread's service time.
        assert trace.segments[0][:2] == ("service", built.engine.thread_of(sink))
        assert sum(d for _, _, d in trace.segments) == pytest.approx(
            trace.end_to_end, abs=1e-12
        )
    assert sorted(t.birth_ts for t in traces) == [t.birth_ts for t in traces]


def test_a_shared_producer_keeps_replay(aborts):
    """Above an activity router the defragmenter is called from two
    sections under a segment lock: neither thread's walker may bind its
    own fetcher, so ``get()`` aborts and the walker feeds — 3 executions
    per output, as before."""
    defrag, router = CountingDefragmenter(), ActivityRouter()
    left, right = CollectSink(), CollectSink()
    graph = Graph()
    source, pump_l, pump_r = IterSource(range(40)), GreedyPump(), GreedyPump()
    for component in (source, defrag, router, pump_l, pump_r, left, right):
        graph.add(component)
    graph.connect(source.out_port, defrag.in_port)
    graph.connect(defrag.out_port, router.in_port)
    graph.connect(router.port("out0"), pump_l.in_port)
    graph.connect(router.port("out1"), pump_r.in_port)
    graph.connect(pump_l.out_port, left.in_port)
    graph.connect(pump_r.out_port, right.in_port)
    engine = Engine(graph)
    engine.run_to_completion()
    assert engine.lock_for(defrag) is not None
    assert sorted(left.items + right.items) == [
        (i, i + 1) for i in range(0, 40, 2)
    ]
    assert defrag.executions >= 3 * 20
    assert len(aborts) >= 2 * 20


class Zip2(Component):
    """Two-input producer: pairs ``in0`` with ``in1``."""

    style = Style.PRODUCER
    role = Role.TRANSFORM
    mode_links = (("in0", "out"), ("in1", "out"))
    get = Producer.get

    def __init__(self, name=None):
        super().__init__(name)
        self.add_in_port("in0")
        self.add_in_port("in1")
        self.add_out_port()
        self.executions = 0

    def pull(self):
        self.executions += 1
        return (self.get("in0"), self.get("in1"))


@pytest.mark.parametrize("batch_max", [1, 32])
def test_the_route_is_chosen_per_port(batch_max, aborts):
    """``in0`` sits over a plain source (direct), ``in1`` over a buffer
    (its gate can park the thread, so that port replays): only ``in1``
    ever aborts, and the item ``in0`` fetched before the abort is re-read
    from the intake, not fetched again."""
    zipper, sink = Zip2(), CollectSink()
    plain, feeder, buffer = IterSource(range(30)), GreedyPump(), Buffer(4)
    gated = IterSource("abcdefghijklmnopqrstuvwxyz")
    graph = Graph()
    pump = GreedyPump()
    for component in (plain, gated, feeder, buffer, zipper, pump, sink):
        graph.add(component)
    graph.connect(gated.out_port, feeder.in_port)
    graph.connect(feeder.out_port, buffer.in_port)
    graph.connect(plain.out_port, zipper.port("in0"))
    graph.connect(buffer.out_port, zipper.port("in1"))
    graph.connect(zipper.out_port, pump.in_port)
    graph.connect(pump.out_port, sink.in_port)
    Engine(graph, batch_max=batch_max).run_to_completion()
    assert sink.items == list(zip(range(26), "abcdefghijklmnopqrstuvwxyz"))
    assert set(aborts) == {"in1"} and len(aborts) == 27  # 26 items + EOS
    assert plain.stats["items_out"] == 27  # fetched once each, none early
    assert zipper.stats["items_in"] == 52


# -- what an intake holds is in no output of the system: stats.held --------


@pytest.mark.parametrize("batch_max", [1, 32])
def test_an_unpaired_trailing_fragment_is_reported_as_held(batch_max):
    defrag, sink = PullDefragmenter(), CollectSink()
    source = IterSource(range(5))
    engine = Engine(
        pipeline(source, defrag, GreedyPump(), sink), batch_max=batch_max
    )
    engine.run_to_completion()
    stats = engine.stats
    assert sink.items == [(0, 1), (2, 3)]
    assert (source.stats["items_out"], defrag.stats["items_in"]) == (5, 4)
    assert stats.held == {defrag.name: 1}  # the 4, beside the EOS
    assert stats.retained == {}  # items_in counts at commit: not retained
    assert f"held in intakes: {defrag.name}=1" in stats.summary()


def test_an_even_stream_leaves_nothing_held():
    engine = Engine(
        pipeline(
            IterSource(range(6)), PullDefragmenter(), GreedyPump(),
            CollectSink(),
        )
    )
    engine.run_to_completion()
    assert engine.stats.held == {}
    assert "held" not in engine.stats.summary()


def test_held_items_follow_a_replaced_producer_and_reach_the_shard_report():
    from repro.core.items import NIL
    from repro.deploy.worker import done_payload
    from repro.runtime.restructure import replace_component

    old, new = PullDefragmenter(), PullDefragmenter()
    pipe = pipeline(IterSource([0, NIL, 1]), old, GreedyPump(), CollectSink())
    built = Pipeline.from_pipeline(pipe).build()
    built.engine.run_to_completion()  # the pull read the 0, then met NIL
    assert built.engine.stats.held == {old.name: 1}
    replace_component(built.engine, old, new)
    assert built.engine.stats.held == {new.name: 1}
    assert done_payload(0, built, 0.0, {})["stats"]["held"] == {new.name: 1}


# -- re-binding, and the source's entry bound raw ---------------------------


def test_recompiling_both_sections_of_a_shared_producer_keeps_its_reads(aborts):
    """Two sections compile the locked producer and bind its port twice;
    a recompilation mid-stream binds it twice more.  The one cursor and
    what the intake holds survive: nothing is lost or read twice, and
    the port still aborts and is fed (3 executions per output)."""
    defrag, router = CountingDefragmenter(), ActivityRouter()
    left, right = CollectSink(), CollectSink()
    graph = Graph()
    source, pump_l, pump_r = IterSource(range(40)), GreedyPump(), GreedyPump()
    for component in (source, defrag, router, pump_l, pump_r, left, right):
        graph.add(component)
    graph.connect(source.out_port, defrag.in_port)
    graph.connect(defrag.out_port, router.in_port)
    graph.connect(router.port("out0"), pump_l.in_port)
    graph.connect(router.port("out1"), pump_r.in_port)
    graph.connect(pump_l.out_port, left.in_port)
    graph.connect(pump_r.out_port, right.in_port)
    engine = Engine(graph)
    engine.start()
    engine.run(max_steps=15)
    assert 0 < len(left.items + right.items) < 20
    for driver in engine.pump_drivers:
        driver.compile_walkers()
    engine.run()
    assert sorted(left.items + right.items) == [
        (i, i + 1) for i in range(0, 40, 2)
    ]
    assert defrag.executions >= 3 * 20 and len(aborts) >= 2 * 20
    assert source.stats["items_out"] == defrag.stats["items_in"] == 40


@pytest.mark.parametrize("batch_max", [1, 32])
def test_a_raw_bound_source_entry_still_gives_birth_and_counts(batch_max):
    """With nothing between source and producer ``get()`` calls the
    source's own planted entry: every item is still born there, on the
    pump's thread, and the source's ``items_out`` is counted by the port."""
    source, sink = IterSource(range(400)), CollectSink()
    pipe = pipeline(
        source, PullDefragmenter(), GreedyPump(), PushDefragmenter(), sink
    )
    built = (
        Pipeline.from_pipeline(pipe).with_batching(batch_max)
        .with_tracing(sample_every=1).build()
    )
    built.engine.run_to_completion()
    traces = built.tracer.traces()
    assert len(traces) == source.stats["items_out"] == 400
    assert len(built.tracer.traces(DELIVERED)) == len(sink.items) == 100
    pump_thread = built.engine.thread_of(sink)
    assert {t.segments[0][:2] for t in traces} == {("service", pump_thread)}
