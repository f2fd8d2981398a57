"""Swapping a producer, or the hop under one, keeps what was fetched.

What a producer's intake holds between pulls was fetched for the *slot*:
``replace_component`` hands it to the replacement's intake, and the
recompilation that follows rebinds every port's fetcher."""

import pytest

from repro import (
    CollectSink,
    Engine,
    GreedyPump,
    IterSource,
    MapFilter,
    PullDefragmenter,
    pipeline,
)
from repro.api import Pipeline
from repro.core.items import NIL
from repro.core.styles import Producer
from repro.errors import RuntimeFault
from repro.mbt.message import Message
from repro.runtime.bridge import NeedMoreInput, ReplayIntake
from repro.runtime.restructure import replace_component


class Alternating(Producer):
    """Every other output is a constant made without reading: the demand
    per output alternates 1, 0, 1, 0 ..."""

    def __init__(self):
        super().__init__()
        self.made = 0

    def pull(self):
        item = -1 if self.made % 2 else self.get()
        self.made += 1
        return item


def wake(engine, pump):
    """Give a greedy pump that went idle on a NIL the ``cycle`` a gate's
    wake would send it."""
    thread = engine.thread_of(pump)
    engine.scheduler.post(Message(kind="cycle", target=thread, sender="test"))


@pytest.mark.parametrize("batch_max", [1, 8, 32])
@pytest.mark.parametrize("pause_after", [5, 6, 8])
def test_swap_of_a_batched_producer_loses_nothing(batch_max, pause_after):
    """The deleted demand predictor parked an over-fetched item in the
    old producer's intake, and the swap dropped it (99 of 100 arrived)."""
    old, sink = Alternating(), CollectSink()
    engine = Engine(
        pipeline(IterSource(range(100)), old, GreedyPump(), sink),
        batch_max=batch_max,
    )
    engine.start()
    engine.run(max_steps=pause_after)
    assert 0 < len(sink.items) < 199
    replace_component(engine, old, MapFilter(lambda x: x))
    engine.run()
    assert [x for x in sink.items if x != -1] == list(range(100))


@pytest.mark.parametrize("batch_max", [1, 32])
def test_reads_of_a_nil_interrupted_pull_follow_the_slot(batch_max):
    old, new = PullDefragmenter(), PullDefragmenter()
    pump, sink = GreedyPump(), CollectSink()
    engine = Engine(
        pipeline(IterSource([0, NIL, 1, 2, 3]), old, pump, sink),
        batch_max=batch_max,
    )
    engine.run_to_completion()
    assert sink.items == [] and not engine.completed  # holding the 0
    replace_component(engine, old, new)
    wake(engine, pump)
    engine.run()
    assert sink.items == [(0, 1), (2, 3)] and engine.completed
    assert new.stats["items_in"] == 4 and old.stats["items_in"] == 0


def test_held_reads_need_a_producer_to_take_them_over():
    old, sink = PullDefragmenter(), CollectSink()
    engine = Engine(pipeline(IterSource([0, NIL, 1]), old, GreedyPump(), sink))
    engine.run_to_completion()
    with pytest.raises(RuntimeFault, match="holds 1 fetched item"):
        replace_component(engine, old, MapFilter(lambda x: (x, x)))
    assert not engine.restructure_log and old.in_port.connected


@pytest.mark.parametrize("batch_max", [1, 32])
def test_swapping_the_hop_under_a_direct_producer_rebinds_the_fetcher(
    batch_max,
):
    """Metrics + tracing compile the walkers twice and the swap once
    more; the producer's one intake calls whatever the last compilation
    bound — the new hop, from the seam on, with the item the old hop had
    already converted still in the intake."""
    hop, sink = MapFilter(lambda x: x), CollectSink()
    pump = GreedyPump()
    pipe = pipeline(
        IterSource([1, NIL, 2, 3, 4]), hop, PullDefragmenter(), pump, sink
    )
    built = (
        Pipeline.from_pipeline(pipe).with_batching(batch_max)
        .with_metrics().with_tracing(sample_every=1).build()
    )
    engine = built.engine
    engine.run_to_completion()
    assert sink.items == [] and hop.stats["items_out"] == 1
    replace_component(engine, hop, MapFilter(lambda x: -x))
    wake(engine, pump)
    engine.run()
    assert sink.items == [(1, -2), (-3, -4)] and engine.completed
    assert hop.stats["items_out"] == 1
    assert len(built.tracer.traces()) == 4


def test_a_port_that_stopped_being_plain_holds_no_fetcher():
    intake = ReplayIntake(["in"])
    intake.bind("in", iter([1, NIL]).__next__)
    intake.begin()
    assert intake.intake("in") == 1
    with pytest.raises(NeedMoreInput):  # upstream answered NIL
        intake.intake("in")
    intake.bind("in", None)
    intake.begin()
    assert intake.intake("in") == 1  # still buffered: nothing committed
    with pytest.raises(NeedMoreInput):  # and nothing to call
        intake.intake("in")
