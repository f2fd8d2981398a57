"""Property: the stock endpoints' run entries refine their per-item ones.

``IterSource`` / ``CountingSource`` / ``CollectSink`` / ``NullSink`` move a
run per call on the batched plane.  The oracle is the same pipeline built
from subclasses that override ``pull`` / ``push`` (which, by the one
lookup rule, forces the per-item loop): everything observable — sink
contents, per-component item counts, the pump's flush counters, how far
the source was drawn, the scheduler trace — must be equal.
"""

from hypothesis import given, settings, strategies as st

from repro import (
    CollectSink,
    CountingSource,
    Engine,
    GreedyPump,
    IterSource,
    NullSink,
    PullDefragmenter,
    pipeline,
)
from repro.check import trace_hash
from repro.core.items import NIL
from repro.mbt.scheduler import Scheduler


class PerItemIter(IterSource):
    def pull(self):
        return super().pull()


class PerItemCounting(CountingSource):
    def pull(self):
        return super().pull()


class PerItemCollect(CollectSink):
    def push(self, item):
        super().push(item)


class PerItemNull(NullSink):
    def push(self, item):
        super().push(item)


STOCK = {
    "iter": IterSource, "counting": CountingSource,
    "collect": CollectSink, "null": NullSink,
}
PER_ITEM = {
    "iter": PerItemIter, "counting": PerItemCounting,
    "collect": PerItemCollect, "null": PerItemNull,
}

data_streams = st.lists(st.integers(0, 999), max_size=100)
#: Streams with NIL inside: the pump goes quiescent at the first one, so
#: what matters is how much of the iterable was drawn by then.
nil_streams = st.lists(
    st.one_of(st.integers(0, 999), st.integers(0, 999), st.just(NIL)),
    max_size=40,
)
sources = st.one_of(
    st.tuples(st.sampled_from(["list", "generator"]), data_streams),
    st.tuples(st.sampled_from(["list", "generator"]), nil_streams),
    st.tuples(st.just("counting"), st.integers(0, 100)),
)
sinks = st.one_of(
    st.tuples(st.just("collect"), st.none() | st.integers(0, 60)),
    st.tuples(st.just("null"), st.none()),
)
scenarios = st.tuples(
    sources,
    sinks,
    st.booleans(),                       # PullDefragmenter over the source
    st.sampled_from([1, 8, 32]),         # batch_max
    st.none() | st.integers(1, 70),      # pump max_items (cuts mid-run)
)


def observe(scenario, classes):
    (source_kind, stream), (sink_kind, limit), defrag, batch_max, max_items = (
        scenario
    )
    drawn = [0]
    if source_kind == "counting":
        source = classes["counting"](stream, name="src")
    else:
        def one_shot():
            for item in stream:
                drawn[0] += 1
                yield item

        source = classes["iter"](
            one_shot() if source_kind == "generator" else stream, name="src"
        )
    if sink_kind == "collect":
        sink = classes["collect"](name="sink", limit=limit)
    else:
        sink = classes["null"](name="sink")
    stages = [source]
    if defrag:
        stages.append(PullDefragmenter(name="defrag"))
    stages += [GreedyPump(name="pump", max_items=max_items), sink]

    engine = Engine(pipeline(*stages), batch_max=batch_max,
                    scheduler=Scheduler(trace=True))
    engine.run_to_completion(max_steps=100_000)
    stats = engine.stats
    if source_kind == "counting":
        left = source._next
    else:
        left = (drawn[0], list(source._iterator))
    return {
        "sink": getattr(sink, "items", None),
        "components": stats.components,
        "batching": stats.batching,
        "cycles": stats.cycles,
        "nil_cycles": stats.nil_cycles,
        "completed": engine.completed,
        "left at quiescence": left,
        "trace": trace_hash(engine.scheduler._trace),
    }


@given(scenarios)
@settings(max_examples=150, deadline=None)
def test_run_route_equals_per_item_route(scenario):
    assert observe(scenario, STOCK) == observe(scenario, PER_ITEM)


def test_eos_inside_a_refill_over_an_odd_stream():
    """The producer-over-source case spelled out: the defragmenter's
    second ``get()`` meets EOS mid-pull (it calls the source per item,
    run entry or not) — the unpaired ``x`` is discarded on both routes."""
    scenario = (
        ("generator", list(range(67))), ("collect", None), True, 32, None
    )
    stock = observe(scenario, STOCK)
    assert stock == observe(scenario, PER_ITEM)
    assert stock["sink"] == [(i, i + 1) for i in range(0, 66, 2)]
    assert stock["components"]["src"]["items_out"] == 67
    assert stock["left at quiescence"] == (67, [])
    assert stock["completed"]
