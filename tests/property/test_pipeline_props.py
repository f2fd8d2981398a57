"""Property-based tests on pipeline invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    ActiveDefragmenter,
    Buffer,
    CollectSink,
    GreedyPump,
    IterSource,
    MapFilter,
    PredicateFilter,
    PushDefragmenter,
    PullDefragmenter,
    api,
    pipeline,
)
from repro.components.buffers import OnFull

item_lists = st.lists(st.integers(min_value=-1000, max_value=1000),
                      max_size=30)

defrag_styles = st.sampled_from(
    [PushDefragmenter, PullDefragmenter, ActiveDefragmenter]
)

positions = st.sampled_from(["push", "pull"])


@given(item_lists)
@settings(max_examples=30, deadline=None)
def test_identity_pipeline_preserves_items(items):
    sink = CollectSink()
    api.Pipeline.from_pipeline(
        pipeline(IterSource(items), GreedyPump(), sink)
    ).run()
    assert sink.items == items


@given(item_lists, defrag_styles, positions)
@settings(max_examples=40, deadline=None)
def test_defragmenter_pairs_any_input(items, style, position):
    """For any input, any style, any mode: output is the paired prefix."""
    src, pump, sink = IterSource(items), GreedyPump(), CollectSink()
    stage = style()
    chain = (
        [src, pump, stage, sink] if position == "push"
        else [src, stage, pump, sink]
    )
    api.Pipeline.from_pipeline(pipeline(*chain)).run()
    expected = [
        (items[i], items[i + 1]) for i in range(0, len(items) - 1, 2)
    ]
    assert sink.items == expected


@given(item_lists, st.integers(min_value=1, max_value=8))
@settings(max_examples=30, deadline=None)
def test_buffer_preserves_order_and_count_with_blocking(items, capacity):
    buf = Buffer(capacity=capacity, on_full=OnFull.BLOCK)
    sink = CollectSink()
    pipe = pipeline(
        IterSource(items), GreedyPump(), buf, GreedyPump(), sink
    )
    api.Pipeline.from_pipeline(pipe).run()
    assert sink.items == items
    assert buf.stats["drops"] == 0


@given(item_lists)
@settings(max_examples=30, deadline=None)
def test_filter_conservation(items):
    """kept + dropped == total for a predicate filter."""
    keep = PredicateFilter(lambda x: x % 3 == 0)
    sink = CollectSink()
    api.Pipeline.from_pipeline(
        pipeline(IterSource(items), GreedyPump(), keep, sink)
    ).run()
    assert len(sink.items) + keep.stats["dropped"] == len(items)
    assert sink.items == [x for x in items if x % 3 == 0]


@given(item_lists, st.integers(min_value=0, max_value=3))
@settings(max_examples=20, deadline=None)
def test_map_chain_composition(items, chain_length):
    """n mapped filters compose like function composition."""
    filters = [MapFilter(lambda x, k=k: x + k) for k in range(chain_length)]
    sink = CollectSink()
    api.Pipeline.from_pipeline(
        pipeline(IterSource(items), GreedyPump(), *filters, sink)
    ).run()
    offset = sum(range(chain_length))
    assert sink.items == [x + offset for x in items]


@given(st.lists(st.integers(), min_size=0, max_size=20),
       st.integers(min_value=1, max_value=5))
@settings(max_examples=20, deadline=None)
def test_stats_conservation_through_sections(items, capacity):
    src = IterSource(items)
    buf = Buffer(capacity=capacity)
    sink = CollectSink()
    pipe = pipeline(src, GreedyPump(), buf, GreedyPump(), sink)
    engine = api.Pipeline.from_pipeline(pipe).run().engine
    stats = engine.stats
    assert stats.items_in(sink.name) == len(items)
    assert stats.items_in(buf.name) == stats.items_out(buf.name) == len(items)
