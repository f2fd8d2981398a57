"""Unit tests for the batching components."""

import pytest

from repro import CollectSink, GreedyPump, IterSource, api, pipeline
from repro.components.batch import (
    PullBatcher,
    PullUnbatcher,
    PushBatcher,
    PushUnbatcher,
)


@pytest.mark.parametrize("batcher_cls", [PushBatcher, PullBatcher])
@pytest.mark.parametrize("position", ["push", "pull"])
def test_batcher_groups_items(batcher_cls, position):
    src = IterSource(range(9))
    stage, pump, sink = batcher_cls(3), GreedyPump(), CollectSink()
    chain = ([src, pump, stage, sink] if position == "push"
             else [src, stage, pump, sink])
    api.Pipeline.from_pipeline(pipeline(*chain)).run()
    assert sink.items == [(0, 1, 2), (3, 4, 5), (6, 7, 8)]


@pytest.mark.parametrize("unbatcher_cls", [PushUnbatcher, PullUnbatcher])
@pytest.mark.parametrize("position", ["push", "pull"])
def test_unbatcher_flattens(unbatcher_cls, position):
    src = IterSource([(0, 1, 2), (3, 4)])
    stage, pump, sink = unbatcher_cls(), GreedyPump(), CollectSink()
    chain = ([src, pump, stage, sink] if position == "push"
             else [src, stage, pump, sink])
    api.Pipeline.from_pipeline(pipeline(*chain)).run()
    assert sink.items == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("batcher_cls,unbatcher_cls",
                         [(PushBatcher, PushUnbatcher),
                          (PullBatcher, PullUnbatcher)])
def test_batch_unbatch_roundtrip(batcher_cls, unbatcher_cls):
    src = IterSource(range(12))
    sink = CollectSink()
    pipe = pipeline(src, GreedyPump(), batcher_cls(4), unbatcher_cls(), sink)
    api.Pipeline.from_pipeline(pipe).run()
    assert sink.items == list(range(12))


def test_partial_trailing_batch_is_discarded():
    src = IterSource(range(7))
    sink = CollectSink()
    api.Pipeline.from_pipeline(
        pipeline(src, GreedyPump(), PushBatcher(3), sink)
    ).run()
    assert sink.items == [(0, 1, 2), (3, 4, 5)]


def test_size_validation():
    with pytest.raises(ValueError):
        PushBatcher(0)
    with pytest.raises(ValueError):
        PullBatcher(-1)


def test_coroutine_counts_mirror_defrag_rules():
    from repro import allocate

    # natural modes: direct calls
    src, sink = IterSource(range(4)), CollectSink()
    plan = allocate(pipeline(src, GreedyPump(), PushBatcher(2), sink))
    assert plan.sections[0].coroutine_count == 1
    src, sink = IterSource(range(4)), CollectSink()
    plan = allocate(pipeline(src, PullBatcher(2), GreedyPump(), sink))
    assert plan.sections[0].coroutine_count == 1
    # adapted modes: wrapper coroutines
    src, sink = IterSource(range(4)), CollectSink()
    plan = allocate(pipeline(src, PushBatcher(2), GreedyPump(), sink))
    assert plan.sections[0].coroutine_count == 2
