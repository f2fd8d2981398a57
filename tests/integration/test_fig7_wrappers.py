"""Figure 7: generated coroutine wrappers.

"These restrictions can be avoided with middleware support that allows push
functions to be used in pull mode and vice-versa.  Our Infopipe middleware
generates glue code for this purpose and converts the functions into
coroutines."

(a) push-mode wrapper for a pull implementation:
    while (running) { x = this->pull(); next->push(x); }
(b) the converse wrapper lets a push implementation serve pulls.
"""

import pytest

from repro import (
    CollectSink,
    Consumer,
    GreedyPump,
    IterSource,
    Producer,
    allocate,
    api,
    pipeline,
)


class OnlyPull(Producer):
    """A component its author wrote for pull mode only."""

    def pull(self):
        return ("pulled", self.get())


class OnlyPush(Consumer):
    """A component its author wrote for push mode only."""

    def push(self, item):
        self.put(("pushed", item))


class TestPushModeWrapperForPull:
    def test_producer_usable_downstream_of_pump(self):
        stage, sink = OnlyPull(), CollectSink()
        pipe = pipeline(IterSource(range(3)), GreedyPump(), stage, sink)
        plan = allocate(pipe)
        # the wrapper is a coroutine: set of two
        assert plan.sections[0].coroutine_count == 2
        assert stage in plan.sections[0].coroutine_members
        api.Pipeline.from_pipeline(pipe).run()
        assert sink.items == [("pulled", 0), ("pulled", 1), ("pulled", 2)]


class TestPullModeWrapperForPush:
    def test_consumer_usable_upstream_of_pump(self):
        stage, sink = OnlyPush(), CollectSink()
        pipe = pipeline(IterSource(range(3)), stage, GreedyPump(), sink)
        plan = allocate(pipe)
        assert plan.sections[0].coroutine_count == 2
        assert stage in plan.sections[0].coroutine_members
        api.Pipeline.from_pipeline(pipe).run()
        assert sink.items == [("pushed", 0), ("pushed", 1), ("pushed", 2)]


class TestNoWrapperWhenStyleMatchesMode:
    def test_native_modes_stay_direct(self):
        puller, pusher = OnlyPull(), OnlyPush()
        sink = CollectSink()
        pipe = pipeline(
            IterSource(range(2)), puller, GreedyPump(), pusher, sink
        )
        plan = allocate(pipe)
        assert plan.sections[0].coroutine_count == 1
        api.Pipeline.from_pipeline(pipe).run()
        assert sink.items == [("pushed", ("pulled", 0)),
                              ("pushed", ("pulled", 1))]


class TestFunctionGlue:
    def test_conversion_function_usable_both_ways_without_coroutines(self):
        """'the glue code for the respective functions is simple:
        void push(item x) {next->push(fct(x));}
        item pull() {return fct(prev->pull(x));}'"""
        from repro import MapFilter

        for position in ("push", "pull"):
            f = MapFilter(lambda x: x + 100)
            sink, pump = CollectSink(), GreedyPump()
            chain = (
                [IterSource([1, 2]), pump, f, sink] if position == "push"
                else [IterSource([1, 2]), f, pump, sink]
            )
            pipe = pipeline(*chain)
            plan = allocate(pipe)
            assert plan.sections[0].coroutine_count == 1  # direct call
            api.Pipeline.from_pipeline(pipe).run()
            assert sink.items == [101, 102]


class TestMultiEmitThroughWrapper:
    def test_bursty_consumer_in_pull_mode(self):
        """A push implementation emitting 0 or 2 items per input still
        behaves correctly when wrapped for pull mode."""

        class Burst(Consumer):
            def push(self, item):
                if item % 2 == 0:
                    self.put(item)
                    self.put(item)

        sink = CollectSink()
        pipe = pipeline(IterSource(range(6)), Burst(), GreedyPump(), sink)
        api.Pipeline.from_pipeline(pipe).run()
        assert sink.items == [0, 0, 2, 2, 4, 4]
