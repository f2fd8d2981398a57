"""Buffer gates, netpipe-style external wakes, and segment locks."""

import gc
import sys

import pytest

from repro import (
    ActivityRouter,
    Buffer,
    CollectSink,
    GreedyPump,
    IterSource,
    MapFilter,
    MergeTee,
    Pipeline,
    api,
    pipeline,
)
from repro.runtime.section import SegmentLock, ThreadCtx
from repro.errors import RuntimeFault


class TestGates:
    def test_blocked_puller_wakes_when_item_arrives(self):
        # Producer section starts late; consumer blocks, then drains all.
        from repro import Engine, Event

        src, p1 = IterSource(range(4)), GreedyPump()
        buf, p2, sink = Buffer(capacity=8), GreedyPump(), CollectSink()
        pipe = pipeline(src, p1, buf, p2, sink)
        engine = Engine(pipe)
        engine.setup()
        engine.events.send_to(p2.name, Event(kind="start", source="t"))
        engine.run(max_steps=100)
        assert sink.items == []
        engine.events.send_to(p1.name, Event(kind="start", source="t"))
        engine.run()
        assert sink.items == [0, 1, 2, 3]

    def test_blocked_pusher_wakes_when_space_appears(self):
        from repro import Engine, Event

        src, p1 = IterSource(range(10)), GreedyPump()
        buf, p2, sink = Buffer(capacity=2), GreedyPump(), CollectSink()
        pipe = pipeline(src, p1, buf, p2, sink)
        engine = Engine(pipe)
        engine.setup()
        engine.events.send_to(p1.name, Event(kind="start", source="t"))
        engine.run(max_steps=300)
        assert buf.is_full
        engine.events.send_to(p2.name, Event(kind="start", source="t"))
        engine.run()
        assert sink.items == list(range(10))

    @pytest.mark.parametrize("batch_max", [1, 32])
    def test_flush_wakes_the_pusher_parked_on_a_full_buffer(self, batch_max):
        """A flush empties the buffer without any pull announcing the
        space: the gate must wake the parked pusher itself, or the
        section sleeps and the stream is silently truncated."""
        from repro import Engine, OnFull
        from repro.check import assert_no_deadlock

        buf, sink = Buffer(8, OnFull.BLOCK), CollectSink()
        pipe = pipeline(
            IterSource(range(120)), GreedyPump(priority=1), buf,
            GreedyPump(), MapFilter(lambda x: x, cost=0.01), sink,
        )
        engine = Engine(pipe, batch_max=batch_max)
        engine.start()
        engine.run(until=0.035)
        assert buf.is_full
        engine.send_event("flush")
        engine.run()
        assert buf.stats["drops"] == 8
        assert len(sink.items) == 112
        assert sink.items == sorted(set(sink.items))
        assert sink.items[-1] == 119
        assert engine.completed
        assert_no_deadlock(engine.scheduler, expect_idle=True)

    def test_buffer_high_watermark_tracked(self):
        buf = Buffer(capacity=8)
        pipe = pipeline(
            IterSource(range(20)), GreedyPump(), buf, GreedyPump(),
            CollectSink()
        )
        api.Pipeline.from_pipeline(pipe).run()
        assert 1 <= buf.stats["high_watermark"] <= 8


class TestSegmentLock:
    def test_release_by_non_holder_rejected(self):
        lock = SegmentLock("s")

        class FakeEngine:
            scheduler = None

        ctx = ThreadCtx(FakeEngine(), "t1")
        with pytest.raises(RuntimeFault):
            list(lock.release(ctx))

    def test_acquire_release_cycle(self):
        lock = SegmentLock("s")

        class FakeEngine:
            scheduler = None

        ctx = ThreadCtx(FakeEngine(), "t1")
        list(lock.acquire(ctx))
        assert lock.holder == "t1"
        list(lock.release(ctx))
        assert lock.holder is None

    @staticmethod
    def stalled_merge():
        """Two pumps through a merge into a full ``Buffer(2)`` whose
        consumer never starts: one pump holds the segment lock, parked on
        the buffer, and the other waits for the lock."""
        from repro import Engine, Event

        a, b = IterSource(range(20)), IterSource(range(20))
        pa, pb = GreedyPump(name="pa"), GreedyPump(name="pb")
        merge, buf = MergeTee(2, name="merge"), Buffer(2, name="tail")
        pump, sink = GreedyPump(name="p3"), CollectSink()
        pipe = Pipeline([a, pa, b, pb, merge, buf, pump, sink])
        pipe.connect(a.out_port, pa.in_port)
        pipe.connect(pa.out_port, merge.port("in0"))
        pipe.connect(b.out_port, pb.in_port)
        pipe.connect(pb.out_port, merge.port("in1"))
        pipe.connect(merge.out_port, buf.in_port)
        pipe.connect(buf.out_port, pump.in_port)
        pipe.connect(pump.out_port, sink.in_port)
        engine = Engine(pipe)
        engine.setup()
        for name in ("pa", "pb"):
            engine.events.send_to(name, Event(kind="start", source="t"))
        engine.run(max_steps=1_000)
        lock = engine.lock_for(merge)
        assert lock.holder is not None and len(lock._waiters) == 1
        return engine, lock

    def test_closing_the_holder_frees_the_lock_and_wakes_its_waiter(
            self, monkeypatch):
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        engine, lock = self.stalled_merge()
        holder, waiter = lock.holder, lock._waiters[0]
        engine.scheduler.threads[holder].clear_execution_state()
        assert lock.holder is None and not lock._waiters
        engine.run(max_steps=1_000)
        assert lock.holder == waiter  # woken: it took the lock, and parked
        del engine, lock
        gc.collect()
        assert unraisable == []

    def test_collecting_a_stalled_holder_raises_nothing(self, monkeypatch):
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        self.stalled_merge()
        gc.collect()
        assert unraisable == []


class TestSharedSegments:
    def test_merge_with_blocking_tail_keeps_items_intact(self):
        """Two pumps push through a shared merge+filter into a tiny buffer:
        the segment lock must prevent interleaving half-processed items."""
        a = IterSource([("a", i) for i in range(20)])
        b = IterSource([("b", i) for i in range(20)])
        pa, pb = GreedyPump(), GreedyPump()
        merge = MergeTee(2)
        tag = MapFilter(lambda item: (item[0], item[1], "tagged"))
        buf = Buffer(capacity=2)
        p3, sink = GreedyPump(), CollectSink()
        pipe = Pipeline([a, pa, b, pb, merge, tag, buf, p3, sink])
        pipe.connect(a.out_port, pa.in_port)
        pipe.connect(pa.out_port, merge.port("in0"))
        pipe.connect(b.out_port, pb.in_port)
        pipe.connect(pb.out_port, merge.port("in1"))
        pipe.connect(merge.out_port, tag.in_port)
        pipe.connect(tag.out_port, buf.in_port)
        pipe.connect(buf.out_port, p3.in_port)
        pipe.connect(p3.out_port, sink.in_port)
        api.Pipeline.from_pipeline(pipe).run()
        assert len(sink.items) == 40
        # Per-stream order preserved through the shared segment.
        a_items = [i for tagged, i, _ in sink.items if tagged == "a"]
        b_items = [i for tagged, i, _ in sink.items if tagged == "b"]
        assert a_items == list(range(20))
        assert b_items == list(range(20))

    def test_activity_router_feeds_two_sections_disjointly(self):
        src = IterSource(range(30))
        router = ActivityRouter(2)
        pa, pb = GreedyPump(max_items=15), GreedyPump(max_items=15)
        s1, s2 = CollectSink(), CollectSink()
        pipe = Pipeline([src, router, pa, pb, s1, s2])
        pipe.connect(src.out_port, router.in_port)
        pipe.connect(router.port("out0"), pa.in_port)
        pipe.connect(pa.out_port, s1.in_port)
        pipe.connect(router.port("out1"), pb.in_port)
        pipe.connect(pb.out_port, s2.in_port)
        api.Pipeline.from_pipeline(pipe).run()
        combined = sorted(s1.items + s2.items)
        assert combined == list(range(30))
        assert not (set(s1.items) & set(s2.items))
