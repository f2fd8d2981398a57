"""Unit tests for buffers and the zip buffer."""

import pytest

from repro.components.buffers import (
    EMPTY,
    FULL,
    OK,
    Buffer,
    OnEmpty,
    OnFull,
    ZipBuffer,
)
from repro.core.events import EOS, is_eos
from repro.core.items import NIL, is_nil
from repro.core.polarity import Mode, Polarity


class TestBufferBasics:
    def test_both_ends_passive(self):
        buf = Buffer()
        assert buf.in_port.mode is Mode.PUSH
        assert buf.out_port.mode is Mode.PULL
        assert buf.in_port.polarity is Polarity.NEGATIVE
        assert buf.out_port.polarity is Polarity.NEGATIVE

    def test_fifo_order(self):
        buf = Buffer(capacity=4)
        for i in range(3):
            assert buf.try_push(i) == OK
        assert [buf.try_pull()[1] for _ in range(3)] == [0, 1, 2]

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            Buffer(capacity=0)

    def test_fill_metrics(self):
        buf = Buffer(capacity=4)
        buf.try_push("x")
        buf.try_push("y")
        assert buf.fill_level == 2
        assert buf.fill_fraction == pytest.approx(0.5)
        assert not buf.is_full

    def test_typespec_props_reflect_policies(self):
        buf = Buffer(on_full=OnFull.DROP_NEW, on_empty=OnEmpty.NIL)
        out = buf.transform_typespec(
            __import__("repro.core.typespec", fromlist=["Typespec"]).Typespec()
        )
        assert out["on_full"] == "drop-new"
        assert out["on_empty"] == "nil"


class TestFullPolicies:
    def fill(self, buf):
        for i in range(buf.capacity):
            assert buf.try_push(i) == OK

    def test_block_reports_full(self):
        buf = Buffer(capacity=2, on_full=OnFull.BLOCK)
        self.fill(buf)
        assert buf.try_push(99) == FULL
        assert buf.fill_level == 2

    def test_drop_new_discards_incoming(self):
        buf = Buffer(capacity=2, on_full=OnFull.DROP_NEW)
        self.fill(buf)
        assert buf.try_push(99) == OK
        assert buf.stats["drops"] == 1
        assert [buf.try_pull()[1] for _ in range(2)] == [0, 1]

    def test_drop_old_evicts_head(self):
        buf = Buffer(capacity=2, on_full=OnFull.DROP_OLD)
        self.fill(buf)
        assert buf.try_push(99) == OK
        assert buf.stats["drops"] == 1
        assert [buf.try_pull()[1] for _ in range(2)] == [1, 99]


class TestEmptyPolicies:
    def test_block_reports_empty(self):
        buf = Buffer(capacity=2, on_empty=OnEmpty.BLOCK)
        status, item = buf.try_pull()
        assert status == EMPTY and item is None

    def test_nil_returns_nil_item(self):
        buf = Buffer(capacity=2, on_empty=OnEmpty.NIL)
        status, item = buf.try_pull()
        assert status == OK and is_nil(item)


class TestEosThroughBuffer:
    def test_eos_delivered_after_queued_data(self):
        buf = Buffer(capacity=4)
        buf.try_push(1)
        buf.try_push(EOS)
        assert buf.try_pull() == (OK, 1)
        status, item = buf.try_pull()
        assert status == OK and is_eos(item)

    def test_eos_delivered_once(self):
        buf = Buffer(capacity=4, on_empty=OnEmpty.NIL)
        buf.try_push(EOS)
        assert is_eos(buf.try_pull()[1])
        assert is_nil(buf.try_pull()[1])

    def test_flush_event_clears_items(self):
        from repro.core.events import Event

        buf = Buffer(capacity=4)
        buf.try_push(1)
        buf.try_push(2)
        buf.handle_event(Event(kind="flush"))
        assert buf.fill_level == 0
        assert buf.stats["drops"] == 2


class TestZipBuffer:
    def test_combines_one_item_per_input(self):
        zb = ZipBuffer(n_inputs=2)
        zb.try_push("a1", "in0")
        assert zb.try_pull()[0] == EMPTY
        zb.try_push("b1", "in1")
        assert zb.try_pull() == (OK, ("a1", "b1"))

    def test_three_inputs(self):
        zb = ZipBuffer(n_inputs=3)
        for port, value in (("in0", 1), ("in1", 2), ("in2", 3)):
            zb.try_push(value, port)
        assert zb.try_pull() == (OK, (1, 2, 3))

    def test_per_input_capacity(self):
        zb = ZipBuffer(n_inputs=2, capacity=2)
        assert zb.try_push(1, "in0") == OK
        assert zb.try_push(2, "in0") == OK
        assert zb.try_push(3, "in0") == FULL

    def test_eos_when_any_input_exhausted_and_drained(self):
        zb = ZipBuffer(n_inputs=2)
        zb.try_push(1, "in0")
        zb.try_push(EOS, "in0")
        zb.try_push(2, "in1")
        assert zb.try_pull() == (OK, (1, 2))
        status, item = zb.try_pull()
        assert is_eos(item)

    def test_nil_policy(self):
        zb = ZipBuffer(n_inputs=2, on_empty=OnEmpty.NIL)
        assert is_nil(zb.try_pull()[1])

    def test_validation(self):
        with pytest.raises(ValueError):
            ZipBuffer(n_inputs=1)
        with pytest.raises(ValueError):
            ZipBuffer(capacity=0)

    @staticmethod
    def zipped(left, right):
        from repro import CollectSink, GreedyPump, IterSource, Pipeline

        a, b = IterSource(left), IterSource(right)
        pa, pb = GreedyPump(), GreedyPump()
        zb = ZipBuffer(2)
        p3, sink = GreedyPump(), CollectSink()
        pipe = Pipeline([a, pa, b, pb, zb, p3, sink])
        pipe.connect(a.out_port, pa.in_port)
        pipe.connect(pa.out_port, zb.port("in0"))
        pipe.connect(b.out_port, pb.in_port)
        pipe.connect(pb.out_port, zb.port("in1"))
        pipe.connect(zb.out_port, p3.in_port)
        pipe.connect(p3.out_port, sink.in_port)
        return pipe, zb, sink

    def test_zip_buffer_in_pipeline(self):
        from repro import api

        pipe, _, sink = self.zipped([1, 2, 3], ["x", "y", "z"])
        api.Pipeline.from_pipeline(pipe).run()
        assert sink.items == [(1, "x"), (2, "y"), (3, "z")]

    def test_fill_level_is_the_total_and_the_engine_reports_it(self):
        """``fill_level`` is an int on every boundary; a zip's is what all
        its port queues hold, and ``stats.retained`` lists it."""
        from repro import Engine
        from repro.obs.flow import ZipLane, plant_lane

        pipe, zb, _ = self.zipped([], [])
        zb.try_push("a1", "in0")
        zb.try_push("a2", "in0")
        assert zb.fill_level == 2
        assert (zb.port_fill("in0"), zb.port_fill("in1")) == (2, 0)
        engine = Engine(pipe).setup()
        assert engine.stats.retained[zb.name] == 2
        assert zb.joins
        assert isinstance(plant_lane(engine, zb), ZipLane)
