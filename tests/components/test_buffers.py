"""Unit tests for buffers."""

import pytest

from repro.components.buffers import (
    EMPTY,
    FULL,
    OK,
    Buffer,
    OnEmpty,
    OnFull,
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
