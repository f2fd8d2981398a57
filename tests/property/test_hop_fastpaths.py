"""A hop that cannot wait is a plain call, and behaves as the generator.

Three per-item hops skip a step when it can do nothing, and each must be
indistinguishable from taking it:

* **marshal** — an exact ``int`` or ``float`` is one ``struct`` pack and
  a 9-byte scalar chunk one unpack; the bytes and the values are the TLV
  walk's (:func:`repro.net.marshal._encode` / ``_decode``), edges,
  ``-0.0``, infinities and NaN payloads included, and what the walk
  refuses is still refused;
* **credit window** — with credits left, the walker
  :meth:`~repro.net.mux.MuxStream.windowed` returns yields and returns
  exactly what the sink walker does; on a spent window it parks, however
  the window moved since the walker was compiled;
* **gate wakes** — a gate with no waiter makes no wake generator, and a
  puller or pusher that does wait is still woken.

Each has a mutant twin that must fail it (SNIPPETS.md §1): a scalar test
keyed on ``isinstance`` (so ``True`` takes the int route), a window read
once at compile time, and a ``get`` that never wakes its pushers.
"""

import math
import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import Buffer, CollectSink, GreedyPump, IterSource, pipeline
from repro.components.buffers import EMPTY
from repro.core.events import EOS
from repro.errors import MarshalError
from repro.mbt.syscalls import Receive, Send, Work
from repro.net import InProcessLink, marshal
from repro.net.marshal import MAX_NESTING, decode_item, encode_item
from repro.net.mux import MuxStream, StreamMux
from repro.runtime.engine import Engine
from repro.runtime.section import BufferGate, ThreadCtx
from tests.integration import test_flow_fig1

# -- marshal ---------------------------------------------------------------


def tlv_encode(item) -> bytes:
    """The generic TLV walk, the fast path's oracle."""
    out = bytearray()
    marshal._encode(item, out, 0)
    return bytes(out)


def tlv_decode(data):
    item, offset = marshal._decode(data, 0, 0)
    assert offset == len(data)
    return item


int64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
#: Every double, NaN payloads and both zeros included, from its bits.
doubles = st.integers(0, 2**64 - 1).map(
    lambda raw: struct.unpack("!d", raw.to_bytes(8, "big"))[0]
)
scalars = st.one_of(
    int64, doubles, st.floats(allow_nan=True), st.booleans(), st.none(),
    st.lists(st.one_of(int64, st.booleans(), doubles), max_size=3),
)


def check_marshal(item) -> None:
    wire = encode_item(item)
    assert wire == tlv_encode(item), item
    for chunk in (wire, memoryview(bytearray(b"\0" + wire))[1:]):
        # Compared as TLV bytes, so NaN payloads and -0.0 count.
        assert tlv_encode(decode_item(chunk)) == tlv_encode(tlv_decode(wire))


@given(scalars)
@example(2**63 - 1)
@example(-(2**63))
@example(-0.0)
@example(math.inf)
@example(-math.inf)
@example(math.nan)
@example(True)
@example(False)
def test_a_scalar_marshals_as_the_tlv_walk(item):
    check_marshal(item)


def test_what_the_walk_refuses_is_still_refused():
    with pytest.raises(MarshalError, match="cannot marshal"):
        encode_item(2**63)
    with pytest.raises(MarshalError, match="cannot marshal"):
        encode_item(-(2**63) - 1)
    nested: list = []
    for _ in range(MAX_NESTING):
        nested = [nested]
    with pytest.raises(MarshalError, match="nested deeper"):
        encode_item(nested)


class ByIsinstance(dict):
    """The scalar table looked up by ``isinstance``, not by exact type."""

    def get(self, cls, default=None):
        for key, value in self.items():
            if issubclass(cls, key):
                return value
        return default


def test_a_scalar_test_keyed_on_isinstance_fails(monkeypatch):
    """Mutant twin: ``True`` is an ``int`` to ``isinstance`` and leaves
    with the int tag, not its own."""
    monkeypatch.setattr(
        marshal, "_SCALAR_ITEM", ByIsinstance(marshal._SCALAR_ITEM)
    )
    check_marshal(7)
    with pytest.raises(AssertionError):
        check_marshal(True)


# -- credit window ---------------------------------------------------------


class Ctx:
    """What a credit wait asks of its thread: its name and its wait."""

    thread_name = "pump:tx"
    wait = ThreadCtx.wait

    def __init__(self):
        self.events = []

    def dispatch_event_message(self, message):
        self.events.append(message)


def scripted(steps):
    """A sink walker that yields ``steps`` and returns what it was sent."""

    def walker(item):
        for step in steps:
            yield step
        return ("landed", item)

    return walker


def drive(gen):
    """``(yields, result)`` of a generator that is never answered."""
    yields = []
    try:
        while True:
            yields.append(gen.send(None))
    except StopIteration as stop:
        return yields, stop.value


def credited_stream(window: int) -> MuxStream:
    link = InProcessLink("a", "b", "fwd")
    return StreamMux(link).open_stream(1, credits=window)


steps = st.lists(
    st.one_of(st.floats(0.001, 1.0).map(Work), st.just(Send(None))),
    max_size=4,
)


@given(st.integers(1, 16), st.lists(st.integers(-4, 8), max_size=6), steps)
def test_an_open_window_is_the_sink_walker(window, moves, script):
    """Compiled once; the window then moves (sends spend it, grants
    refill it) and every call sees where it is now."""
    stream = credited_stream(window)
    walker = scripted(script)
    parked = stream.windowed(Ctx(), walker)
    for move in moves:
        stream.credits = window - move
        for item in (b"x", EOS):
            gen = parked(item)
            if stream.credits > 0 or item is EOS:
                assert drive(gen) == drive(walker(item))
            else:
                wait = next(gen, None)
                assert isinstance(wait, Receive), "a spent window let it by"
                assert wait.match.waiting_on == "consumer of stream-1 at b"
                assert stream.waiters == [Ctx.thread_name]
                stream.waiters.clear()


WINDOWED = MuxStream.windowed


def stale_windowed(self, ctx, walker):
    """Mutant twin of ``MuxStream.windowed``: the window is read once, at
    compile time, and a call trusts that reading."""
    wait = WINDOWED(self, ctx, walker)
    open_window = self.credits > 0

    def parked(arg):
        return walker(arg) if open_window or arg is EOS else wait(arg)

    return parked


def test_a_window_read_at_compile_time_fails(monkeypatch):
    monkeypatch.setattr(MuxStream, "windowed", stale_windowed)
    with pytest.raises(AssertionError):
        test_an_open_window_is_the_sink_walker.hypothesis.inner_test(
            8, [8], []
        )


# -- gate wakes ------------------------------------------------------------


def buffered(items: int, capacity: int, batch: int, ahead: int):
    """Figure 2 on one engine, its producer pump ``ahead`` priority
    levels above the consumer pump; returns the sink's items."""
    sink = CollectSink()
    engine = Engine(pipeline(
        IterSource(range(items)), GreedyPump(priority=ahead),
        Buffer(capacity), GreedyPump(), sink,
    ), batch_max=batch)
    engine.start()
    engine.run(max_steps=50_000)
    return sink.items


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 60), st.integers(1, 5), st.sampled_from([1, 3, 8]),
       st.sampled_from([0, 3]))
def test_a_waiting_puller_or_pusher_is_still_woken(
    items, capacity, batch, ahead
):
    """The consumer pump parks on the empty buffer, and a producer pump
    that runs ahead parks on the full one; every item still arrives."""
    assert buffered(items, capacity, batch, ahead) == list(range(items))


def get_without_pusher_wake(self, ctx, port="out"):
    """Mutant twin of ``BufferGate.get``: it skips the wake even while a
    pusher waits."""
    while True:
        status, item = self.buffer.try_pull(port)
        if status != EMPTY:
            return item
        self._pull_waiters.append(ctx.thread_name)
        yield from ctx.wait(self._waits[1])


def test_a_get_that_skips_a_waiting_pusher_fails(monkeypatch):
    """It fails the property above, and the buffered Figure-1 flow on the
    per-item walkers, whose jitter buffer fills.  (The golden Figure-1
    runs of ``test_fig1_pipeline.py`` / ``test_trace_stability.py`` never
    fill theirs, so they do not see it.)"""
    monkeypatch.setattr(BufferGate, "get", get_without_pusher_wake)
    with pytest.raises(AssertionError):
        test_a_waiting_puller_or_pusher_is_still_woken.hypothesis.inner_test(
            20, 2, 1, 3
        )
    with pytest.raises(AssertionError):
        test_flow_fig1.TestFlowFig1Acceptance().test_per_item_plane_agrees()
