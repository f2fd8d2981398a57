"""Frame trains on the multiplexed link against the write-through route.

A :class:`~repro.net.mux.StreamMux` holds what its streams emit while
their scheduler dispatches and sends it as one link frame, the
consecutive sends of one stream as one ``MUX_FRAME`` record.  That is a
transmission policy: it may not change any stream's delivered item
sequence or where its EOS falls, every record's bytes must stay readable
by the per-chunk oracle ``decode_batch_views``, and hostile bytes on the
shared link end in ``MarshalError`` or a counted drop — all or nothing
per train, with no allocation sized by a forged field.
"""

import struct
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from repro.errors import MarshalError
from repro.mbt import Scheduler, VirtualClock
from repro.net import InProcessLink
from repro.net import mux as mux_module
from repro.net.marshal import decode_batch_views, encode_batch
from repro.net.mux import (
    MUX_CREDIT,
    MUX_DATA,
    MUX_EOS,
    MUX_FRAME,
    StreamMux,
    decode_stream_header,
    encode_stream_header,
)

STREAMS = 4

payloads = st.binary(max_size=12)
stream_ids = st.integers(min_value=0, max_value=STREAMS - 1)
ops = st.one_of(
    st.tuples(st.just("send"), stream_ids, payloads),
    st.tuples(st.just("send"), stream_ids, payloads),  # twice as likely
    st.tuples(st.just("frame"), stream_ids,
              st.lists(payloads, min_size=1, max_size=4)),
    st.tuples(st.just("eos"), stream_ids, st.none()),
    st.tuples(st.just("drain"), st.none(), st.none()),
    st.tuples(st.just("idle"), st.none(), st.none()),
)
windows = st.sampled_from([None, 1, 2, 4, 8])
bounds = st.sampled_from([1, 60, 200, mux_module.TRAIN_BYTES])


def records_of(train: bytes) -> list[tuple]:
    """The test's own reading of a train: headers, each followed by the
    payload chunk its kind calls for."""
    chunks = iter(decode_batch_views(train))
    records = []
    for head in chunks:
        kind, stream_id, arg = decode_stream_header(head)
        body = bytes(next(chunks)) if kind in (MUX_DATA, MUX_FRAME) else None
        records.append((kind, stream_id, arg, body))
    return records


class Tap(InProcessLink):
    """A synchronous link that remembers every frame it carried."""

    def __init__(self, *args):
        super().__init__(*args)
        self.trains: list[bytes] = []

    def send_frame(self, payload):
        self.trains.append(bytes(payload))
        super().send_frame(payload)


class Run:
    """One tx mux and one rx mux over synchronous links, ``STREAMS``
    streams with the given window, consumers that drain when told to."""

    def __init__(self, window, scheduler=None):
        self.forward = Tap("a", "b", "fwd")
        reverse = InProcessLink("b", "a", "back")
        self.tx = StreamMux(self.forward, inbound=reverse)
        self.rx = StreamMux(reverse, inbound=self.forward)
        self.delivered = {sid: [] for sid in range(STREAMS)}
        self.undrained = dict.fromkeys(range(STREAMS), 0)
        self.closed: set[int] = set()
        for sid in range(STREAMS):
            sender = self.tx.open_stream(sid, credits=window)
            if scheduler is not None:
                sender.attach_scheduler(scheduler)
            self.rx.open_stream(sid, credits=window).on_deliver(
                lambda chunk, sid=sid: self.arrive(sid, [chunk]),
                lambda sid=sid: self.delivered[sid].append("EOS"),
                lambda frame, sid=sid: self.arrive(
                    sid, decode_batch_views(frame)
                ),
            )

    def arrive(self, sid, chunks):
        self.delivered[sid] += [bytes(chunk) for chunk in chunks]
        self.undrained[sid] += len(chunks)

    def drain(self):
        for sid, count in self.undrained.items():
            if count:
                self.undrained[sid] = 0
                self.rx.streams[sid].note_drained(count)

    def apply(self, op):
        kind, sid, arg = op
        if kind == "drain":
            self.drain()
        elif kind != "idle" and sid not in self.closed:
            stream = self.tx.streams[sid]
            if kind == "send":
                stream.send(arg)
            elif kind == "frame":
                stream.send_frame(encode_batch(arg))
            else:
                stream.send_eos()
                self.closed.add(sid)

    def settle(self):
        """Drain until nothing is pending anywhere."""
        for _ in range(1000):
            if not any(s.pending for s in self.tx.streams.values()):
                return
            self.drain()
        raise AssertionError("a stream never drained its pending sends")


def write_through(script, window) -> Run:
    run = Run(window)
    for op in script:
        run.apply(op)
    run.settle()
    return run


def in_trains(script, window) -> Run:
    """The same script with every stream attached to a scheduler: each
    stretch between two ``idle`` ops runs inside one ``Scheduler.run``
    (from a timer, so the stretch is one dispatch boundary to the next),
    the stretch after the last ``idle`` outside any run."""
    scheduler = Scheduler(clock=VirtualClock())
    run = Run(window, scheduler)
    stretch: list = []
    when = 0.0
    for op in script:
        if op[0] != "idle":
            stretch.append(op)
            continue
        when += 1.0
        scheduler.at(when, lambda ops=stretch: [run.apply(o) for o in ops])
        stretch = []
    scheduler.run()
    for op in stretch:
        run.apply(op)
    run.settle()
    return run


# -- (i) the coarser route refines the per-item one ----------------------------


@given(st.lists(ops, max_size=40), windows, bounds)
def test_each_stream_sees_the_write_through_sequence(script, window, bound):
    want = write_through(script, window)
    with mock.patch.object(mux_module, "TRAIN_BYTES", bound):
        got = in_trains(script, window)
    assert got.delivered == want.delivered
    for sid, items in got.delivered.items():
        assert "EOS" not in items[:-1]  # never overtakes data
    assert not got.tx._train
    for train in got.forward.trains:
        for kind, _sid, _arg, body in records_of(train):
            if kind == MUX_FRAME:
                decode_batch_views(body)  # the untouched oracle reads it
    # Write-through is a train of one, byte for byte the frame it was.
    for train in want.forward.trains:
        ((kind, sid, arg, body),) = records_of(train)
        chunks = [encode_stream_header(kind, sid, arg)]
        assert train == encode_batch(chunks + ([] if body is None else [body]))


@given(st.lists(ops, max_size=40), windows)
def test_trains_never_put_more_frames_on_the_link(script, window):
    want = write_through(script, window)
    got = in_trains(script, window)
    assert len(got.forward.trains) <= len(want.forward.trains)
    assert got.tx.stats["frames_sent"] <= want.tx.stats["frames_sent"]


@given(st.lists(ops, max_size=40), st.sampled_from([1, 2, 4, 8]))
def test_the_window_is_whole_again_at_quiescence(script, window):
    got = in_trains(script, window)
    got.drain()
    for sid, sender in got.tx.streams.items():
        receiver = got.rx.streams[sid]
        assert sender.credits + receiver._to_grant == window


# -- (ii) hostile bytes on the shared link ---------------------------------------


def receiving_mux():
    """A mux with streams 0..STREAMS-1 open (stream 0 credited, so CREDIT
    records act) and everything delivered collected per record."""
    mux = StreamMux(InProcessLink("a", "b", "rx"))
    seen = []
    for sid in range(STREAMS):
        mux.open_stream(sid, credits=4 if sid == 0 else None).on_deliver(
            lambda chunk, sid=sid: seen.append((sid, bytes(chunk))),
            lambda sid=sid: seen.append((sid, "EOS")),
            lambda frame, sid=sid: seen.append((sid, "frame", bytes(frame))),
        )
    return mux, seen


def outcome(mux, data):
    try:
        mux._rx_frame(data)
    except MarshalError:
        return "error"
    return "ok"


def accounted(mux, seen) -> bool:
    """Every record received was delivered, acted on as a credit, or
    counted as a drop."""
    stats = mux.stats
    return stats["frames_received"] == (
        len(seen) + stats["credits_received"] + stats["unknown_stream_drops"]
    )


valid_records = st.one_of(
    st.tuples(st.just(MUX_DATA), st.integers(0, STREAMS + 1), payloads),
    st.tuples(st.just(MUX_FRAME), st.integers(0, STREAMS + 1),
              st.lists(payloads, max_size=3).map(encode_batch)),
    st.tuples(st.just(MUX_EOS), st.integers(0, STREAMS + 1), st.none()),
    st.tuples(st.just(MUX_CREDIT), st.integers(0, STREAMS + 1), st.none()),
)


def build_train(records) -> bytes:
    chunks = []
    for kind, sid, body in records:
        chunks.append(encode_stream_header(kind, sid, arg=3))
        if body is not None:
            chunks.append(body)
    return encode_batch(chunks)


valid_trains = st.lists(valid_records, min_size=1, max_size=6).map(build_train)


@given(st.binary(max_size=96))
def test_arbitrary_bytes_end_in_marshal_error_or_a_counted_drop(data):
    mux, seen = receiving_mux()
    if outcome(mux, data) == "error":
        assert seen == [] and mux.stats["frames_received"] == 0
    assert accounted(mux, seen)


@given(valid_trains)
def test_a_valid_train_is_delivered_record_by_record(train):
    mux, seen = receiving_mux()
    assert outcome(mux, train) == "ok"
    assert mux.stats["frames_received"] == len(records_of(train))
    assert accounted(mux, seen)


@given(valid_trains, st.data())
def test_a_mutated_train_is_all_or_nothing(train, data):
    index = data.draw(st.integers(min_value=0, max_value=len(train) - 1))
    value = data.draw(st.integers(min_value=0, max_value=255))
    cut = data.draw(st.integers(min_value=0, max_value=len(train)))
    for bad in (
        train[:index] + bytes([value]) + train[index + 1:],
        train[:cut],
        train + bytes([value]),
    ):
        mux, seen = receiving_mux()
        if outcome(mux, bad) == "error":
            # Parsed whole before anything is delivered: no record of a
            # malformed train reached a stream or a counter.
            assert seen == []
            assert not any(mux.stats.values())
            assert mux.streams[0].credits == 4
        assert accounted(mux, seen)


@pytest.mark.parametrize("forged", [2**32 - 1, 2**31, 2**24 + 1])
@pytest.mark.parametrize(
    "field", ["train count", "header length", "payload length",
              "run count", "stream id", "credit"],
)
def test_a_forged_field_allocates_nothing_of_that_size(forged, field):
    run = encode_batch([b"%09d" % i for i in range(8)])
    train = bytearray(encode_batch([
        encode_stream_header(MUX_FRAME, 1), run,
        encode_stream_header(MUX_CREDIT, 0, arg=2),
    ]))
    # count | len 10 | header | len | run (count ...) | len 10 | header
    credit = 4 + 14 + 4 + len(run) + 4
    offset = {
        "train count": 0, "header length": 4, "payload length": 18,
        "run count": 22, "stream id": 4 + 4 + 2, "credit": credit + 6,
    }[field]
    struct.pack_into("!I", train, offset, forged & 0x7FFFFFFF
                     if field == "credit" else forged)
    mux, seen = receiving_mux()
    tracemalloc.start()
    try:
        result = outcome(mux, bytes(train))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert accounted(mux, seen)
    if field in ("train count", "header length", "payload length"):
        assert result == "error" and seen == []
    if field == "credit":
        assert mux.streams[0].credits == 4 + (forged & 0x7FFFFFFF)
