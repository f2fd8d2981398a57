"""Frame trains on the multiplexed link against the write-through route.

A :class:`~repro.net.mux.StreamMux` holds what its streams emit while
their scheduler dispatches, and what it emits inside its own ``pump()``,
and sends it as one link frame: the consecutive sends of one stream as
one ``MUX_FRAME`` record, the grants for one stream as one ``CREDIT``
record.  That is a transmission policy: it may not change any stream's
delivered item sequence, where its EOS falls or its credit window, every
record's bytes must stay readable by the per-chunk oracle
``decode_batch_views``, and hostile bytes on the shared link end in
``MarshalError`` or a counted drop — all or nothing per train, with no
allocation sized by a forged field.  The train properties each have a
mutant twin that must fail them.
"""

import struct
import tracemalloc
from collections import deque
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

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
from repro.net.protocols import FRAME_KIND

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


def encode_records(records) -> bytes:
    """``records_of`` backwards: one train of ``(kind, sid, arg, body)``."""
    chunks = []
    for kind, sid, arg, body in records:
        chunks.append(encode_stream_header(kind, sid, arg))
        if body is not None:
            chunks.append(body)
    return encode_batch(chunks)


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


class Queued(InProcessLink):
    """A link that keeps the trains it carries until its receiving end
    pumps, as a socket does."""

    def __init__(self, *args):
        super().__init__(*args)
        self.queue: deque = deque()

    def send_frame(self, payload, items=None):
        self.queue.append(bytes(payload))

    def pump(self):
        count = len(self.queue)
        while self.queue:
            self._receive(FRAME_KIND, self.queue.popleft())
        return count


class Run:
    """One tx mux and one rx mux over synchronous links (the forward one
    ``forward`` and the reverse one ``reverse`` if given), ``STREAMS``
    streams with the given window, consumers that drain when told to
    (``eager``: as their data arrives).  The senders are attached to
    ``scheduler``, the receivers to ``rx_scheduler``.

    Each stream's sends come from a pump, which parks rather than send
    on a spent window: the script's sends for a stream wait in
    ``parked`` — the pump's own program order, never inside the mux —
    and go as its window reopens."""

    def __init__(self, window, scheduler=None, reverse=None,
                 rx_scheduler=None, forward=None, eager=False):
        self.forward = Tap("a", "b", "fwd") if forward is None else forward
        if reverse is None:
            reverse = InProcessLink("b", "a", "back")
        self.reverse = reverse
        self.eager = eager
        self.tx = StreamMux(self.forward, inbound=reverse)
        self.rx = StreamMux(reverse, inbound=self.forward)
        self.delivered = {sid: [] for sid in range(STREAMS)}
        self.undrained = dict.fromkeys(range(STREAMS), 0)
        self.parked = {sid: deque() for sid in range(STREAMS)}
        self.closed: set[int] = set()
        for sid in range(STREAMS):
            sender = self.tx.open_stream(sid, credits=window)
            if scheduler is not None:
                sender.attach_scheduler(scheduler)
            receiver = self.rx.open_stream(sid, credits=window)
            if rx_scheduler is not None:
                receiver.attach_scheduler(rx_scheduler)
            receiver.on_deliver(
                lambda chunk, sid=sid: self.arrive(sid, [chunk]),
                lambda sid=sid: self.delivered[sid].append("EOS"),
                lambda frame, sid=sid: self.arrive(
                    sid, decode_batch_views(frame)
                ),
            )

    def arrive(self, sid, chunks):
        self.delivered[sid] += [bytes(chunk) for chunk in chunks]
        if self.eager:
            self.rx.streams[sid].note_drained(len(chunks))
        else:
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
            self.parked[sid].append((kind, arg))
            if kind == "eos":
                self.closed.add(sid)
        self.release()

    def release(self):
        """Every pump sends what it has while its window is open; EOS
        costs no credit."""
        for sid, ops in self.parked.items():
            stream = self.tx.streams[sid]
            while ops and (ops[0][0] == "eos" or stream.credits is None
                           or stream.credits > 0):
                kind, arg = ops.popleft()
                if kind == "send":
                    stream.send(arg)
                elif kind == "frame":
                    stream.send_frame(encode_batch(arg))
                else:
                    stream.send_eos()

    def settle(self):
        """Drain until no pump is parked."""
        for _ in range(1000):
            if not any(self.parked.values()):
                return
            self.drain()
            self.release()
        raise AssertionError("a pump never got its window back")


def write_through(script, window) -> Run:
    run = Run(window)
    for op in script:
        run.apply(op)
    run.settle()
    return run


def in_trains(script, window, side="tx") -> Run:
    """The same script with every stream of one ``side`` attached to a
    scheduler: each stretch between two ``idle`` ops runs inside one
    ``Scheduler.run`` (from a timer, so the stretch is one dispatch
    boundary to the next), the stretch after the last ``idle`` outside
    any run."""
    scheduler = Scheduler(clock=VirtualClock())
    if side == "tx":
        run = Run(window, scheduler)
    else:
        run = Run(window, reverse=Tap("b", "a", "back"),
                  rx_scheduler=scheduler)
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


def check_pump_releases(script, window):
    """Data reaches the receivers only when their mux pumps, and they
    drain it as it arrives: every pump that made grants sends them as
    exactly one link frame, and each stream still receives the
    write-through sequence with its EOS where it was."""
    want = write_through(script, window)
    run = Run(window, forward=Queued("a", "b", "fwd"),
              reverse=Tap("b", "a", "back"), eager=True)

    def pump():
        granted, trains = run.rx.stats["credits_sent"], len(run.reverse.trains)
        run.rx.pump()
        granted = run.rx.stats["credits_sent"] - granted
        assert len(run.reverse.trains) - trains == (1 if granted else 0)
        run.release()

    for op in script:
        if op[0] in ("drain", "idle"):
            pump()
        else:
            run.apply(op)
    for _ in range(1000):
        if not any(run.parked.values()) and not run.forward.queue:
            break
        pump()
    assert run.delivered == want.delivered


def check_one_grant_per_stream(script, window):
    """Receivers whose drains run inside a scheduler: a train holds at
    most one CREDIT record per stream, the grants the stream made while
    it was held summed in it, and at quiescence the window is whole."""
    got = in_trains(script, window, side="rx")
    assert got.delivered == write_through(script, window).delivered
    got.drain()
    carried = dict.fromkeys(range(STREAMS), 0)
    for train in got.reverse.trains:
        grants = [(sid, arg) for kind, sid, arg, _ in records_of(train)
                  if kind == MUX_CREDIT]
        assert len({sid for sid, _ in grants}) == len(grants)
        for sid, arg in grants:
            carried[sid] += arg
    for sid, sender in got.tx.streams.items():
        receiver = got.rx.streams[sid]
        assert carried[sid] == receiver.stats["credits_granted"]
        assert sender.credits + receiver._to_grant == window


@given(st.lists(ops, max_size=40), windows)
def test_a_pump_releases_as_one_frame(script, window):
    check_pump_releases(script, window)


@given(st.lists(ops, min_size=10, max_size=40), st.sampled_from([1, 2, 4, 8]))
@example(  # stream 0 drained twice in one stretch: two grants, one record
    [("send", 0, b"a"), ("drain", None, None), ("send", 0, b"b"),
     ("drain", None, None), ("idle", None, None)], 2,
)
def test_a_train_carries_one_summed_grant_per_stream(script, window):
    check_one_grant_per_stream(script, window)


def fails(prop, monkeypatch, patch):
    """The property test ``prop`` under the mutant ``patch``: its search
    must find a counterexample."""
    monkeypatch.setattr(StreamMux, *patch)
    mutant = settings(max_examples=300, deadline=None, derandomize=True,
                      database=None, report_multiple_bugs=False)(prop)
    with pytest.raises(AssertionError):
        mutant()


def test_a_write_through_release_fails_the_one_frame_pump(monkeypatch):
    """The mutant twin: the pump holds nothing, so each grant its
    deliveries make is a train of one, as before pumps gathered trains."""
    fails(test_a_pump_releases_as_one_frame, monkeypatch,
          ("pump", lambda self: self.inbound.pump()))


def test_a_merge_keeping_the_last_grant_fails(monkeypatch):
    """The mutant twin: a second grant for a stream overwrites the
    train's record instead of adding to it."""
    put = StreamMux._put

    def keeps_the_last(self, stream, kind, body=None, arg=0):
        grant = self._grants.get(stream.stream_id)
        if kind != MUX_CREDIT or grant is None:
            return put(self, stream, kind, body, arg)
        grant[2] = arg

    fails(test_a_train_carries_one_summed_grant_per_stream, monkeypatch,
          ("_put", keeps_the_last))


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
    return encode_records(
        (kind, sid, 3, body) for kind, sid, body in records
    )


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
    # A grant of no credit or less, anywhere in the train, for any id.
    records = records_of(train)
    records.insert(
        data.draw(st.integers(min_value=0, max_value=len(records))),
        (MUX_CREDIT, data.draw(st.integers(0, STREAMS + 1)),
         data.draw(st.integers(min_value=-(2**31), max_value=0)), None),
    )
    no_grant = encode_records(records)
    for bad in (
        train[:index] + bytes([value]) + train[index + 1:],
        train[:cut],
        train + bytes([value]),
        no_grant,
    ):
        mux, seen = receiving_mux()
        result = outcome(mux, bad)
        if bad is no_grant:
            assert result == "error"
        if result == "error":
            # Parsed whole before anything is delivered: no record of a
            # malformed train reached a stream or a counter.
            assert seen == []
            assert not any(mux.stats.values())
            assert mux.streams[0].credits == 4
        assert accounted(mux, seen)


@pytest.mark.parametrize("forged", [2**32 - 1, 2**31, 2**24 + 1])
@pytest.mark.parametrize(
    "field", ["train count", "header length", "payload length",
              "run count", "stream id", "credit", "negative credit"],
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
        "negative credit": credit + 6,
    }[field]
    value = {"credit": forged & 0x7FFFFFFF,
             "negative credit": forged | 1 << 31}.get(field, forged)
    struct.pack_into("!I", train, offset, value)
    mux, seen = receiving_mux()
    tracemalloc.start()
    try:
        result = outcome(mux, bytes(train))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert accounted(mux, seen)
    if field in ("train count", "header length", "payload length",
                 "negative credit"):
        assert result == "error" and seen == []
    if field.endswith("credit"):
        (grant,) = struct.unpack("!i", struct.pack("!I", value))
        # A grant of no credit or less is refused whole, never applied.
        assert (result == "error") == (grant <= 0)
        assert mux.streams[0].credits == 4 + max(grant, 0)
