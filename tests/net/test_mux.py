"""StreamMux: per-tenant stream multiplexing over one shared transport."""

import struct

import pytest

from repro.errors import MarshalError, RemoteError
from repro.net import InProcessLink, SocketLink
from repro.net.marshal import (
    STREAM_CHUNK_MAGIC,
    decode_batch_views,
    encode_batch,
)
from repro.net.mux import (
    MUX_CREDIT,
    MUX_DATA,
    MUX_EOS,
    MUX_FRAME,
    StreamMux,
    decode_stream_header,
    encode_stream_header,
)
from repro.net.protocols import Transport


def mux_pair():
    """Two muxes over a socketpair (duplex, both directions)."""
    a, b = SocketLink.pair(bufsize=1 << 22)
    return StreamMux(a), StreamMux(b)


def collect(stream):
    state = {"messages": [], "frames": [], "eos": 0}
    stream.on_deliver(
        lambda data: state["messages"].append(bytes(data)),
        lambda: state.__setitem__("eos", state["eos"] + 1),
        lambda frame: state["frames"].append(bytes(frame)),
    )
    return state


# ------------------------------------------------------------- header codec


class TestStreamHeader:
    def test_round_trip(self):
        chunk = encode_stream_header(MUX_DATA, 123456, arg=-7)
        assert chunk[0] == STREAM_CHUNK_MAGIC
        assert decode_stream_header(chunk) == (MUX_DATA, 123456, -7)

    def test_rejects_wrong_magic(self):
        with pytest.raises(MarshalError):
            decode_stream_header(b"\x00" * 10)

    def test_rejects_wrong_length(self):
        with pytest.raises(MarshalError):
            decode_stream_header(bytes([STREAM_CHUNK_MAGIC, 0, 0]))

    def test_stray_header_chunk_rejected_by_decode_item(self):
        from repro.net.marshal import decode_item

        with pytest.raises(MarshalError):
            decode_item(encode_stream_header(MUX_DATA, 1))


# ------------------------------------------------------------- routing


class TestRouting:
    def test_data_routes_to_its_stream(self):
        tx, rx = mux_pair()
        states = {}
        for sid in (1, 2, 3):
            tx.open_stream(sid)
            states[sid] = collect(rx.open_stream(sid))
        tx.streams[2].send(b"for-two")
        tx.streams[1].send(b"for-one")
        rx.pump()
        assert states[1]["messages"] == [b"for-one"]
        assert states[2]["messages"] == [b"for-two"]
        assert states[3]["messages"] == []

    def test_frames_route_and_reassemble_per_stream(self):
        tx, rx = mux_pair()
        tx.open_stream(9)
        state = collect(rx.open_stream(9))
        frame = encode_batch([b"item-a", b"item-b"])
        tx.streams[9].send_frame(frame)
        rx.pump()
        assert state["frames"] == [frame]

    def test_per_stream_eos_leaves_link_and_siblings_open(self):
        tx, rx = mux_pair()
        for sid in (1, 2):
            tx.open_stream(sid)
        s1, s2 = collect(rx.open_stream(1)), collect(rx.open_stream(2))
        tx.streams[1].send_eos()
        rx.pump()
        assert s1["eos"] == 1 and s2["eos"] == 0
        tx.streams[2].send(b"still-flowing")
        rx.pump()
        assert s2["messages"] == [b"still-flowing"]

    def test_send_after_eos_raises(self):
        tx, _ = mux_pair()
        stream = tx.open_stream(1)
        stream.send_eos()
        with pytest.raises(RemoteError):
            stream.send(b"late")

    def test_unknown_stream_is_counted_and_dropped(self):
        tx, rx = mux_pair()
        tx.open_stream(5).send(b"nobody-home")
        rx.pump()
        assert rx.stats["unknown_stream_drops"] == 1
        # ...and the link keeps working for known streams.
        tx.open_stream(6)
        state = collect(rx.open_stream(6))
        tx.streams[6].send(b"alive")
        rx.pump()
        assert state["messages"] == [b"alive"]

    def test_link_eos_fans_out_to_every_stream(self):
        tx, rx = mux_pair()
        states = []
        for sid in range(4):
            tx.open_stream(sid)
            states.append(collect(rx.open_stream(sid)))
        tx.send_link_eos()
        rx.pump()
        assert all(s["eos"] == 1 for s in states)

    def test_plain_message_on_muxed_link_rejected(self):
        a, b = SocketLink.pair()
        StreamMux(b)
        a.send(b"un-multiplexed")
        with pytest.raises(MarshalError):
            b.pump()

    def test_interleaved_bidirectional_streams(self):
        """Both directions of one socketpair carry multiple streams at
        once; each side's per-stream order is preserved."""
        left, right = mux_pair()
        l_states = {sid: collect(left.open_stream(sid)) for sid in (1, 2)}
        r_states = {sid: collect(right.open_stream(sid)) for sid in (1, 2)}
        for i in range(5):
            left.streams[1].send(b"l1-%d" % i)
            right.streams[2].send(b"r2-%d" % i)
            left.streams[2].send(b"l2-%d" % i)
            right.streams[1].send(b"r1-%d" % i)
        left.pump()
        right.pump()
        assert r_states[1]["messages"] == [b"l1-%d" % i for i in range(5)]
        assert r_states[2]["messages"] == [b"l2-%d" % i for i in range(5)]
        assert l_states[1]["messages"] == [b"r1-%d" % i for i in range(5)]
        assert l_states[2]["messages"] == [b"r2-%d" % i for i in range(5)]


# ------------------------------------------------------------- flow control


class TestFlowControl:
    def pair_with_credits(self, credits):
        tx, rx = mux_pair()
        sender = tx.open_stream(1, credits=credits)
        receiver = rx.open_stream(1, credits=credits)
        return tx, rx, sender, receiver

    def test_window_exhaustion_queues_locally(self):
        tx, rx, sender, receiver = self.pair_with_credits(3)
        state = collect(receiver)
        for i in range(8):
            sender.send(b"m%d" % i)
        assert sender.credits == 0
        assert len(sender.pending) == 5
        assert sender.stats["stalled"] == 5
        rx.pump()
        # Only the window's worth crossed the shared link.
        assert state["messages"] == [b"m0", b"m1", b"m2"]

    def test_note_drained_returns_credits_and_flushes(self):
        tx, rx, sender, receiver = self.pair_with_credits(3)
        state = collect(receiver)
        for i in range(8):
            sender.send(b"m%d" % i)
        rx.pump()
        receiver.note_drained(3)      # >= grant batch (3 // 2 = 1)
        tx.pump()                     # sender sees the credit frame
        rx.pump()                     # flushed messages arrive
        assert len(state["messages"]) >= 6
        while sender.pending:
            receiver.note_drained(2)
            tx.pump()
            rx.pump()
        assert state["messages"] == [b"m%d" % i for i in range(8)]

    def test_grants_are_batched(self):
        tx, rx, sender, receiver = self.pair_with_credits(8)
        collect(receiver)
        sender.send(b"x")
        rx.pump()
        receiver.note_drained(1)  # below batch (8 // 2 = 4): no frame yet
        assert rx.stats["credits_sent"] == 0
        receiver.note_drained(3)  # reaches 4: one credit frame
        assert rx.stats["credits_sent"] == 1
        tx.pump()
        assert sender.credits == 8 - 1 + 4

    def test_frame_cost_is_chunk_count(self):
        tx, rx, sender, receiver = self.pair_with_credits(5)
        collect(receiver)
        sender.send_frame(encode_batch([b"a", b"b", b"c"]))
        assert sender.credits == 2
        sender.send_frame(encode_batch([b"d", b"e", b"f"]))
        # Second frame overdraws the window once (3 > 2): allowed, so a
        # frame bigger than the remaining window can never deadlock.
        assert sender.credits == -1
        sender.send(b"g")
        assert sender.pending  # now the window really is shut

    def test_eos_waits_behind_pending_data(self):
        tx, rx, sender, receiver = self.pair_with_credits(1)
        state = collect(receiver)
        sender.send(b"first")
        sender.send(b"second")   # stalls
        sender.send_eos()        # must not overtake "second"
        rx.pump()
        assert state["messages"] == [b"first"]
        assert state["eos"] == 0
        receiver.note_drained(1)
        tx.pump()
        rx.pump()
        receiver.note_drained(1)
        tx.pump()
        rx.pump()
        assert state["messages"] == [b"first", b"second"]
        assert state["eos"] == 1

    def test_uncontrolled_stream_never_stalls(self):
        tx, rx = mux_pair()
        sender = tx.open_stream(1)          # credits=None
        state = collect(rx.open_stream(1))
        for i in range(100):
            sender.send(b"%d" % i)
        rx.pump()
        assert len(state["messages"]) == 100
        assert sender.stats["stalled"] == 0


# ------------------------------------------------------------- transports


class TestTransports:
    def test_over_in_process_links(self):
        """Unidirectional InProcessLinks: forward and reverse links make
        one duplex mux pair (the co-simulation twin of a socketpair)."""
        forward = InProcessLink("a", "b", "fabric")
        reverse = InProcessLink("b", "a", "fabric-back")
        left = StreamMux(forward, inbound=reverse)
        right = StreamMux(reverse, inbound=forward)
        left.open_stream(1)
        state = collect(right.open_stream(1))
        left.streams[1].send(b"hello")     # synchronous delivery
        assert state["messages"] == [b"hello"]

    def test_a_stream_and_its_mux_answer_the_io_source_interface(self):
        """What ``drive_with_io`` and a netpipe's feedback sensor ask of
        a transport, asked of a mux, one of its streams and both links:
        ``wait`` / ``pump`` / ``close`` and ``receiver_loss_sample``."""
        tx, rx = mux_pair()
        stream = tx.open_stream(1)
        state = collect(rx.open_stream(1))
        assert rx.wait(0.0) is False  # nothing on the wire yet
        stream.send(b"hello")
        assert rx.wait(5.0) is True
        assert rx.streams[1].pump() == 1  # a stream pumps the shared link
        assert state["messages"] == [b"hello"]
        for transport in (stream, tx.transport, InProcessLink("a", "b", "f")):
            assert transport.receiver_loss_sample() == 0.0
        stream.close()
        assert 1 not in tx.streams
        tx.close()
        rx.close()

        # The in-process twin: no wait(), and close() has nothing to free.
        link = InProcessLink("a", "b", "fabric")
        twin = StreamMux(link)
        assert twin.wait(0.0) is False
        assert twin.should_stop() is False  # a shared link ends no loop
        twin.close()

    def test_thousand_streams_one_socketpair(self):
        """The fabric acceptance shape: >= 1000 concurrent streams on ONE
        shared SocketLink, each with its own in-order delivery and EOS."""
        tx, rx = mux_pair()
        states = {}
        for sid in range(1000):
            tx.open_stream(sid)
            states[sid] = collect(rx.open_stream(sid))
        for sid in range(1000):
            tx.streams[sid].send(struct.pack("!I", sid))
            tx.streams[sid].send(struct.pack("!I", sid ^ 0xFFFF))
            if sid % 100 == 0:
                rx.pump()
        for sid in range(1000):
            tx.streams[sid].send_eos()
            if sid % 100 == 0:
                rx.pump()
        rx.pump()
        for sid in range(1000):
            assert states[sid]["messages"] == [
                struct.pack("!I", sid), struct.pack("!I", sid ^ 0xFFFF),
            ]
            assert states[sid]["eos"] == 1
        assert rx.stats["unknown_stream_drops"] == 0

    def test_netpipe_pair_over_mux_streams(self):
        """make_netpipe_over(stream) wires note_drained automatically:
        consuming from the receiving netpipe returns credits."""
        from repro.components.buffers import OnEmpty
        from repro.net.netpipe import make_netpipe_over

        tx, rx = mux_pair()
        s_tx = tx.open_stream(1, credits=2)
        s_rx = rx.open_stream(1, credits=2)
        sender, _ = make_netpipe_over(s_tx)
        _, receiver = make_netpipe_over(s_rx, on_empty=OnEmpty.NIL)
        for i in range(5):
            sender.protocol.send(b"p%d" % i)
        rx.pump()
        # Window of 2 crossed; drain them through the netpipe receiver.
        out = []
        for _ in range(2):
            status, item = receiver.try_pull()
            out.append(bytes(item))
        assert out == [b"p0", b"p1"]
        # Credits went back (2 drains >= batch of 1); flush the rest.
        tx.pump()
        rx.pump()
        status, item = receiver.try_pull()
        assert bytes(item) == b"p2"


# ------------------------------------------------------------- frame trains


class Wire(Transport):
    """A transport that keeps what it is asked to send."""

    def __init__(self):
        super().__init__("wire", "a", "b")
        self.sent = []

    def send_frame(self, payload, items=None):
        self.sent.append(bytes(payload))

    def send_eos(self):
        self.sent.append("eos")

    def close(self):
        self.sent.append("closed")


class Dispatch:
    """A scheduler the given streams are attached to, as their netpipe
    endpoints would attach them; calling it runs the bodies from inside
    thread dispatches, one message each."""

    def __init__(self, *streams):
        from repro.mbt import CONTINUE, Scheduler, VirtualClock

        def worker(thread, msg):
            msg.payload()
            return CONTINUE

        self.scheduler = Scheduler(clock=VirtualClock())
        self.scheduler.spawn("worker", worker)
        for stream in streams:
            stream.attach_scheduler(self.scheduler)

    def __call__(self, *bodies, **run):
        from repro.mbt import Message

        for body in bodies:
            self.scheduler.post(
                Message(kind="go", target="worker", payload=body)
            )
        self.scheduler.run(**run)


header = encode_stream_header


class TestTrains:
    def test_one_dispatch_leaves_as_one_link_frame_one_run_per_stream(self):
        tx, rx = mux_pair()
        s1, s2 = tx.open_stream(1), tx.open_stream(2)
        got1, got2 = collect(rx.open_stream(1)), collect(rx.open_stream(2))

        def burst():
            s1.send(b"a1")
            s1.send(b"a2")
            s2.send(b"b1")
            s1.send(b"a3")
            s2.send_eos()

        Dispatch(s1, s2)(burst)
        assert tx.transport.stats["frames_sent"] == 1   # the link: trains
        assert tx.stats["frames_sent"] == 4             # the mux: records
        rx.pump()
        assert rx.stats["frames_received"] == 4
        assert got1["frames"] == [encode_batch([b"a1", b"a2"])]
        assert got1["messages"] == [b"a3"]
        assert got2["messages"] == [b"b1"] and got2["eos"] == 1

    def test_train_layout_is_todays_records_back_to_back(self):
        wire = Wire()
        mux = StreamMux(wire)
        s1, s2 = mux.open_stream(1), mux.open_stream(2, credits=4)
        frame = encode_batch([b"f1", b"f2", b"f3"])

        def burst():
            s1.send(b"a1")
            s1.send(b"a2")
            s2.send_frame(frame)
            s2.send(b"b1")
            s2.note_drained(2)
            s1.send_eos()

        Dispatch(s1, s2)(burst)
        assert wire.sent == [encode_batch([
            header(MUX_FRAME, 1), encode_batch([b"a1", b"a2"]),
            header(MUX_FRAME, 2), frame,        # a send_frame stays itself
            header(MUX_DATA, 2), b"b1",         # a run of one stays DATA
            header(MUX_CREDIT, 2, arg=2),
            header(MUX_EOS, 1),
        ])]
        assert s2.credits == 0  # 3 for the frame, 1 for the send
        assert mux.stats["frames_sent"] == 5 and mux.stats["credits_sent"] == 1

    def test_outside_a_dispatch_a_record_is_a_train_of_one(self):
        """Attached or not: nobody dispatching, nothing held — and the
        bytes are the frame this record always was."""
        wire = Wire()
        mux = StreamMux(wire)
        attached, bare = mux.open_stream(1), mux.open_stream(2)
        Dispatch(attached)
        attached.send(b"x")
        bare.send(b"y")
        bare.send_eos()
        assert wire.sent == [
            encode_batch([header(MUX_DATA, 1), b"x"]),
            encode_batch([header(MUX_DATA, 2), b"y"]),
            encode_batch([header(MUX_EOS, 2)]),
        ]

    def test_an_unattached_stream_writes_through_inside_a_dispatch(self):
        wire = Wire()
        mux = StreamMux(wire)
        stream = mux.open_stream(1)
        seen = []

        def body():
            stream.send(b"x")
            seen.append(len(wire.sent))

        Dispatch()(body)
        assert seen == [1]

    @pytest.mark.parametrize(
        "exit_by", ["quiescence", "max_steps", "until", "error"]
    )
    def test_a_train_survives_every_exit_from_run(self, exit_by):
        from repro.errors import SchedulerError

        wire = Wire()
        mux = StreamMux(wire)
        stream = mux.open_stream(1)
        dispatch = Dispatch(stream)

        def first():
            stream.send(b"held")
            assert wire.sent == []
            if exit_by == "error":
                raise ValueError("boom")
            if exit_by == "until":
                dispatch.scheduler.clock.advance_to(2.0)

        def second():
            stream.send(b"next")

        run = {"max_steps": {"max_steps": 1}, "until": {"until": 1.0}}
        if exit_by == "error":
            with pytest.raises(SchedulerError):
                dispatch(first, second)
        else:
            dispatch(first, second, **run.get(exit_by, {}))
        if exit_by == "quiescence":  # both dispatches ran: a run of two
            record = [header(MUX_FRAME, 1), encode_batch([b"held", b"next"])]
        else:
            record = [header(MUX_DATA, 1), b"held"]
        assert wire.sent == [encode_batch(record)]

    def test_link_eos_and_close_flush_what_is_held_first(self):
        wire = Wire()
        mux = StreamMux(wire)
        stream = mux.open_stream(1)
        dispatch = Dispatch(stream)
        one = encode_batch([header(MUX_DATA, 1), b"x"])

        dispatch(lambda: (stream.send(b"x"), mux.send_link_eos()))
        assert wire.sent == [one, "eos"]
        del wire.sent[:]
        dispatch(lambda: (stream.send(b"x"), mux.close()))
        assert wire.sent == [one, "closed"]

    def test_byte_bound_caps_what_is_held(self, monkeypatch):
        from repro.net import mux as mux_module

        monkeypatch.setattr(mux_module, "TRAIN_BYTES", 100)
        tx, rx = mux_pair()
        stream = tx.open_stream(1)
        got = collect(rx.open_stream(1))
        held = []

        def burst():
            for i in range(12):
                stream.send(b"%020d" % i)
                held.append(tx._train_bytes)

        Dispatch(stream)(burst)
        assert max(held) < 100
        assert 1 < tx.transport.stats["frames_sent"] < 12
        rx.pump()
        items = [
            bytes(chunk)
            for frame in got["frames"] for chunk in decode_batch_views(frame)
        ]
        assert items == [b"%020d" % i for i in range(12)]

    def test_grants_ride_the_train_too(self):
        tx, rx = mux_pair()
        senders = [tx.open_stream(sid, credits=4) for sid in (1, 2)]
        receivers = [rx.open_stream(sid, credits=4) for sid in (1, 2)]
        for receiver in receivers:
            collect(receiver)
        for sender in senders:
            for _ in range(4):
                sender.send(b"x")
        rx.pump()
        Dispatch(*receivers)(
            lambda: [receiver.note_drained(4) for receiver in receivers]
        )
        assert rx.stats["credits_sent"] == 2
        assert rx.transport.stats["frames_sent"] == 1
        tx.pump()
        assert [sender.credits for sender in senders] == [4, 4]

    def test_close_stream_does_not_strand_or_pin_a_held_run(self):
        """What was sent before the close still reaches the wire, and the
        train names the stream by id only: nothing pins the closed stream
        and the flush that follows never touches it."""
        import gc

        tx, rx = mux_pair()
        got = collect(rx.open_stream(1))
        stream = tx.open_stream(1, credits=8)

        def body():
            for i in range(3):
                stream.send(b"m%d" % i)
            tx.close_stream(1)
            assert tx._train and tx.streams == {}
            holders = gc.get_referrers(stream)
            assert not any(h is r for h in holders for r in tx._train)
            assert tx._train not in holders

        Dispatch(stream)(body)
        assert tx._train == []
        rx.pump()
        assert got["frames"] == [encode_batch([b"m0", b"m1", b"m2"])]

    def test_a_malformed_train_delivers_none_of_its_records(self):
        _, rx = mux_pair()
        got = collect(rx.open_stream(1))
        chunks = [
            header(MUX_DATA, 1), b"one",
            header(MUX_EOS, 1),
            header(MUX_DATA, 1),           # ...and its payload is missing
        ]
        for bad in (
            encode_batch(chunks),
            encode_batch(chunks[:3] + [b"not-a-header"]),
            encode_batch(chunks[:3] + [header(7, 1)]),
            encode_batch(chunks[:3])[:-3],
            encode_batch([]),
        ):
            with pytest.raises(MarshalError):
                rx._rx_frame(bad)
        assert got == {"messages": [], "frames": [], "eos": 0}
        assert rx.stats["frames_received"] == 0
        rx._rx_frame(encode_batch(chunks[:3]))
        assert got == {"messages": [b"one"], "frames": [], "eos": 1}

    def test_a_record_whose_delivery_raises_spares_its_train_mates(self):
        tx, rx = mux_pair()
        s1, s2, s3 = (tx.open_stream(sid) for sid in (1, 2, 3))
        rx.open_stream(1)                  # nobody bound: delivery raises
        got3 = collect(rx.open_stream(3))  # 2 is unknown: counted, dropped
        Dispatch(s1, s2, s3)(
            lambda: (s1.send(b"x"), s2.send(b"y"), s3.send(b"z"))
        )
        with pytest.raises(RemoteError):
            rx.pump()
        assert got3["messages"] == [b"z"]
        assert rx.stats["unknown_stream_drops"] == 1
