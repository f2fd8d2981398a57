"""SocketLink: the real-socket transport behind multi-core deployment."""

import socket
import threading

import pytest

from repro.errors import MarshalError
from repro.net import InProcessLink, SocketLink


def collect(link):
    """Attach recording callbacks; returns (messages, frames, eos flag)."""
    state = {"messages": [], "frames": [], "eos": 0}
    link.on_deliver(
        lambda data: state["messages"].append(bytes(data)),
        lambda: state.__setitem__("eos", state["eos"] + 1),
        lambda frame: state["frames"].append(bytes(frame)),
    )
    return state


class TestSocketLinkPair:
    def test_data_messages_cross_the_pair(self):
        a, b = SocketLink.pair()
        state = collect(b)
        a.send(b"hello")
        a.send(b"world")
        assert b.pump() >= 1
        assert state["messages"] == [b"hello", b"world"]
        assert a.stats["sent"] == 2
        assert b.stats["delivered"] == 2

    def test_frames_arrive_as_frames(self):
        a, b = SocketLink.pair()
        state = collect(b)
        a.send_frame(b"\x00\x01coalesced-frame-bytes")
        b.pump()
        assert state["frames"] == [b"\x00\x01coalesced-frame-bytes"]
        assert state["messages"] == []

    def test_eos_is_delivered_once_and_idempotent(self):
        a, b = SocketLink.pair()
        state = collect(b)
        a.send_eos()
        a.send_eos()
        b.pump()
        assert state["eos"] == 1

    def test_large_payload_reassembles_across_recv_chunks(self):
        a, b = SocketLink.pair()
        state = collect(b)
        blob = bytes(range(256)) * 4096  # 1 MiB >> any recv() chunk
        # sendall of a payload larger than the kernel socket buffer only
        # finishes once the receiver drains — send from a thread.
        sender = threading.Thread(target=a.send, args=(blob,))
        sender.start()
        while not state["messages"]:
            b.wait(1.0)
            b.pump()
        sender.join()
        assert state["messages"] == [blob]
        assert b.stats["bytes_received"] >= len(blob)

    def test_interleaved_kinds_preserve_order_per_kind(self):
        a, b = SocketLink.pair()
        state = collect(b)
        a.send(b"one")
        a.send_frame(b"f1")
        a.send(b"two")
        a.send_eos()
        b.pump()
        assert state["messages"] == [b"one", b"two"]
        assert state["frames"] == [b"f1"]
        assert state["eos"] == 1

    def test_truncated_message_on_peer_close_raises(self):
        a, b = SocketLink.pair()
        collect(b)
        # Write a header promising more bytes than we send, then close.
        a._sendall(0, b"full-message")
        a._sock_out.sendall(b"\x00\x00\x00\x00\x10part")
        a.close()
        with pytest.raises(MarshalError):
            while True:
                b.pump()
                if b.peer_closed and not b._buf:
                    break

    def test_truncated_message_raises_from_a_bounded_pump_too(self):
        a, b = SocketLink.pair()
        state = collect(b)
        a._sendall(0, b"full-message")
        a._sock_out.sendall(b"\x00\x00\x00\x00\x10part")
        a.close()
        assert b.pump(1) == 1
        assert state["messages"] == [b"full-message"]
        with pytest.raises(MarshalError):
            b.pump(1)

    def test_bounded_pump_leaves_the_rest_in_the_kernel(self):
        """``pump(n)`` reads the socket only when its buffer holds no
        complete message, so a sender far ahead of the consumer ends up
        blocked in ``sendall`` instead of buffered here."""
        from repro.net.socketlink import _RECV_CHUNK

        a, b = SocketLink.pair()
        state = collect(b)
        messages = [bytes([i % 251]) * 1000 for i in range(2000)]  # 2 MB
        done = threading.Event()

        def producer():
            for message in messages:
                a.send(message)
            done.set()

        thread = threading.Thread(target=producer, daemon=True)
        thread.start()
        assert b.wait(5.0)
        assert b.pump(1) == 1
        assert len(b._buf) <= _RECV_CHUNK
        assert not done.wait(0.2)  # backpressured, not absorbed
        while len(state["messages"]) < len(messages):
            if not b.pump(7):
                b.wait(1.0)
            assert len(b._buf) <= _RECV_CHUNK + 1005
        thread.join(5)
        assert done.is_set() and state["messages"] == messages

    def test_clean_close_after_eos_is_not_an_error(self):
        a, b = SocketLink.pair()
        state = collect(b)
        a.send(b"payload")
        a.send_eos()
        a.close()
        b.pump()
        assert state["messages"] == [b"payload"]
        assert state["eos"] == 1
        assert b.peer_closed

    def test_wait_times_out_then_sees_data(self):
        a, b = SocketLink.pair()
        collect(b)
        assert b.wait(0.01) is False
        a.send(b"x")
        assert b.wait(1.0) is True


class TestSocketLinkTcp:
    def test_tcp_pair_carries_flow(self):
        a, b = SocketLink.tcp_pair()
        state = collect(b)
        a.send(b"over-tcp")
        a.send_eos()
        while not state["eos"]:
            b.wait(1.0)
            b.pump()
        assert state["messages"] == [b"over-tcp"]

    def test_threaded_producer(self):
        a, b = SocketLink.tcp_pair()
        state = collect(b)
        payloads = [bytes([i]) * 100 for i in range(50)]

        def produce():
            for payload in payloads:
                a.send(payload)
            a.send_eos()

        thread = threading.Thread(target=produce)
        thread.start()
        while not state["eos"]:
            b.wait(1.0)
            b.pump()
        thread.join()
        assert state["messages"] == payloads


class TestInProcessLink:
    def test_synchronous_delivery(self):
        link = InProcessLink("a", "b", "flow")
        state = collect(link)
        link.send(b"item")
        link.send_frame(b"frame")
        link.send_eos()
        assert state["messages"] == [b"item"]
        assert state["frames"] == [b"frame"]
        assert state["eos"] == 1
        assert link.pump() == 0

    def test_seeded_loss_is_deterministic(self):
        def run(seed):
            link = InProcessLink("a", "b", "flow", loss_rate=0.3, seed=seed)
            state = collect(link)
            for i in range(100):
                link.send(bytes([i]))
            return [m[0] for m in state["messages"]], link.stats["lost"]

        first, lost_first = run(7)
        again, lost_again = run(7)
        other, _ = run(8)
        assert first == again
        assert lost_first == lost_again > 0
        assert first != other

    def test_eos_is_never_lost(self):
        link = InProcessLink("a", "b", "flow", loss_rate=1.0, seed=1)
        state = collect(link)
        link.send(b"dropped")
        link.send_eos()
        assert state["messages"] == []
        assert state["eos"] == 1


class TestPartialWrites:
    """Short/partial-write behaviour around the coalescing threshold.

    ``_sendall`` folds payloads up to ``_COALESCE_LIMIT`` into the header
    send (one syscall / one skb); larger payloads go out as two writes,
    which the byte-stream reassembler must stitch back together even when
    ``recv`` returns arbitrary fragments.
    """

    def test_payload_straddling_coalesce_limit(self):
        from repro.net.socketlink import _COALESCE_LIMIT

        a, b = SocketLink.pair(bufsize=1 << 21)
        state = collect(b)
        sizes = [
            _COALESCE_LIMIT - 1, _COALESCE_LIMIT,      # coalesced path
            _COALESCE_LIMIT + 1, _COALESCE_LIMIT * 4,  # two-write path
            0, 1,
        ]
        payloads = [bytes([i % 251]) * n for i, n in enumerate(sizes)]
        for payload in payloads:
            a.send(payload)
        a.send_eos()
        while not state["eos"]:
            b.wait(1.0)
            b.pump()
        assert state["messages"] == payloads

    def test_header_split_across_recv_chunks(self):
        """Deliver the wire bytes one byte at a time: every header and
        payload boundary lands mid-``recv``, exercising reassembly."""
        raw_a, raw_b = socket.socketpair()
        a = SocketLink(sock_out=raw_a, sock_in=raw_a)
        b = SocketLink(sock_out=raw_b, sock_in=raw_b)
        state = collect(b)
        a.send(b"alpha")
        a.send_frame(b"beta")
        a.send_eos()
        import repro.net.socketlink as sl

        original = sl._RECV_CHUNK
        sl._RECV_CHUNK = 1
        try:
            while not state["eos"]:
                b.wait(1.0)
                b.pump()
        finally:
            sl._RECV_CHUNK = original
        assert state["messages"] == [b"alpha"]
        assert state["frames"] == [b"beta"]

    def test_large_burst_with_threaded_drain(self):
        """A burst far beyond any socket buffer: the producer thread
        blocks in ``sendall`` (kernel backpressure) until the consumer
        drains — nothing is lost, order is preserved."""
        a, b = SocketLink.pair()
        state = collect(b)
        payloads = [bytes([i % 256]) * 8192 for i in range(200)]

        def produce():
            for payload in payloads:
                a.send(payload)
            a.send_eos()

        thread = threading.Thread(target=produce)
        thread.start()
        while not state["eos"]:
            b.wait(1.0)
            b.pump()
        thread.join()
        assert state["messages"] == payloads

    def test_pair_bufsize_is_applied(self):
        a, b = SocketLink.pair(bufsize=1 << 20)
        # Kernels report doubled values (bookkeeping overhead); just
        # assert the knob moved the buffer well past the default.
        assert a._sock_out.getsockopt(
            socket.SOL_SOCKET, socket.SO_SNDBUF) >= (1 << 20)
        assert b._sock_in.getsockopt(
            socket.SOL_SOCKET, socket.SO_RCVBUF) >= (1 << 20)


class TestBidirectionalMux:
    """Satellite (d): interleaved bidirectional multi-stream traffic over
    ONE socketpair — both ends send and receive mux'd per-tenant streams
    concurrently (the shared-fabric-link deployment shape)."""

    def test_duplex_multi_stream_interleaving(self):
        from repro.net.mux import StreamMux

        left_link, right_link = SocketLink.pair(bufsize=1 << 22)
        left, right = StreamMux(left_link), StreamMux(right_link)
        n_streams, n_items = 16, 25
        l_rx = {}
        r_rx = {}
        for sid in range(n_streams):
            left.open_stream(sid)
            right.open_stream(sid)
            l_rx[sid] = collect(left.streams[sid])
            r_rx[sid] = collect(right.streams[sid])
        # Interleave: every iteration sends one item on every stream in
        # BOTH directions, pumping periodically so neither side's socket
        # buffer fills while the other holds the CPU.
        for i in range(n_items):
            for sid in range(n_streams):
                left.streams[sid].send(b"L%d.%d" % (sid, i))
                right.streams[sid].send(b"R%d.%d" % (sid, i))
            if i % 5 == 0:
                left.pump()
                right.pump()
        for sid in range(n_streams):
            left.streams[sid].send_eos()
            right.streams[sid].send_eos()
        for _ in range(100):
            left.pump()
            right.pump()
            if all(s["eos"] for s in l_rx.values()) and all(
                s["eos"] for s in r_rx.values()
            ):
                break
        for sid in range(n_streams):
            assert r_rx[sid]["messages"] == [
                b"L%d.%d" % (sid, i) for i in range(n_items)
            ]
            assert l_rx[sid]["messages"] == [
                b"R%d.%d" % (sid, i) for i in range(n_items)
            ]
            assert r_rx[sid]["eos"] == 1 and l_rx[sid]["eos"] == 1
        assert left.stats["unknown_stream_drops"] == 0
        assert right.stats["unknown_stream_drops"] == 0
