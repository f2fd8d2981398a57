"""Unit tests for the datagram and stream protocols."""

import pytest

from repro.mbt import Scheduler, VirtualClock
from repro.net import DatagramProtocol, Network, StreamProtocol


def make(protocol_cls, seed=0, mtu=1400, **link_kw):
    sched = Scheduler(clock=VirtualClock())
    net = Network(sched, seed=seed)
    link_defaults = dict(bandwidth_bps=10_000_000, delay=0.01)
    link_defaults.update(link_kw)
    net.add_link("a", "b", **link_defaults)
    proto = protocol_cls(net, "flow", "a", "b", mtu=mtu) \
        if protocol_cls is DatagramProtocol else \
        protocol_cls(net, "flow", "a", "b")
    received, eos = [], []
    proto.on_deliver(received.append, lambda: eos.append(True))
    return sched, net, proto, received, eos


class TestDatagram:
    def test_clean_link_delivers_in_order(self):
        sched, _, proto, received, _ = make(DatagramProtocol)
        for i in range(10):
            proto.send(f"msg-{i}".encode())
        sched.run()
        assert received == [f"msg-{i}".encode() for i in range(10)]

    def test_lossy_link_loses_messages(self):
        sched, _, proto, received, _ = make(
            DatagramProtocol, seed=3, loss_rate=0.3
        )
        for i in range(100):
            proto.send(b"%d" % i)
        sched.run()
        assert 40 < len(received) < 90
        # Counted as it happens, at the link, not inferred at the end.
        assert proto.stats["lost"] == 100 - len(received)

    def test_eos_delivered(self):
        sched, _, proto, received, eos = make(DatagramProtocol)
        proto.send(b"last")
        proto.send_eos()
        sched.run()
        assert received == [b"last"]
        assert eos == [True]  # duplicates suppressed

    def test_fragmentation_round_trip(self):
        sched, _, proto, received, _ = make(DatagramProtocol, mtu=100)
        big = bytes(range(256)) * 4  # 1024 bytes -> 11 fragments
        proto.send(big)
        sched.run()
        assert received == [big]

    def test_fragment_loss_loses_whole_message(self):
        sched, _, proto, received, _ = make(
            DatagramProtocol, seed=1, mtu=100, loss_rate=0.10,
            queue_packets=10_000,  # isolate random loss from queue drops
        )
        for i in range(50):
            proto.send(bytes([i]) * 1000)  # 10 fragments each
        sched.run()
        # survival probability ~0.9^10 ~ 35%; complete messages only
        assert 3 < len(received) < 40
        for message in received:
            assert len(message) == 1000
            assert len(set(message)) == 1  # no inter-message mixing
        # A message that lost several fragments is one lost payload.
        assert proto.stats["lost"] == 50 - len(received)

    def test_a_lost_frame_counts_the_items_it_carried(self):
        from repro.net.marshal import encode_batch

        sched, _, proto, received, _ = make(DatagramProtocol, loss_rate=1.0)
        # Three data items and a side chunk: the sender states 3.
        proto.send_frame(encode_batch([b"a", b"b", b"c", b"side"]), items=3)
        # A frame whose sender states nothing counts its chunks.
        proto.send_frame(encode_batch([b"d", b"e"]))
        proto.send(b"f")
        sched.run()
        assert received == []
        assert proto.stats["lost"] == 3 + 2 + 1

    def test_large_message_beats_small_message_odds(self):
        """Bigger messages lose more often — the I-frame effect."""
        sched, net, proto, received, _ = make(
            DatagramProtocol, seed=7, mtu=100, loss_rate=0.08
        )
        for i in range(300):
            if i % 2 == 0:
                proto.send(b"L" * 1500)  # 15 fragments
            else:
                proto.send(b"s" * 80)    # 1 fragment
        sched.run()
        large = sum(1 for m in received if m[:1] == b"L")
        small = sum(1 for m in received if m[:1] == b"s")
        assert small > large


class TestStream:
    def test_reliable_in_order_without_loss(self):
        sched, _, proto, received, _ = make(StreamProtocol)
        for i in range(20):
            proto.send(b"%d" % i)
        sched.run()
        assert received == [b"%d" % i for i in range(20)]

    def test_reliable_in_order_with_loss(self):
        sched, _, proto, received, _ = make(
            StreamProtocol, seed=11, loss_rate=0.2
        )
        for i in range(50):
            proto.send(b"%03d" % i)
        sched.run()
        assert received == [b"%03d" % i for i in range(50)]
        assert proto.stats["retransmits"] > 0

    def test_loss_becomes_latency_not_loss(self):
        # clean vs lossy: same delivery count, later completion.
        sched1, _, p1, r1, _ = make(StreamProtocol, seed=2, loss_rate=0.0)
        for i in range(30):
            p1.send(b"x")
        sched1.run()
        t_clean = sched1.now()

        sched2, _, p2, r2, _ = make(StreamProtocol, seed=2, loss_rate=0.3)
        for i in range(30):
            p2.send(b"x")
        sched2.run()
        t_lossy = sched2.now()
        assert len(r1) == len(r2) == 30
        assert p2.stats["retransmits"] > 0 and p2.stats["lost"] == 0
        assert t_lossy > t_clean

    def test_stream_eos_reliable(self):
        sched, _, proto, received, eos = make(
            StreamProtocol, seed=4, loss_rate=0.3
        )
        proto.send(b"data")
        proto.send_eos()
        sched.run()
        assert received == [b"data"]
        assert eos == [True]

    def test_stream_fragmentation(self):
        sched, _, proto, received, _ = make(StreamProtocol)
        proto.mtu = 64
        messages = [bytes([i]) * 200 for i in range(10)]
        for message in messages:
            proto.send(message)
        sched.run()
        assert received == messages
