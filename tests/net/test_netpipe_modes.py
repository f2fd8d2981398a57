"""Netpipe receiver policies and protocol edge cases."""

import pytest

from repro import (
    CollectSink,
    Engine,
    GreedyPump,
    IterSource,
    Pipeline,
    connect,
    is_nil,
)
from repro.components.buffers import EMPTY, OK, OnEmpty
from repro.mbt import Scheduler, VirtualClock
from repro.net import (
    DatagramProtocol,
    NetpipeReceiver,
    Network,
    Node,
    RemoteBinder,
    StreamProtocol,
)
from repro.net.packets import Packet


def make_world(**link_kw):
    scheduler = Scheduler(clock=VirtualClock())
    network = Network(scheduler, seed=3)
    defaults = dict(bandwidth_bps=10_000_000, delay=0.01)
    defaults.update(link_kw)
    network.add_link("a", "b", **defaults)
    return scheduler, network


class TestReceiverPolicies:
    def test_block_policy_reports_empty(self):
        _, network = make_world()
        receiver = NetpipeReceiver(DatagramProtocol(network, "f1", "a", "b"))
        assert receiver.try_pull() == (EMPTY, None)

    def test_nil_policy_returns_nil(self):
        _, network = make_world()
        receiver = NetpipeReceiver(
            DatagramProtocol(network, "f2", "a", "b"),
            on_empty=OnEmpty.NIL,
        )
        status, item = receiver.try_pull()
        assert status == OK and is_nil(item)

    def test_delivery_then_pull(self):
        _, network = make_world()
        protocol = DatagramProtocol(network, "f3", "a", "b")
        receiver = NetpipeReceiver(protocol)
        receiver._deliver(b"payload")
        assert receiver.try_pull() == (OK, b"payload")
        assert receiver.fill_level == 0

    def test_eos_after_queue_drains(self):
        from repro.core.events import is_eos

        _, network = make_world()
        protocol = DatagramProtocol(network, "f4", "a", "b")
        receiver = NetpipeReceiver(protocol)
        receiver._deliver(b"one")
        receiver._deliver_eos()
        assert receiver.try_pull() == (OK, b"one")
        status, item = receiver.try_pull()
        assert is_eos(item)


class TestProtocolEdgeCases:
    def test_duplicate_datagram_fragments_ignored(self):
        scheduler, network = make_world()
        protocol = DatagramProtocol(network, "dup", "a", "b", mtu=4)
        received = []
        protocol.on_deliver(received.append, lambda: None)
        packet = Packet(flow="dup", seq=0, payload=b"data", msg_seq=0,
                        frag_idx=0, frag_count=1)
        protocol._on_packet(packet)
        protocol._on_packet(packet)  # duplicate delivery
        assert received == [b"data"]

    def test_stream_reorder_buffer_handles_jitter(self):
        scheduler, network = make_world(jitter=0.05)
        protocol = StreamProtocol(network, "jit", "a", "b")
        received = []
        protocol.on_deliver(received.append, lambda: None)
        for i in range(30):
            protocol.send(b"%02d" % i)
        scheduler.run_until_idle()
        assert received == [b"%02d" % i for i in range(30)]

    def test_stream_gives_up_after_max_retries(self):
        from repro.errors import RemoteError, SchedulerError

        scheduler, network = make_world(loss_rate=1.0)  # black hole
        protocol = StreamProtocol(network, "void", "a", "b",
                                  retransmit_timeout=0.01, max_retries=3)
        protocol.on_deliver(lambda p: None, lambda: None)
        protocol.send(b"doomed")
        with pytest.raises(RemoteError):
            try:
                scheduler.run_until_idle()
            except SchedulerError as exc:  # pragma: no cover
                raise exc.__cause__ or exc

    def test_receiver_loss_sample_resets_window(self):
        _, network = make_world()
        protocol = DatagramProtocol(network, "loss", "a", "b")
        protocol.on_deliver(lambda p: None, lambda: None)
        for seq in (0, 1, 4):  # 2 and 3 lost
            protocol._on_packet(
                Packet(flow="loss", seq=seq, payload=b"", msg_seq=seq)
            )
        assert protocol.receiver_loss_sample() == pytest.approx(0.4)
        assert protocol.receiver_loss_sample() == 0.0


class TestNilReceiverPipeline:
    def test_clocked_consumer_skips_when_no_packets(self):
        scheduler, network = make_world(delay=0.5)  # high latency
        alpha, beta = Node("a", network), Node("b", network)
        src = alpha.place(IterSource(range(3)))
        sink = beta.place(CollectSink())
        from repro import ClockedPump

        pump2 = ClockedPump(100)
        consumer = Pipeline([pump2, sink])
        connect(pump2.out_port, sink.in_port)
        pipe = RemoteBinder(network).bind(
            src >> GreedyPump(), consumer, "a", "b", flow="slow",
            protocol="stream",
        )
        pipe.component("netpipe-recv-slow").on_empty = OnEmpty.NIL
        engine = Engine(pipe, scheduler=scheduler).attach_network(network)
        engine.start()
        engine.run(until=3.0)
        engine.stop()
        engine.run(max_steps=200_000)
        assert sink.items == [0, 1, 2]
        # the fast consumer pump idled through many nil cycles
        driver = next(d for d in engine.pump_drivers
                      if d.origin is pump2)
        assert driver.nil_cycles > 10
