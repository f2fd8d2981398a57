"""Unit tests for the simulated network and links."""

import pytest

from repro.errors import NetworkBindingError, RemoteError
from repro.mbt import Scheduler, VirtualClock
from repro.net import Link, Network, Packet


def make_net(seed=0):
    sched = Scheduler(clock=VirtualClock())
    return sched, Network(sched, seed=seed)


class TestTopology:
    def test_symmetric_link_creates_reverse(self):
        _, net = make_net()
        net.add_link("a", "b", delay=0.01)
        assert net.link("a", "b").delay == 0.01
        assert net.link("b", "a").delay == 0.01

    def test_asymmetric_link(self):
        _, net = make_net()
        net.add_link("a", "b", symmetric=False)
        with pytest.raises(RemoteError):
            net.link("b", "a")

    def test_unknown_link_rejected(self):
        _, net = make_net()
        with pytest.raises(RemoteError):
            net.link("x", "y")

    def test_nodes_recorded(self):
        _, net = make_net()
        net.add_link("a", "b")
        net.add_node("c")
        assert net.nodes == {"a", "b", "c"}


class TestDelivery:
    def test_packet_arrives_after_serialization_plus_delay(self):
        sched, net = make_net()
        net.add_link("a", "b", bandwidth_bps=8_000, delay=0.1, jitter=0.0)
        arrivals = []
        net.register_receiver("f", lambda p: arrivals.append(sched.now()))
        # 1000B payload + 28B header = 1028B -> 1.028 s at 8 kbit/s
        assert net.transmit("a", "b", Packet(flow="f", seq=0,
                                             payload=b"x" * 1000))
        sched.run_until_idle()
        assert arrivals[0] == pytest.approx(1.128, rel=0.01)

    def test_serialization_queues_back_to_back_packets(self):
        sched, net = make_net()
        net.add_link("a", "b", bandwidth_bps=80_000, delay=0.0)
        arrivals = []
        net.register_receiver("f", lambda p: arrivals.append(sched.now()))
        for i in range(3):
            net.transmit("a", "b", Packet(flow="f", seq=i, payload=b"x" * 972))
        sched.run_until_idle()
        # each packet is 1000B = 0.1s serialization; arrivals spaced 0.1s
        gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
        assert all(g == pytest.approx(0.1, rel=0.01) for g in gaps)

    def test_random_loss_rate(self):
        sched, net = make_net(seed=42)
        link = net.add_link("a", "b", loss_rate=0.3, queue_packets=10_000,
                            bandwidth_bps=1e9)
        net.register_receiver("f", lambda p: None)
        sent = 2000
        for i in range(sent):
            net.transmit("a", "b", Packet(flow="f", seq=i, payload=b"x"))
        loss = link.stats.dropped_random / sent
        assert 0.25 < loss < 0.35

    def test_queue_overflow_drops(self):
        sched, net = make_net()
        link = net.add_link("a", "b", bandwidth_bps=8_000, queue_packets=2)
        net.register_receiver("f", lambda p: None)
        outcomes = [
            net.transmit("a", "b", Packet(flow="f", seq=i, payload=b"x" * 500))
            for i in range(10)
        ]
        assert link.stats.dropped_queue > 0
        assert not all(outcomes)

    def test_jitter_bounds(self):
        sched, net = make_net(seed=1)
        net.add_link("a", "b", bandwidth_bps=1e9, delay=0.1, jitter=0.05)
        arrivals = []
        net.register_receiver("f", lambda p: arrivals.append(sched.now()))

        def send_spaced(i=0):
            if i >= 50:
                return
            net.transmit("a", "b", Packet(flow="f", seq=i, payload=b"x"))
            sched.after(1.0, lambda: send_spaced(i + 1))

        send_spaced()
        sched.run_until_idle()
        latencies = [t - i * 1.0 for i, t in enumerate(sorted(arrivals))]
        assert all(0.1 <= lat <= 0.15001 for lat in latencies)
        assert max(latencies) - min(latencies) > 0.005  # jitter is real

    def test_missing_receiver_raises(self):
        sched, net = make_net()
        net.add_link("a", "b")
        with pytest.raises(RemoteError):
            net.transmit("a", "b", Packet(flow="nobody", seq=0, payload=b""))

    def test_an_unbound_network_refuses_to_transmit(self):
        net = Network(seed=0)
        net.add_link("a", "b")
        net.register_receiver("f", lambda p: None)
        with pytest.raises(NetworkBindingError, match="runs on no scheduler"):
            net.transmit("a", "b", Packet(flow="f", seq=0, payload=b""))
        assert net.link("a", "b").stats.sent == 0

    def test_binding_is_once_per_scheduler(self):
        sched, net = make_net()
        net.bind(sched)  # its own again: a no-op
        assert net.scheduler is sched
        other = Scheduler()
        other.spawn("pump:elsewhere", lambda thread, message: None)
        with pytest.raises(NetworkBindingError) as raised:
            net.bind(other)
        # The error names both schedulers, each by what a reader matches:
        # its clock and time, and the threads it runs.
        assert repr(sched) != repr(other)
        assert repr(sched) in str(raised.value)
        assert "VirtualClock t=0 threads=1 (pump:elsewhere)" in str(raised.value)
        assert isinstance(raised.value, RemoteError)

    def test_a_network_names_its_seed_and_nodes(self):
        _, net = make_net(seed=7)
        net.add_link("b", "a")
        assert repr(net) == "<Network seed=7 nodes=['a', 'b']>"

    def test_duplicate_receiver_rejected(self):
        _, net = make_net()
        net.register_receiver("f", lambda p: None)
        with pytest.raises(RemoteError):
            net.register_receiver("f", lambda p: None)


class TestQosViews:
    def test_control_latency(self):
        _, net = make_net()
        net.add_link("a", "b", delay=0.025)
        assert net.control_latency("a", "b") == 0.025
        assert net.control_latency("a", "a") == 0.0
        assert net.rtt("a", "b") == pytest.approx(0.05)

    def test_link_stats_accumulate(self):
        sched, net = make_net()
        link = net.add_link("a", "b", bandwidth_bps=1e9)
        net.register_receiver("f", lambda p: None)
        net.transmit("a", "b", Packet(flow="f", seq=0, payload=b"xy"))
        assert link.stats.sent == 1
        assert link.stats.delivered == 1
        assert link.stats.bytes_delivered == 2 + 28
