"""Property-based tests on the network substrate."""

from hypothesis import given, settings, strategies as st

from repro.mbt import Scheduler, VirtualClock
from repro.net import DatagramProtocol, Network, StreamProtocol


def make(seed, loss_rate, mtu=200):
    scheduler = Scheduler(clock=VirtualClock())
    network = Network(scheduler, seed=seed)
    network.add_link("a", "b", bandwidth_bps=10_000_000, delay=0.005,
                     loss_rate=loss_rate, queue_packets=10_000)
    return scheduler, network


messages = st.lists(st.binary(min_size=0, max_size=600), max_size=25)


@given(messages, st.integers(min_value=0, max_value=1000),
       st.floats(min_value=0.0, max_value=0.4))
@settings(max_examples=30, deadline=None)
def test_datagram_delivers_subset_without_corruption(sent, seed, loss):
    """Whatever is delivered is an uncorrupted, order-respecting (no
    jitter configured) subsequence of what was sent."""
    scheduler, network = make(seed, loss)
    protocol = DatagramProtocol(network, "f", "a", "b", mtu=200)
    received = []
    protocol.on_deliver(received.append, lambda: None)
    for message in sent:
        protocol.send(message)
    scheduler.run()

    assert len(received) <= len(sent)
    # subsequence check
    iterator = iter(sent)
    for message in received:
        for candidate in iterator:
            if candidate == message:
                break
        else:
            raise AssertionError(f"{message!r} delivered out of order "
                                 "or corrupted")


@given(messages, st.integers(min_value=0, max_value=1000),
       st.floats(min_value=0.0, max_value=0.3))
@settings(max_examples=20, deadline=None)
def test_stream_delivers_everything_in_order(sent, seed, loss):
    scheduler, network = make(seed, loss)
    protocol = StreamProtocol(network, "f", "a", "b",
                              retransmit_timeout=0.02, max_retries=200)
    received = []
    protocol.on_deliver(received.append, lambda: None)
    for message in sent:
        protocol.send(message)
    scheduler.run()
    assert received == sent


@given(st.integers(min_value=0, max_value=10_000),
       st.lists(st.integers(min_value=1, max_value=2000), max_size=20))
@settings(max_examples=30, deadline=None)
def test_link_conservation(seed, sizes):
    """sent == delivered + dropped for every link."""
    from repro.net.packets import Packet

    scheduler, network = make(seed, loss_rate=0.2)
    link = network.link("a", "b")
    network.register_receiver("c", lambda p: None)
    for index, size in enumerate(sizes):
        network.transmit("a", "b",
                         Packet(flow="c", seq=index, payload=b"x" * size))
    assert link.stats.sent == len(sizes)
    assert link.stats.sent == link.stats.delivered + link.stats.dropped
