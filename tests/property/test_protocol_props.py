"""Property-based tests for the transport protocols under adversarial
link conditions (satellite of the checking subsystem).

The existing network properties (test_network_props.py) cover loss on
well-behaved links.  Here the link also has *jitter*, which reorders
packets in flight — the condition under which retransmission and
reassembly bugs actually bite:

* ``StreamProtocol`` must still deliver every message, in order, exactly
  once, no matter how packets are lost, delayed or reordered;
* ``DatagramProtocol`` may drop but must never duplicate — not even when
  the same fragment arrives twice — and must never deliver a corrupted
  (partially reassembled) message.
"""

from hypothesis import given, settings, strategies as st

from repro.mbt import Scheduler, VirtualClock
from repro.net import DatagramProtocol, Network, StreamProtocol

MTU = 120


def make(seed, loss_rate, jitter):
    scheduler = Scheduler(clock=VirtualClock())
    network = Network(scheduler, seed=seed)
    network.add_link(
        "a", "b", bandwidth_bps=10_000_000, delay=0.005,
        jitter=jitter, loss_rate=loss_rate, queue_packets=10_000,
    )
    return scheduler, network


def unique_payloads(blobs):
    """Stamp each message with its index so every payload is distinct —
    a duplicate delivery is then unambiguously the protocol's fault.
    Payloads beyond the MTU exercise fragmentation and reassembly."""
    return [index.to_bytes(4, "big") + blob for index, blob in
            enumerate(blobs)]


messages = st.lists(st.binary(min_size=0, max_size=3 * MTU), max_size=20)
# The stream protocol fragments at the default MTU (1400): oversized
# payloads here force multi-fragment messages through the jittery link.
stream_messages = st.lists(st.binary(min_size=0, max_size=3500), max_size=12)
seeds = st.integers(min_value=0, max_value=1000)


@given(stream_messages, seeds,
       st.floats(min_value=0.0, max_value=0.3),
       st.floats(min_value=0.0, max_value=0.01))
@settings(max_examples=30, deadline=None)
def test_stream_survives_loss_and_reorder(blobs, seed, loss, jitter):
    """Everything sent arrives, in order, exactly once."""
    sent = unique_payloads(blobs)
    scheduler, network = make(seed, loss, jitter)
    protocol = StreamProtocol(network, "f", "a", "b",
                              retransmit_timeout=0.02, max_retries=200)
    received = []
    protocol.on_deliver(received.append, lambda: None)
    for message in sent:
        protocol.send(message)
    scheduler.run()
    assert received == sent


@given(messages, seeds,
       st.floats(min_value=0.0, max_value=0.4),
       st.floats(min_value=0.0, max_value=0.01))
@settings(max_examples=30, deadline=None)
def test_datagram_never_duplicates_or_corrupts(blobs, seed, loss, jitter):
    """Best effort may lose, but each message arrives at most once and
    only ever whole — a reordered or doubly-received fragment must not
    produce a duplicate or a franken-message."""
    sent = unique_payloads(blobs)
    scheduler, network = make(seed, loss, jitter)
    protocol = DatagramProtocol(network, "f", "a", "b", mtu=MTU)
    received = []
    protocol.on_deliver(received.append, lambda: None)
    for message in sent:
        protocol.send(message)
    scheduler.run()

    assert len(received) == len(set(received)), "duplicate delivery"
    assert set(received) <= set(sent), "corrupted delivery"


@given(messages, seeds, st.floats(min_value=0.0, max_value=0.4))
@settings(max_examples=20, deadline=None)
def test_datagram_eos_is_delivered_at_most_once(blobs, seed, loss):
    """EOS is sent redundantly (copies survive loss) yet the receiver
    must surface it at most once."""
    sent = unique_payloads(blobs)
    scheduler, network = make(seed, loss, jitter=0.005)
    protocol = DatagramProtocol(network, "f", "a", "b", mtu=MTU)
    eos_count = 0

    def on_eos():
        nonlocal eos_count
        eos_count += 1

    protocol.on_deliver(lambda m: None, on_eos)
    for message in sent:
        protocol.send(message)
    protocol.send_eos()
    scheduler.run()
    assert eos_count <= 1
