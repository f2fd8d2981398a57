"""A spent credit window parks the pump: the sender is pushed back.

A ``credits=8`` stream is fed by ``IterSource(range(N)) >> MarshalFilter
>> GreedyPump >> sender`` on a session fabric, and its receiver never
drains.  The pump must park on the stream's credit wait, exactly as at a
full BLOCK buffer (paper §3.1), so:

* the sender emits at most the window plus one frame — a frame larger
  than what is left of the window still goes, overdrawing it once;
* the pump thread is parked on credit, and the stream holds no send;
* the traced memory peak does not grow with ``N``: 200 000 items peak
  within :data:`SLACK` bytes of 20 000.

Its mutant twins: a sink walker that sends on a spent window (no park),
and a stream that queues such sends locally, as streams used to.
"""

import tracemalloc

import pytest

from repro import GreedyPump, IterSource, pipeline
from repro.api import Pipeline
from repro.errors import RemoteError
from repro.fabric import SessionFabric
from repro.net import InProcessLink
from repro.net.marshal import MarshalFilter, decode_batch_views
from repro.net.mux import MuxStream, StreamMux
from repro.net.netpipe import make_netpipe_over

WINDOW = 8
#: What the peak at 10x the items may exceed the smaller run's by: the
#: run's constant costs wobble by a few KiB; queued sends would cost MBs.
SLACK = 64 * 1024


def undrained(items: int, batch: int):
    """Run the probe on a fabric; returns the tx stream, the data items
    the receiving side got, the scheduler and the traced peak."""
    forward = InProcessLink("a", "b", "fwd")
    reverse = InProcessLink("b", "a", "back")
    tx = StreamMux(forward, inbound=reverse)
    rx = StreamMux(reverse, inbound=forward)
    stream = tx.open_stream(1, credits=WINDOW)
    received = []
    rx.open_stream(1, credits=WINDOW).on_deliver(
        received.append, lambda: received.append("EOS"),
        lambda frame: received.extend(decode_batch_views(frame)),
    )

    def build():
        sender, _ = make_netpipe_over(stream)
        return pipeline(
            IterSource(range(items)), MarshalFilter(), GreedyPump(), sender
        )

    fabric = SessionFabric()
    spec = Pipeline.of(build)
    fabric.open_session(spec.with_batching(batch) if batch > 1 else spec,
                        name="tx")
    tracemalloc.start()
    try:
        fabric.run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return stream, received, fabric.scheduler, peak


def check_backpressure(batch: int) -> None:
    peaks = []
    for items in (20_000, 200_000):
        stream, received, scheduler, peak = undrained(items, batch)
        peaks.append(peak)
        # At most the window plus one frame left; none of it is EOS.
        assert 0 < len(received) <= WINDOW + batch
        assert "EOS" not in received
        # The pump is parked on the stream's credit wait, and named there.
        assert len(stream.waiters) == 1
        wait = scheduler.threads[stream.waiters[0]]._wait
        assert wait is not None and wait.match.waiting_on.startswith(
            "consumer of stream-1"
        )
        assert stream.stats["stalled"] == 1
    assert peaks[1] <= peaks[0] + SLACK, peaks


@pytest.mark.parametrize("batch", [1, 32])
def test_a_spent_window_parks_the_pump(batch):
    check_backpressure(batch)


def test_a_sink_that_sends_on_a_spent_window_fails(monkeypatch):
    """Mutant twin: the sink walker is not planted with the wait, so its
    send on the spent window crashes the pump — which the fabric
    contains to the session — and no pump is parked on credit."""
    monkeypatch.setattr(
        MuxStream, "windowed", lambda self, ctx, walker: walker
    )
    with pytest.raises(AssertionError):
        check_backpressure(1)
    _, _, scheduler, _ = undrained(4 * WINDOW, 1)
    error = scheduler.errors[-1][1]
    assert isinstance(error, RemoteError)
    assert "spent window" in str(error)


def test_a_stream_that_queues_past_the_window_fails(monkeypatch):
    """Mutant twin: the stream takes every send and queues the ones the
    window has no room for, off the link, instead of parking the pump."""
    queued: list = []
    send = MuxStream.send

    def queues(self, payload):
        if self.credits is not None and self.credits <= 0:
            queued.append(bytes(payload))
            return
        send(self, payload)

    monkeypatch.setattr(MuxStream, "windowed", lambda s, ctx, walker: walker)
    monkeypatch.setattr(MuxStream, "send", queues)
    with pytest.raises(AssertionError):
        check_backpressure(1)
