"""A lost credit grant ends in a named stall, not a silent hang.

Two fabrics are joined by a credited mux pair.  The link that carries the
grants back drops the first train holding a CREDIT record, so the sender
spends its window and never sees it refilled.  Its fabric's ``run()``
must still return — within a bounded number of steps, the pump parked on
its credit wait — and the deadlock detector must name what the pump
waits for: the consumer of that stream, at the peer.  The same holds for
a simulated two-shard deployment whose in-process links lose every grant
on the seam's stream.

Its mutant twin: a credit wait that declares no ``waiting_on`` leaves
the stall anonymous, and the naming assertion fails.

A parked pump still answers control events: a STOP sent while it waits
on the spent window is handled by its component.  The mutant twin is a
:meth:`~repro.runtime.section.ThreadCtx.wait` that does not dispatch
events (it fails ``tests/runtime/test_events_runtime.py`` too).
"""

import pytest

from repro import CollectSink, GreedyPump, IterSource, pipeline
from repro.check.deadlock import blocked_waits
from repro.core.events import STOP, Event
from repro.deploy import Deployment, Placement
from repro.deploy import deployment as deploy_module
from repro.deploy.worker import SEAM_WINDOW
from repro.fabric import SessionFabric
from repro.mbt.syscalls import Receive
from repro.net import InProcessLink, mux
from repro.net.marshal import (
    MarshalFilter,
    UnmarshalFilter,
    decode_batch_views,
)
from repro.net.mux import MUX_CREDIT, StreamMux, decode_stream_header
from repro.net.netpipe import make_netpipe_over
from repro.runtime import section
from repro.runtime.section import ThreadCtx
from tests.runtime.test_events_runtime import deaf_wait

WINDOW = 8
ITEMS = 40
#: Far more steps than the window's worth of items can take.
MAX_STEPS = 5_000


def carries_a_grant(train) -> bool:
    return any(
        len(chunk) and chunk[0] == mux.STREAM_CHUNK_MAGIC
        and decode_stream_header(chunk)[0] == MUX_CREDIT
        for chunk in decode_batch_views(train)
    )


class DropsFirstGrant(InProcessLink):
    """A reverse link that loses the first train carrying a grant."""

    def __init__(self, *args):
        super().__init__(*args)
        self.dropped = 0

    def send_frame(self, payload, items=None):
        if carries_a_grant(payload) and not self.dropped:
            self.dropped += 1
            return
        super().send_frame(payload, items)


class DropsEveryGrant(InProcessLink):
    """A link that loses every train carrying a grant."""

    dropped = 0

    def send_frame(self, payload, items=None):
        if carries_a_grant(payload):
            DropsEveryGrant.dropped += 1
            return
        super().send_frame(payload, items)


def check_lost_grant(stop: bool = False) -> None:
    forward = InProcessLink("shard-a", "shard-b", "fwd")
    reverse = DropsFirstGrant("shard-b", "shard-a", "back")
    tx = StreamMux(forward, inbound=reverse)
    rx = StreamMux(reverse, inbound=forward)
    t_stream = tx.open_stream(3, credits=WINDOW)
    r_stream = rx.open_stream(3, credits=WINDOW)
    sink, pump = CollectSink(), []

    def build_tx():
        sender, _ = make_netpipe_over(t_stream)
        pump.append(GreedyPump())
        return pipeline(
            IterSource(range(ITEMS)), MarshalFilter(), pump[0], sender
        )

    def build_rx():
        _, receiver = make_netpipe_over(r_stream)
        return pipeline(receiver, UnmarshalFilter(), GreedyPump(), sink)

    tx_fabric, rx_fabric = SessionFabric(), SessionFabric()
    tx_session = tx_fabric.open_session(build_tx, name="tx")
    rx_fabric.open_session(build_rx, name="rx")
    for _ in range(3):
        tx_fabric.run(max_steps=tx_fabric.scheduler.steps + MAX_STEPS)
        rx_fabric.run(max_steps=rx_fabric.scheduler.steps + MAX_STEPS)
    tx_fabric.run(max_steps=tx_fabric.scheduler.steps + MAX_STEPS)

    # The grant was lost: the window's items arrived and nothing more.
    assert reverse.dropped == 1
    assert sink.items == list(range(WINDOW))
    assert tx_fabric.scheduler.steps < MAX_STEPS  # quiescent, not spinning
    # The sending pump is parked on its credit wait, and the report names
    # the consumer it waits for.
    assert len(t_stream.waiters) == 1
    (wait,) = [
        info for info in blocked_waits(tx_fabric.scheduler)
        if info.thread == t_stream.waiters[0]
    ]
    assert wait.waiting_on == "consumer of stream-3 at shard-b", wait
    if not stop:
        return
    # A STOP to the parked pump reaches its component, and the pump
    # stays parked on the window.
    tx_session.engine.events.send_to(
        pump[0].name, Event(kind=STOP, source="test"))
    tx_fabric.run(max_steps=tx_fabric.scheduler.steps + MAX_STEPS)
    assert pump[0].running is False
    assert t_stream.waiters == [wait.thread]


SEAM_ITEMS = 20_000
SEAM_SRC = (
    f"counting(limit={SEAM_ITEMS}) >> greedy_pump >> buffer(64) >> "
    "greedy_pump >> collect"
)


def check_lost_grant_under_simulate(monkeypatch) -> None:
    monkeypatch.setattr(deploy_module, "InProcessLink", DropsEveryGrant)
    monkeypatch.setattr(DropsEveryGrant, "dropped", 0)
    engine = Deployment(SEAM_SRC, Placement.auto(2)).simulate()
    engine.start()
    engine.run(max_steps=MAX_STEPS * 20)

    # A window's worth of items crossed, and no grant came back.
    assert not engine.completed
    assert DropsEveryGrant.dropped >= 1
    items = engine.pipeline.component("collect-sink-1").items
    assert SEAM_WINDOW <= len(items) < SEAM_ITEMS
    assert items == list(range(len(items)))
    assert engine.scheduler.steps < MAX_STEPS * 20  # quiescent
    sender = engine.pipeline.component("buffer-1-wire-send")
    (parked,) = sender.protocol.waiters
    assert parked.endswith("greedy-pump-1")  # the upstream pump
    (wait,) = [
        info for info in blocked_waits(engine.scheduler)
        if info.thread == parked
    ]
    assert wait.waiting_on == "consumer of stream-0 at shard-1", wait


def test_a_lost_grant_is_a_named_stall():
    check_lost_grant()


def test_a_lost_grant_under_simulate_is_a_named_stall(monkeypatch):
    check_lost_grant_under_simulate(monkeypatch)


def test_a_pump_parked_on_a_spent_window_handles_a_stop():
    check_lost_grant(stop=True)


def test_a_wait_that_does_not_dispatch_events_fails(monkeypatch):
    """Mutant twin: the STOP reaches the parked pump's thread, which
    drops it."""
    monkeypatch.setattr(ThreadCtx, "wait", deaf_wait)
    with pytest.raises(AssertionError):
        check_lost_grant(stop=True)


def anonymous_credit_waits(monkeypatch):
    """Mutant twin: the labelled waits' predicates declare nothing."""
    monkeypatch.setattr(
        section, "Receive", lambda match: Receive(match=lambda m: match(m))
    )
    return pytest.raises(AssertionError, match="waiting_on=None")


def test_an_anonymous_credit_wait_fails(monkeypatch):
    with anonymous_credit_waits(monkeypatch):
        check_lost_grant()


def test_an_anonymous_credit_wait_fails_under_simulate(monkeypatch):
    with anonymous_credit_waits(monkeypatch):
        check_lost_grant_under_simulate(monkeypatch)
