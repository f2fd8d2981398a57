"""A pump's next cycle is not a message: ``Repost`` refines the message.

Inside a tenant's fair-quantum burst a greedy pump yields
:class:`~repro.mbt.syscalls.Repost` instead of posting itself a ``cycle``
message, and the scheduler runs the next cycle in the same generator when
``run()`` would have dispatched that message next anyway.  The claim is a
refinement in Philipps & Rumpe's sense, here an exact one: every step,
fair-share charge, dispatch and wire byte is what the message-per-cycle
schedule gives, and only ``messages_delivered`` falls.

The oracle is the message-per-cycle schedule itself: a test-only patch
that makes the scheduler decline every Repost, so each one is delivered
as a ``cycle`` message exactly as a ``Send`` would deliver it.  Each run
below is made twice, once with the real scheduler and once against that
oracle, and everything observable must match.  Its mutant twin is a
continuation that ignores a control event queued during the cycle.
"""

import pytest

from repro import (
    Buffer,
    CollectSink,
    GreedyPump,
    IterSource,
    MapFilter,
    pipeline,
)
from repro.api import Pipeline
from repro.check.faults import message_chaos
from repro.components.buffers import OnEmpty
from repro.components.frag import ActiveDefragmenter
from repro.core.events import EventScope
from repro.fabric import SessionFabric
from repro.mbt import Scheduler, VirtualClock
from repro.mbt.scheduler import _EPS
from repro.mbt.tracing import format_tail
from repro.net import SocketLink
from repro.net.marshal import MarshalFilter, UnmarshalFilter
from repro.net.mux import StreamMux
from repro.net.netpipe import make_netpipe_over


def decline_every_repost(monkeypatch):
    """The oracle: every Repost is delivered as its ``cycle`` message."""
    monkeypatch.setattr(
        Scheduler, "_takes_repost", lambda self, thread, request: False
    )


def ignores_queued_event(self, thread, request):
    """Mutant twin of ``Scheduler._takes_repost``: continues without
    looking at the mailbox, so a control event queued during the cycle
    waits behind the rest of the burst."""
    until, max_steps = self._limits
    return (
        self.delivery_interceptor is None
        and thread._current_message.constraint is request.constraint
        and (max_steps is None or self.steps < max_steps)
        and (until is None or self._clock_now() <= until + _EPS)
        and self._holds_burst(thread)
    )


def forgets_the_constraint(self, thread, request):
    """Mutant twin of ``Scheduler._takes_repost``: continues under the
    running message's constraint even when the Repost carries another."""
    until, max_steps = self._limits
    return (
        not thread.mailbox._heap
        and self.delivery_interceptor is None
        and (max_steps is None or self.steps < max_steps)
        and (until is None or self._clock_now() <= until + _EPS)
        and self._holds_burst(thread)
    )


# ---------------------------------------------------------------------------
# The fabric-mux shape: tx and rx fabrics joined by one multiplexed socket
# ---------------------------------------------------------------------------


def mux_fabrics(tenants, quantum, items=23, credits=4, cost=0.0,
                scheduler=None, spec=None):
    """``tenants`` flows, each a tx session and an rx session on their own
    fabric, over one socketpair.  Tx weights are mixed (1, 2, 3, ...).
    ``cost`` charges virtual CPU per item on the tx side (so an ``until``
    horizon means something); ``spec`` wraps each builder into a run
    spec; ``scheduler`` is the rx fabric's."""
    tx_link, rx_link = SocketLink.pair(bufsize=1 << 22)
    tx_mux, rx_mux = StreamMux(tx_link), StreamMux(rx_link)
    tx = SessionFabric(quantum=quantum)
    rx = SessionFabric(scheduler=scheduler, quantum=quantum)
    wrap = spec or (lambda build: build)
    sinks = {}
    for sid in range(tenants):
        t_stream = tx_mux.open_stream(sid, credits=credits)
        r_stream = rx_mux.open_stream(sid, credits=credits)

        def build_tx(stream=t_stream, sid=sid):
            sender, _ = make_netpipe_over(stream)
            return pipeline(
                IterSource(range(sid, sid + items + sid % 5)),
                MapFilter(lambda x: x, cost=cost), MarshalFilter(),
                GreedyPump(), sender,
            )

        def build_rx(stream=r_stream, sid=sid):
            _, receiver = make_netpipe_over(stream)
            sinks[sid] = CollectSink(name="sink")
            return pipeline(
                receiver, UnmarshalFilter(), GreedyPump(), sinks[sid]
            )

        tx.open_session(wrap(build_tx), name=f"tx{sid}", weight=1 + sid % 3)
        rx.open_session(wrap(build_rx), name=f"rx{sid}")
    return tx, rx, tx_mux, rx_mux, sinks


def observe(tx, rx, tx_mux, rx_mux, sinks):
    """Everything a run leaves that the Repost must not change."""
    seen = {"sinks": {sid: list(s.items) for sid, s in sinks.items()}}
    for side, fabric in (("tx", tx), ("rx", rx)):
        scheduler = fabric.scheduler
        seen[side] = {
            "steps": scheduler.steps,
            "switches": scheduler.context_switches,
            "fair_clock": scheduler._fair_clock,
            "tenants": {
                name: (tenant.dispatches, tenant.vtime)
                for name, tenant in scheduler._tenants.items()
            },
            "now": scheduler.now(),
            "cycles": {
                name: session.stats.total_cycles()
                for name, session in fabric.sessions.items()
            },
        }
    for side, mux in (("tx_mux", tx_mux), ("rx_mux", rx_mux)):
        seen[side] = {
            "mux": dict(mux.stats),
            "link": dict(mux.transport.stats),
            "streams": {
                sid: dict(stream.stats)
                for sid, stream in sorted(mux.streams.items())
            },
        }
    return seen


def step_rounds(tx, rx, tx_mux, rx_mux, steps, lifecycle=False,
                horizon=None):
    """Drive both fabrics in cumulative ``max_steps`` rounds (or rounds
    of an ``until`` horizon on the tx side).  With ``lifecycle`` the
    first flow's consumer is parked and unparked, and the last flow is
    closed, mid-run.  Returns the per-round trajectory."""
    trajectory = []
    last = max(int(name[2:]) for name in rx.sessions)
    for round_no in range(5000):
        if horizon is None:
            tx.run(max_steps=tx.scheduler.steps + steps)
        else:
            tx.run(until=horizon * (round_no + 1),
                   max_steps=tx.scheduler.steps + steps)
        tx_mux.pump()
        rx_mux.pump()
        rx.run(max_steps=rx.scheduler.steps + steps)
        if lifecycle and round_no == 2:
            rx.park("rx0")
        if lifecycle and round_no == 6:
            rx.unpark("rx0")
        if lifecycle and round_no == 4:
            tx.close_session(f"tx{last}")
            rx.close_session(f"rx{last}")
            tx_mux.close_stream(last)
            rx_mux.close_stream(last)
        trajectory.append((tx.scheduler.steps, rx.scheduler.steps,
                           tx.scheduler.now()))
        if rx.completed and (not lifecycle or round_no > 6):
            break
    else:
        raise AssertionError("the fabrics made no progress")
    return trajectory


def run_mux(tenants, quantum, steps, cost=0.0, **rounds):
    fabrics = mux_fabrics(tenants, quantum, cost=cost)
    trajectory = step_rounds(*fabrics[:4], steps, **rounds)
    tx, rx = fabrics[:2]
    delivered = (tx.scheduler.messages_delivered,
                 rx.scheduler.messages_delivered)
    return observe(*fabrics), trajectory, delivered


SCENARIOS = {
    "rounds": dict(steps=37),
    "lifecycle": dict(steps=29, lifecycle=True),
    "until": dict(steps=5000, horizon=0.0031, cost=1e-4),
}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("quantum", [1, 8])
@pytest.mark.parametrize("tenants", [2, 5, 12])
def test_repost_refines_the_message_per_cycle_schedule(
    monkeypatch, tenants, quantum, scenario
):
    real = run_mux(tenants, quantum, **SCENARIOS[scenario])
    with monkeypatch.context() as patch:
        decline_every_repost(patch)
        oracle = run_mux(tenants, quantum, **SCENARIOS[scenario])
    seen, trajectory, delivered = real
    assert seen == oracle[0]
    assert trajectory == oracle[1]
    if scenario != "lifecycle":
        for sid, items in seen["sinks"].items():
            assert items == list(range(sid, sid + 23 + sid % 5))
    if quantum == 1:
        assert delivered == oracle[2]
    else:
        assert all(mine < theirs for mine, theirs in zip(delivered, oracle[2]))


# ---------------------------------------------------------------------------
# Ordering: a control event queued during a cycle runs before the next one
# ---------------------------------------------------------------------------


class Marker(MapFilter):
    """Sends a ``mark`` control event downstream as item ``at`` passes."""

    events_sent_downstream = frozenset({"mark"})

    def __init__(self, at):
        super().__init__(lambda item: item, name="marker")
        self.at = at

    def convert(self, item):
        if item == self.at:
            self.send_event("mark", scope=EventScope.DOWNSTREAM)
        return item


class MarkingSink(CollectSink):
    """Records the ``mark`` event in its item stream, where it ran."""

    events_handled = frozenset({"mark"})

    def on_mark(self, event):
        self.items.append("mark")


def marked_streams(tenants=6, items=30):
    fabric = SessionFabric(quantum=8)
    sinks = []
    for sid in range(tenants):
        def build(sid=sid):
            sinks.append(MarkingSink(name="sink"))
            return pipeline(
                IterSource(range(items)), GreedyPump(), Marker(3 + sid),
                sinks[-1],
            )

        fabric.open_session(build, name=f"t{sid}", weight=1 + sid % 2)
    fabric.run_to_completion()
    return [sink.items for sink in sinks], fabric.scheduler


def in_order(tenants=6, items=30):
    """The mark lands right behind the item whose cycle sent it."""
    streams = []
    for sid in range(tenants):
        stream = list(range(items))
        stream.insert(3 + sid + 1, "mark")
        streams.append(stream)
    return streams


def test_a_queued_control_event_runs_before_the_next_cycle(monkeypatch):
    streams, scheduler = marked_streams()
    assert streams == in_order()
    with monkeypatch.context() as patch:
        decline_every_repost(patch)
        oracle_streams, oracle = marked_streams()
    assert oracle_streams == streams
    assert oracle.steps == scheduler.steps
    assert scheduler.messages_delivered < oracle.messages_delivered


def test_mutant_that_ignores_the_queued_event_fails_the_ordering(
    monkeypatch
):
    monkeypatch.setattr(Scheduler, "_takes_repost", ignores_queued_event)
    streams, _ = marked_streams()
    assert streams != in_order()


def woken_and_metered(tenants=3):
    """Prioritized greedy pumps whose consumer drains a NIL-policy buffer
    faster than a CPU-charging producer fills it, so it waits and its
    buffer's gate wakes it with an unconstrained ``cycle``; its section
    crosses into a coroutine, whose requests inherit the constraint of
    the message the pump is running."""
    fabric = SessionFabric(quantum=8)
    sessions = []
    for sid in range(tenants):
        def build():
            return pipeline(
                IterSource(range(40)), GreedyPump(priority=3),
                MapFilter(lambda x: x, cost=1e-3),
                Buffer(4, on_empty=OnEmpty.NIL), GreedyPump(priority=3),
                ActiveDefragmenter(), CollectSink(name="sink"),
            )

        spec = Pipeline.from_builder(build).with_metrics()
        sessions.append(fabric.open_session(spec, name=f"t{sid}"))
    fabric.run_to_completion()
    assert all(
        driver.nil_cycles
        for session in sessions
        for driver in session.engine.pump_drivers[1:]
    )
    constrained = {
        session.name: sorted(
            (dict(counter.labels)["thread"], counter.value)
            for counter in session.engine._telemetry.registry.family(
                "repro_sched_constraint_dispatches_total"
            )
        )
        for session in sessions
    }
    return constrained, fabric.scheduler.steps


def test_a_continued_cycle_keeps_the_constraint_its_message_carries(
    monkeypatch
):
    """The cycle a gate wake starts runs under the wake's unconstrained
    message, the one after it under the pump's own ``cycle`` constraint,
    and a crossing inherits whichever is running.  A Repost is taken only
    when it keeps the running message's constraint; its mutant twin,
    which continues regardless, leaves the coroutine's requests
    unconstrained and fails the comparison."""
    real = woken_and_metered()
    with monkeypatch.context() as patch:
        decline_every_repost(patch)
        oracle = woken_and_metered()
    assert real == oracle
    monkeypatch.setattr(Scheduler, "_takes_repost", forgets_the_constraint)
    assert woken_and_metered()[0] != oracle[0]


# ---------------------------------------------------------------------------
# Observability and fault injection stay on the same path
# ---------------------------------------------------------------------------


def test_metered_fabric_with_a_trace_ring_takes_the_continuation(
    monkeypatch
):
    """Metering and a flight-recorder ring do not switch the continuation
    off, and each session's meters count every dispatch its tenant was
    charged for, continued cycles included."""

    def run():
        ring = Scheduler(
            clock=VirtualClock(), fair_quantum=8, trace_limit=64
        )
        fabrics = mux_fabrics(
            4, 8, scheduler=ring,
            spec=lambda build: Pipeline.from_builder(build).with_metrics(),
        )
        step_rounds(*fabrics[:4], steps=41)
        return fabrics[1], observe(*fabrics)

    rx, seen = run()
    for session in rx.sessions.values():
        probe = session.engine._telemetry.scheduler_probe
        assert sum(probe.dispatch_counts().values()) == (
            session.tenant.dispatches
        )
    assert rx.scheduler.trace_dropped > 0
    with monkeypatch.context() as patch:
        decline_every_repost(patch)
        oracle_rx, oracle_seen = run()
    assert seen == oracle_seen
    assert rx.scheduler.messages_delivered < (
        oracle_rx.scheduler.messages_delivered
    )


def test_format_tail_shows_one_dispatch_per_cycle(monkeypatch):
    """A continued cycle is recorded as the dispatch of its ``cycle``:
    the tail's dispatch lines are the message-per-cycle schedule's, one
    per cycle of a greedy pump; only its ``deliver`` / ``done`` lines go."""

    def run():
        traced = Scheduler(clock=VirtualClock(), fair_quantum=8, trace=True)
        fabrics = mux_fabrics(3, 8, scheduler=traced)
        step_rounds(*fabrics[:4], steps=53)
        return fabrics[1], format_tail(traced).splitlines()

    rx, tail = run()
    dispatches = [line for line in tail if " dispatch " in line]
    for name, session in rx.sessions.items():
        (driver,) = session.engine.pump_drivers
        cycles = [
            line for line in dispatches
            if line.split()[2:] == [driver.thread_name, "cycle"]
        ]
        assert len(cycles) == driver.cycles > 0
    with monkeypatch.context() as patch:
        decline_every_repost(patch)
        _, oracle_tail = run()
    assert dispatches == [line for line in oracle_tail if " dispatch " in line]
    assert len(tail) < len(oracle_tail)


def test_a_fault_plan_declines_so_its_interceptor_sees_every_cycle(
    monkeypatch
):
    """With a delivery interceptor armed (a FaultPlan delaying messages)
    every Repost is declined: the interceptor sees each ``cycle`` message
    the message-per-cycle schedule sends, and the run is that schedule."""

    def run():
        chaotic = Scheduler(clock=VirtualClock(), fair_quantum=8)
        message_chaos(chaotic, seed=5, drop_rate=0.0, delay_rate=0.05,
                      max_delay=0.002)
        plan = chaotic.delivery_interceptor
        seen = []

        def intercept(message):
            seen.append(message.kind)
            return plan(message)

        chaotic.delivery_interceptor = intercept
        fabrics = mux_fabrics(4, 8, scheduler=chaotic)
        step_rounds(*fabrics[:4], steps=31)
        return observe(*fabrics), seen, chaotic.messages_delivered

    seen, intercepted, delivered = run()
    assert intercepted.count("cycle") > 0
    with monkeypatch.context() as patch:
        decline_every_repost(patch)
        oracle = run()
    assert (seen, intercepted, delivered) == oracle
