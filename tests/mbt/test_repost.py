"""A pump's next cycle is not a message: ``Repost`` refines the message.

A greedy pump yields :class:`~repro.mbt.syscalls.Repost` instead of
posting itself a ``cycle`` message, and the scheduler runs the next cycle
in the same generator when ``run()`` would have dispatched that message
next anyway: inside a tenant's fair-quantum burst, or, on an untenanted
engine, when no ready rival would run first.  The claim is a refinement
in Philipps & Rumpe's sense, here an exact one: every step, fair-share
charge, dispatch, trace event and wire byte is what the
message-per-cycle schedule gives, and only ``messages_delivered`` falls.

The oracle is the message-per-cycle schedule itself: a test-only patch
that makes the scheduler decline every Repost, so each one is delivered
as a ``cycle`` message exactly as a ``Send`` would deliver it.  Each run
below is made twice, once with the real scheduler and once against that
oracle, and everything observable must match.  Its mutant twins are a
continuation that ignores a control event queued during the cycle, one
that forgets the constraint, and one that continues past an equally
urgent rival.
"""

import pytest

from repro import (
    Buffer,
    CollectSink,
    Engine,
    GreedyPump,
    IterSource,
    MapFilter,
    PullDefragmenter,
    PushDefragmenter,
    pipeline,
)
from repro.api import Pipeline
from repro.check.faults import message_chaos
from repro.components.buffers import OnEmpty
from repro.components.frag import ActiveDefragmenter
from repro.core.events import EventScope
from repro.fabric import SessionFabric
from repro.mbt import Constraint, Message, Scheduler, VirtualClock
from repro.mbt.scheduler import _EPS
from repro.mbt.syscalls import CONTINUE, Yield
from repro.mbt.timers import PeriodicTimer
from repro.mbt.tracing import format_tail
from repro.net import SocketLink
from repro.net.marshal import MarshalFilter, UnmarshalFilter
from repro.net.mux import StreamMux
from repro.net.netpipe import make_netpipe_over
from repro.obs.exporters import prometheus_text


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


def takes_on_ties(self, thread, request):
    """Mutant twin of ``Scheduler._takes_repost``: an untenanted thread
    continues unless a rival is strictly *more* urgent, so an equally
    urgent rival — the one run() picks, having run longer ago — waits."""
    until, max_steps = self._limits
    return (
        thread._tenant is None
        and not thread.mailbox._heap
        and self.delivery_interceptor is None
        and thread._current_message.constraint is request.constraint
        and (max_steps is None or self.steps < max_steps)
        and (until is None or self._clock_now() <= until + _EPS)
        and not self._exists_more_urgent_ready(thread)
    )


# ---------------------------------------------------------------------------
# The fabric-mux shape: tx and rx fabrics joined by one multiplexed socket
# ---------------------------------------------------------------------------


def mux_fabrics(tenants, quantum, items=23, credits=4, cost=0.0,
                scheduler=None, spec=None):
    """``tenants`` flows, each a tx session and an rx session on their own
    fabric, over one socketpair.
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

        tx.open_session(wrap(build_tx), name=f"tx{sid}")
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

        fabric.open_session(build, name=f"t{sid}")
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
    the message the pump is running.  The quantum is 2: at 8 each
    producer's first burst fills its buffer before the consumer's first
    cycle, and the two then alternate, so no consumer ever waits."""
    fabric = SessionFabric(quantum=2)
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
    """A continued cycle is recorded as the message it replaces — its
    ``deliver``, the previous cycle's ``done`` and its ``dispatch``, all
    at the same instant — so the tail is the message-per-cycle
    schedule's line for line, with one dispatch per greedy-pump cycle."""

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
        oracle_rx, oracle_tail = run()
    assert tail == oracle_tail
    assert rx.scheduler.messages_delivered < (
        oracle_rx.scheduler.messages_delivered
    )


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


# ---------------------------------------------------------------------------
# Untenanted engines: the next cycle goes on when no ready rival runs first
# ---------------------------------------------------------------------------


def fig9a(log, scheduler, items=200):
    """The ``fig9a-*`` benchmark's shape: two defragmenters around one
    greedy pump."""
    return pipeline(
        IterSource(range(items), name="src"), PullDefragmenter(name="pull"),
        GreedyPump(name="pump"), PushDefragmenter(name="push"),
        CollectSink(name="sink"),
    )


def tapped(log, scheduler, items=40, cost=0.0):
    """One greedy pump whose section logs each item as it passes and
    charges ``cost`` virtual CPU seconds for it."""
    return pipeline(
        IterSource(range(items), name="src"), GreedyPump(name="pump"),
        MapFilter(lambda x: log.append(("in", x)) or x, name="tap",
                  cost=cost),
        CollectSink(name="sink"),
    )


def charged(log, scheduler):
    return tapped(log, scheduler, cost=1e-3)


def two_pumps(log, scheduler):
    """Two equal-priority greedy pumps sharing a buffer; the log shows
    how their cycles interleave.  The producer moves runs of four, so it
    fills the buffer and blocks, and the consumer drains it alone."""
    return pipeline(
        IterSource(range(30), name="src"), GreedyPump(name="p1", batch_max=4),
        MapFilter(lambda x: log.append(("in", x)) or x, name="tap"),
        Buffer(4, name="buf"), GreedyPump(name="p2"),
        MapFilter(lambda x: log.append(("out", x)) or x, name="tap2"),
        CollectSink(name="sink"),
    )


def deadline_jobs(log, scheduler):
    """Every fifth item, the pump's section posts the ``edf`` thread a
    job whose deadline makes it more urgent than the pump: an EDF entry
    pushed into the ready heap mid-cycle."""

    def tap(item):
        if item % 5 == 2:
            scheduler.post(Message(
                kind="job", payload=item, sender="tap", target="edf",
                constraint=Constraint(deadline=scheduler.now() + 1.0),
            ))
        return item

    return pipeline(
        IterSource(range(40), name="src"), GreedyPump(name="pump"),
        MapFilter(tap, name="tap"), CollectSink(name="sink"),
    )


def edf_thread(scheduler, log):
    def code(thread, message):
        log.append(("edf", message.payload))
        return CONTINUE

    scheduler.spawn("edf", code)


def alarm_thread(scheduler, log):
    """A priority-5 thread a periodic timer wakes ten times, preempting
    the pump mid-``Work``."""

    def code(thread, message):
        log.append(("alarm", scheduler.now()))
        if sum(1 for entry in log if entry[0] == "alarm") == 10:
            timer.stop()
        return CONTINUE

    scheduler.spawn("alarm", code, priority=5)
    timer = PeriodicTimer(scheduler, "alarm", period=0.0037)
    timer.start()


def yielding_thread(scheduler, log):
    """An equal-priority thread that yields the CPU after each step."""

    def code(thread, message):
        for step in range(12):
            log.append(("yield", step))
            yield Yield()
        return CONTINUE

    scheduler.spawn("yielder", code)
    scheduler.post(Message(kind="go", sender="test", target="yielder"))


def in_rounds(engine):
    """Cumulative ``max_steps`` rounds of 7; returns the trajectory."""
    trajectory = []
    while not engine.completed:
        engine.run(max_steps=engine.scheduler.steps + 7)
        trajectory.append(engine.scheduler.steps)
    return trajectory


def to_horizons(engine):
    """Rounds of an ``until`` horizon 0.37 ms apart (each item costs
    0.1 ms); returns the trajectory."""
    trajectory = []
    while not engine.completed:
        engine.run(until=0.00037 * (len(trajectory) + 1))
        trajectory.append((engine.scheduler.steps, engine.now()))
    return trajectory


def run_engine(build, rivals=None, drive=None, batch=None, hook=None):
    """One metered untenanted engine on a fully traced scheduler.

    ``build(log, scheduler)`` returns the pipeline; ``rivals(scheduler,
    log)`` spawns raw threads beside its own; ``drive(engine)`` runs the
    started engine (default: to the end) and returns a trajectory;
    ``hook`` is a choice hook.  Returns everything the Repost must not
    change, and the messages delivered."""
    scheduler = Scheduler(clock=VirtualClock(), trace=True)
    scheduler.choice_hook = hook
    log = []
    spec = Pipeline.from_builder(lambda: build(log, scheduler)).with_metrics()
    if batch is not None:
        spec = spec.with_batching(batch)
    built = spec.build(scheduler=scheduler)
    engine = built.engine
    engine.setup()
    if rivals is not None:
        rivals(scheduler, log)
    engine.start()
    trajectory = (drive or Engine.run)(engine)
    engine.stop()
    engine.run()
    (waits,) = built.telemetry.registry.family(
        "repro_sched_run_queue_wait_seconds"
    )
    seen = {
        "trace": list(scheduler.trace),
        "steps": scheduler.steps,
        "switches": scheduler.context_switches,
        "now": scheduler.now(),
        "sink": list(engine.pipeline.component("sink").items),
        "log": log,
        "cycles": engine.stats.cycles,
        "run_queue_wait": (waits.count, waits.sum),
        "trajectory": trajectory if drive is not None else None,
    }
    return seen, scheduler.messages_delivered


def against_the_oracle(monkeypatch, **run):
    """The run, and its message-per-cycle oracle's."""
    real = run_engine(**run)
    with monkeypatch.context() as patch:
        decline_every_repost(patch)
        oracle = run_engine(**run)
    return real, oracle


UNTENANTED = {
    "fig9a-item": dict(build=fig9a),
    "fig9a-batch32": dict(build=fig9a, batch=32),
    "two-pumps": dict(build=two_pumps),
    "work-preempted": dict(build=charged, rivals=alarm_thread),
    "edf-mid-cycle": dict(build=deadline_jobs, rivals=edf_thread),
    "yield": dict(build=tapped, rivals=yielding_thread),
    "max-steps-rounds": dict(build=fig9a, drive=in_rounds),
    "until-horizon": dict(
        build=lambda log, scheduler: tapped(log, scheduler, cost=1e-4),
        drive=to_horizons,
    ),
}


@pytest.mark.parametrize("scenario", sorted(UNTENANTED))
def test_untenanted_repost_refines_the_message_per_cycle_schedule(
    monkeypatch, scenario
):
    """Same trace event for event, steps, sinks, logs and run-queue
    waits as the oracle's, with fewer messages."""
    (seen, delivered), (oracle, oracle_delivered) = against_the_oracle(
        monkeypatch, **UNTENANTED[scenario]
    )
    assert seen == oracle
    assert seen["sink"]
    assert seen["run_queue_wait"][0] > 0
    assert delivered < oracle_delivered


def test_each_rival_runs_where_its_messages_put_it(monkeypatch):
    """The scenarios' rivals really interleave with the pump: the alarm
    preempts a charged cycle, the EDF job runs right behind the item
    that posted it, and the yielder and the pump alternate."""
    (alarm, _), _ = against_the_oracle(
        monkeypatch, build=charged, rivals=alarm_thread
    )
    kinds = [entry[0] for entry in alarm["log"]]
    assert kinds.count("alarm") == 10 and kinds[-1] == "in"
    assert "preempt" in {event[1] for event in alarm["trace"]}
    (edf, _), _ = against_the_oracle(
        monkeypatch, build=deadline_jobs, rivals=edf_thread
    )
    assert [e[1] for e in edf["log"]] == [i for i in range(40) if i % 5 == 2]
    (yields, _), _ = against_the_oracle(
        monkeypatch, build=tapped, rivals=yielding_thread
    )
    assert [entry[0] for entry in yields["log"][:6]] == ["yield", "in"] * 3


def test_two_equal_priority_pumps_take_turns_as_their_messages_order_them(
    monkeypatch
):
    """A tie goes to the rival that ran longer ago: the consumer the
    producer's first run woke takes one item, then the producer's next
    run fills the buffer and blocks, and only while it is blocked do the
    consumer's cycles continue in place."""
    (seen, _), (oracle, _) = against_the_oracle(monkeypatch, build=two_pumps)
    assert seen == oracle
    assert seen["log"][:13] == [
        ("in", 0), ("in", 1), ("in", 2), ("in", 3), ("out", 0),
        ("in", 4), ("in", 5), ("in", 6), ("in", 7),
        ("out", 1), ("out", 2), ("out", 3), ("out", 4),
    ]


def test_mutant_that_takes_on_a_tie_fails_the_two_pump_ordering(
    monkeypatch
):
    with monkeypatch.context() as patch:
        decline_every_repost(patch)
        oracle, _ = run_engine(build=two_pumps)
    monkeypatch.setattr(Scheduler, "_takes_repost", takes_on_ties)
    mutant, _ = run_engine(build=two_pumps)
    assert mutant["sink"] == oracle["sink"]
    assert mutant["log"] != oracle["log"]
    assert mutant["trace"] != oracle["trace"]


def test_a_choice_hook_run_takes_reposts(monkeypatch):
    """The explorer perturbs ties through ``choice_hook``, and a taken
    Repost is no tie (its thread is the one candidate), so a hooked run
    takes Reposts like an unhooked one: the schedule the hook steers is
    the oracle's under the same hook, with fewer messages."""
    (seen, delivered), (oracle, oracle_delivered) = against_the_oracle(
        monkeypatch, build=two_pumps, hook=lambda candidates: candidates[-1]
    )
    assert seen == oracle
    assert delivered < oracle_delivered


def test_a_metered_engine_exposes_the_oracles_metrics(monkeypatch):
    """The obs plane is the oracle's too: a continued cycle records the
    zero run-queue wait the re-key after a dispatch would have, so the
    Prometheus exposition differs only in wall-clock seconds and in the
    messages delivered."""

    def exposition():
        spec = (
            Pipeline.from_builder(lambda: fig9a(None, None, items=600))
            .with_metrics()
            .with_tracing(sample_every=64)
        )
        built = spec.build().run()
        built.engine.stop()
        built.engine.run()
        lines = prometheus_text(built.telemetry.registry).splitlines()
        (messages,) = [line for line in lines if line.startswith(
            "repro_pipeline_messages_delivered_total ")]
        rest = [line for line in lines
                if 'mode="wall"' not in line and line != messages]
        return rest, float(messages.split()[-1])

    real, delivered = exposition()
    with monkeypatch.context() as patch:
        decline_every_repost(patch)
        oracle, oracle_delivered = exposition()
    assert real == oracle
    (waits,) = [line for line in real if line.startswith(
        "repro_sched_run_queue_wait_seconds_count ")]
    # The wait is read on every 64th dispatch of a thread (the tracer's
    # stride), its first included: exactly those dispatches, each waited.
    dispatches = [int(float(line.split()[-1])) for line in real
                  if line.startswith("repro_sched_dispatches_total{")]
    assert sum(dispatches) > 300
    assert float(waits.split()[-1]) == sum(
        1 + (count - 1) // 64 for count in dispatches
    )
    assert delivered < oracle_delivered


@pytest.mark.parametrize("priority", [0, 3])
def test_a_prioritised_pump_takes_its_first_repost(priority):
    """The loop's first ``cycle`` carries the very constraint its Repost
    does, so a prioritised pump continues from its first cycle on: four
    messages (three start events and the loop start) either way."""
    engine = Engine(pipeline(
        IterSource(range(1000)), GreedyPump(priority=priority),
        CollectSink(),
    ))
    engine.run_to_completion()
    assert engine.scheduler.messages_delivered == 4
