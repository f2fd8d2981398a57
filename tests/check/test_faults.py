"""Unit tests for the fault-injection harness."""

import pytest

from repro import Buffer, CollectSink, CostFilter, GreedyPump, IterSource, pipeline
from repro.check import (
    CrashThread,
    FaultPlan,
    LinkFlap,
    MessageFaults,
    crash_one_pump,
    message_chaos,
)
from repro.errors import InjectedFault, SchedulerError
from repro.mbt.clock import VirtualClock
from repro.mbt.message import Message
from repro.mbt.scheduler import Scheduler
from repro.net.network import Network
from repro.net.packets import Packet
from repro.runtime.engine import Engine


def two_pump_engine(n=50, cost=0.0, **engine_kwargs):
    """Two pumps around a buffer; with ``cost`` each item burns CPU time,
    so virtual time advances and timed faults can land mid-flow (costless
    pipelines complete entirely at t=0, before any fault timer fires)."""
    sink = CollectSink()
    stages = [IterSource(range(n)), GreedyPump(), Buffer(capacity=8)]
    if cost:
        stages.append(CostFilter(cost))
    stages += [GreedyPump(), sink]
    pipe = pipeline(*stages)
    return Engine(pipe, **engine_kwargs), sink


def test_crash_one_pump_raises_injected_fault():
    engine, _ = two_pump_engine(cost=0.001)
    plan = crash_one_pump(engine, at=0.005, which=0)
    with pytest.raises(SchedulerError) as excinfo:
        engine.run_to_completion(max_steps=200_000)
    assert isinstance(excinfo.value.__cause__, InjectedFault)
    assert len(plan.crashes_fired) == 1
    assert plan.crashes_fired[0].startswith("pump:")


def test_crash_collect_mode_keeps_other_sections_running():
    engine, sink = two_pump_engine(cost=0.001)
    engine.setup()
    consumer = engine.pump_drivers[1].thread_name
    FaultPlan(crashes=(CrashThread(at=0.005, thread=consumer),)).arm(
        engine.scheduler
    )
    with pytest.raises(SchedulerError):
        engine.run_to_completion(max_steps=500_000)
    engine.run(max_steps=500_000)  # errors collected, the run goes on
    # The consumer died mid-stream: some items made it, the rest did not;
    # the producer kept draining the source into the buffer regardless.
    errors = engine.scheduler.errors
    assert len(errors) == 1 and errors[0][0] == consumer
    assert isinstance(errors[0][1], InjectedFault)
    assert 0 < len(sink.items) < 50


def test_crash_against_missing_or_dead_thread_is_noop():
    scheduler = Scheduler()
    plan = FaultPlan(crashes=(CrashThread(at=0.0, thread="ghost"),))
    plan.arm(scheduler)
    scheduler.run()
    assert plan.crashes_fired == []
    assert not scheduler.inject_crash("ghost")


def test_message_delay_preserves_delivery_drop_loses():
    # Delay-only chaos: every item still arrives (reordered timers, same
    # content); drop chaos on data-bearing kinds loses messages and counts.
    engine, sink = two_pump_engine()
    engine.setup()
    plan = message_chaos(
        engine.scheduler, seed=11, drop_rate=0.0, delay_rate=0.4,
        max_delay=0.002,
    )
    engine.run_to_completion(max_steps=500_000)
    assert sorted(sink.items) == list(range(50))
    assert plan.messages_delayed > 0
    assert engine.scheduler.messages_dropped == 0


def test_message_drop_is_counted_and_traced():
    scheduler = Scheduler(trace=True)
    received = []

    def listener(thread, message):
        received.append(message.kind)

    scheduler.spawn("listener", listener)
    message_chaos(scheduler, seed=1, drop_rate=1.0, delay_rate=0.0)
    for i in range(5):
        scheduler.post(Message(kind="data", sender="main", target="listener"))
    scheduler.run()
    assert received == []
    assert scheduler.messages_dropped == 5
    assert any(event[1] == "fault-drop" for event in scheduler._trace)


def test_message_faults_filters_by_kind_and_target():
    faults = MessageFaults(
        drop_rate=1.0, kinds=frozenset({"data"}),
        targets=frozenset({"victim"}),
    )
    hit = Message(kind="data", sender="s", target="victim")
    assert faults.matches(hit)
    assert not faults.matches(Message(kind="tick", sender="s", target="victim"))
    assert not faults.matches(Message(kind="data", sender="s", target="other"))


def test_double_interception_is_rejected():
    scheduler = Scheduler()
    message_chaos(scheduler, drop_rate=0.1)
    with pytest.raises(RuntimeError):
        message_chaos(scheduler, drop_rate=0.1)


def test_link_flap_loses_packets_only_while_down():
    scheduler = Scheduler(clock=VirtualClock())
    network = Network(scheduler, seed=2)
    network.add_link("a", "b", bandwidth_bps=1e9, delay=0.001)
    plan = FaultPlan(
        flaps=(LinkFlap("a", "b", down_at=0.010, up_at=0.020),)
    )
    plan.arm(scheduler, network)

    got = []
    network.register_receiver("f", lambda p: got.append(p.seq))
    for i in range(30):  # one packet per millisecond, 0..29 ms
        scheduler.at(
            i * 0.001,
            lambda i=i: network.transmit(
                "a", "b", Packet(flow="f", seq=i, payload=b"x")
            ),
        )
    scheduler.run()

    lost = sorted(set(range(30)) - set(got))
    assert lost, "the flap must lose something"
    # Every lost packet was sent inside the down window.
    assert all(10 <= seq < 20 for seq in lost), lost
    assert not network.link_is_down("a", "b")


def test_flap_validation_and_missing_network():
    with pytest.raises(ValueError):
        LinkFlap("a", "b", down_at=0.02, up_at=0.01)
    plan = FaultPlan(flaps=(LinkFlap("a", "b", down_at=0.0, up_at=1.0),))
    with pytest.raises(ValueError):
        plan.arm(Scheduler())


def test_same_plan_same_seed_reproduces():
    def run(seed):
        engine, sink = two_pump_engine()
        engine.setup()
        plan = message_chaos(
            engine.scheduler, seed=seed, drop_rate=0.0, delay_rate=0.3,
            max_delay=0.003,
        )
        engine.run_to_completion(max_steps=500_000)
        return plan.messages_delayed, engine.now()

    assert run(21) == run(21)
    assert run(21) != run(22)
