"""Nothing outlives its session: open / run / park / unpark / close churn.

Hypothesis interleaves the fabric's lifecycle verbs over three kinds of
session — a greedy pump, a clocked pump holding a CPU reservation, and a
greedy pump whose filter crashes mid-stream, which the fabric contains
to its session (a crashed session only closes: parking or unparking it
is refused) — and over opens that fail part-way (a clocked open the
reservations cannot cover).  After every
closed or failed session is gone and the collector has run:

* its ``Engine`` is unreachable (a weakref taken at open is dead) —
  also while a stopped timer's cancelled handle still waits in the
  scheduler's timer heap;
* the shared scheduler's thread table, tenants, parked set and
  reservations hold nothing of it;
* a session closed while its pump is parked on a credited stream's spent
  window leaves nothing in that stream's waiter record once the stream
  is closed.

docs/RUNTIME.md §13 ("Retention") tabulates the containers this checks.
The mutant twins are a ``_detach`` that forgets ``remove_tenant`` and a
``close_stream`` that keeps its waiters.
"""

import gc
import weakref

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import (
    ClockedPump,
    CollectSink,
    GreedyPump,
    IterSource,
    MapFilter,
    pipeline,
)
from repro.errors import DeployError, SchedulerError
from repro.fabric import SessionFabric, SessionState
from repro.mbt import Scheduler

#: Four clocked sessions fit the CPU; a fifth open fails part-way.
RESERVATION = 0.25


def greedy():
    return pipeline(IterSource(range(20)), GreedyPump(), CollectSink())


def clocked():
    return pipeline(
        IterSource(range(20)),
        ClockedPump(100, reservation=RESERVATION, deadline_slack=0.005),
        CollectSink(),
    )


def crashing():
    return pipeline(
        IterSource(range(20)), GreedyPump(),
        MapFilter(lambda item: 1 / (item - 3)), CollectSink(),
    )


KINDS = {"greedy": greedy, "clocked": clocked, "crash": crashing}

ops = st.one_of(
    st.tuples(st.just("open"), st.sampled_from(sorted(KINDS))),
    st.tuples(st.sampled_from(["park", "unpark", "close"]),
              st.integers(0, 7)),
    st.tuples(st.just("run"), st.integers(1, 60)),
)


def churn(script):
    """Play ``script`` on a fresh fabric; return it, the names that were
    closed or failed to open, and a weakref to each of their engines."""
    fabric = SessionFabric()
    scheduler = fabric.scheduler
    engines: dict[str, weakref.ref] = {}
    gone: set[str] = set()
    for index, (verb, arg) in enumerate(script):
        live = sorted(fabric.sessions)
        if verb == "open":
            name = f"{arg}{index}"
            try:
                session = fabric.open_session(KINDS[arg], name=name)
            except SchedulerError:
                gone.add(name)
                continue
            engines[name] = weakref.ref(session.engine)
            del session
        elif verb == "run":
            fabric.run(max_steps=scheduler.steps + arg)
        elif live:
            name = live[arg % len(live)]
            crashed = fabric.sessions[name].state is SessionState.CRASHED
            if crashed and verb != "close":
                with pytest.raises(DeployError, match="is crashed"):
                    getattr(fabric, verb)(name)
            elif verb == "park":
                fabric.park(name)
            elif verb == "unpark":
                fabric.unpark(name)
            else:
                fabric.close_session(name)
                gone.add(name)
    return fabric, gone, engines


def holds_nothing_of(scheduler: Scheduler, gone: set[str]) -> list[str]:
    """What the scheduler's tables still hold of the ``gone`` sessions."""

    def owner(thread_name: str) -> str:
        return thread_name.split(":", 1)[1].split("/", 1)[0]

    return sorted(
        [f"thread {t}" for t in scheduler.threads if owner(t) in gone]
        + [f"tenant {t}" for t in scheduler.tenants if t in gone]
        + [f"parked {t.name}" for t in scheduler.parked_threads
           if owner(t.name) in gone]
        + [f"reservation {r}" for r in scheduler.reservations
           if owner(r) in gone]
    )


def check_churn(script):
    fabric, gone, engines = churn(script)
    gc.collect()
    assert holds_nothing_of(fabric.scheduler, gone) == []
    alive = [name for name in gone if name in engines and engines[name]()]
    assert alive == []
    # The survivors are untouched: each is still open, and still held.
    assert all(engines[name]() is not None for name in fabric.sessions)


@settings(max_examples=60, deadline=None)
@given(st.lists(ops, min_size=1, max_size=30))
@example(  # a stopped tick's handle waits in the timer heap, callback-free
    [("open", "clocked"), ("run", 5), ("close", 0)])
@example(  # the run stopped mid-burst: the scheduler's burst pin
    [("open", "greedy"), ("run", 1), ("close", 0)])
@example(  # a neighbour's kept crash error must not pin the closed session
    [("open", "clocked"), ("open", "crash"), ("open", "crash"), ("run", 19),
     ("close", 2)])
def test_a_closed_session_leaves_nothing_behind(script):
    check_churn(script)


def test_every_kind_parked_crashed_and_closed():
    """One fixed churn through every path: a crash mid-stream, a parked
    clocked session closed with its timer stopped, a failed open."""
    script = [("open", "greedy"), ("open", "clocked"), ("open", "crash")]
    script += [("run", 40), ("park", 0), ("run", 40)]  # parks clocked1
    script += [("open", "clocked")] * 4  # clocked9 finds the CPU taken
    script += [("close", 0), ("close", 3), ("close", 3), ("run", 60)]
    fabric, gone, _ = churn(script)
    assert gone == {"clocked1", "crash2", "greedy0", "clocked9"}
    assert [name for name, _ in fabric.scheduler.errors] == [
        "pump:crash2/greedy-pump-1"]
    check_churn(script)


def test_a_detach_that_keeps_the_tenant_fails(monkeypatch):
    """The mutant twin: a ``_detach`` without ``remove_tenant``."""
    monkeypatch.setattr(Scheduler, "remove_tenant", lambda self, name: None)
    mutant = settings(max_examples=60, deadline=None, derandomize=True,
                      database=None)(
        given(st.lists(ops, min_size=1, max_size=30))(check_churn))
    with pytest.raises(AssertionError):
        mutant()


def credited_tx(stream):
    from repro.net.marshal import MarshalFilter
    from repro.net.netpipe import make_netpipe_over

    sender, _ = make_netpipe_over(stream)
    return pipeline(
        IterSource(range(100)), MarshalFilter(), GreedyPump(), sender
    )


def close_while_parked_on_credit():
    """A session whose pump is parked on a credited stream's spent window
    (its receiver never drains), closed, and its stream closed; returns
    the fabric, the stream and a weakref to the session's engine."""
    from repro.net import InProcessLink
    from repro.net.mux import StreamMux

    forward = InProcessLink("a", "b", "fwd")
    reverse = InProcessLink("b", "a", "back")
    tx = StreamMux(forward, inbound=reverse)
    rx = StreamMux(reverse, inbound=forward)
    stream = tx.open_stream(1, credits=8)
    rx.open_stream(1, credits=8).on_deliver(
        lambda data: None, lambda: None, lambda frame: None
    )
    fabric = SessionFabric()
    session = fabric.open_session(lambda: credited_tx(stream), name="tx")
    engine = weakref.ref(session.engine)
    del session
    fabric.run()
    assert [t.split("/")[0] for t in stream.waiters] == ["pump:tx"]
    fabric.close_session("tx")
    tx.close_stream(1)
    gc.collect()
    return fabric, stream, engine


def test_a_session_closed_while_parked_on_credit_leaves_nothing_behind():
    fabric, stream, engine = close_while_parked_on_credit()
    assert stream.waiters == []
    assert holds_nothing_of(fabric.scheduler, {"tx"}) == []
    assert engine() is None


def test_a_close_stream_that_keeps_its_waiters_fails(monkeypatch):
    """The mutant twin: ``close_stream`` forgets the parked pumps."""
    from repro.net.mux import StreamMux

    monkeypatch.setattr(
        StreamMux, "close_stream",
        lambda self, stream_id: self._streams.pop(stream_id, None),
    )
    with pytest.raises(AssertionError):
        test_a_session_closed_while_parked_on_credit_leaves_nothing_behind()
