"""Unit tests for the wait-for-graph deadlock detector (satellite: a
two-thread receive cycle must be reported with both thread names and the
blocking match predicates, not by hanging or timing out)."""

import pytest

from repro import Buffer, CollectSink, GreedyPump, IterSource, pipeline
from repro.check import (
    assert_no_deadlock,
    describe_match,
    detect,
    find_cycles,
    receive_from,
    run_watched,
)
from repro.errors import DeadlockError
from repro.mbt.message import Message
from repro.mbt.scheduler import Scheduler
from repro.mbt.syscalls import CONTINUE, Call, Receive, Yield
from repro.runtime.engine import Engine


def crossed_calls_scheduler(trace_limit=None) -> Scheduler:
    """Two threads that Call each other: a certain receive cycle."""
    scheduler = Scheduler(trace=True, trace_limit=trace_limit)

    def caller(peer):
        def code(thread, message):
            if message.kind == "go":
                yield Call(target=peer, kind="ask")
            return CONTINUE

        return code

    scheduler.spawn("alice", caller("bob"))
    scheduler.spawn("bob", caller("alice"))
    for name in ("alice", "bob"):
        scheduler.post(Message(kind="go", sender="main", target=name))
    return scheduler


def test_two_thread_call_cycle_is_detected_not_hung():
    scheduler = crossed_calls_scheduler()
    scheduler.run()  # returns at quiescence — no hang, no timeout
    report = detect(scheduler)
    assert report.has_cycle
    assert report.cycles == [["alice", "bob"]]
    assert report.quiescent and report.is_hung


def test_cycle_report_names_threads_and_match_predicates():
    scheduler = crossed_calls_scheduler()
    scheduler.run()
    report = detect(scheduler)
    text = report.format()
    assert "wait-for cycle: alice -> bob -> alice" in text
    by_thread = {info.thread: info for info in report.blocked}
    assert set(by_thread) == {"alice", "bob"}
    for name, peer in (("alice", "bob"), ("bob", "alice")):
        info = by_thread[name]
        assert info.waiting_on == peer
        assert "reply to 'ask' call" in (info.reason or "")
        # The match predicate is described with its reply-id binding.
        assert "_rid=" in info.match
        # The unmatched crossing request is visible in the mailbox snapshot.
        assert ("ask", peer) in info.queued
    # The embedded trace excerpt shows the final blocks.
    assert "block" in report.trace_excerpt


def test_report_quotes_the_tail_of_a_ring_bounded_trace():
    """A flight-recorder style ring (a deque, which cannot be sliced)
    gives the excerpt the full trace gives — at the parent of ISSUE 21
    ``detect`` raised TypeError on it."""
    full, ring = crossed_calls_scheduler(), crossed_calls_scheduler(4)
    full.run()
    ring.run()
    assert ring.trace_dropped == len(full.trace) - 4
    excerpt = detect(ring, trace_tail=3).trace_excerpt.splitlines()
    assert excerpt[0] == "... (1 earlier events)"
    assert excerpt[1:] == detect(full, trace_tail=3).trace_excerpt.splitlines()[1:]


def test_assert_no_deadlock_raises_on_cycle():
    scheduler = crossed_calls_scheduler()
    scheduler.run()
    with pytest.raises(DeadlockError) as excinfo:
        assert_no_deadlock(scheduler)
    assert "alice -> bob -> alice" in str(excinfo.value)


def test_receive_from_declares_waitfor_edge():
    scheduler = Scheduler()

    def waiter(peer, kinds=None):
        def code(thread, message):
            if message.kind == "go":
                yield Receive(match=receive_from(peer, kinds=kinds))
            return CONTINUE

        return code

    scheduler.spawn("carol", waiter("dave"))
    scheduler.spawn("dave", waiter("carol", kinds=["data"]))
    for name in ("carol", "dave"):
        scheduler.post(Message(kind="go", sender="main", target=name))
    scheduler.run()

    report = detect(scheduler)
    assert report.cycles == [["carol", "dave"]]
    described = {info.thread: info.match for info in report.blocked}
    assert "receive_from('dave')" in described["carol"]
    assert "kinds=['data']" in described["dave"]


def test_receive_from_predicate_semantics():
    match = receive_from("worker", kinds=["done"])
    assert match(Message(kind="done", sender="worker", target="x"))
    assert not match(Message(kind="done", sender="other", target="x"))
    assert not match(Message(kind="busy", sender="worker", target="x"))
    any_kind = receive_from("worker")
    assert any_kind(Message(kind="busy", sender="worker", target="x"))


def test_describe_match_shows_closure_and_default_bindings():
    request_id = 42

    def closure_match(message):
        return message.payload == request_id

    described = describe_match(closure_match)
    assert "closure_match" in described and "request_id=42" in described

    default_match = lambda m, _rid=7: m.payload == _rid  # noqa: E731
    assert "_rid=7" in describe_match(default_match)
    assert describe_match(None) == "any message"


def test_find_cycles_reports_each_cycle_once():
    edges = {
        "a": {"b"},
        "b": {"a", "c"},
        "c": {"d"},
        "d": {"c"},
        "e": {"a"},  # on a path into a cycle, not in one
    }
    cycles = find_cycles(edges)
    assert [["a", "b"], ["c", "d"]] == sorted(cycles)


def test_completed_pipeline_is_not_a_false_positive():
    pipe = pipeline(
        IterSource(range(6)), GreedyPump(), Buffer(capacity=4),
        GreedyPump(), CollectSink(),
    )
    engine = Engine(pipe)
    engine.run_to_completion(max_steps=200_000)
    report = assert_no_deadlock(engine.scheduler)  # must not raise
    assert not report.has_cycle


def test_run_watched_flags_livelock():
    # Two spinners hand the CPU back and forth forever: dispatches mount
    # while virtual time and delivered messages stand still.  (A *single*
    # yielding thread is resumed in place and never re-enters the run
    # loop, so two are needed to model an observable livelock.)
    scheduler = Scheduler()

    def spinner(thread, message):
        while True:
            yield Yield()

    for name in ("spin-a", "spin-b"):
        scheduler.spawn(name, spinner)
        scheduler.post(Message(kind="go", sender="main", target=name))
    with pytest.raises(DeadlockError) as excinfo:
        run_watched(scheduler, max_steps=50_000, window=5_000)
    assert "livelock" in str(excinfo.value)


def test_run_watched_returns_report_on_clean_completion():
    pipe = pipeline(
        IterSource(range(6)), GreedyPump(), Buffer(capacity=4),
        GreedyPump(), CollectSink(),
    )
    engine = Engine(pipe)
    engine.start()
    report = run_watched(engine.scheduler, window=10_000)
    assert not report.has_cycle
    assert engine.completed
