"""Unit tests for the wait-for-graph deadlock detector (satellite: a
two-thread receive cycle must be reported with both thread names and the
blocking match predicates, not by hanging or timing out)."""

import pytest

from repro import (
    ActiveDefragmenter,
    Buffer,
    CollectSink,
    GreedyPump,
    IterSource,
    MergeTee,
    pipeline,
)
from repro.check import (
    assert_no_deadlock,
    describe_match,
    detect,
    find_cycles,
    receive_from,
    run_watched,
    waitfor_graph,
)
from repro.core.composition import Pipeline as CorePipeline
from repro.core.events import Event
from repro.errors import DeadlockError
from repro.mbt.message import Message
from repro.mbt.scheduler import Scheduler
from repro.mbt.syscalls import CONTINUE, Call, Receive, Yield
from repro.runtime.engine import Engine
from repro.runtime.section import ThreadCtx, _compile_crossing


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
    # The header counts the retained events before the tail and the
    # ring's evictions: together, what the full trace had before it.
    assert excerpt[0] == (
        f"... (1 earlier events, {ring.trace_dropped} evicted from the ring)"
    )
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


def test_run_watched_sees_progress_in_a_continued_greedy_loop():
    """A greedy pump on the virtual clock continues in place (a taken
    Repost delivers no message), but a window's ``max_steps`` edge makes
    it decline and post its ``cycle``: every window shows progress."""
    sink = CollectSink()
    engine = Engine(pipeline(IterSource(range(20_000)), GreedyPump(), sink))
    engine.start()
    run_watched(engine.scheduler, window=1_000)
    assert engine.completed and len(sink.items) == 20_000
    assert engine.scheduler.messages_delivered < engine.scheduler.steps / 100


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


def test_a_pump_parked_on_credit_names_the_stream_it_waits_for():
    """One fabric, two sessions joined by a credited stream; the receiving
    session is parked, so the sending pump spends its window and parks.
    The report says which stream's consumer it waits for — not an
    anonymous receive."""
    from repro.fabric import SessionFabric
    from repro.net import InProcessLink
    from repro.net.marshal import MarshalFilter, UnmarshalFilter
    from repro.net.mux import StreamMux
    from repro.net.netpipe import make_netpipe_over

    forward = InProcessLink("shard-a", "shard-b", "fwd")
    reverse = InProcessLink("shard-b", "shard-a", "back")
    left = StreamMux(forward, inbound=reverse)
    right = StreamMux(reverse, inbound=forward)
    t_stream = left.open_stream(7, credits=4)
    r_stream = right.open_stream(7, credits=4)
    sink = CollectSink()

    def build_tx():
        sender, _ = make_netpipe_over(t_stream)
        return pipeline(
            IterSource(range(40)), MarshalFilter(), GreedyPump(), sender
        )

    def build_rx():
        _, receiver = make_netpipe_over(r_stream)
        return pipeline(receiver, UnmarshalFilter(), GreedyPump(), sink)

    fabric = SessionFabric()
    fabric.open_session(build_tx, name="tx")
    fabric.open_session(build_rx, name="rx")
    fabric.park("rx")
    fabric.run()
    assert sink.items == []
    report = detect(fabric.scheduler)
    (wait,) = [w for w in report.blocked if w.thread.startswith("pump:tx/")]
    assert wait.waiting_on == "consumer of stream-7 at shard-b"
    assert wait.match == "credit wait on stream-7 [kind='credit']"
    assert "consumer of stream-7" in report.format()
    fabric.unpark("rx")
    fabric.run()
    assert sink.items == list(range(40))


# -- every wait kind is named ----------------------------------------------
#
# A blocked thread waits in one of five places, each one
# ``ThreadCtx.wait`` on a labelled Receive: a gate put, a gate get, a
# segment lock, a coroutine crossing and a credited wire's spent window
# (the credit case is the test above).  The report names each.


def stalled(pipe, *pumps):
    """Run ``pipe`` with only ``pumps`` started, to quiescence; returns
    the engine and the report's blocked waits by thread."""
    engine = Engine(pipe)
    engine.setup()
    for pump in pumps:
        engine.events.send_to(pump, Event(kind="start", source="test"))
    engine.run(max_steps=1_000)
    report = detect(engine.scheduler)
    assert report.is_hung
    return engine, {info.thread: info for info in report.blocked}


def gate_rig(started):
    return stalled(pipeline(
        IterSource(range(8)), GreedyPump(name="p1"), Buffer(2, name="buf"),
        GreedyPump(name="p2"), CollectSink(),
    ), started)


def test_a_gate_put_names_the_buffer_it_waits_for_space_in():
    _, waits = gate_rig("p1")
    wait = waits["pump:p1"]
    assert wait.waiting_on == "space in buf"
    assert wait.match == "gate put on buf [kind='buffer-space']"


def test_a_gate_get_names_the_buffer_it_waits_for_an_item_in():
    _, waits = gate_rig("p2")
    wait = waits["pump:p2"]
    assert wait.waiting_on == "an item in buf"
    assert wait.match == "gate get on buf [kind='buffer-item']"


def test_a_lock_wait_names_the_lock():
    """Two pumps share the chain below a merge; one holds the segment
    lock, parked on the full buffer at its end, and the other waits for
    the lock.  Once the consumer starts, both streams drain."""
    a, b = IterSource(range(20)), IterSource(range(20))
    pa, pb = GreedyPump(name="pa"), GreedyPump(name="pb")
    merge, buf = MergeTee(2, name="merge"), Buffer(2, name="tail")
    pump, sink = GreedyPump(name="p3"), CollectSink()
    pipe = CorePipeline([a, pa, b, pb, merge, buf, pump, sink])
    pipe.connect(a.out_port, pa.in_port)
    pipe.connect(pa.out_port, merge.port("in0"))
    pipe.connect(b.out_port, pb.in_port)
    pipe.connect(pb.out_port, merge.port("in1"))
    pipe.connect(merge.out_port, buf.in_port)
    pipe.connect(buf.out_port, pump.in_port)
    pipe.connect(pump.out_port, sink.in_port)
    engine, waits = stalled(pipe, "pa", "pb")
    assert engine.lock_for(merge).name == "segment:merge"
    assert {(w.waiting_on, w.match) for w in waits.values()} == {
        ("space in tail", "gate put on tail [kind='buffer-space']"),
        ("holder of segment:merge",
         "lock wait on segment:merge [kind='segment-free']"),
    }
    engine.events.send_to("p3", Event(kind="start", source="test"))
    engine.run()
    assert sorted(sink.items) == sorted([*range(20), *range(20)])


def test_a_crossing_names_the_coroutine_thread_it_waits_on():
    """The pump pulls across into the defragmenter's coroutine, which is
    parked on the empty buffer: the pump's wait is a real wait-for edge,
    and its match shows which request it waits to have answered."""
    engine, waits = stalled(pipeline(
        IterSource(range(8)), GreedyPump(name="p1"), Buffer(2, name="buf"),
        ActiveDefragmenter(name="defrag"), GreedyPump(name="p2"),
        CollectSink(),
    ), "p2")
    request = engine.scheduler.threads["coro:defrag"]._current_message
    wait = waits["pump:p2"]
    assert wait.waiting_on == "coro:defrag"
    assert wait.match == f"crossing to coro:defrag [rid={request.msg_id}]"
    assert waits["coro:defrag"].waiting_on == "an item in buf"
    assert waitfor_graph(engine.scheduler) == {
        "pump:p2": {"coro:defrag"}, "coro:defrag": {"an item in buf"},
    }


class CrossingEngine:
    """What a compiled crossing asks of its engine; a component is named
    by the thread that runs it."""

    def __init__(self, scheduler):
        self.scheduler = scheduler

    def thread_of(self, component):
        return component

    def _switch_counter(self):
        return [0]


def test_two_coroutines_crossing_into_each_other_are_a_cycle():
    scheduler = Scheduler()
    engine = CrossingEngine(scheduler)

    def crosser(name, peer):
        def code(thread, message):
            crossing = _compile_crossing(
                ThreadCtx(engine, name), peer, "ip-pull")
            yield from crossing()
            return CONTINUE

        scheduler.spawn(name, code)
        scheduler.post(Message(kind="go", sender="main", target=name))

    crosser("coro:a", "coro:b")
    crosser("coro:b", "coro:a")
    scheduler.run()
    report = detect(scheduler)
    assert find_cycles(report.edges) == [["coro:a", "coro:b"]]
    assert "wait-for cycle: coro:a -> coro:b -> coro:a" in report.format()
    for info in report.blocked:
        assert info.match.startswith(f"crossing to {info.waiting_on} [rid=")
        assert [kind for kind, _ in info.queued] == ["ip-pull"]
