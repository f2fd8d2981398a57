"""Substrate-level batch support and the ready-heap compaction fix.

* ``Mailbox.put_many`` — bulk enqueue, one listener fire, identical
  delivery order to per-message puts.
* ``Scheduler.post_many`` — bulk injection, identical semantics to
  sequential posts: a run of consecutive messages to one target that is
  not blocked and no interceptor must see enters its mailbox as one
  ``put_many``; an engine's event fan-out is one such call.
* Ready-heap compaction — lazy invalidation only pops tombstones at the
  heap top, so repeated reindexing of rarely-picked threads used to grow
  the heap without bound; the scheduler now compacts once tombstones
  outnumber live entries 2:1.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CollectSink, Engine, GreedyPump, IterSource, pipeline
from repro.mbt import Scheduler, VirtualClock
from repro.mbt.mailbox import Mailbox
from repro.mbt.message import Message
from repro.mbt.constraints import Constraint
from repro.mbt.syscalls import CONTINUE, Receive


def make_message(target="t", kind="data", priority=0):
    return Message(
        kind=kind,
        payload=None,
        sender="test",
        target=target,
        constraint=Constraint(priority=priority) if priority else None,
    )


class TestMailboxPutMany:
    def test_order_matches_sequential_puts(self):
        sequential, bulk = Mailbox(), Mailbox()
        messages = [
            make_message(kind=f"m{i}", priority=p)
            for i, p in enumerate([0, 5, 0, 2, 5, 0])
        ]
        for message in messages:
            sequential.put(message)
        bulk.put_many(list(messages))
        drained_a = [sequential.get().kind for _ in range(len(messages))]
        drained_b = [bulk.get().kind for _ in range(len(messages))]
        assert drained_a == drained_b
        # Urgent constraints overtake, arrival order breaks ties.
        assert drained_a[:2] == ["m1", "m4"]

    def test_single_listener_fire(self):
        mailbox = Mailbox()
        fires = []
        mailbox._listener = lambda: fires.append(1)
        mailbox.put_many([make_message(kind=f"m{i}") for i in range(5)])
        assert len(fires) == 1
        assert len(mailbox) == 5

    def test_empty_run_does_not_fire(self):
        mailbox = Mailbox()
        fires = []
        mailbox._listener = lambda: fires.append(1)
        mailbox.put_many([])
        assert fires == []


class TestPostMany:
    def test_delivers_like_sequential_posts(self):
        sched = Scheduler(clock=VirtualClock())
        received = []

        def code(thread, message):
            received.append(message.kind)

        sched.spawn("worker", code)
        sched.post_many([make_message("worker", f"m{i}") for i in range(4)])
        sched.run()
        assert received == ["m0", "m1", "m2", "m3"]

    def test_unknown_targets_become_dead_letters(self):
        sched = Scheduler(clock=VirtualClock())
        sched.post_many([make_message("ghost", "m")])
        assert len(sched.dead_letters) == 1

    def test_an_engines_event_fan_out_is_one_run(self, monkeypatch):
        """start() and stop() hand the scheduler each broadcast as one
        post_many call, whose run to the pump's thread is one put_many."""
        engine = Engine(pipeline(
            IterSource(range(10)), GreedyPump(), CollectSink(),
        ))
        engine.setup()
        calls = []
        monkeypatch.setattr(Scheduler, "post", lambda self, m: calls.append(
            ("post", m.kind)))
        put_many = Mailbox.put_many
        monkeypatch.setattr(Mailbox, "put_many", lambda self, run: (
            calls.append(("put_many", len(run))), put_many(self, run)))
        engine.start()
        engine.stop()
        assert calls == [("put_many", 3), ("put_many", 3)]
        assert engine.scheduler.messages_delivered == 6


TARGETS = ("plain", "tenanted", "waiter", "ghost")
KINDS = ("data", "ping", "drop", "late")


def substrate(tenanted, intercepted):
    """A traced scheduler with a plain worker, a worker charged to a
    tenant when ``tenanted``, a thread blocked in a receive that matches
    ``ping`` and, when ``intercepted``, an interceptor that drops
    ``drop`` and delays ``late``."""
    sched = Scheduler(clock=VirtualClock(), trace=True, fair_quantum=4)
    got = []

    def worker(thread, message):
        got.append((thread.name, message.kind, message.sender))

    def waiter(thread, message):
        reply = yield Receive(match=lambda m: m.kind == "ping")
        got.append((thread.name, message.kind, reply.sender))
        return CONTINUE

    sched.spawn("plain", worker)
    sched.spawn("tenanted", worker)
    sched.spawn("waiter", waiter)
    if tenanted:
        sched.assign_tenant(sched.threads["tenanted"], "t")
    sched.post(make_message("waiter", "go"))
    sched.run()
    assert sched.threads["waiter"].is_blocked()
    if intercepted:
        sched.delivery_interceptor = lambda m: (
            "drop" if m.kind == "drop" else 0.5 if m.kind == "late" else None
        )
    return sched, got


def delivered_state(sched):
    """What delivery left: the trace, the counters and, per thread, its
    queued messages in delivery order and whether it was woken."""
    return (
        list(sched.trace), sched.messages_delivered, sched.messages_dropped,
        [(m.kind, m.sender) for m in sched.dead_letters],
        {
            name: ([(m.kind, m.sender) for m in thread.mailbox],
                   thread.is_blocked(), thread.is_ready())
            for name, thread in sched.threads.items()
        },
    )


@settings(max_examples=80, deadline=None)
@given(
    posts=st.lists(
        st.tuples(st.sampled_from(TARGETS), st.sampled_from(KINDS),
                  st.sampled_from([0, 3])),
        max_size=14,
    ),
    tenanted=st.booleans(),
    intercepted=st.booleans(),
)
def test_post_many_is_post_per_message(posts, tenanted, intercepted):
    """Batched ``post_many`` equals ``post`` one message at a time — mixed
    targets, a receive that a ``ping`` wakes, an armed interceptor and a
    tenanted target included — at delivery and after the run."""

    def messages():
        return [
            Message(kind=kind, sender=f"s{i}", target=target,
                    constraint=Constraint(priority=p) if p else None)
            for i, (target, kind, p) in enumerate(posts)
        ]

    one, got_one = substrate(tenanted, intercepted)
    for message in messages():
        one.post(message)
    many, got_many = substrate(tenanted, intercepted)
    many.post_many(messages())
    assert delivered_state(many) == delivered_state(one)
    one.run()
    many.run()
    assert delivered_state(many) == delivered_state(one)
    assert got_many == got_one


class TestReadyHeapCompaction:
    def churn(self, sched, threads, rounds):
        for _ in range(rounds):
            for thread in threads:
                sched._reindex(thread)

    def test_heap_stays_bounded_under_reindex_churn(self):
        sched = Scheduler(clock=VirtualClock())
        threads = []
        for i in range(8):
            thread = sched.spawn(f"t{i}", lambda th, m: None)
            sched.post(make_message(f"t{i}"))
            threads.append(thread)
        self.churn(sched, threads, 500)
        # 8 live entries + at most the compaction slack; without
        # compaction the heap would hold ~4000 entries here.
        assert len(sched._ready_heap) < 300
        assert sched._ready_stale <= len(sched._ready_heap)

    def test_pick_matches_linear_oracle_after_churn(self):
        sched = Scheduler(clock=VirtualClock())
        threads = []
        for i in range(6):
            thread = sched.spawn(
                f"t{i}", lambda th, m: None, priority=i % 3
            )
            sched.post(make_message(f"t{i}", priority=i % 3))
            threads.append(thread)
        self.churn(sched, threads, 200)
        assert sched._pick_ready() is sched._pick_ready_linear()

    def test_compaction_preserves_live_entries(self):
        sched = Scheduler(clock=VirtualClock())
        threads = []
        for i in range(4):
            thread = sched.spawn(f"t{i}", lambda th, m: None)
            sched.post(make_message(f"t{i}"))
            threads.append(thread)
        self.churn(sched, threads, 100)
        sched._compact_ready_heap()
        assert sched._ready_stale == 0
        live = [entry[6] for entry in sched._ready_heap]
        assert sorted(t.name for t in live) == [t.name for t in threads]
        for thread in threads:
            assert thread._heap_entry in sched._ready_heap
        # The scheduler still runs everything to completion afterwards.
        sched.run()
        assert all(not t.mailbox for t in threads)
