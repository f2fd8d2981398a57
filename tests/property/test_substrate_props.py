"""Property-based tests on the mbt substrate and runtime helpers."""

from hypothesis import given, settings, strategies as st

from repro.core.events import EOS
from repro.mbt import CONTINUE, Constraint, Mailbox, Message, Scheduler, VirtualClock
from repro.runtime.bridge import NeedMoreInput, ReplayIntake


# ------------------------------------------------------------------ mailbox

priorities = st.one_of(st.none(), st.integers(min_value=-5, max_value=15))


@given(st.lists(priorities, max_size=25))
def test_mailbox_never_loses_messages(priority_list):
    box = Mailbox()
    for i, priority in enumerate(priority_list):
        constraint = None if priority is None else Constraint(priority=priority)
        box.put(Message(kind=f"m{i}", constraint=constraint))
    drained = []
    while box:
        drained.append(box.get())
    assert len(drained) == len(priority_list)
    assert {m.kind for m in drained} == {f"m{i}" for i in
                                         range(len(priority_list))}


@given(st.lists(priorities, max_size=25))
def test_mailbox_delivery_order_is_priority_sorted_stable(priority_list):
    box = Mailbox()
    for i, priority in enumerate(priority_list):
        constraint = None if priority is None else Constraint(priority=priority)
        box.put(Message(kind=str(i), constraint=constraint))
    drained = [box.get() for _ in range(len(priority_list))]

    def effective(message):
        return message.constraint.priority if message.constraint else 0

    # priorities are non-increasing
    received_priorities = [effective(m) for m in drained]
    assert received_priorities == sorted(received_priorities, reverse=True)
    # FIFO within equal priority
    for priority in set(received_priorities):
        same = [int(m.kind) for m in drained if effective(m) == priority]
        assert same == sorted(same)


# ------------------------------------------------------------------ scheduler


@given(st.lists(st.integers(min_value=0, max_value=9), min_size=1,
                max_size=15))
@settings(max_examples=25, deadline=None)
def test_scheduler_processes_every_message_once(priority_list):
    scheduler = Scheduler(clock=VirtualClock())
    seen = []
    scheduler.spawn("t", lambda th, m: seen.append(m.payload) or CONTINUE)
    for i, priority in enumerate(priority_list):
        scheduler.post(
            Message(kind="d", payload=i, target="t",
                    constraint=Constraint(priority=priority))
        )
    scheduler.run()
    assert sorted(seen) == list(range(len(priority_list)))


# ------------------------------------------------------------------ replay


@given(st.lists(st.integers(), min_size=0, max_size=20),
       st.integers(min_value=1, max_value=4))
def test_replay_intake_commits_exact_feed_order(feed, reads_per_round):
    """Whatever the abort pattern, committed reads reproduce the feed."""
    replay = ReplayIntake(["in"])
    consumed = []
    fed = 0
    while len(consumed) < len(feed):
        replay.begin()
        try:
            batch = [replay.intake("in") for _ in range(
                min(reads_per_round, len(feed) - len(consumed))
            )]
        except NeedMoreInput:
            replay.feed("in", feed[fed])
            fed += 1
            continue
        replay.commit()
        consumed.extend(batch)
    assert consumed == feed


@given(st.lists(st.integers(), min_size=0, max_size=10))
def test_replay_intake_eos_always_terminal(feed):
    from repro.core.styles import EndOfStream

    replay = ReplayIntake(["in"])
    for value in feed:
        replay.feed("in", value)
    replay.feed("in", EOS)
    replay.begin()
    drained = []
    while True:
        try:
            drained.append(replay.intake("in"))
        except EndOfStream:
            break
    assert drained == feed
