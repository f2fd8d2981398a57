"""The explorer checks the scheduler that ships.

A ``choice_hook`` is asked only where the heap pick has a real tie, and
bursts and Reposts follow production policy under it.  So:

* seed 0 with no recorded choices is the production schedule:
  ``replay(build, [])`` has the unhooked run's trace hash;
* schedule by schedule, the shipped scheduler refines the shortcut-free
  one: under every seeded chooser it makes the trace, and is asked the
  choices, of the forced-decline oracle of ``tests/mbt/test_repost.py``,
  which delivers every Repost as its ``cycle`` message;
* no dispatch of an explored burst passes a ready thread that is
  strictly more urgent by ``(priority, deadline)``;
* every thread takes the messages ``post_many`` posts to it in posting
  order, as ``post`` one by one would have queued them.

Each of the last three has a mutant twin that explored runs catch with a
shrunk, replayable choice list: a Repost taken on a tie, a burst that
ignores a more urgent rival, and a ``post_many`` that reorders a group.
"""

import pytest

from benchmarks.conftest import make_fig9_pipeline
from repro import Buffer, CollectSink, Engine, GreedyPump, IterSource, pipeline
from repro.api import Pipeline
from repro.check.explorer import (
    DEFAULT_MAX_STEPS,
    ReplayChooser,
    SeededChooser,
    explore,
    replay,
    run_once,
    trace_hash,
)
from repro.fabric import SessionFabric
from repro.fabric.certify import fabric_hosted
from repro.mbt import Scheduler
from repro.mbt.mailbox import Mailbox
from tests.mbt.test_repost import decline_every_repost, takes_on_ties

FIG2 = (
    "counting(limit=24) >> greedy_pump >> buffer(4) >> greedy_pump >> collect"
)

SEEDS = 12


def hosted(quantum):
    side = fabric_hosted(FIG2, tenants=3, quantum=quantum)
    return side.build, side.drive


#: name -> (build, drive) and whether the explored runs take Reposts (a
#: quantum-1 tenant never holds a burst, so it never continues in place).
PROGRAMS = {
    "fig2-fabric-q8": (lambda: hosted(8), True),
    "fig2-fabric-q1": (lambda: hosted(1), False),
    "fig2-engine": (
        lambda: (Pipeline.from_source(FIG2).with_trace().builder(), None),
        True,
    ),
    "fig9d-engine": (
        lambda: (lambda: Engine(make_fig9_pipeline("d")[0]), None), True,
    ),
}


def unhooked_trace_hash(build, drive):
    engine = build()
    engine.scheduler.enable_trace()
    if drive is None:
        engine.run_to_completion(max_steps=DEFAULT_MAX_STEPS)
    else:
        drive(engine)
    return trace_hash(engine.scheduler.trace)


@pytest.mark.parametrize(
    "name", ["fig2-fabric-q8", "fig2-fabric-q1", "fig2-engine"]
)
def test_seed_zero_is_the_production_schedule(name):
    """Every replay default is the heap's own pick, so an empty choice
    list replays the unhooked run — the prefix truncation of
    ``minimize_failure`` leans on this."""
    build, drive = PROGRAMS[name][0]()
    run, _ = replay(build, [], drive=drive)
    assert run.error is None
    assert run.choices and not any(run.choices)
    assert run.trace_hash == unhooked_trace_hash(build, drive)


def the_oracles_schedule(build, drive, delivered):
    """An explorer ``check``: the run's trace hash and choice list are
    the forced-decline oracle's under the same chooser (the same seed,
    or, replaying, the same choices).  Appends ``(messages delivered,
    the oracle's)`` to ``delivered``."""

    def check(engine):
        scheduler = engine.scheduler
        chooser = scheduler.choice_hook
        if isinstance(chooser, SeededChooser):
            twin = SeededChooser(chooser.seed)
        else:
            twin = ReplayChooser(chooser.choices)
        counts = []
        with pytest.MonkeyPatch.context() as patch:
            decline_every_repost(patch)
            oracle, _ = run_once(
                build, twin, drive=drive,
                check=lambda e: counts.append(e.scheduler.messages_delivered),
            )
        assert oracle.error is None, oracle.error
        assert (oracle.trace_hash, oracle.choices) == (
            trace_hash(scheduler.trace), chooser.choices
        ), "the schedule is not the oracle's"
        delivered.append((scheduler.messages_delivered, counts[0]))

    return check


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_the_shortcut_scheduler_refines_the_shortcut_free_one(name):
    make, takes_reposts = PROGRAMS[name]
    build, drive = make()
    delivered = []
    result = explore(
        build, seeds=SEEDS, drive=drive,
        check=the_oracles_schedule(build, drive, delivered),
    )
    result.raise_if_failed()
    assert len(delivered) == SEEDS
    assert all(run.choices for run in result.runs)
    assert all(mine <= oracle for mine, oracle in delivered)
    mine, oracle = map(sum, zip(*delivered))
    assert (mine < oracle) == takes_reposts


def test_a_repost_taken_on_a_tie_fails_schedule_by_schedule(monkeypatch):
    monkeypatch.setattr(Scheduler, "_takes_repost", takes_on_ties)
    build, drive = PROGRAMS["fig2-engine"][0]()
    check = the_oracles_schedule(build, drive, [])
    result = explore(build, seeds=SEEDS, drive=drive, check=check)
    assert len(result.failures) == SEEDS
    assert "not the oracle's" in result.repro
    run, _ = replay(build, result.minimized_choices, drive=drive, check=check)
    assert run.failed


# ---------------------------------------------------------------------------
# Bursts: quantum-bounded vtime unfairness, never a priority inversion
# ---------------------------------------------------------------------------


def burst_fabric():
    """Fig 2 in four tenants at quantum 8, one of them at priority 3."""
    fabric = SessionFabric(quantum=8)
    for name, priority in (("t0", 0), ("t1", 0), ("hot", 3), ("t2", 0)):
        def build(priority=priority):
            return pipeline(
                IterSource(range(24)), GreedyPump(priority=priority),
                Buffer(4), GreedyPump(priority=priority), CollectSink(),
            )

        fabric.open_session(build, name=name)
    return fabric


def no_dispatch_passes_a_more_urgent_thread(patch, continued):
    """Wrap ``Scheduler._account``, which books every dispatch (a pick
    or a taken Repost): it raises when a ready rival is strictly more
    urgent by ``(priority, deadline)``, and lists each dispatch that
    continues a burst in ``continued``."""
    account = Scheduler._account

    def checked(self, thread):
        key = thread.effective_sort_key()
        for rival in self.threads.values():
            if (
                rival is not thread
                and rival.is_ready()
                and rival.effective_sort_key() < key
            ):
                raise AssertionError(
                    f"{thread.name} ran at {key} past {rival.name} at "
                    f"{rival.effective_sort_key()}"
                )
        if (
            thread is self._burst_thread
            and self._burst_left < self.fair_quantum - 1
        ):
            continued.append(thread.name)
        account(self, thread)

    patch.setattr(Scheduler, "_account", checked)


def ignores_a_more_urgent_rival(self, thread):
    """Mutant twin of ``Scheduler._holds_burst`` without its rival test:
    the burst goes on while a more urgent thread is ready."""
    return (
        thread is self._burst_thread
        and self._burst_left > 0
        and not self._deadline_push
        and thread.is_ready()
    )


def test_an_explored_burst_never_passes_a_more_urgent_thread(monkeypatch):
    """The unhooked run too: a burst thread whose own stale heap entry
    holds a more urgent key (its start events) than the cycle it now
    runs gives the CPU up to a rival with a start event still queued."""
    continued = []
    no_dispatch_passes_a_more_urgent_thread(monkeypatch, continued)
    burst_fabric().run_to_completion()
    result = explore(burst_fabric, seeds=SEEDS)
    result.raise_if_failed()
    assert result.distinct_interleavings > 1
    assert len(continued) > SEEDS


def test_a_burst_that_ignores_a_more_urgent_rival_fails(monkeypatch):
    no_dispatch_passes_a_more_urgent_thread(monkeypatch, [])
    monkeypatch.setattr(
        Scheduler, "_holds_burst", ignores_a_more_urgent_rival
    )
    result = explore(burst_fabric, seeds=SEEDS)
    assert result.failures
    assert "past" in result.repro
    run, _ = replay(burst_fabric, result.minimized_choices)
    assert run.failed


# ---------------------------------------------------------------------------
# post_many: a group enters its target's mailbox in order
# ---------------------------------------------------------------------------


def posted_in_order(patch, build):
    """``(build, check)``: ``build`` as given, with a record of every
    ``post_many`` run (per target, in posting order) and of every message
    a thread takes; ``check`` raises when a thread took two messages of
    those runs in the other order."""
    posted: dict[str, list[int]] = {}
    taken: dict[str, list[int]] = {}
    post_many, get = Scheduler.post_many, Mailbox.get

    def recording_post_many(self, messages):
        for message in messages:
            posted.setdefault(message.target, []).append(message.msg_id)
        post_many(self, messages)

    def recording_get(self, match=None):
        message = get(self, match)
        if message is not None:
            taken.setdefault(message.target, []).append(message.msg_id)
        return message

    def recorded_build():
        posted.clear()
        taken.clear()
        return build()

    def check(engine):
        for target, ids in posted.items():
            rank = {msg_id: index for index, msg_id in enumerate(ids)}
            got = [rank[msg_id] for msg_id in taken.get(target, ())
                   if msg_id in rank]
            assert got == sorted(got), (
                f"{target} took a posted run out of order"
            )

    patch.setattr(Scheduler, "post_many", recording_post_many)
    patch.setattr(Mailbox, "get", recording_get)
    return recorded_build, check


@pytest.mark.parametrize("name", ["fig2-engine", "fig9d-engine"])
def test_an_explored_post_many_keeps_each_group_in_order(name, monkeypatch):
    build, drive = PROGRAMS[name][0]()
    build, check = posted_in_order(monkeypatch, build)
    result = explore(build, seeds=SEEDS, drive=drive, check=check)
    result.raise_if_failed()


def test_a_post_many_that_reorders_a_group_fails(monkeypatch):
    """Mutant twin: a run of messages to one target enters its mailbox
    last first (the engine's START fan-out to a thread that owns two
    components is such a run)."""
    put_many = Mailbox.put_many
    monkeypatch.setattr(
        Mailbox, "put_many", lambda self, run: put_many(self, run[::-1])
    )
    build, drive = PROGRAMS["fig2-engine"][0]()
    build, check = posted_in_order(monkeypatch, build)
    result = explore(build, seeds=SEEDS, drive=drive, check=check)
    assert result.failures
    assert "out of order" in result.repro
    run, _ = replay(build, result.minimized_choices, drive=drive, check=check)
    assert run.failed
