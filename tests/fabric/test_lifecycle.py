"""A session's lifecycle is one state moved along one table, and a crash
ends its session, not the shared run.

* A tenant's crash is contained: the fabric moves the crashed session to
  CRASHED and every other tenant runs on to completion — under
  ``run_with_io`` too, which returns.  The two mutant twins are the two
  ways a fabric can fail here: the crash escaping the shared run, and the
  crash swallowed with the session left LIVE (so the loop waits for a
  completion that never comes).
* A crash of a thread no session owns, and any error that is no thread
  crash, propagate unchanged.
* A hypothesis state machine draws open, park, unpark, close, crash (an
  ``inject_crash`` fired from a timer) and run over one fabric, reads the
  expected next state from :data:`repro.fabric.session.LIFECYCLE`, and
  checks the invariants after every step.  Its mutant twin is a crash
  that leaves the session's threads unparked.
"""

import inspect

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro import (
    Buffer,
    ClockedPump,
    CollectSink,
    GreedyPump,
    IterSource,
    MapFilter,
    pipeline,
)
from repro.errors import DeployError, SchedulerError
from repro.fabric import SessionFabric, SessionState
from repro.fabric.session import LIFECYCLE, Session

ITEMS = 5


class CountedIO:
    """An I/O source with nothing to deliver, whose ``wait`` fails after
    ``limit`` calls: a loop that never sees completion fails, not hangs."""

    def __init__(self, limit: int = 50):
        self.limit = limit
        self.waits = 0

    def pump(self) -> bool:
        return False

    def should_stop(self) -> bool:
        return False

    def wait(self, timeout) -> None:
        self.waits += 1
        if self.waits > self.limit:
            raise TimeoutError(f"still waiting after {self.limit} waits")


def three_tenants(names="abc", crashing="b"):
    """Tenants ``names`` (a, b and c) on one fabric; the filters of those
    in ``crashing`` (b) divide by zero."""
    fabric, sinks = SessionFabric(), {}

    def program(name):
        def build():
            sinks[name] = CollectSink()
            convert = (lambda item: item / 0) if name in crashing else (
                lambda item: item)
            return pipeline(IterSource(range(ITEMS)), GreedyPump(),
                            MapFilter(convert), sinks[name])
        return build

    for name in names:
        fabric.open_session(program(name), name=name)
    return fabric, sinks


def check_crash_is_contained():
    fabric, sinks = three_tenants()
    fabric.run_with_io(CountedIO())
    assert fabric.completed
    assert [sinks[name].items for name in "ac"] == [list(range(ITEMS))] * 2
    crashed = fabric.sessions["b"]
    assert crashed.state is SessionState.CRASHED
    assert isinstance(crashed.error, ZeroDivisionError)
    assert all(thread.parked for thread in crashed.threads)


class TestCrashContainment:
    def test_a_tenant_crash_ends_its_session_not_the_run(self):
        check_crash_is_contained()

    def test_a_fabric_whose_crash_escapes_the_run_fails_it(self,
                                                           monkeypatch):
        """The mutant twin of the shared-run abort."""
        monkeypatch.setattr(SessionFabric, "_contain",
                            lambda self, cause: False)
        with pytest.raises(SchedulerError):
            check_crash_is_contained()

    def test_a_fabric_that_swallows_the_crash_fails_it(self, monkeypatch):
        """The mutant twin of the hang: the crash is recorded and the run
        goes on, but the session stays LIVE and never completes."""

        def swallow(self, run, *args, **kw):
            while True:
                try:
                    run(*args, **kw)
                    return self
                except SchedulerError:
                    continue

        monkeypatch.setattr(SessionFabric, "_contained", swallow)
        with pytest.raises(TimeoutError):
            check_crash_is_contained()

    @pytest.mark.parametrize("names", ["b", "bc"])
    def test_a_run_returns_when_every_tenant_crashed(self, names):
        fabric, _ = three_tenants(names, crashing=names)
        fabric.run_with_io(CountedIO())
        assert fabric.completed
        assert {s.state for s in fabric.sessions.values()} == {
            SessionState.CRASHED}

    def test_a_fabric_that_waits_for_a_live_session_fails_it(self,
                                                             monkeypatch):
        """The mutant twin: completion that needs a LIVE session never
        comes once the only tenant crashed, so the loop hangs."""

        def live_only(self):
            live = [s for s in self.sessions.values()
                    if s.state is SessionState.LIVE]
            return bool(live) and all(s.completed for s in live)

        monkeypatch.setattr(SessionFabric, "completed", property(live_only))
        with pytest.raises(TimeoutError):
            self.test_a_run_returns_when_every_tenant_crashed("b")

    def test_every_run_verb_contains_a_crash(self):
        for verb in ("run", "run_to_completion"):
            fabric, sinks = three_tenants()
            getattr(fabric, verb)()
            assert fabric.sessions["b"].state is SessionState.CRASHED
            assert sinks["c"].items == list(range(ITEMS))

    def test_a_crash_outside_any_session_propagates(self):
        fabric, _ = three_tenants()
        fabric.scheduler.spawn("loner", lambda thread, message: None)
        fabric.scheduler.at(0.0, lambda: fabric.scheduler.inject_crash(
            "loner", ValueError("not a tenant's")))
        with pytest.raises(SchedulerError) as raised:
            fabric.run()
        assert isinstance(raised.value.__cause__, ValueError)
        assert fabric.sessions["a"].state is SessionState.LIVE

    def test_an_error_that_is_no_crash_propagates_unchanged(self):
        fabric, _ = three_tenants()
        error = RuntimeError("a timer callback failed")

        def fail():
            raise error

        fabric.scheduler.at(0.0, fail)
        with pytest.raises(RuntimeError) as raised:
            fabric.run()
        assert raised.value is error


class TestLifecycleTable:
    def test_a_crashed_session_only_closes(self):
        fabric, _ = three_tenants()
        fabric.run()
        for verb in (fabric.park, fabric.unpark):
            with pytest.raises(DeployError, match="'b' is crashed: no"):
                verb("b")
        assert fabric.sessions["b"].state is SessionState.CRASHED
        fabric.close_session("b")
        assert "b" not in fabric.sessions

    def test_every_open_state_closes_and_closed_is_final(self):
        states = {state for state, _ in LIFECYCLE}
        assert SessionState.CLOSED not in states
        for state in states:
            assert LIFECYCLE[state, "close"] is SessionState.CLOSED


def check_a_stale_handle_leaves_its_namesake_alone():
    fabric = SessionFabric()

    def program():
        return pipeline(IterSource(range(ITEMS)), GreedyPump(),
                        CollectSink())

    stale = fabric.open_session(program, name="a")
    stale.close()
    fresh = fabric.open_session(program, name="a")
    stale.close()
    assert fabric.sessions.get("a") is fresh
    for verb in (stale.park, stale.unpark):
        with pytest.raises(DeployError, match="'a' is closed: no"):
            verb()
    assert stale.state is SessionState.CLOSED
    assert fresh.state is SessionState.LIVE
    assert not any(thread.parked for thread in fresh.threads)
    fabric.run()
    assert fresh.completed


def handle_verbs() -> list[str]:
    """Every public method of :class:`Session`, read off the class, so a
    verb added later is covered too."""
    return sorted(name for name, member in vars(Session).items()
                  if inspect.isfunction(member) and not name.startswith("_"))


def closed_handle(reopen: bool):
    """A fabric, and the handle of its session 'a', closed — then 'a'
    opened again if ``reopen``."""
    fabric = SessionFabric()

    def program():
        return pipeline(IterSource(range(ITEMS)), GreedyPump(),
                        CollectSink())

    stale = fabric.open_session(program, name="a")
    stale.close()
    if reopen:
        fabric.open_session(program, name="a")
    return fabric, stale


def what_the_fabric_holds(fabric):
    """The namesake's state and threads, and every tenant's account,
    before and after the fabric runs to the end."""
    def now():
        session = fabric.sessions.get("a")
        return (
            session and (session.state, [t.parked for t in session.threads]),
            {name: (tenant.vtime, tenant.dispatches)
             for name, tenant in fabric.scheduler.tenants.items()},
        )

    before = now()
    fabric.run()
    return before, now()


def check_a_stale_handle_reads_nothing(reopen: bool):
    fabric, stale = closed_handle(reopen)
    assert stale.tenant is None
    assert stale.threads == []
    if reopen:
        fresh = fabric.sessions["a"]
        assert fresh.tenant is fabric.scheduler.tenant("a") is not None
        assert fresh.threads and all(thread.name in fresh.thread_names
                                     for thread in fresh.threads)


class TestStaleHandles:
    """A closed session's handle acts on nothing and reads nothing, even
    once its name is open again; its mutant twins route a handle's verbs
    and its reads by name."""

    @pytest.mark.parametrize("reopen", [True, False],
                             ids=["namesake", "no-namesake"])
    @pytest.mark.parametrize("verb", handle_verbs())
    def test_no_verb_of_a_stale_handle_changes_anything(self, verb, reopen):
        fabric, stale = closed_handle(reopen)
        method = getattr(stale, verb)
        # Any value will do for a verb's arguments: a stale handle must
        # refuse the call or ignore it.
        arguments = [2.0 for parameter
                     in inspect.signature(method).parameters.values()
                     if parameter.default is parameter.empty]
        try:
            method(*arguments)
        except DeployError:
            pass
        untouched, _ = closed_handle(reopen)
        assert what_the_fabric_holds(fabric) == what_the_fabric_holds(
            untouched)

    def test_a_stale_handle_leaves_its_namesake_alone(self):
        check_a_stale_handle_leaves_its_namesake_alone()

    def test_a_handle_routed_by_name_closes_its_namesake(self, monkeypatch):
        for verb, act in (("park", SessionFabric.park),
                          ("unpark", SessionFabric.unpark),
                          ("close", SessionFabric.close_session)):
            monkeypatch.setattr(
                Session, verb,
                lambda self, act=act: act(self.fabric, self.name))
        with pytest.raises(AssertionError):
            check_a_stale_handle_leaves_its_namesake_alone()

    @pytest.mark.parametrize("reopen", [True, False],
                             ids=["namesake", "no-namesake"])
    def test_a_stale_handle_reads_no_tenant_and_no_threads(self, reopen):
        check_a_stale_handle_reads_nothing(reopen)

    def test_a_handle_read_by_name_reads_its_namesake(self, monkeypatch):
        def threads(self):
            registry = self.fabric.scheduler.threads
            return [registry[n] for n in self.thread_names if n in registry]

        monkeypatch.setattr(Session, "threads", property(threads))
        monkeypatch.setattr(Session, "tenant", property(
            lambda self: self.fabric.scheduler.tenant(self.name)))
        check_a_stale_handle_reads_nothing(reopen=False)
        with pytest.raises(AssertionError):
            check_a_stale_handle_reads_nothing(reopen=True)


# ---------------------------------------------------------------------------
# The state machine
# ---------------------------------------------------------------------------

RATE_HZ = 100.0
TICK = 1.0 / RATE_HZ


def clocked_program(sink):
    """Two pumps around a buffer: a session with two threads, moving one
    item per tick, so a crash can land mid-stream."""
    return pipeline(IterSource(range(ITEMS)), ClockedPump(RATE_HZ),
                    Buffer(capacity=2), GreedyPump(), sink)


class FabricLifecycle(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.fabric = SessionFabric()
        self.scheduler = self.fabric.scheduler
        self.expected: dict[str, SessionState] = {}
        self.sinks: dict[str, CollectSink] = {}
        self.opened = 0

    def _pick(self, index: int) -> str | None:
        names = sorted(self.expected)
        return names[index % len(names)] if names else None

    @rule()
    def open(self):
        name = f"s{self.opened}"
        self.opened += 1
        sink = self.sinks[name] = CollectSink()
        self.fabric.open_session(lambda: clocked_program(sink), name=name)
        self.expected[name] = SessionState.LIVE

    @rule(verb=st.sampled_from(["park", "unpark", "close"]),
          index=st.integers(0, 7))
    def verb(self, verb, index):
        name = self._pick(index)
        if name is None:
            return
        state = self.expected[name]
        target = LIFECYCLE.get((state, verb))
        call = getattr(self.fabric,
                       "close_session" if verb == "close" else verb)
        if target is None:
            message = f"session {name!r} is {state.value}: no {verb!r}"
            with pytest.raises(DeployError, match=message):
                call(name)
            assert self.fabric.sessions[name].state is state
            return
        session = self.fabric.sessions[name]
        call(name)
        assert session.state is target
        if target is SessionState.CLOSED:
            del self.expected[name]
        else:
            self.expected[name] = target

    @rule(index=st.integers(0, 7), which=st.integers(0, 1))
    def crash(self, index, which):
        """Crash one of a session's threads from a timer, inside a run."""
        name = self._pick(index)
        if name is None:
            return
        scheduler = self.scheduler
        victim = self.fabric.sessions[name].thread_names[which]
        fired = []

        def fire():
            thread = scheduler.threads.get(victim)
            if thread is not None and not thread.terminated:
                fired.append(victim)
                scheduler.inject_crash(victim)

        scheduler.at(scheduler.now(), fire)
        self.fabric.run(until=scheduler.now() + TICK / 2)
        if fired:
            self.expected[name] = LIFECYCLE[self.expected[name], "crash"]
            assert self.fabric.sessions[name].error is not None

    @rule(ticks=st.integers(1, 4))
    def run(self, ticks):
        self.fabric.run(until=self.scheduler.now() + ticks * TICK)

    @invariant()
    def states_are_the_tables(self):
        actual = {name: s.state for name, s in self.fabric.sessions.items()}
        assert actual == self.expected

    @invariant()
    def quiesced_sessions_hold_no_ready_entry(self):
        queued = {entry[6] for entry in self.scheduler._ready_heap}
        for session in self.fabric.sessions.values():
            if session.state is SessionState.LIVE:
                continue
            for thread in session.threads:
                assert thread.parked, (session, thread.name)
                assert thread not in queued, (session, thread.name)

    @invariant()
    def completed_is_every_live_session_completed(self):
        """... and some session is not parked: a crashed one has ended."""
        sessions = self.fabric.sessions.values()
        live = [s for s in sessions if s.state is SessionState.LIVE]
        assert self.fabric.completed == (
            any(s.state is not SessionState.PARKED for s in sessions)
            and all(s.engine.completed for s in live))

    @invariant()
    def sinks_are_prefixes_of_their_reference(self):
        for name in self.expected:
            items = self.sinks[name].items
            assert items == list(range(len(items)))

    def teardown(self):
        self.fabric.run(until=self.scheduler.now() + (ITEMS + 2) * TICK)
        for name, state in self.expected.items():
            if state is SessionState.LIVE:
                assert self.sinks[name].items == list(range(ITEMS)), name


MACHINE_SETTINGS = settings(max_examples=100, stateful_step_count=25,
                            deadline=None)


def test_the_lifecycle_table_is_what_runs():
    run_state_machine_as_test(FabricLifecycle, settings=MACHINE_SETTINGS)


def test_a_crash_that_leaves_its_threads_unparked_fails_it(monkeypatch):
    """The mutant twin: the crash moves the state but skips the park."""
    quiesce = SessionFabric._quiesce

    def leaky(self, session):
        if session.state is not SessionState.CRASHED:
            quiesce(self, session)

    monkeypatch.setattr(SessionFabric, "_quiesce", leaky)
    with pytest.raises(AssertionError):
        run_state_machine_as_test(
            FabricLifecycle,
            settings=settings(MACHINE_SETTINGS, derandomize=True,
                              database=None),
        )
