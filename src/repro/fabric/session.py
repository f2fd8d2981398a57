"""The session fabric: thousands of pipelines on one scheduler.

A :class:`SessionFabric` is the multi-tenant front-end of the runtime.
Every :meth:`~SessionFabric.open_session` realises its run spec
(:meth:`repro.api.Pipeline.build`) into its own pipeline and its own
:class:`~repro.runtime.engine.Engine` — per-session allocation plans,
event services and stats stay fully isolated — but all engines share ONE
:class:`~repro.mbt.scheduler.Scheduler`.  Thread transparency does the
heavy lifting: a session's pumps and coroutines are just more user-level
threads, so multiplexing N sessions is the same mechanism as running one,
and the scheduler's fair tenants (one per session, one charge per
dispatch) keep a hog from starving its neighbours.

Key properties:

* **live attach/detach** — opening or closing a session never pauses the
  others; it only adds/removes threads and a tenant between dispatches;
* **namespaced names** — components and threads are prefixed with the
  session name (``"s3/source1"``, ``"pump:s3/source1"``), so builds of
  the same program never collide; a session opened with
  ``namespace=False`` keeps bare names (at most one such session — used
  by refinement certificates whose projections match on channel names);
* **parking** — an idle session's threads leave the ready structure
  (:meth:`park`), so idle sessions cost dispatch nothing;
* **crash containment** — a crash of a session's thread moves that
  session to CRASHED (:data:`LIFECYCLE`); every other tenant runs on and
  the run returns normally, so a caller reads ``state`` and ``error``.
"""

from __future__ import annotations

from enum import Enum
from typing import Any

from repro.api import Pipeline, build_program
from repro.errors import DeployError, SchedulerError
from repro.mbt.scheduler import Scheduler
from repro.runtime.engine import Engine, drive_with_io
from repro.runtime.stats import PipelineStats


class SessionState(str, Enum):  # str: the table's key hashes in C
    LIVE = "live"
    PARKED = "parked"
    CRASHED = "crashed"
    CLOSED = "closed"


_S = SessionState
#: The session protocol, ``(state, verb) -> next state``, which park,
#: unpark, close and a crash all take; an edge it lacks is a DeployError.
LIFECYCLE: dict[tuple[SessionState, str], SessionState] = {
    (_S.LIVE, "park"): _S.PARKED, (_S.LIVE, "unpark"): _S.LIVE,
    (_S.LIVE, "crash"): _S.CRASHED, (_S.LIVE, "close"): _S.CLOSED,
    (_S.PARKED, "park"): _S.PARKED, (_S.PARKED, "unpark"): _S.LIVE,
    (_S.PARKED, "crash"): _S.CRASHED, (_S.PARKED, "close"): _S.CLOSED,
    (_S.CRASHED, "crash"): _S.CRASHED, (_S.CRASHED, "close"): _S.CLOSED,
}


class Session:
    """One tenant's pipeline, live on the shared scheduler."""

    def __init__(
        self,
        fabric: "SessionFabric",
        name: str,
        engine: Engine,
        thread_names: tuple[str, ...],
    ):
        self.fabric = fabric
        self.name = name
        self.engine = engine
        self.pipeline = engine.pipeline
        #: Names of the scheduler threads this session owns.
        self.thread_names = thread_names
        self.state = SessionState.LIVE
        self.error: BaseException | None = None  # what crashed it

    # -- convenience ---------------------------------------------------------

    @property
    def threads(self) -> list:
        registry = self.fabric.scheduler.threads
        return [registry[n] for n in self.thread_names if n in registry]

    @property
    def tenant(self):
        return self.fabric.scheduler.tenant(self.name)

    @property
    def stats(self) -> PipelineStats:
        """Per-session pipeline stats — the engine is per-session, so its
        stats already cover exactly this tenant's components."""
        return self.engine.stats

    @property
    def completed(self) -> bool:
        return self.engine.completed

    # -- lifecycle -----------------------------------------------------------

    # A handle reaches the fabric only while the fabric holds it under its
    # name.  A stale one (closed, its name perhaps open again) is CLOSED,
    # whose row holds no edge: park and unpark raise, close does nothing.
    def park(self) -> None:
        if self.fabric.sessions.get(self.name) is not self:
            self._move("park")
        self.fabric.park(self.name)

    def unpark(self) -> None:
        if self.fabric.sessions.get(self.name) is not self:
            self._move("unpark")
        self.fabric.unpark(self.name)

    def close(self) -> None:
        if self.fabric.sessions.get(self.name) is self:
            self.fabric.close_session(self.name)

    def _move(self, verb: str) -> bool:
        """Take ``verb``'s :data:`LIFECYCLE` edge; True if state changed."""
        state = LIFECYCLE.get((self.state, verb))
        if state is None:
            raise DeployError(f"session {self.name!r} is "
                              f"{self.state.value}: no {verb!r}")
        changed, self.state = state is not self.state, state
        return changed

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Session {self.name!r} {self.state.value} "
            f"threads={len(self.thread_names)}>"
        )


class SessionFabric:
    """Multiplexes many sessions over one shared scheduler.

    Parameters
    ----------
    scheduler:
        A ready-made shared scheduler (default: a fresh one over a
        virtual clock, with ``quantum`` as its ``fair_quantum``).
    quantum:
        Dispatch quantum for the fabric's tenants (the scheduler's
        ``fair_quantum``): how many consecutive dispatches one session
        may burst before the fair order is re-evaluated.
        Bursting amortizes ready-queue maintenance and keeps a session's
        working set cache-hot, which is what makes thousand-session
        aggregate throughput comparable to a dedicated engine; fairness
        still holds at quantum granularity (vtime charging is exact and
        per-dispatch).  Set 1 for strict per-dispatch fairness.  Only
        applied when the fabric owns the scheduler.
    """

    def __init__(
        self,
        scheduler: Scheduler | None = None,
        quantum: int = 8,
    ):
        self.scheduler = scheduler or Scheduler(fair_quantum=quantum)
        self.sessions: dict[str, Session] = {}
        self._unnamed = 0
        self._bare_session: str | None = None

    # ------------------------------------------------------------ open

    def open_session(
        self,
        program: Any,
        name: str | None = None,
        namespace: bool = True,
    ) -> Session:
        """Build, attach and start one tenant's pipeline.

        ``program`` is a :class:`repro.api.Pipeline` run spec — whose
        execution options (backend, batching, telemetry) the session
        honours, and whose trace it refuses with a ``DeployError`` (the
        trace is the shared scheduler's) — or a bare program run with
        the defaults: a composed Pipeline, a microlanguage source string,
        or a zero-arg builder callable.  Strings and callables build
        under a private naming scope, so a thousand sessions of the same
        program get identical pre-prefix names.

        Returns the live :class:`Session`.  Attachment is live: no other
        session is paused, resorted or even reindexed.

        An open is all-or-nothing: when the builder, the Typespec check,
        allocation or set-up raises, the bare name scope, whatever
        threads were already spawned, their reservations and the tenant
        are given back and the error propagates unchanged — the fabric
        is as it was.
        """
        if name is None:
            name = f"s{self._unnamed}"
            self._unnamed += 1
        if name in self.sessions:
            raise DeployError(f"session {name!r} already open")
        if not namespace:
            if self._bare_session is not None:
                raise DeployError(
                    f"session {self._bare_session!r} already holds the "
                    "bare (un-namespaced) name scope"
                )
            self._bare_session = name
        engine = None
        try:
            app = Pipeline.of(program)
            if app.trace:
                raise DeployError(
                    f"session {name!r} asks for a trace, but its threads "
                    "run on the fabric's scheduler: trace the fabric, "
                    "SessionFabric(scheduler=Scheduler(trace=True))"
                )
            pipeline = build_program(app.program)
            if namespace:
                for component in pipeline:
                    component.name = f"{name}/{component.name}"
            engine = app.build(pipeline, scheduler=self.scheduler).engine
            engine.setup()
            thread_names = tuple(sorted(
                driver.thread_name for driver in engine.drivers
            ))
            tenant = self.scheduler.add_tenant(name)
            threads = self.scheduler.threads
            for thread_name in thread_names:
                self.scheduler.assign_tenant(threads[thread_name], tenant)
            session = Session(self, name, engine, thread_names)
            self.sessions[name] = session
            engine.start()
        except BaseException:
            self.sessions.pop(name, None)
            self._detach(name, engine)
            raise
        return session

    # ------------------------------------------------------------ close

    def close_session(self, name: str) -> None:
        """Detach a session: stop its services, drop its timers, threads
        and tenant.  Nothing is posted and no handler runs: a STOP would
        reach only the threads being deleted (to have it handled, call
        ``session.engine.stop()`` and run first).  Live: no other session
        is touched.  An error stopping a service propagates, detached."""
        session = self.sessions.pop(name, None)
        if session is None:
            return
        session._move("close")
        try:
            session.engine.stop_services()
        finally:
            self._detach(name, session.engine)

    def _detach(self, name: str, engine: Engine | None) -> None:
        """Give back everything session ``name`` holds — of a closing
        session, or of an open that failed part-way (``engine`` is None
        when not even the engine was built): timers, threads and their
        reservations, tenant, bare name scope.  Touches nothing of any
        other session."""
        if engine is not None:
            for driver in engine.pump_drivers:
                if driver.timer is not None and driver.timer.running:
                    driver.timer.stop()
            threads = self.scheduler.threads
            for driver in engine.drivers:
                thread = threads.get(driver.thread_name)
                # Only a thread whose body is this driver's: a failed open
                # may have collided with a namesake another engine spawned.
                if thread is not None and thread.code == driver.code:
                    self.scheduler.remove_thread(thread.name)
        self.scheduler.remove_tenant(name)
        if self._bare_session == name:
            self._bare_session = None

    # ------------------------------------------------------------ parking

    def park(self, name: str) -> None:
        """Quiesce an idle session: stop its timers and remove every one
        of its threads from the ready structure.  Parked sessions are
        free at dispatch time, whatever their number."""
        session = self._open(name)
        if session._move("park"):
            self._quiesce(session)

    def _quiesce(self, session: Session) -> None:
        for driver in session.engine.pump_drivers:
            if driver.timer is not None and driver.timer.running:
                driver.timer.stop()
        for thread in session.threads:
            self.scheduler.park_thread(thread)

    def unpark(self, name: str) -> None:
        """O(threads) wake: one heap push per thread, then restart timers
        and greedy loops."""
        session = self._open(name)
        if not session._move("unpark"):
            return
        for thread in session.threads:
            self.scheduler.unpark_thread(thread)
        for driver in session.engine.pump_drivers:
            driver.sync_running_state()

    def _open(self, name: str) -> Session:
        session = self.sessions.get(name)
        if session is None:
            raise DeployError(f"session {name!r} is not open")
        return session

    # ------------------------------------------------------------ running

    @property
    def completed(self) -> bool:
        """Every LIVE session completed, and some session is not parked:
        a CRASHED one has ended, so a loop waiting on this (``run_with_io``)
        returns once the last tenant that could run has crashed."""
        ended = [s for s in self.sessions.values() if s.state is not _S.PARKED]
        return bool(ended) and all(
            s.state is _S.CRASHED or s.completed for s in ended)

    def run(
        self, until: float | None = None, max_steps: int | None = None
    ) -> "SessionFabric":
        return self._contained(
            self.scheduler.run, until=until, max_steps=max_steps
        )

    def run_to_completion(self, max_steps: int | None = None) -> "SessionFabric":
        """Run until every live session's pipeline completed."""
        return self._contained(self.scheduler.run, max_steps=max_steps)

    def run_with_io(self, io: Any, **loop: Any) -> "SessionFabric":
        """Fabric-level main loop: alternate scheduler runs with pumping
        a shared I/O source (typically a :class:`repro.net.mux.StreamMux`
        over one shared SocketLink).
        Same contract and keywords as
        :func:`repro.runtime.engine.drive_with_io`."""
        return self._contained(
            drive_with_io, self.scheduler, lambda: self.completed, io, **loop
        )

    def _contained(self, run: Any, *args: Any, **kw: Any) -> "SessionFabric":
        """``run(*args, **kw)`` to its end: a crash of a session's thread
        moves it to CRASHED (parked as :meth:`park` does, the error kept)
        and runs on, as the bounds are absolute; other errors propagate."""
        while True:
            try:
                run(*args, **kw)
                return self
            except SchedulerError as error:
                if not self._contain(error.__cause__):
                    raise

    def _contain(self, cause: Any) -> bool:
        """Crash the session whose thread crashed of ``cause`` (found in
        O(1) through the thread's tenant); False if none did.  Not inline
        in _contained: the kept error's frames would pin its locals."""
        errors = self.scheduler.errors
        # _crash appends the thread's entry right before it raises.
        thread = self.scheduler.threads.get(errors[-1][0]) if errors else None
        if thread is None or thread.crashed is not cause or not thread.tenant:
            return False
        session = self.sessions.get(thread.tenant.name)
        if session is None or thread.name not in session.thread_names:
            return False
        if session._move("crash"):
            session.error = cause
            self._quiesce(session)
        return True
