"""The session fabric: thousands of pipelines on one scheduler.

A :class:`SessionFabric` is the multi-tenant front-end of the runtime.
Every :meth:`~SessionFabric.open_session` realises its run spec
(:meth:`repro.api.Pipeline.build`) into its own pipeline and its own
:class:`~repro.runtime.engine.Engine` — per-session allocation plans,
event services and stats stay fully isolated — but all engines share ONE
:class:`~repro.mbt.scheduler.Scheduler`.  Thread transparency does the
heavy lifting: a session's pumps and coroutines are just more user-level
threads, so multiplexing N sessions is the same mechanism as running one,
and the scheduler's weighted-fair tenants (one per session) keep a hog
from starving its neighbours.

Key properties:

* **live attach/detach** — opening or closing a session never pauses the
  others; it only adds/removes threads and a tenant between dispatches;
* **namespaced names** — components and threads are prefixed with the
  session name (``"s3/source1"``, ``"pump:s3/source1"``), so builds of
  the same program never collide; a session opened with
  ``namespace=False`` keeps bare names (at most one such session — used
  by refinement certificates whose projections match on channel names);
* **parking** — an idle session's threads leave the ready structure
  entirely (:meth:`park`), so dispatch cost is independent of how many
  of the million sessions are idle; :meth:`unpark` is O(threads) heap
  pushes;
* **admission** — an optional
  :class:`~repro.fabric.admission.AdmissionController` prices each open
  against bandwidth/session budgets; its externally-supplied policy may
  reject (raises :class:`SessionRejected`), queue (the request parks in
  ``fabric.pending`` until :meth:`admit_pending`) or degrade (admit at a
  reduced fair-share weight).
"""

from __future__ import annotations

from typing import Any

from repro.api import Pipeline, build_program
from repro.errors import DeployError
from repro.fabric.admission import (
    QUEUE,
    REJECT,
    AdmissionController,
    Decision,
    SessionRequest,
)
from repro.mbt.clock import VirtualClock
from repro.mbt.scheduler import Scheduler
from repro.runtime.engine import Engine, drive_with_io
from repro.runtime.stats import PipelineStats


class SessionRejected(DeployError):
    """Admission control refused the session."""

    def __init__(self, request: SessionRequest, decision: Decision):
        super().__init__(
            f"session {request.name!r} rejected: {decision.reason}"
        )
        self.request = request
        self.decision = decision


class Session:
    """One tenant's pipeline, live on the shared scheduler."""

    def __init__(
        self,
        fabric: "SessionFabric",
        name: str,
        engine: Engine,
        thread_names: tuple[str, ...],
        weight: float,
        decision: Decision | None = None,
    ):
        self.fabric = fabric
        self.name = name
        self.engine = engine
        self.pipeline = engine.pipeline
        #: Names of the scheduler threads this session owns.
        self.thread_names = thread_names
        self.weight = weight
        #: The admission verdict (None when the fabric has no controller).
        self.decision = decision
        self.parked = False
        self.closed = False

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

    def set_weight(self, weight: float) -> None:
        """Live-tune the session's fair share."""
        self.weight = weight
        self.fabric.scheduler.add_tenant(self.name, weight)

    # -- lifecycle -----------------------------------------------------------

    def park(self) -> None:
        self.fabric.park(self.name)

    def unpark(self) -> None:
        self.fabric.unpark(self.name)

    def close(self) -> None:
        self.fabric.close_session(self.name)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = (
            "closed" if self.closed else
            "parked" if self.parked else "live"
        )
        return (
            f"<Session {self.name!r} {state} "
            f"threads={len(self.thread_names)} weight={self.weight}>"
        )


class SessionFabric:
    """Multiplexes many sessions over one shared scheduler.

    Parameters
    ----------
    scheduler:
        A ready-made shared scheduler (default: a fresh one over a
        virtual clock, with ``quantum`` as its ``fair_quantum``).
    admission:
        Optional :class:`AdmissionController`; without one every open is
        accepted.
    quantum:
        Dispatch quantum for the fabric's tenants (the scheduler's
        ``fair_quantum``): how many consecutive dispatches one session
        may burst before the weighted-fair order is re-evaluated.
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
        admission: AdmissionController | None = None,
        quantum: int = 8,
    ):
        if scheduler is None:
            scheduler = Scheduler(
                clock=VirtualClock(), fair_quantum=quantum
            )
        self.scheduler = scheduler
        self.admission = admission
        self.sessions: dict[str, Session] = {}
        #: Requests the admission policy queued: (request, program, kwargs).
        self.pending: list[tuple[SessionRequest, Any, dict]] = []
        self._unnamed = 0
        self._bare_session: str | None = None

    # ------------------------------------------------------------ open

    def open_session(
        self,
        program: Any,
        name: str | None = None,
        weight: float = 1.0,
        namespace: bool = True,
        request: SessionRequest | None = None,
        start: bool = True,
    ) -> Session | None:
        """Build, admit, attach and start one tenant's pipeline.

        ``program`` is a :class:`repro.api.Pipeline` run spec — whose
        execution options (backend, batching, telemetry) the session
        honours — or a bare program run with the defaults: a composed
        Pipeline, a microlanguage source string, or a zero-arg builder
        callable.  Strings and callables build under a private naming
        scope, so a thousand sessions of the same program get identical
        pre-prefix names.

        Returns the live :class:`Session` — or ``None`` when the
        admission policy queued the request (find it in ``pending``).
        Raises :class:`SessionRejected` on a reject verdict.  Attachment
        is live: no other session is paused, resorted or even reindexed.

        An open is all-or-nothing: when the builder, the Typespec check,
        allocation or set-up raises, the admission slot, the bare name
        scope and whatever threads were already spawned are given back
        and the error propagates unchanged — the fabric is as it was.
        """
        if name is None:
            name = f"s{self._unnamed}"
            self._unnamed += 1
        if name in self.sessions:
            raise DeployError(f"session {name!r} already open")
        if not namespace and self._bare_session is not None:
            raise DeployError(
                f"session {self._bare_session!r} already holds the "
                "bare (un-namespaced) name scope"
            )

        decision: Decision | None = None
        if self.admission is not None:
            if request is None:
                request = SessionRequest(name=name, weight=weight)
            decision = self.admission.admit(request)
            if decision.action == REJECT:
                raise SessionRejected(request, decision)
            if decision.action == QUEUE:
                self.pending.append((request, program, dict(
                    weight=weight, namespace=namespace, start=start,
                )))
                return None
            if decision.weight is not None:  # degraded admission
                weight = decision.weight

        if not namespace:
            self._bare_session = name
        engine = None
        try:
            app = Pipeline.of(program)
            pipeline = build_program(app.program)
            if namespace:
                for component in pipeline:
                    component.name = f"{name}/{component.name}"
            engine = app.build(pipeline, scheduler=self.scheduler).engine
            engine.setup()
            thread_names = tuple(sorted(
                driver.thread_name for driver in _drivers(engine)
            ))
            tenant = self.scheduler.add_tenant(name, weight)
            threads = self.scheduler.threads
            for thread_name in thread_names:
                self.scheduler.assign_tenant(threads[thread_name], tenant)
            session = Session(
                self, name, engine, thread_names, weight, decision
            )
            self.sessions[name] = session
            if start:
                engine.start()
        except BaseException:
            self.sessions.pop(name, None)
            self._detach(name, engine)
            raise
        return session

    def admit_pending(self) -> list[Session]:
        """Retry every queued request (capacity may have freed up).

        Requests the policy queues again stay queued; rejects are dropped
        (their ``SessionRejected`` is swallowed — the caller already got
        a ``None`` at open time and can inspect the controller's stats).
        """
        retry, self.pending = self.pending, []
        opened = []
        for request, program, kwargs in retry:
            try:
                session = self.open_session(
                    program, name=request.name, request=request, **kwargs
                )
            except SessionRejected:
                continue
            if session is not None:
                opened.append(session)
        return opened

    # ------------------------------------------------------------ close

    def close_session(self, name: str) -> None:
        """Detach a session: stop its pipeline, drop its threads and its
        tenant.  Live: nothing else is paused.  A crashed session closes
        the same way — its threads just die dirtier first."""
        session = self.sessions.pop(name, None)
        if session is None:
            return
        session.closed = True
        try:
            session.engine.stop()
        except Exception:  # noqa: BLE001 - a crashed tenant still detaches
            pass
        self._detach(name, session.engine)

    def _detach(self, name: str, engine: Engine | None) -> None:
        """Give back everything session ``name`` holds — of a closing
        session, or of an open that failed part-way (``engine`` is None
        when not even the engine was built): timers, threads, tenant,
        admission slot, bare name scope.  Touches nothing of any other
        session."""
        if engine is not None:
            for driver in engine.pump_drivers:
                if driver.timer is not None and driver.timer.running:
                    driver.timer.stop()
            threads = self.scheduler.threads
            for driver in _drivers(engine):
                thread = threads.get(driver.thread_name)
                # Only a thread whose body is this driver's: a failed open
                # may have collided with a namesake another engine spawned.
                body = getattr(thread, "code", None)
                if getattr(body, "__self__", None) is driver:
                    self.scheduler.remove_thread(thread.name)
        self.scheduler.remove_tenant(name)
        if self.admission is not None:
            self.admission.release(name)
        if self._bare_session == name:
            self._bare_session = None

    # ------------------------------------------------------------ parking

    def park(self, name: str) -> None:
        """Quiesce an idle session: stop its timers and remove every one
        of its threads from the ready structure.  Parked sessions are
        free at dispatch time, whatever their number."""
        session = self.sessions[name]
        if session.parked:
            return
        for driver in session.engine.pump_drivers:
            if driver.timer is not None and driver.timer.running:
                driver.timer.stop()
        for thread in session.threads:
            self.scheduler.park_thread(thread)
        session.parked = True

    def unpark(self, name: str) -> None:
        """O(threads) wake: one heap push per thread, then restart timers
        and greedy loops."""
        session = self.sessions[name]
        if not session.parked:
            return
        for thread in session.threads:
            self.scheduler.unpark_thread(thread)
        session.parked = False
        for driver in session.engine.pump_drivers:
            driver.sync_running_state()

    # ------------------------------------------------------------ running

    @property
    def completed(self) -> bool:
        live = [s for s in self.sessions.values() if not s.parked]
        return bool(live) and all(s.completed for s in live)

    def run(
        self, until: float | None = None, max_steps: int | None = None
    ) -> "SessionFabric":
        self.scheduler.run(until=until, max_steps=max_steps)
        return self

    def run_to_completion(self, max_steps: int | None = None) -> "SessionFabric":
        """Run until every un-parked session's pipeline completed."""
        self.scheduler.run(max_steps=max_steps)
        return self

    def run_with_io(self, io: Any, **loop: Any) -> "SessionFabric":
        """Fabric-level main loop: alternate scheduler runs with pumping
        a shared I/O source (typically a :class:`repro.net.mux.StreamMux`
        over one shared SocketLink).
        Same contract and keywords as
        :func:`repro.runtime.engine.drive_with_io`."""
        drive_with_io(self.scheduler, lambda: self.completed, io, **loop)
        return self

    # ------------------------------------------------------------ obs

    def collect_metrics(self, registry) -> None:
        """Publish tenant-labeled gauges into a metrics registry.

        One series per session per family — under a registry cardinality
        cap (:mod:`repro.obs.metrics`), the million-session fabric's tail
        lands in the overflow bucket instead of exhausting memory.
        """
        for name, session in self.sessions.items():
            tenant = session.tenant
            registry.gauge(
                "repro_fabric_session_weight", tenant=name
            ).set(session.weight)
            registry.gauge(
                "repro_fabric_session_threads", tenant=name
            ).set(len(session.thread_names))
            registry.gauge(
                "repro_fabric_session_parked", tenant=name
            ).set(1.0 if session.parked else 0.0)
            if tenant is not None:
                registry.gauge(
                    "repro_fabric_tenant_vtime", tenant=name
                ).set(tenant.vtime)
                registry.gauge(
                    "repro_fabric_tenant_dispatches", tenant=name
                ).set(tenant.dispatches)

    def tenant_rows(self) -> list[dict]:
        """Per-tenant summary rows for the ``repro top`` tenant view."""
        rows = []
        for name, session in sorted(self.sessions.items()):
            tenant = session.tenant
            stats = session.engine.stats
            moved = sum(
                d.items_moved for d in session.engine.pump_drivers
            )
            rows.append({
                "tenant": name,
                "state": "parked" if session.parked else (
                    "done" if session.completed else "live"
                ),
                "weight": session.weight,
                "threads": len(session.thread_names),
                "items": moved,
                "dispatches": tenant.dispatches if tenant else 0,
                "vtime": tenant.vtime if tenant else 0.0,
                "time": stats.time,
            })
        return rows


def _drivers(engine: Engine) -> tuple:
    """``engine``'s pump and coroutine drivers: the only spawn sites, so
    they enumerate a session's threads without an O(total-threads)
    registry diff (which would make N opens O(N^2))."""
    return (*engine.pump_drivers, *engine._coroutine_drivers.values())
