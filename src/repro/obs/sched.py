"""Scheduler instrumentation: run-queue wait, CPU attribution, inheritance.

The scheduler is where thread transparency becomes thread *opacity*: the
programmer cannot see which pump starved or who inherited whose priority,
so the middleware must measure it.  A :class:`SchedulerProbe` hangs off
``Scheduler._obs`` (``None`` by default — every hook is a single
``is not None`` test, so an uninstrumented scheduler pays one pointer
compare per dispatch) and publishes into the metrics registry:

``repro_sched_run_queue_wait_seconds`` (histogram)
    Virtual time between a thread entering the ready queue and being
    dispatched — the queueing component of every latency in the system.
``repro_sched_dispatches_total{thread=}`` (counter)
    Dispatches per thread.
``repro_sched_cpu_seconds_total{thread=,mode=}`` (counter)
    Per-thread CPU attribution: ``mode="virtual"`` sums simulated ``Work``
    time on the virtual clock; ``mode="wall"`` sums real ``perf_counter``
    time spent inside the dispatch — where the interpreter actually went.
``repro_sched_donations_total{thread=}`` (counter)
    Priority-inheritance donations received (synchronous calls into the
    thread while a more urgent constraint was active).
``repro_sched_constraint_dispatches_total{thread=}`` (counter)
    Dispatches whose message carried an explicit timing constraint.
"""

from __future__ import annotations

from repro.obs.metrics import Counter, Histogram, MetricsRegistry


#: family, help and fixed labels of the per-thread counters that the
#: scheduler reports by thread name.
_BY_NAME = {
    "virtual": (
        "repro_sched_cpu_seconds_total", "CPU time attributed per thread",
        {"mode": "virtual"},
    ),
    "donations": (
        "repro_sched_donations_total",
        "Priority-inheritance donations received", {},
    ),
    "constraints": (
        "repro_sched_constraint_dispatches_total",
        "Dispatches of explicitly constrained messages", {},
    ),
}

#: Where an unowned thread's dispatches go: instruments in no registry.
_UNOWNED = (Histogram("unowned"), Counter("unowned"), Counter("unowned"))


class SchedulerProbe:
    """Publishes scheduler internals into a metrics registry."""

    def __init__(self, registry: MetricsRegistry):
        self.registry = registry
        self.run_queue_wait: Histogram = registry.histogram(
            "repro_sched_run_queue_wait_seconds",
            help="Virtual seconds from ready to dispatched",
        )
        # Per-thread counter caches: one dict lookup per event instead of a
        # registry get-or-create (which canonicalizes labels) per event.
        self._dispatches: dict[str, Counter] = {}
        self._cpu_wall: dict[str, Counter] = {}
        self._by_name: dict[str, dict[str, Counter]] = {
            kind: {} for kind in _BY_NAME
        }
        #: thread name -> the probe whose registry observes it.  Only the
        #: scheduler's probe (the first installed) is ever asked.
        self._owners: dict[str, SchedulerProbe] = {}

    def install(self, scheduler, threads) -> "SchedulerProbe":
        """Observe the named ``threads`` of ``scheduler``.

        A scheduler calls one probe — the first installed on it — and
        that probe routes each event to the probe that owns the thread,
        so sessions sharing a scheduler each see their own threads'
        series and nobody else's; a thread nobody claimed is not
        observed."""
        if scheduler._obs is None:
            scheduler._obs = self
        owners = scheduler._obs._owners
        for name in threads:
            owners[name] = self
        return self

    # ------------------------------------------------------------ hooks
    # Called from the scheduler hot path, always behind an `_obs is not
    # None` guard; everything here may allocate (first sight of a thread)
    # but steady-state is dict hits and scalar adds.

    def _thread_counters(self, thread) -> tuple:
        """(run-queue wait, dispatch, wall) instruments of the thread's
        owner, cached on the thread; throwaway ones for an unowned
        thread, so the hooks never branch on ownership."""
        name = thread.name
        owner = self._owners.get(name)
        if owner is None:
            cached = _UNOWNED
        else:
            dispatches = owner._dispatches[name] = owner.registry.counter(
                "repro_sched_dispatches_total",
                help="Thread dispatches",
                thread=name,
            )
            wall = owner._cpu_wall[name] = owner.registry.counter(
                "repro_sched_cpu_seconds_total",
                help="CPU time attributed per thread",
                thread=name, mode="wall",
            )
            cached = (owner.run_queue_wait, dispatches, wall)
        thread._obs_counters = cached
        return cached

    def on_dispatch(self, thread, now: float) -> None:
        cached = thread._obs_counters or self._thread_counters(thread)
        ready_since = thread._ready_since
        if ready_since is not None:
            thread._ready_since = None
            cached[0].observe(now - ready_since)
        cached[1].value += 1

    def on_wall(self, thread, seconds: float) -> None:
        cached = thread._obs_counters or self._thread_counters(thread)
        cached[2].value += seconds

    def _bump(self, kind: str, thread_name: str, amount: float) -> None:
        owner = self._owners.get(thread_name)
        if owner is None:
            return
        cache = owner._by_name[kind]
        counter = cache.get(thread_name)
        if counter is None:
            family, help_text, labels = _BY_NAME[kind]
            counter = cache[thread_name] = owner.registry.counter(
                family, help=help_text, thread=thread_name, **labels
            )
        counter.value += amount

    def on_cpu(self, thread_name: str, seconds: float) -> None:
        self._bump("virtual", thread_name, seconds)

    def on_donation(self, thread_name: str) -> None:
        self._bump("donations", thread_name, 1)

    def on_constraint(self, thread_name: str) -> None:
        self._bump("constraints", thread_name, 1)

    # ------------------------------------------------------------ reading

    def cpu_seconds(self, mode: str = "virtual") -> dict[str, float]:
        """Per-thread CPU attribution, for reports and tests."""
        cache = self._by_name["virtual"] if mode == "virtual" else self._cpu_wall
        return {name: counter.value for name, counter in cache.items()}

    def dispatch_counts(self) -> dict[str, int]:
        return {
            name: int(counter.value)
            for name, counter in self._dispatches.items()
        }
