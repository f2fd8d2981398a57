"""Scheduler instrumentation: run-queue wait, CPU attribution, inheritance.

The scheduler is where thread transparency becomes thread *opacity*: the
programmer cannot see which pump starved or who inherited whose priority,
so the middleware must measure it.  :meth:`SchedulerProbe.install` plants
a :class:`ThreadMeter` on each thread it observes (``MThread.meter``,
``None`` by default — every hook is a single ``is not None`` test on the
thread, so an unmetered thread pays one pointer compare per dispatch),
and each meter publishes into its owner's metrics registry:

``repro_sched_run_queue_wait_seconds`` (histogram)
    Virtual time between a thread entering the ready queue and being
    dispatched — the queueing component of every latency in the system —
    read on every ``stride``-th dispatch of a thread (see ThreadMeter).
``repro_sched_dispatches_total{thread=}`` (counter)
    Dispatches per thread: exact, read off the meter's countdown.
``repro_sched_cpu_seconds_total{thread=,mode=}`` (counter)
    Per-thread CPU attribution: ``mode="virtual"`` sums simulated ``Work``
    time on the virtual clock; ``mode="wall"`` sums real ``perf_counter``
    time spent inside the dispatch — where the interpreter actually went.
``repro_sched_donations_total{thread=}`` (counter)
    Priority-inheritance donations received (synchronous calls into the
    thread while a more urgent constraint was active).
``repro_sched_constraint_dispatches_total{thread=}`` (counter)
    Dispatches whose message carried an explicit timing constraint.

Sessions sharing a fabric's scheduler each plant their own threads, so
each registry sees its own threads' series and nobody else's; a removed
thread takes its meter with it.
"""

from __future__ import annotations

from repro.obs.metrics import Counter, Histogram, MetricsRegistry

_CPU = "repro_sched_cpu_seconds_total"
_CPU_HELP = "CPU time attributed per thread"


class ThreadMeter:
    """One thread's scheduler instruments in its owner's registry.

    A series is created the first time its event happens, so a run
    exposes exactly the series it exercised.  The scheduler counts
    ``countdown`` down per dispatch and calls :meth:`on_dispatch`, which
    reads the clock, only when it runs out: every ``hand.stride``-th one.
    ``dispatches`` is a view: ``counted`` up to that one, ``span -
    countdown`` since.
    """

    __slots__ = (
        "registry", "thread", "run_queue_wait", "ready_since", "hand",
        "countdown", "span", "counted", "dispatches", "wall", "virtual",
        "donations", "constraints",
    )

    def __init__(self, registry: MetricsRegistry, thread: str,
                 run_queue_wait: Histogram, hand=None):
        self.registry = registry
        self.thread = thread
        self.run_queue_wait = run_queue_wait
        #: Virtual time the thread entered the ready queue (the scheduler
        #: stamps it); None while it is not waiting.
        self.ready_since: float | None = None
        self.hand = hand  # whose ``stride`` is the meter's (None: 1)
        self.countdown = self.span = 1
        self.counted = 0
        self.dispatches: Counter | None = None
        self.wall: Counter | None = None
        self.virtual: Counter | None = None
        self.donations: Counter | None = None
        self.constraints: Counter | None = None

    def _counter(self, family: str, help_text: str, fn=None,
                 **labels) -> Counter:
        return self.registry.counter(
            family, help_text, fn, thread=self.thread, **labels
        )

    # ------------------------------------------------------------ hooks
    # Called from the scheduler hot path behind a `meter is not None`
    # test; steady state is attribute hits and scalar adds.

    def on_dispatch(self, now: float) -> None:
        """A sampled dispatch: restart the countdown, record the wait."""
        self.counted += self.span
        hand = self.hand
        self.span = self.countdown = 1 if hand is None else hand.stride
        if hand is not None:
            hand.timed = True  # the cycle this dispatch runs is timed too
        if self.dispatches is None:
            self.dispatches = self._counter(
                "repro_sched_dispatches_total", "Thread dispatches",
                lambda: self.counted + self.span - self.countdown,
            )
            self.wall = self._counter(_CPU, _CPU_HELP, mode="wall")
        ready_since = self.ready_since
        if ready_since is not None:
            self.ready_since = None
            self.run_queue_wait.observe(now - ready_since)

    def on_wall(self, seconds: float) -> None:
        self.wall._value += seconds

    def on_cpu(self, seconds: float) -> None:
        if self.virtual is None:
            self.virtual = self._counter(_CPU, _CPU_HELP, mode="virtual")
        self.virtual._value += seconds

    def on_donation(self) -> None:
        if self.donations is None:
            self.donations = self._counter(
                "repro_sched_donations_total",
                "Priority-inheritance donations received",
            )
        self.donations._value += 1

    def on_constraint(self) -> None:
        if self.constraints is None:
            self.constraints = self._counter(
                "repro_sched_constraint_dispatches_total",
                "Dispatches of explicitly constrained messages",
            )
        self.constraints._value += 1


class SchedulerProbe:
    """Publishes scheduler internals into a metrics registry."""

    def __init__(self, registry: MetricsRegistry):
        self.registry = registry
        self.run_queue_wait: Histogram = registry.histogram(
            "repro_sched_run_queue_wait_seconds",
            help="Virtual seconds from ready to dispatched",
        )
        self._meters: dict[str, ThreadMeter] = {}

    def install(self, scheduler, threads) -> "SchedulerProbe":
        """Plant a meter on each of ``scheduler``'s threads named in
        ``threads`` (spawned already; a mapping gives each one's Hand,
        whose stride the meter samples on); other threads stay unmetered."""
        for name in threads:
            hand = threads[name] if isinstance(threads, dict) else None
            meter = ThreadMeter(self.registry, name, self.run_queue_wait, hand)
            scheduler.threads[name].meter = self._meters[name] = meter
        return self

    # ------------------------------------------------------------ reading

    def cpu_seconds(self, mode: str = "virtual") -> dict[str, float]:
        """Per-thread CPU attribution, for reports and tests."""
        series = (
            (name, meter.virtual if mode == "virtual" else meter.wall)
            for name, meter in self._meters.items()
        )
        return {name: c.value for name, c in series if c is not None}

    def dispatch_counts(self) -> dict[str, int]:
        return {
            name: int(meter.dispatches.value)
            for name, meter in self._meters.items()
            if meter.dispatches is not None
        }
