"""Per-item latency spans and the pipeline telemetry front-end.

Span model
----------
A data item's journey decomposes into alternating *service* and *wait*
segments: a pump's cycle moves it through a section (service), it parks in
a buffer or netpipe receive queue (wait), a coroutine crossing hands it to
another thread (round trip = queue wait + service there).  The middleware
owns every one of those boundaries, so it can measure them all without the
item carrying anything.

The span context is therefore *positional*, not per-item: every FIFO
boundary has a lane (enqueue time is popped with the item, the difference
is the wait) and every thread a hand that is its cycle clock — the same
:class:`~repro.obs.flow.Lane` / :class:`~repro.obs.flow.Hand` plant the
flow tracer reads, so the two collectors cannot disagree about a wait.
Each closed segment streams straight into a fixed log-bucket
:class:`~repro.obs.metrics.Histogram` — **no allocation travels with the
item**, which is what lets the instrumentation stay on under production
load.  Only the scheduler trace (and its ring, the flight recorder) and
the trace exporters materialize individual events.

Metric families published by :class:`Telemetry`:

``repro_buffer_wait_seconds{component=}``
    Enqueue-to-dequeue wait in each buffer and netpipe receive queue.
``repro_stage_latency_seconds{stage=}``
    Pump-cycle service time: one item moved through the pump's section.
``repro_coroutine_roundtrip_seconds{component=}``
    ip-push/ip-pull request-to-reply latency across a coroutine boundary.
``repro_buffer_fill_fraction{component=}``, ``repro_component_items_total
{component=,direction=}``, ``repro_component_drops_total{component=}``
    Callback gauges mirroring the component stats dicts — the single
    source :class:`~repro.feedback.sensors.MetricSensor` reads from.
``repro_pipeline_*``
    Engine/scheduler aggregates (context switches, messages, dead letters,
    virtual time).

Scheduler metrics come from :class:`~repro.obs.sched.SchedulerProbe`.

Usage::

    engine = Engine(pipe)
    telemetry = Telemetry().attach(engine)
    engine.start(); engine.run()
    print(telemetry.prometheus())
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.components.buffers import Buffer
from repro.obs.flow import plant, plant_lane
from repro.obs.metrics import MetricsRegistry
from repro.obs.sched import SchedulerProbe

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.engine import Engine


class Telemetry:
    """Wires the observability layer through a pipeline engine.

    Attaching installs the :class:`SchedulerProbe` (run-queue wait, CPU
    attribution, constrained-dispatch counters) and the three span families
    (buffer waits, stage latency, coroutine round trips); it is *inert
    when absent*: an engine without telemetry runs the exact same
    instruction stream it did before this module existed (golden scheduler
    traces pin that bit-for-bit).  It publishes into its own fresh
    :class:`MetricsRegistry`, ``registry``.
    """

    def __init__(self):
        self.registry = MetricsRegistry()
        self.scheduler_probe: SchedulerProbe | None = None
        self._engine: "Engine | None" = None

    # ------------------------------------------------------------ attach

    def attach(self, engine: "Engine") -> "Telemetry":
        if self._engine is not None:
            raise RuntimeError("telemetry is already attached")
        hands = plant(engine)
        self._engine = engine
        engine._telemetry = self
        self.scheduler_probe = SchedulerProbe(self.registry).install(
            engine.scheduler, hands
        )
        for component in engine.pipeline.components:
            self._publish_component(component)
        self._publish_engine(engine)

        # The three span families hang off the shared plant, which the
        # runtime reads as it runs: nothing here is bound into a compiled
        # walker, so attaching never recompiles them.
        registry = self.registry
        for driver in engine.pump_drivers:
            hands[driver.thread_name].stage = registry.histogram(
                "repro_stage_latency_seconds",
                help="Pump-cycle service time per section",
                stage=driver.origin.name,
            )
        rtt = {
            driver.thread_name: registry.histogram(
                "repro_coroutine_roundtrip_seconds",
                help="ip-push/ip-pull request-to-reply latency",
                component=component.name,
            )
            for component, driver in engine._coroutine_drivers.items()
        }
        for hand in hands.values():
            hand.rtt = rtt
        for component in engine._gates:
            plant_lane(engine, component).wait = registry.histogram(
                "repro_buffer_wait_seconds",
                help="Enqueue-to-dequeue wait per boundary queue",
                component=component.name,
            )
        return self

    def _publish_component(self, component) -> None:
        registry = self.registry
        name = component.name
        stats = component.stats
        for direction in ("in", "out"):
            registry.gauge(
                "repro_component_items_total",
                help="Items through each component (mirrors stats)",
                fn=lambda s=stats, k=f"items_{direction}": s.get(k, 0),
                component=name, direction=direction,
            )
        for direction in ("in", "out"):
            registry.gauge(
                "repro_component_bytes_total",
                help="Payload bytes through each component (mirrors stats)",
                fn=lambda s=stats, k=f"bytes_{direction}": s.get(k, 0),
                component=name, direction=direction,
            )
        registry.gauge(
            "repro_component_drops_total",
            help="Declared drops per component",
            fn=lambda s=stats: sum(
                v for k, v in s.items()
                if isinstance(v, int) and (k == "drops" or k.startswith("dropped"))
            ),
            component=name,
        )
        if isinstance(component, Buffer):
            registry.gauge(
                "repro_buffer_fill_fraction",
                help="Buffer fill fraction (0..1)",
                fn=lambda c=component: c.fill_fraction,
                component=name,
            )

    def _publish_engine(self, engine: "Engine") -> None:
        registry = self.registry
        scheduler = engine.scheduler
        registry.gauge(
            "repro_pipeline_context_switches_total",
            help="Scheduler context switches",
            fn=lambda s=scheduler: s.context_switches,
        )
        registry.gauge(
            "repro_pipeline_messages_delivered_total",
            help="Messages delivered by the scheduler",
            fn=lambda s=scheduler: s.messages_delivered,
        )
        registry.gauge(
            "repro_pipeline_dead_letters",
            help="Undeliverable messages currently retained",
            fn=lambda s=scheduler: len(s.dead_letters),
        )
        registry.gauge(
            "repro_pipeline_dead_letters_dropped_total",
            help="Dead letters evicted past the retention bound",
            fn=lambda s=scheduler: s.dead_letters_dropped,
        )
        registry.gauge(
            "repro_pipeline_virtual_time_seconds",
            help="Pipeline clock at sample time",
            fn=scheduler.now,
        )
        registry.gauge(
            "repro_pipeline_coroutine_switches_total",
            help="Coroutine-boundary crossings",
            fn=lambda e=engine: (
                e._flush_switches(),
                e.stats_counters["coroutine_switches"],
            )[1],
        )

    # ------------------------------------------------------------ reading

    def prometheus(self) -> str:
        from repro.obs.exporters import prometheus_text

        return prometheus_text(self.registry)

    #: Histogram family -> (stats key prefix, label key) for decorate().
    _DECORATE = {
        "repro_buffer_wait_seconds": ("wait", "component"),
        "repro_stage_latency_seconds": ("service", "stage"),
        "repro_coroutine_roundtrip_seconds": ("coro_rtt", "component"),
    }

    def decorate(self, stats) -> None:
        """Fold latency aggregates into a :class:`PipelineStats` snapshot.

        Adds float entries (``wait_p50/p95/p99``, ``service_*``,
        ``coro_rtt_*``) to the per-component counter dicts, so
        ``stats.summary()`` shows latency next to the item counts."""
        for family, (prefix, label_key) in self._DECORATE.items():
            for hist in self.registry.family(family):
                if hist.count == 0:
                    continue
                target = dict(hist.labels).get(label_key)
                if target is None:
                    continue
                counters = stats.components.setdefault(target, {})
                counters[f"{prefix}_p50"] = hist.p50
                counters[f"{prefix}_p95"] = hist.p95
                counters[f"{prefix}_p99"] = hist.p99
                counters[f"{prefix}_mean"] = hist.mean
