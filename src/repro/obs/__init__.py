"""Observability: metrics, per-item latency spans, traces, exporters.

End-to-end telemetry for the infopipe runtime, built around three ideas:

* **Inert when off** — components carry no instrumentation and the
  runtime's one plant (a hand per thread, a lane per queue, a meter
  per scheduler thread) is ``None`` until a collector attaches; an
  engine without one runs the identical instruction stream (pinned by
  the golden scheduler traces).
* **No per-item allocation** — the record is positional (one lane entry
  per queued item, read by histograms and flow traces alike) and every
  measurement streams into fixed log-bucket histograms.
* **One source of truth** — the runtime publishes into a single
  :class:`MetricsRegistry`; feedback sensors, ``stats.summary()``
  decoration, and the Prometheus/Chrome/JSONL exporters all read from it.

Typical use::

    from repro.obs import Telemetry

    engine = Engine(pipe)
    telemetry = Telemetry().attach(engine)
    engine.start(); engine.run()
    print(telemetry.prometheus())

or from the CLI: ``python -m repro run --metrics --trace-out trace.json``.
"""

from repro.obs.dashboard import Dashboard, render_top
from repro.obs.exporters import (
    chrome_trace,
    export_chrome_trace,
    export_flow_traces,
    export_jsonl,
    jsonl_events,
    jsonl_flow_traces,
    prometheus_text,
)
from repro.obs.flow import (
    FlowTrace,
    FlowTracer,
    LineageStore,
    TraceContext,
    iter_finished,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    dump_registry,
    merge_dump,
)
from repro.obs.sched import SchedulerProbe
from repro.obs.spans import Telemetry

__all__ = [
    "Counter",
    "Dashboard",
    "FlowTrace",
    "FlowTracer",
    "Gauge",
    "Histogram",
    "LineageStore",
    "MetricError",
    "MetricsRegistry",
    "SchedulerProbe",
    "Telemetry",
    "TraceContext",
    "chrome_trace",
    "dump_registry",
    "export_chrome_trace",
    "export_flow_traces",
    "export_jsonl",
    "iter_finished",
    "jsonl_events",
    "jsonl_flow_traces",
    "merge_dump",
    "prometheus_text",
    "render_top",
]
