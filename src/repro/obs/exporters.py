"""Exporters: Chrome trace-event JSON, JSONL event logs, Prometheus text.

Serializations of what the middleware observed:

* :func:`chrome_trace` / :func:`export_chrome_trace` — the Trace Event
  Format understood by ``chrome://tracing`` and Perfetto: one track per
  MThread, a complete ("X") slice for every interval a thread held the
  CPU (from ``switch`` events), and instant events for dispatches,
  blocks, preemptions and crashes.  Virtual seconds are exported as
  microseconds, the format's native unit.  Passing ``flows=`` overlays
  causal flow traces (:mod:`repro.obs.flow`): one slice per trace
  segment on the track of the component/thread that held the item, tied
  together by cross-track flow arrows ("s"/"t"/"f" events) so the
  viewer draws each item's journey end to end.
* :func:`jsonl_events` / :func:`export_jsonl` — the raw scheduler event
  stream, one JSON object per line, for ad-hoc ``jq``-style analysis.
* :func:`jsonl_flow_traces` / :func:`export_flow_traces` — finished flow
  traces as JSON lines (one item lineage per line): the trace log.
* :func:`prometheus_text` — Prometheus text exposition (version 0.0.4) of
  a :class:`~repro.obs.metrics.MetricsRegistry`: counters and gauges as
  single samples, histograms as the full cumulative
  ``_bucket``/``_sum``/``_count`` ladder (every bound plus ``+Inf``), the
  stable le-series ``histogram_quantile`` needs.

All work on either a live :class:`~repro.mbt.scheduler.Scheduler`
(full trace or flight-recorder ring) or a plain list of trace tuples.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable

from repro.mbt.scheduler import Scheduler
from repro.obs.metrics import MetricsRegistry

_SECONDS_TO_US = 1e6
#: The one process id every slice carries (a trace is one scheduler).
_PID = 1


def _trace_of(source) -> tuple[list[tuple], float | None]:
    """Accept a Scheduler or an iterable of trace tuples."""
    if isinstance(source, Scheduler):
        return list(source.trace), source.now()
    return list(source), None


class _TidMap:
    """Stable thread-name -> integer track ids, in order of appearance."""

    def __init__(self):
        self._ids: dict[str, int] = {}

    def tid(self, name: str) -> int:
        tid = self._ids.get(name)
        if tid is None:
            tid = len(self._ids) + 1
            self._ids[name] = tid
        return tid

    def items(self):
        return self._ids.items()


def _flow_traces_of(flows) -> list:
    """Accept a FlowTracer, a LineageStore, or an iterable of FlowTrace;
    return the finished traces."""
    from repro.obs.flow import FlowTracer, LineageStore, iter_finished

    if isinstance(flows, (FlowTracer, LineageStore)):
        return list(iter_finished(flows))
    return [trace for trace in flows if trace.status != "in-flight"]


def _flow_events(flows, tids: _TidMap) -> list[dict[str, Any]]:
    """Per-segment slices plus cross-track flow arrows for each trace.

    Every segment becomes an "X" slice on the track of the place that
    held the item (component name for wait/wire segments, thread name
    for service segments); consecutive segments are linked by flow
    events ("s" start, "t" step, "f" finish) sharing the trace id, which
    the viewer renders as arrows across tracks.
    """
    events: list[dict[str, Any]] = []
    for trace in _flow_traces_of(flows):
        segments = trace.segments
        if not segments:
            continue
        at = trace.birth_ts
        last = len(segments) - 1
        for index, (kind, name, duration) in enumerate(segments):
            tid = tids.tid(name)
            time_stamp = at * _SECONDS_TO_US
            events.append({
                "ph": "X", "ts": time_stamp,
                "dur": max(0.0, duration) * _SECONDS_TO_US,
                "pid": _PID, "tid": tid,
                "name": f"flow:{kind}", "cat": "flow",
                "args": {
                    "trace": trace.trace_id, "at": name,
                    "status": trace.status,
                },
            })
            if last > 0:  # a lone segment has nothing to arrow to
                arrow: dict[str, Any] = {
                    "ph": (
                        "s" if index == 0
                        else ("f" if index == last else "t")
                    ),
                    "ts": time_stamp, "pid": _PID, "tid": tid,
                    "name": "flow", "cat": "flow", "id": trace.trace_id,
                }
                if index == last:
                    arrow["bp"] = "e"
                events.append(arrow)
            at += duration
    return events


def chrome_trace(
    source, end: float | None = None, flows=None
) -> dict[str, Any]:
    """Build a Chrome trace-event document from a scheduler trace.

    ``end`` closes the final running slice (defaults to the scheduler's
    current time when ``source`` is a scheduler, else the last event time).
    ``flows`` (a :class:`~repro.obs.flow.FlowTracer`, a
    :class:`~repro.obs.flow.LineageStore`, or an iterable of
    :class:`~repro.obs.flow.FlowTrace`) overlays item lineages as
    per-segment slices linked by cross-track flow arrows; the default
    (``None``) output is unchanged.
    """
    trace, now = _trace_of(source)
    if end is None:
        end = now if now is not None else (trace[-1][0] if trace else 0.0)
    tids = _TidMap()
    events: list[dict[str, Any]] = []

    def instant(time_stamp: float, thread: str, name: str) -> None:
        events.append({
            "ph": "i", "ts": time_stamp * _SECONDS_TO_US, "pid": _PID,
            "tid": tids.tid(thread), "name": name, "s": "t",
        })

    switches = [
        (event[0], event[3]) for event in trace if event[1] == "switch"
    ]
    for (t_from, thread), (t_to, _next) in zip(
        switches, switches[1:] + [(max(end, switches[-1][0]), None)]
    ) if switches else []:
        events.append({
            "ph": "X", "ts": t_from * _SECONDS_TO_US,
            "dur": max(0.0, (t_to - t_from)) * _SECONDS_TO_US,
            "pid": _PID, "tid": tids.tid(thread),
            "name": "run", "cat": "sched",
        })

    for event in trace:
        time_stamp, kind = event[0], event[1]
        if kind == "dispatch":
            instant(time_stamp, event[2], f"dispatch {event[3]}")
        elif kind == "block":
            instant(time_stamp, event[2], f"block {event[3]}")
        elif kind == "preempt":
            instant(time_stamp, event[2], "preempt")
        elif kind == "deliver":
            instant(time_stamp, event[4], f"deliver {event[2]}")
        elif kind == "crash":
            instant(time_stamp, event[2], "crash")
        elif kind == "terminate":
            instant(time_stamp, event[2], "terminate")

    if flows is not None:
        events.extend(_flow_events(flows, tids))

    metadata = [
        {
            "ph": "M", "ts": 0, "pid": _PID, "tid": tid,
            "name": "thread_name", "args": {"name": thread},
        }
        for thread, tid in tids.items()
    ]
    return {
        "traceEvents": metadata + events,
        "displayTimeUnit": "ms",
        "otherData": {"exporter": "repro.obs", "clock": "virtual-seconds"},
    }


def export_chrome_trace(source, path: str | Path, flows=None) -> dict[str, Any]:
    """Write a Chrome trace-event JSON file; returns the document."""
    document = chrome_trace(source, flows=flows)
    Path(path).write_text(json.dumps(document))
    return document


def jsonl_events(source) -> Iterable[str]:
    """The scheduler event stream as JSON lines."""
    trace, _ = _trace_of(source)
    for time_stamp, kind, *details in trace:
        yield json.dumps(
            {"ts": time_stamp, "kind": kind,
             "args": [repr(d) if not _plain(d) else d for d in details]},
        )


def _plain(value) -> bool:
    return value is None or isinstance(value, (str, int, float, bool))


def export_jsonl(source, path: str | Path) -> int:
    """Write the event stream as a ``.jsonl`` file; returns line count."""
    lines = list(jsonl_events(source))
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))
    return len(lines)


def jsonl_flow_traces(flows) -> Iterable[str]:
    """Finished flow traces as JSON lines — the flow trace log.

    ``flows`` is a :class:`~repro.obs.flow.FlowTracer`, a
    :class:`~repro.obs.flow.LineageStore`, or an iterable of
    :class:`~repro.obs.flow.FlowTrace`.
    """
    for trace in _flow_traces_of(flows):
        yield json.dumps(trace.to_dict())


def export_flow_traces(flows, path: str | Path) -> int:
    """Write the flow trace log as a ``.jsonl`` file; returns line count."""
    lines = list(jsonl_flow_traces(flows))
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))
    return len(lines)


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------


def _format_value(value) -> str:
    if isinstance(value, bool):  # pragma: no cover - defensive
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float) and value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _format_labels(labels: tuple) -> str:
    if not labels:
        return ""
    body = ",".join(f'{key}="{value}"' for key, value in labels)
    return "{" + body + "}"


def prometheus_text(registry: MetricsRegistry) -> str:
    """Prometheus text exposition of every metric in the registry.

    Deterministic: families sorted by name, samples sorted by label tuple
    (guaranteed by :meth:`MetricsRegistry.collect`), so the output is
    golden-testable.
    """
    lines: list[str] = []
    for family, kind, metrics in registry.collect():
        help_text = registry.help_text(family)
        if help_text:
            lines.append(f"# HELP {family} {help_text}")
        lines.append(f"# TYPE {family} {kind}")
        for metric in metrics:
            for name, labels, value in metric.samples():
                lines.append(
                    f"{name}{_format_labels(labels)} {_format_value(value)}"
                )
    return "\n".join(lines) + ("\n" if lines else "")
