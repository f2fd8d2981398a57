"""Live observability surfaces: ``repro top`` and the metrics endpoint.

Two ways to watch a pipeline without instrumenting the caller:

* :func:`render_top` / :class:`Dashboard` — a top(1)-style text view of
  the registry's key metrics, the flow tracer's lineage summary and the
  SLO engine's burn rates.  ``render_top`` is a pure function (state in,
  string out) so tests golden it directly; :class:`Dashboard` drives it
  on a refresh loop, through ``curses`` when a real terminal is
  available and plain text (one frame per refresh) everywhere else —
  pipes, CI, dumb terminals.
* :class:`MetricsServer` — a stdlib-only HTTP endpoint
  (``ThreadingHTTPServer``) serving the Prometheus text exposition at
  ``/metrics`` plus JSON snapshots of the flow tracer (``/flow``) and
  the SLO engine (``/slo``).  Bind port 0 to let the OS pick (tests do).

Both are read-only consumers of the same objects the runtime already
maintains — no new bookkeeping on any hot path.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable

# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

#: Families worth a dedicated line in the metrics pane, in display order.
_TOP_FAMILIES = (
    "repro_sched_dispatches_total",
    "repro_buffer_fill_fraction",
    "repro_buffer_wait_seconds",
    "repro_stage_latency_seconds",
    "repro_flow_end_to_end_seconds",
)

_MAX_METRIC_LINES = 24
_MAX_SLOW_TRACES = 5


def _fmt_labels(labels: tuple) -> str:
    if not labels:
        return ""
    return "{" + ",".join(f"{k}={v}" for k, v in labels) + "}"


def _fmt_seconds(value: float) -> str:
    if value >= 1.0:
        return f"{value:.3f}s"
    if value >= 1e-3:
        return f"{value * 1e3:.2f}ms"
    return f"{value * 1e6:.1f}us"


def _metric_lines(registry) -> list[str]:
    """One line per metric, histograms as quantile triples."""
    lines: list[str] = []
    families = registry.families()
    ordered = [f for f in _TOP_FAMILIES if f in families]
    ordered += [f for f in sorted(families) if f not in _TOP_FAMILIES]
    for family in ordered:
        kind = families[family]
        for metric in registry.family(family):
            label = f"{family}{_fmt_labels(metric.labels)}"
            if kind == "histogram":
                if metric.count == 0:
                    continue
                lines.append(
                    f"  {label:<52} p50={_fmt_seconds(metric.p50):>9} "
                    f"p99={_fmt_seconds(metric.p99):>9} n={metric.count}"
                )
            else:
                value = metric.value
                shown = (
                    f"{value:.4g}" if isinstance(value, float) else str(value)
                )
                lines.append(f"  {label:<52} {shown}")
            if len(lines) >= _MAX_METRIC_LINES:
                return lines
    return lines


def _flow_lines(tracer) -> list[str]:
    snap = tracer.snapshot()
    status = " ".join(
        f"{name}={count}"
        for name, count in sorted(snap["by_status"].items())
    ) or "(none finished)"
    lines = [
        f"  births={snap['births']} sampled 1/{snap['sample_every']} "
        f"retained={snap['retained']} evicted={snap['evicted']}",
        f"  {status}",
    ]
    for trace in snap["slowest"][:_MAX_SLOW_TRACES]:
        worst = max(
            trace["segments"], key=lambda seg: seg["duration"], default=None
        )
        where = (
            f"{worst['kind']}@{worst['name']} "
            f"{_fmt_seconds(worst['duration'])}"
            if worst else "-"
        )
        lines.append(
            f"  {trace['trace_id']:<8} e2e={_fmt_seconds(trace['end_to_end']):>9} "
            f"critical: {where}"
        )
    return lines


def _slo_lines(slo) -> list[str]:
    snap = slo.snapshot()
    lines = []
    for series in snap["series"]:
        burns = " ".join(
            f"{window}s={rate:.2f}"
            for window, rate in series["burn_rates"].items()
        )
        marker = "  ALERT" if series["alerting"] else ""
        key = f" key={series['key']}" if series["key"] else ""
        lines.append(
            f"  {series['objective']:<20}{key} burn {burns}{marker}"
        )
    if not lines:
        lines.append("  (no completed traces yet)")
    alerts = snap["alerts"]
    if alerts:
        lines.append(f"  {len(alerts)} objective(s) ALERTING")
    return lines


def _tenant_lines(fabric, limit: int = 12) -> list[str]:
    """Per-tenant rows, busiest first; a huge fleet folds into a tail."""
    rows = fabric.tenant_rows()
    rows.sort(key=lambda row: (-row["dispatches"], row["tenant"]))
    live = sum(1 for row in rows if row["state"] == "live")
    parked = sum(1 for row in rows if row["state"] == "parked")
    lines = [
        f"  sessions={len(rows)} live={live} parked={parked} "
        f"done={len(rows) - live - parked}"
    ]
    for row in rows[:limit]:
        lines.append(
            f"  {row['tenant']:<20} {row['state']:<7} w={row['weight']:<4g} "
            f"items={row['items']:<8} disp={row['dispatches']:<8} "
            f"vt={row['vtime']:.1f}"
        )
    if len(rows) > limit:
        lines.append(f"  … and {len(rows) - limit} more")
    return lines


def render_top(
    registry=None,
    tracer=None,
    slo=None,
    engine=None,
    fabric=None,
    now: float | None = None,
    width: int = 80,
) -> str:
    """Render one dashboard frame as plain text.

    All panes are optional; whatever state is passed gets a section.
    Pure — no I/O, no clock reads beyond the ``now`` argument (or the
    engine's scheduler when given) — so tests can golden the output.
    """
    if now is None and engine is not None:
        now = engine.scheduler.now()
    if now is None and fabric is not None:
        now = fabric.scheduler.now()
    bar = "─" * min(width, 80)
    title = "repro top"
    if now is not None:
        title += f" — virtual t={now:.3f}s"
    lines = [title, bar]
    if engine is not None:
        drivers = getattr(engine, "pump_drivers", [])
        running = sum(1 for driver in drivers if not driver.finished)
        lines.append(
            f"  pumps={len(drivers)} running={running} "
            f"steps={engine.scheduler.steps}"
        )
    if fabric is not None:
        lines.append("TENANTS")
        lines.extend(_tenant_lines(fabric))
    if registry is not None:
        lines.append("METRICS")
        lines.extend(_metric_lines(registry) or ["  (registry empty)"])
    if tracer is not None:
        lines.append("FLOW")
        lines.extend(_flow_lines(tracer))
    if slo is not None:
        lines.append("SLO")
        lines.extend(_slo_lines(slo))
    lines.append(bar)
    return "\n".join(line[:width] for line in lines) + "\n"


# ---------------------------------------------------------------------------
# the dashboard loop
# ---------------------------------------------------------------------------


class Dashboard:
    """Drives :func:`render_top` on a refresh loop.

    ``render`` is any zero-argument callable returning the frame text —
    usually a closure over ``render_top`` with the live objects bound.
    :meth:`run` prefers curses on a real terminal and falls back to
    printing frames; :meth:`run_plain` is the explicit fallback (used
    by ``--plain`` and by CI).
    """

    def __init__(
        self,
        render: Callable[[], str],
        advance: Callable[[], bool] | None = None,
        interval: float = 0.5,
    ):
        self.render = render
        #: Optional step function driving the pipeline between frames;
        #: returns False when there is nothing left to do.
        self.advance = advance
        self.interval = interval
        self.frames_rendered = 0

    def _step(self) -> bool:
        if self.advance is None:
            return False
        return bool(self.advance())

    def run_plain(self, frames: int | None = None, out=None) -> int:
        """Print one frame per refresh; returns frames rendered."""
        import sys

        out = out or sys.stdout
        more = True
        while True:
            out.write(self.render())
            out.flush()
            self.frames_rendered += 1
            if frames is not None and self.frames_rendered >= frames:
                break
            if frames is None and not more:
                break
            if more:
                more = self._step()
        return self.frames_rendered

    def run_curses(self, frames: int | None = None) -> int:
        """Full-screen refresh loop; 'q' quits."""
        import curses

        def loop(screen) -> None:
            curses.curs_set(0)
            screen.nodelay(True)
            more = True
            while True:
                screen.erase()
                text = self.render()
                max_y, max_x = screen.getmaxyx()
                for y, line in enumerate(text.splitlines()[: max_y - 1]):
                    screen.addnstr(y, 0, line, max_x - 1)
                screen.refresh()
                self.frames_rendered += 1
                if frames is not None and self.frames_rendered >= frames:
                    return
                if screen.getch() in (ord("q"), ord("Q")):
                    return
                if not more:
                    curses.napms(int(self.interval * 1000))
                    continue
                more = self._step()

        curses.wrapper(loop)
        return self.frames_rendered

    def run(self, frames: int | None = None, plain: bool = False) -> int:
        """Curses when stdout is a terminal and curses imports; else
        plain frames."""
        import sys

        if not plain and sys.stdout.isatty():
            try:
                return self.run_curses(frames=frames)
            except Exception:
                pass  # no terminfo, broken terminal: fall through
        return self.run_plain(frames=frames)


# ---------------------------------------------------------------------------
# the metrics endpoint
# ---------------------------------------------------------------------------


class MetricsServer:
    """Serves ``/metrics`` (Prometheus text), ``/flow`` and ``/slo``
    (JSON snapshots) from a background thread.

    ::

        server = MetricsServer(registry, tracer=tracer, slo=slo).start()
        print(server.url)          # http://127.0.0.1:<port>/
        ...
        server.stop()
    """

    def __init__(
        self,
        registry=None,
        tracer=None,
        slo=None,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.registry = registry
        self.tracer = tracer
        self.slo = slo
        self.host = host
        self.port = port
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    # -- payloads ------------------------------------------------------------

    def metrics_text(self) -> str:
        if self.registry is None:
            return ""
        from repro.obs.exporters import prometheus_text

        return prometheus_text(self.registry)

    def snapshot(self) -> dict[str, Any]:
        """The combined JSON document served at ``/``."""
        document: dict[str, Any] = {"endpoints": ["/metrics"]}
        if self.tracer is not None:
            document["endpoints"].append("/flow")
            document["flow"] = self.tracer.snapshot()
        if self.slo is not None:
            document["endpoints"].append("/slo")
            document["slo"] = self.slo.snapshot()
        return document

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "MetricsServer":
        if self._httpd is not None:
            raise RuntimeError("metrics server already started")
        server = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):  # quiet
                pass

            def _send(self, body: bytes, content_type: str) -> None:
                self.send_response(200)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_GET(self):
                path = self.path.split("?", 1)[0].rstrip("/") or "/"
                if path == "/metrics":
                    self._send(
                        server.metrics_text().encode(),
                        "text/plain; version=0.0.4; charset=utf-8",
                    )
                elif path == "/flow" and server.tracer is not None:
                    self._send(
                        json.dumps(server.tracer.snapshot()).encode(),
                        "application/json",
                    )
                elif path == "/slo" and server.slo is not None:
                    self._send(
                        json.dumps(server.slo.snapshot()).encode(),
                        "application/json",
                    )
                elif path == "/":
                    self._send(
                        json.dumps(server.snapshot()).encode(),
                        "application/json",
                    )
                else:
                    self.send_error(404)

        self._httpd = ThreadingHTTPServer((self.host, self.port), Handler)
        self.port = self._httpd.server_address[1]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-metrics-server",
            daemon=True,
        )
        self._thread.start()
        return self

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}/"

    def stop(self) -> None:
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
