"""Live observability surface: ``repro top``.

:func:`render_top` / :class:`Dashboard` — a top(1)-style text view of the
registry's key metrics and the flow tracer's lineage summary, a
read-only consumer of the objects the runtime already maintains (no new
bookkeeping on any hot path).  ``render_top`` is a pure function (state
in, string out) so tests golden it directly; :class:`Dashboard` drives it
on a refresh loop, through ``curses`` when a real terminal is available
and plain text (one frame per refresh) everywhere else — pipes, CI, dumb
terminals.
"""

from __future__ import annotations

from typing import Callable

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


def render_top(
    registry=None,
    tracer=None,
    engine=None,
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
    bar = "─" * min(width, 80)
    title = "repro top"
    if now is not None:
        title += f" — virtual t={now:.3f}s"
    lines = [title, bar]
    if engine is not None:
        drivers = engine.pump_drivers
        running = sum(1 for driver in drivers if not driver.finished)
        lines.append(
            f"  pumps={len(drivers)} running={running} "
            f"steps={engine.scheduler.steps}"
        )
    if registry is not None:
        lines.append("METRICS")
        lines.extend(_metric_lines(registry) or ["  (registry empty)"])
    if tracer is not None:
        lines.append("FLOW")
        lines.extend(_flow_lines(tracer))
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
