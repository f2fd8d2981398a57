"""Tests for trace inspection utilities."""

import pytest

from repro import ClockedPump, CollectSink, CostFilter, Engine, pipeline
from repro.components.sources import CountingSource
from repro.errors import SchedulerError
from repro.mbt.scheduler import Scheduler
from repro.mbt.tracing import format_trace, summarize, switch_counts, timeline


@pytest.fixture()
def traced_engine():
    pipe = pipeline(
        CountingSource(limit=10), ClockedPump(10), CostFilter(0.01),
        CollectSink(),
    )
    engine = Engine(pipe, scheduler=Scheduler(trace=True))
    engine.start()
    engine.run()
    return engine


def test_format_trace_lines(traced_engine):
    text = format_trace(traced_engine.scheduler)
    assert "dispatch" in text
    assert "switch" in text
    assert text.count("\n") > 5


def test_format_trace_filters_and_limits(traced_engine):
    text = format_trace(traced_engine.scheduler, kinds={"dispatch"}, limit=3)
    lines = text.splitlines()
    assert lines[-1] == "..."
    assert all("dispatch" in line for line in lines[:-1])
    assert len(lines) == 4


def test_switch_counts(traced_engine):
    counts = switch_counts(traced_engine.scheduler)
    assert counts
    assert all(count >= 1 for count in counts.values())
    pump_thread = next(n for n in counts if n.startswith("pump:"))
    assert counts[pump_thread] >= 1


def test_timeline_renders_rows(traced_engine):
    chart = timeline(traced_engine.scheduler, width=40)
    lines = chart.splitlines()
    assert len(lines) >= 2  # header + >= 1 thread row
    assert "#" in chart
    pump_row = next(line for line in lines if line.startswith("pump:"))
    assert "#" in pump_row


def test_timeline_columns_attribute_to_exactly_one_thread(traced_engine):
    # Regression: marking both endpoints of each inter-switch interval used
    # to double-book the column a switch fell into.  Each column is one time
    # slot, and exactly one thread holds the CPU at its start instant.
    chart = timeline(traced_engine.scheduler, width=48)
    rows = [line for line in chart.splitlines()[1:] if line]
    label_width = max(line.index("  ") for line in rows)
    grids = [line[label_width + 2:] for line in rows]
    assert all(len(grid) == 48 for grid in grids)
    for column in range(48):
        marks = sum(grid[column] == "#" for grid in grids)
        assert marks == 1, f"column {column} claimed by {marks} threads"


def test_timeline_without_activity():
    from repro.mbt import Scheduler, VirtualClock

    scheduler = Scheduler(clock=VirtualClock(), trace=True)
    assert timeline(scheduler) == "(no activity recorded)"


def test_summarize(traced_engine):
    text = summarize(traced_engine.scheduler)
    assert text.startswith("trace:")
    assert "scheduled" in text


def test_tracing_disabled_raises():
    pipe = pipeline(CountingSource(limit=1), ClockedPump(10), CollectSink())
    engine = Engine(pipe)
    engine.start()
    engine.run()
    with pytest.raises(SchedulerError):
        format_trace(engine.scheduler)
