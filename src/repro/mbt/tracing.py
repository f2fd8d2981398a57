"""Trace inspection utilities.

Thread transparency hides threads from the *programmer*; when something
behaves unexpectedly, the middleware owes them visibility back.  With
``Engine(pipe, trace=True)`` the scheduler records every switch, dispatch,
block and preemption; the helpers here turn that record into something a
human can read.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from repro.mbt.scheduler import Scheduler


def format_events(
    events: Iterable[tuple],
    kinds: Iterable[str] | None = None,
    limit: int | None = None,
    header: str = "",
) -> str:
    """One line per ``(time, kind, *details)`` event: ``time  kind  details``.

    The one rendering of a scheduler event — :func:`format_trace`, the
    flight recorder's dump and the checker's trace tails all come here.
    ``kinds`` keeps only those kinds, ``limit`` stops after that many
    lines and marks the cut with ``...``, and ``header`` (say, how many
    earlier events a ring evicted) goes first when given.
    """
    wanted = set(kinds) if kinds is not None else None
    lines = [header] if header else []
    shown = 0
    for time_stamp, kind, *details in events:
        if wanted is not None and kind not in wanted:
            continue
        rendered = " ".join(str(d) for d in details)
        lines.append(f"{time_stamp:10.6f}  {kind:<10} {rendered}")
        shown += 1
        if limit is not None and shown >= limit:
            lines.append("...")
            break
    return "\n".join(lines)


def format_trace(
    scheduler: Scheduler,
    kinds: Iterable[str] | None = None,
    limit: int | None = None,
) -> str:
    """The scheduler's recorded trace, through :func:`format_events`."""
    return format_events(scheduler.trace, kinds, limit)


def format_tail(trace: Iterable[tuple] | None, limit: int) -> str:
    """The last ``limit`` events of ``trace`` (a list or a ring), under a
    line saying how many came before them."""
    events = list(trace or ())
    tail = events[-limit:]
    earlier = len(events) - len(tail)
    return format_events(
        tail, header=f"... ({earlier} earlier events)" if earlier else ""
    )


def switch_counts(scheduler: Scheduler) -> dict[str, int]:
    """How often each thread received the CPU."""
    counts: Counter[str] = Counter()
    for event in scheduler.trace:
        if event[1] == "switch":
            counts[event[3]] += 1
    return dict(counts)


def timeline(scheduler: Scheduler, width: int = 64) -> str:
    """A text Gantt chart: one row per thread, one column per time slot.

    ``#`` marks slots in which the thread held the CPU, ``.`` marks slots
    in which it existed but did not run.  Useful for eyeballing priority
    and preemption behaviour.
    """
    switches = [
        (event[0], event[3]) for event in scheduler.trace
        if event[1] == "switch"
    ]
    if not switches:
        return "(no activity recorded)"
    end = max(scheduler.now(), switches[-1][0])
    start = switches[0][0]
    span = max(end - start, 1e-9)
    slot = span / width

    threads = sorted({name for _, name in switches})
    rows = {name: ["."] * width for name in threads}

    # Attribute each column to the thread running at the column's start
    # instant, so every column carries exactly one '#' (a column is one
    # time slot; marking both ends of each interval used to double-book
    # the slot a switch fell into).
    switch_index = 0
    for column in range(width):
        slot_start = start + column * slot
        while (
            switch_index + 1 < len(switches)
            and switches[switch_index + 1][0] <= slot_start
        ):
            switch_index += 1
        rows[switches[switch_index][1]][column] = "#"

    label_width = max(len(name) for name in threads)
    header = (f"{'':{label_width}}  t={start:.3f}"
              f"{'':{max(0, width - 16)}}t={end:.3f}")
    body = "\n".join(
        f"{name:{label_width}}  {''.join(cells)}"
        for name, cells in rows.items()
    )
    return header + "\n" + body


def summarize(scheduler: Scheduler) -> str:
    """Compact run summary from the trace."""
    kinds = Counter(event[1] for event in scheduler.trace)
    parts = [f"{kind}={count}" for kind, count in sorted(kinds.items())]
    counts = switch_counts(scheduler)
    busiest = sorted(counts.items(), key=lambda kv: -kv[1])[:5]
    lines = ["trace: " + " ".join(parts)]
    lines += [f"  {name}: scheduled {count}x" for name, count in busiest]
    return "\n".join(lines)
