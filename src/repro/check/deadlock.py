"""Wait-for-graph deadlock and hang detection.

The virtual scheduler never *hangs* on a deadlocked program: when no
thread is ready and no timer is pending, ``run()`` simply returns — which
is correct for servers parked in a receive, and silently wrong for a
cycle of threads each waiting for a reply another will never send.  This
module inspects the scheduler's wait state after (or during) a run and
turns that silence into a report:

* every blocked thread, with the *reason* it blocks — the thread it waits
  on when its receive's match predicate declares it (a ``waiting_on``
  attribute: the runtime's labelled waits set it, and so does
  :func:`receive_from`), a human description of that predicate (its
  label or name, with closure/default bindings), and a snapshot of
  messages queued but unmatched in its mailbox (the lost-wakeup shape);
* the wait-for graph over those edges and every cycle in it — a cycle is
  a certain deadlock;
* the "all blocked, timers empty" condition — a hang *if* the program
  was expected to terminate (a quiescent server looks the same, so the
  caller decides via :meth:`DeadlockReport.is_hung`).

Reports embed a formatted trace excerpt when tracing was enabled, in the
style of :func:`repro.mbt.tracing.format_trace`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.errors import DeadlockError
from repro.mbt.message import Message
from repro.mbt.scheduler import Scheduler
from repro.mbt.tracing import format_tail

#: How many trailing trace events a report quotes.
TRACE_TAIL = 30

#: Truncation bound for repr'd predicate bindings.
_VALUE_WIDTH = 60


def receive_from(
    sender: str, kinds: Iterable[str] | None = None
) -> Callable[[Message], bool]:
    """A selective-receive match predicate that declares its wait-for edge.

    ``yield Receive(match=receive_from("worker"))`` blocks exactly like a
    hand-written predicate, but the deadlock detector can draw the edge
    ``this thread -> worker`` because the predicate carries a
    ``waiting_on`` attribute (read by :func:`blocked_waits`).
    """
    wanted = frozenset(kinds) if kinds is not None else None

    def match(message: Message) -> bool:
        if message.sender != sender:
            return False
        return wanted is None or message.kind in wanted

    match.waiting_on = sender
    match.__qualname__ = (
        f"receive_from({sender!r})"
        if wanted is None
        else f"receive_from({sender!r}, kinds={sorted(wanted)!r})"
    )
    return match


def describe_match(match) -> str:
    """Human-readable description of a receive match predicate.

    Shows the callable's qualified name (a labelled wait's label) plus
    its closure and default-argument bindings, so a report line reads
    e.g. ``crossing to decoder [rid=17]`` — enough to see *which* reply
    a blocked crossing is waiting for.
    """
    if match is None:
        return "any message"
    name = getattr(match, "__qualname__", None) or repr(match)
    bindings: list[str] = []
    code = getattr(match, "__code__", None)
    closure = getattr(match, "__closure__", None)
    if code is not None and closure:
        for var, cell in zip(code.co_freevars, closure):
            try:
                value = repr(cell.cell_contents)
            except ValueError:  # pragma: no cover - unfilled cell
                value = "<empty>"
            bindings.append(f"{var}={value[:_VALUE_WIDTH]}")
    defaults = getattr(match, "__defaults__", None)
    if code is not None and defaults:
        arg_names = code.co_varnames[: code.co_argcount]
        for var, value in zip(arg_names[-len(defaults):], defaults):
            bindings.append(f"{var}={repr(value)[:_VALUE_WIDTH]}")
    if bindings:
        return f"{name} [{', '.join(bindings)}]"
    return name


@dataclass
class WaitInfo:
    """One blocked thread and everything we know about why."""

    thread: str
    waiting_on: str | None
    match: str
    queued: list[tuple[str, str]]  # unmatched mailbox (kind, sender)

    def format(self) -> str:
        parts = [f"{self.thread}: blocked in receive"]
        if self.waiting_on:
            parts.append(f"waiting on {self.waiting_on!r}")
        parts.append(f"match: {self.match}")
        if self.queued:
            queued = ", ".join(f"{kind}<-{sender}" for kind, sender in self.queued)
            parts.append(f"queued-but-unmatched: [{queued}]")
        return " ".join(parts)


def blocked_waits(scheduler: Scheduler) -> list[WaitInfo]:
    """WaitInfo for every live blocked thread, in thread-creation order."""
    infos = []
    for thread in scheduler.threads.values():
        wait = thread._wait
        if wait is None or thread.terminated:
            continue
        infos.append(
            WaitInfo(
                thread=thread.name,
                waiting_on=getattr(wait.match, "waiting_on", None),
                match=describe_match(wait.match),
                queued=thread.mailbox.snapshot(),
            )
        )
    return infos


def waitfor_graph(scheduler: Scheduler) -> dict[str, set[str]]:
    """Directed wait-for edges derivable from the current wait states."""
    edges: dict[str, set[str]] = {}
    for info in blocked_waits(scheduler):
        if info.waiting_on:
            edges.setdefault(info.thread, set()).add(info.waiting_on)
    return edges


def find_cycles(edges: dict[str, set[str]]) -> list[list[str]]:
    """All distinct simple cycles in a wait-for graph (DFS, small graphs).

    Each cycle is rotated so its lexicographically smallest member comes
    first, and reported once.
    """
    seen: set[tuple[str, ...]] = set()
    cycles: list[list[str]] = []

    def visit(node: str, path: list[str], on_path: set[str]) -> None:
        for succ in sorted(edges.get(node, ())):
            if succ in on_path:
                cycle = path[path.index(succ):]
                pivot = cycle.index(min(cycle))
                canon = tuple(cycle[pivot:] + cycle[:pivot])
                if canon not in seen:
                    seen.add(canon)
                    cycles.append(list(canon))
                continue
            if succ in edges:
                path.append(succ)
                on_path.add(succ)
                visit(succ, path, on_path)
                on_path.discard(succ)
                path.pop()

    for start in sorted(edges):
        visit(start, [start], {start})
    return cycles


@dataclass
class DeadlockReport:
    """Everything the detector can say about a (possibly) stuck scheduler."""

    blocked: list[WaitInfo] = field(default_factory=list)
    edges: dict[str, set[str]] = field(default_factory=dict)
    cycles: list[list[str]] = field(default_factory=list)
    #: True when no thread is ready and no timer is pending.
    quiescent: bool = False
    #: True when the watchdog saw dispatches without progress (livelock).
    livelock: bool = False
    trace_excerpt: str = ""

    @property
    def has_cycle(self) -> bool:
        return bool(self.cycles)

    @property
    def is_hung(self) -> bool:
        """All blocked with nothing left to wake anyone: a hang *if* the
        program was expected to terminate (a parked server also matches)."""
        return self.quiescent and bool(self.blocked)

    def format(self) -> str:
        lines = []
        if self.has_cycle:
            for cycle in self.cycles:
                lines.append(
                    "wait-for cycle: " + " -> ".join(cycle + cycle[:1])
                )
        if self.livelock:
            lines.append("livelock: dispatches without progress")
        if self.is_hung and not self.has_cycle:
            lines.append(
                "hang: all threads blocked, no timers pending"
            )
        if not lines:
            lines.append("no deadlock detected")
        for info in self.blocked:
            lines.append("  " + info.format())
        if self.trace_excerpt:
            lines.append("trace tail:")
            lines.append(self.trace_excerpt)
        return "\n".join(lines)


def detect(scheduler: Scheduler, trace_tail: int = TRACE_TAIL) -> DeadlockReport:
    """Inspect a scheduler's wait state (without running anything)."""
    blocked = blocked_waits(scheduler)
    edges = waitfor_graph(scheduler)
    ready = any(t.is_ready() for t in scheduler.threads.values())
    timers = scheduler._next_timer_time() is not None
    return DeadlockReport(
        blocked=blocked,
        edges=edges,
        cycles=find_cycles(edges),
        quiescent=not ready and not timers,
        trace_excerpt=format_tail(scheduler, trace_tail),
    )


def assert_no_deadlock(
    scheduler: Scheduler, expect_idle: bool = False
) -> DeadlockReport:
    """Raise :class:`DeadlockError` on a wait-for cycle (always) or on any
    blocked thread at quiescence (with ``expect_idle=True``, for programs
    that should have terminated cleanly).  Returns the report otherwise.
    """
    report = detect(scheduler)
    if report.has_cycle or (expect_idle and report.is_hung):
        raise DeadlockError(report.format())
    return report


def run_watched(
    scheduler: Scheduler,
    max_steps: int = 2_000_000,
    window: int = 50_000,
) -> DeadlockReport:
    """Run to quiescence under a deadlock/livelock watchdog.

    Progress is measured per ``window`` of dispatches as (virtual time,
    messages delivered); a full window without either moving is reported
    as livelock.  On quiescence the normal cycle/hang detection applies.
    Raises :class:`DeadlockError` when a cycle or livelock is found;
    returns the final report otherwise.
    """
    while True:
        before = (scheduler.clock.now(), scheduler.messages_delivered)
        start = scheduler.steps
        scheduler.run(max_steps=start + window)
        if scheduler.steps < start + window:
            report = detect(scheduler)
            if report.has_cycle:
                raise DeadlockError(report.format())
            return report
        after = (scheduler.clock.now(), scheduler.messages_delivered)
        if after == before:
            report = detect(scheduler)
            report.livelock = True
            raise DeadlockError(report.format())
        if scheduler.steps >= max_steps:
            raise DeadlockError(
                f"step budget ({max_steps}) exhausted without quiescence\n"
                + detect(scheduler).format()
            )
