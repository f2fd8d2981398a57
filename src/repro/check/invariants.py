"""Flow invariants: conservation, declared-loss accounting, FIFO order.

The middleware promises that threading is *transparent* — however pumps,
coroutines and buffers are allocated, the information flow itself behaves
like a value-preserving pipe.  This module states that promise as
checkable invariants over :class:`~repro.runtime.stats.PipelineStats`:

* **conservation** — for every two-sided component that claims 1:1
  semantics (``conserving`` is not False), items neither vanish nor
  multiply: ``items_in - drops <= items_out + retained <= items_in``,
  where *drops* are the component's own declared-loss counters (``drops``
  / ``dropped*``) and *retained* is what it still holds at snapshot time
  (buffer fill levels, netpipe receive queues).  Components with other
  arities — batchers, fragmenters, multicast tees — set
  ``conserving = False`` and are exempt from the count check.
* **declared loss only** — a component may lose items *only* through
  declared channels: drop counters, an explicit :func:`declare_lossy`
  marking, or a lossy network link.  Anything else is a bug.
* **bridge accounting** — a netpipe pair is one logical pipe split over
  the network: what the sender pushed is what the receiver took in plus
  what the wire counted lost (``stats["lost"]``), at quiescence.
* **FIFO** — helpers (:func:`assert_fifo`, :func:`record_tap`) to assert
  per-pipe ordering on observed items.

Everything raises :class:`~repro.errors.InvariantViolation` (also an
``AssertionError``), so these checks plug directly into pytest and into
the schedule explorer's ``check=`` hook.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from repro.components.filters import MapFilter
from repro.components.sinks import ActiveSink
from repro.errors import InvariantViolation
from repro.net.netpipe import NetpipeReceiver, NetpipeSender, netpipe_pairs
from repro.runtime.engine import Engine
from repro.runtime.section import _run_entry
from repro.runtime.stats import PipelineStats


def declare_lossy(component, reason: str = "declared lossy"):
    """Mark a component as intentionally lossy.

    The conservation checker then only verifies it never *duplicates*
    (``items_out + retained <= items_in``); any loss is accepted as
    declared.  Returns the component, so it composes inline::

        pipe = src >> declare_lossy(decimator, "drops every other frame") >> sink
    """
    component.declares_drops = True
    component.loss_reason = reason
    return component


def is_lossy(component) -> bool:
    return component.declares_drops


def loss_reason(component) -> str:
    """The declared reason a component may lose items."""
    return str(component.loss_reason or "declared lossy")


@dataclass
class FlowIssue:
    """One violated invariant, with the arithmetic that shows it."""

    component: str
    kind: str  # "duplication" | "loss" | "not delivered" | "link" | "fifo"
    detail: str

    def __str__(self) -> str:
        return f"{self.component}: {self.kind} — {self.detail}"


@dataclass
class FlowReport:
    """Outcome of a full flow-invariant pass over an engine."""

    issues: list[FlowIssue] = field(default_factory=list)
    checked: list[str] = field(default_factory=list)
    skipped: dict[str, str] = field(default_factory=dict)
    #: Declared-lossy components that were checked (duplication only),
    #: by name -> declared reason.  Surfaced in :meth:`format` so a
    #: refinement or conservation failure names every sanctioned loss.
    lossy: dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.issues

    def format(self) -> str:
        if self.ok:
            return (
                f"flow invariants hold ({len(self.checked)} components "
                f"checked, {len(self.skipped)} exempt, "
                f"{len(self.lossy)} declared lossy)"
            )
        lines = [f"{len(self.issues)} flow-invariant violation(s):"]
        lines.extend(f"  {issue}" for issue in self.issues)
        if self.lossy:
            lines.append("declared-lossy components in this pipeline:")
            lines.extend(
                f"  {name}: {reason}"
                for name, reason in sorted(self.lossy.items())
            )
        return "\n".join(lines)

    def raise_if_failed(self) -> None:
        if not self.ok:
            raise InvariantViolation(self.format())


def _two_sided(component) -> bool:
    return bool(component.in_ports()) and bool(component.out_ports())


def _conservation_issues(
    component, stats: PipelineStats
) -> Iterable[FlowIssue]:
    name = component.name
    items_in = stats.items_in(name)
    items_out = stats.items_out(name)
    drops = stats.drops(name)
    retained = stats.retained_in(name)
    accounted = items_out + retained

    if accounted > items_in:
        detail = (
            f"items_out({items_out}) + retained({retained}) > "
            f"items_in({items_in})"
        )
        if is_lossy(component):
            detail += (
                f" [declared lossy: {loss_reason(component)} — "
                "loss is sanctioned, duplication never is]"
            )
        yield FlowIssue(name, "duplication", detail)
    elif not is_lossy(component) and accounted < items_in - drops:
        yield FlowIssue(
            name,
            "loss",
            f"items_out({items_out}) + retained({retained}) < "
            f"items_in({items_in}) - declared drops({drops}); "
            "undeclared loss (count it in a drops/dropped* stat or mark "
            "the component with declare_lossy(component, reason))",
        )


def check_conservation(engine: Engine) -> FlowReport:
    """Check per-component item conservation over a (usually finished) run.

    Mid-run snapshots are also legal: an item currently riding a walker
    between two components is counted out of the upstream component but
    not yet into the downstream one, so only run this at quiescence (the
    explorer's ``check=`` hook runs after the drive completes).
    """
    stats = engine.stats
    report = FlowReport()
    components = engine.pipeline.components

    for component in components:
        if isinstance(component, (NetpipeSender, NetpipeReceiver)):
            # Netpipe halves: the sender is a sink, the receiver a source;
            # neither is two-sided, but the *pair* bridges one pipe.
            continue
        if not _two_sided(component):
            report.skipped[component.name] = "endpoint (source/sink)"
            continue
        if component.conserving is False:
            report.skipped[component.name] = "non-1:1 arity"
            continue
        if is_lossy(component):
            report.lossy[component.name] = loss_reason(component)
        report.checked.append(component.name)
        report.issues.extend(_conservation_issues(component, stats))

    # Bridge accounting: loss is the network's prerogative, counted where
    # it happens; duplication is nobody's, and a payload neither delivered
    # nor lost (a frame in flight, a wire that never ran) is not delivered.
    for sender, receiver in netpipe_pairs(components):
        sent = stats.items_in(sender.name)
        arrived = stats.items_in(receiver.name)
        lost = sender.protocol.stats["lost"]
        report.checked.append(f"{sender.name} ~ {receiver.name}")
        if arrived + lost != sent:
            report.issues.append(
                FlowIssue(
                    f"{sender.name} ~ {receiver.name}",
                    "duplication" if arrived + lost > sent
                    else "not delivered",
                    f"sender pushed {sent} payloads, receiver took in "
                    f"{arrived}, the wire lost {lost}",
                )
            )
        # Receiver-side conservation: everything delivered is either
        # pulled downstream or still queued.
        out = stats.items_out(receiver.name)
        retained = stats.retained_in(receiver.name)
        if out + retained > arrived:
            report.issues.append(
                FlowIssue(
                    receiver.name,
                    "duplication",
                    f"items_out({out}) + retained({retained}) > "
                    f"delivered({arrived})",
                )
            )
    return report


def check_network(network) -> FlowReport:
    """Per-link packet accounting: sent == delivered + dropped."""
    report = FlowReport()
    for key, link in sorted(network._links.items()):
        name = f"link {key[0]}->{key[1]}"
        report.checked.append(name)
        stats = link.stats
        if stats.delivered + stats.dropped != stats.sent:
            report.issues.append(
                FlowIssue(
                    name,
                    "link",
                    f"sent({stats.sent}) != delivered({stats.delivered}) "
                    f"+ dropped({stats.dropped})",
                )
            )
    return report


def check_flow(engine: Engine) -> FlowReport:
    """Umbrella: conservation over the engine plus the link accounting of
    the network its netpipes bound."""
    report = check_conservation(engine)
    if engine.network is not None:
        link_report = check_network(engine.network)
        report.issues.extend(link_report.issues)
        report.checked.extend(link_report.checked)
    return report


def assert_flow(engine: Engine) -> FlowReport:
    """:func:`check_flow`, raising :class:`InvariantViolation` on failure.

    The natural ``check=`` hook for :func:`repro.check.explorer.explore`::

        explore(build, check=assert_flow).raise_if_failed()
    """
    report = check_flow(engine)
    report.raise_if_failed()
    return report


# ---------------------------------------------------------------------------
# Order and identity helpers (for taps placed inside test pipelines)
# ---------------------------------------------------------------------------


def record_tap(records: list, name: str | None = None) -> MapFilter:
    """An identity filter appending every item it sees to ``records``.

    Place one on each pipe of interest, then assert over the recorded
    streams with :func:`assert_fifo` / :func:`assert_no_duplicates`.
    """
    def observe(item):
        records.append(item)
        return item

    return MapFilter(observe, name=name or "tap")


def assert_fifo(
    items: Sequence[Any],
    key: Callable[[Any], Any] | None = None,
    pipe: str = "pipe",
) -> None:
    """Assert the observed items are in non-decreasing ``key`` order.

    Default key: the item itself (use :class:`SequenceStamp` upstream and
    ``key=lambda item: item[0]`` for arbitrary payloads).
    """
    extract = key or (lambda item: item)
    previous = None
    for position, item in enumerate(items):
        value = extract(item)
        if previous is not None and value < previous:
            raise InvariantViolation(
                f"{pipe}: FIFO violated at position {position}: "
                f"{value!r} after {previous!r}"
            )
        previous = value


def assert_no_duplicates(
    items: Sequence[Any],
    key: Callable[[Any], Any] | None = None,
    pipe: str = "pipe",
) -> None:
    """Assert no item (by ``key``) appears twice."""
    extract = key or (lambda item: item)
    seen: set = set()
    for position, item in enumerate(items):
        value = extract(item)
        if value in seen:
            raise InvariantViolation(
                f"{pipe}: duplicate item {value!r} at position {position}"
            )
        seen.add(value)


# ---------------------------------------------------------------------------
# Sink taps: observe every sink of a pipeline without rewiring it
# ---------------------------------------------------------------------------

_AUTO_NUMBERED = re.compile(r"^(.*)-(\d+)$")


def channel_name(component_name: str, per_stem: "Counter") -> str:
    """Stable cross-build channel name for a sink.

    Auto-numbered component names (``collect-sink-12``) draw from
    process-global counters, so the absolute number differs between two
    builds of the same program.  Mapping each to ``stem#k`` by order of
    appearance makes channels comparable across independently built
    pipelines (the same trick :func:`repro.check.explorer.trace_hash`
    uses for whole traces).
    """
    hit = _AUTO_NUMBERED.match(component_name)
    stem = hit.group(1) if hit is not None else component_name
    name = f"{stem}#{per_stem[stem]}"
    per_stem[stem] += 1
    return name


def _is_sink(component) -> bool:
    return (
        bool(component.in_ports())
        and not component.out_ports()
        # Netpipe senders terminate a sub-pipeline but are transport, not
        # observation points; the stream continues on the receiver side.
        and not isinstance(component, NetpipeSender)
    )


class SinkTaps:
    """Recorded sink streams of one program, keyed by stable channel name.

    Generalizes :func:`record_tap` from "splice an identity filter where
    you want to look" to "observe *every* sink of a wired pipeline": each
    sink's ``push`` (passive) or ``consume`` (:class:`ActiveSink`) entry,
    and the run entry the batch walker takes, is wrapped in place — no
    rewiring, no extra components, so the schedule, the trace and the
    route a run takes are exactly those of the untapped program.
    """

    def __init__(self):
        #: channel name -> items observed at that sink, in arrival order.
        self.streams: dict[str, list] = {}
        #: channel name -> the tapped component (for lossy-path walks).
        self.sinks: dict[str, Any] = {}

    def channels(self) -> list[str]:
        return list(self.streams)


def install_sink_taps(engine: Engine) -> SinkTaps:
    """Wrap every sink of ``engine`` so its consumed items are recorded
    per channel.

    Best installed before the engine compiles its flow walkers (right
    after ``build()`` in an explorer-style harness); an engine already
    set up — a fabric session opens set up and started — has its
    walkers recompiled so the bound entries see the taps.
    """
    taps = SinkTaps()
    per_stem: Counter = Counter()
    for component in engine.pipeline.components:
        if not _is_sink(component):
            continue
        channel = channel_name(component.name, per_stem)
        records: list = []
        taps.streams[channel] = records
        taps.sinks[channel] = component
        _wrap_sink_entry(component, records)
    if engine._setup_done:
        # Compiled walkers bound the un-tapped entries; rebuild them.
        engine._compile_walkers()
    return taps


def _wrap_sink_entry(component, records: list) -> None:
    if isinstance(component, ActiveSink):
        consume = component.consume

        def tapped_consume(item, _consume=consume, _records=records):
            _records.append(item)
            _consume(item)

        component.consume = tapped_consume
        return
    push = component.push
    if push is None:
        raise InvariantViolation(
            f"sink {component.name!r} has no push entry; cannot tap it"
        )
    # The run entry the batch walker takes, asked before the tap: an
    # instance-tapped push alone would send every run down the per-item
    # loop, and a push_many tapped where the runtime loops push would
    # bypass a subclass's own push.
    push_many = _run_entry(component, "push")

    def tapped_push(item, _push=push, _records=records):
        _records.append(item)
        _push(item)

    component.push = tapped_push
    if push_many is not None:
        def tapped_push_many(items, _push_many=push_many, _records=records):
            _records.extend(items)
            _push_many(items)

        component.push_many = tapped_push_many
