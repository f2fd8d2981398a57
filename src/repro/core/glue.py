"""Automatic thread and coroutine allocation (sections 3.3 and 4).

Given a composed pipeline, :func:`allocate` determines — purely from the
configuration, with no help from the application programmer — which
components share a thread and which need coroutines:

* The pipeline is cut at **passive boundaries**: buffers, passive sources
  and passive sinks ("Each pump has an associated thread that calls all
  other pipeline stages up to the next buffer up- or downstream").
* Each resulting **section** must contain exactly one **activity origin** —
  a pump, or an active (self-timed) source or sink.
* Components between the upstream boundary and the origin operate in *pull*
  mode; components between the origin and the downstream boundary in *push*
  mode (Figure 2).
* A component is **called directly** when its activity style matches its
  mode — consumers and functions in push mode, producers and functions in
  pull mode — and is otherwise run as a **coroutine** in the pump's
  coroutine set (Figure 9): active objects always; consumers in pull mode
  and producers in push mode via the generated wrapper loops of Figure 7.

The resulting :class:`AllocationPlan` is what the runtime executes, and its
coroutine counts are the quantity Figure 9 reports (the pump's own thread
counts as one member of the set: configurations a–c need one, d/g/h two,
e/f three).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from repro.core.component import Component, Port, Role
from repro.core.composition import Pipeline
from repro.core.polarity import Mode
from repro.core.styles import Style
from repro.errors import AllocationError

__all__ = [
    "AllocationPlan",
    "BoundaryRef",
    "FlowNode",
    "SectionPlan",
    "StagePlan",
    "allocate",
    "needs_coroutine",
]


def needs_coroutine(style: Style | None, mode: Mode) -> bool:
    """Does a component of the given style need a coroutine in this mode?

    ======== ===== =====
    style    push  pull
    ======== ===== =====
    function no    no
    consumer no    yes
    producer yes   no
    active   yes   yes
    ======== ===== =====
    """
    if style is Style.FUNCTION:
        return False
    if style is Style.CONSUMER:
        return mode is Mode.PULL
    if style is Style.PRODUCER:
        return mode is Mode.PUSH
    if style is Style.ACTIVE:
        return True
    raise AllocationError(f"component style {style!r} has no activity rule")


@dataclass(slots=True)
class BoundaryRef:
    """A passive boundary as seen from inside a section.

    ``port`` is the boundary component's port facing the section (the
    buffer's out-port on a pull side, its in-port on a push side).
    """

    component: Component
    port: Port


@dataclass(slots=True)
class FlowNode:
    """One in-section component, with the continuation beyond each of the
    ports the flow proceeds through (a tree, since tees branch).

    ``entry_port`` is the component's own port facing the activity origin —
    the out-port we pull from on a pull side, the in-port we push into on a
    push side.
    """

    component: Component
    mode: Mode
    entry_port: str = ""
    branches: dict[str, Union["FlowNode", BoundaryRef]] = field(
        default_factory=dict
    )

    def walk(self):
        yield self
        for child in self.branches.values():
            if isinstance(child, FlowNode):
                yield from child.walk()


@dataclass(slots=True)
class StagePlan:
    """Placement decision for one component within one section."""

    component: Component
    mode: Mode
    coroutine: bool
    shared: bool = False

    @property
    def style(self) -> Style | None:
        return self.component.style


@dataclass
class SectionPlan:
    """Everything one pump thread runs."""

    origin: Component
    pull_root: Union[FlowNode, BoundaryRef, None]
    push_root: Union[FlowNode, BoundaryRef, None]
    stages: list[StagePlan]

    @property
    def coroutine_members(self) -> list[Component]:
        return [s.component for s in self.stages if s.coroutine]

    @property
    def coroutine_count(self) -> int:
        """Size of the section's coroutine set, counting the pump's thread
        itself (the paper's Figure 9 counting)."""
        return 1 + len(self.coroutine_members)

    @property
    def direct_members(self) -> list[Component]:
        return [s.component for s in self.stages if not s.coroutine]

    def stage_for(self, component: Component) -> StagePlan:
        for stage in self.stages:
            if stage.component is component:
                return stage
        raise AllocationError(
            f"{component.name!r} is not a stage of section "
            f"{self.origin.name!r}"
        )

    def describe(self) -> dict:
        return {
            "origin": self.origin.name,
            "coroutines": self.coroutine_count,
            "stages": [
                {
                    "component": s.component.name,
                    "style": str(s.style) if s.style else None,
                    "mode": str(s.mode),
                    "placement": "coroutine" if s.coroutine else "direct",
                    "shared": s.shared,
                }
                for s in self.stages
            ],
        }


@dataclass
class AllocationPlan:
    """The full thread/coroutine assignment for a pipeline."""

    pipeline: Pipeline
    sections: list[SectionPlan]
    shared_components: set[Component]

    @property
    def total_threads(self) -> int:
        """User-level threads the runtime will create (one per coroutine-set
        member, including each pump's own thread)."""
        return sum(s.coroutine_count for s in self.sections)

    def section_for(self, component: Component) -> SectionPlan:
        for section in self.sections:
            if section.origin is component or any(
                stage.component is component for stage in section.stages
            ):
                return section
        raise AllocationError(f"{component.name!r} is not in any section")

    def describe(self) -> list[dict]:
        return [section.describe() for section in self.sections]

    def report(self) -> str:
        lines = []
        for section in self.sections:
            lines.append(
                f"section {section.origin.name}: "
                f"{section.coroutine_count} coroutine(s)"
            )
            for stage in section.stages:
                placement = "coroutine" if stage.coroutine else "direct call"
                shared = " [shared]" if stage.shared else ""
                lines.append(
                    f"  {stage.component.name} ({stage.style}, "
                    f"{stage.mode} mode) -> {placement}{shared}"
                )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Allocation
# ---------------------------------------------------------------------------


def _is_boundary(component: Component) -> bool:
    if component.role is Role.BUFFER:
        return True
    if component.role in (Role.SOURCE, Role.SINK):
        return not component.is_activity_origin
    return False


def _is_origin(component: Component) -> bool:
    return component.role is Role.PUMP or component.is_activity_origin


def allocate(pipe: Pipeline) -> AllocationPlan:
    """Compute the thread/coroutine assignment for a composed pipeline."""
    # One pass sorts the components into what the checks below read.
    free_in: list[Port] = []
    free_out: list[Port] = []
    origins: list[Component] = []
    driven: list[Component] = []  # need a pump: neither origin nor boundary
    senders: list[Component] = []  # send control events to neighbours
    for component in pipe:
        for port in component.in_ports():
            if port.peer is None:
                free_in.append(port)
        for port in component.out_ports():
            if port.peer is None:
                free_out.append(port)
        if _is_origin(component):
            origins.append(component)
        elif not _is_boundary(component):
            driven.append(component)
        if component.events_sent_downstream or component.events_sent_upstream:
            senders.append(component)

    if free_in or free_out:
        free = [p.qualified_name() for p in free_in + free_out]
        raise AllocationError(
            f"pipeline is incomplete; unconnected ports: {', '.join(free)}"
        )
    # Re-derive typespecs: validates acyclicity and flow compatibility.  The
    # graph may have been edited since it was composed, so this is never
    # skipped, whatever composition already derived.
    pipe.derive_typespecs()

    if not origins:
        raise AllocationError(
            "pipeline has no pump or active endpoint; nothing would ever flow"
        )

    visits: dict[Component, int] = {}
    sections: list[SectionPlan] = []
    for origin in origins:
        sections.append(_build_section(origin, visits))

    shared = {component for component, count in visits.items() if count > 1}
    for section in sections:
        for stage in section.stages:
            if stage.component in shared:
                stage.shared = True
                if stage.coroutine:
                    raise AllocationError(
                        f"{stage.component.name!r} is shared between pipeline "
                        "sections but its activity style requires a "
                        "coroutine; only directly-callable styles (consumer, "
                        "function) may sit downstream of a merge or "
                        "upstream of an activity router"
                    )

    orphans = [c.name for c in driven if c not in visits]
    if orphans:
        raise AllocationError(
            "no pump drives these components (add a pump between the "
            f"surrounding buffers/endpoints): {', '.join(sorted(orphans))}"
        )
    _check_event_operability(senders)
    return AllocationPlan(pipeline=pipe, sections=sections, shared_components=shared)


def _build_section(origin: Component, visits: dict[Component, int]) -> SectionPlan:
    stages: list[StagePlan] = []

    def visit(component: Component) -> None:
        visits[component] = visits.get(component, 0) + 1

    def explore(port: Port, mode: Mode, via: str) -> Union[FlowNode, BoundaryRef]:
        """Explore the section beyond ``port`` (a port of the *next*
        component: its out-port when pulling upstream, its in-port when
        pushing downstream)."""
        component = port.component
        if _is_boundary(component):
            _require_mode(port, mode)
            return BoundaryRef(component, port)
        if _is_origin(component):
            raise AllocationError(
                f"section of {origin.name!r} reaches a second activity "
                f"origin {component.name!r} with no buffer in between; two "
                "pumps cannot drive the same pipeline section"
            )
        _require_mode(port, mode)
        visit(component)
        if component.style is None:
            raise AllocationError(
                f"{component.name!r} (role {component.role.value}) has no "
                "activity style and cannot be placed in a section"
            )
        stages.append(
            StagePlan(
                component=component,
                mode=mode,
                coroutine=needs_coroutine(component.style, mode),
            )
        )
        node = FlowNode(component=component, mode=mode, entry_port=port.name)
        if mode is Mode.PULL:
            # Continue upstream through every in-port.
            for in_port in component.in_ports():
                node.branches[in_port.name] = explore(
                    in_port.peer, Mode.PULL, via=in_port.name
                )
        else:
            # Continue downstream through every out-port.
            for out_port in component.out_ports():
                node.branches[out_port.name] = explore(
                    out_port.peer, Mode.PUSH, via=out_port.name
                )
        return node

    pull_root: Union[FlowNode, BoundaryRef, None] = None
    push_root: Union[FlowNode, BoundaryRef, None] = None
    in_ports, out_ports = origin.in_ports(), origin.out_ports()
    if in_ports:
        in_port = in_ports[0]
        origin.fix_port_mode(in_port.name, Mode.PULL)
        pull_root = explore(in_port.peer, Mode.PULL, via=in_port.name)
    if out_ports:
        out_port = out_ports[0]
        origin.fix_port_mode(out_port.name, Mode.PUSH)
        push_root = explore(out_port.peer, Mode.PUSH, via=out_port.name)

    return SectionPlan(
        origin=origin, pull_root=pull_root, push_root=push_root, stages=stages
    )


def _require_mode(port: Port, mode: Mode) -> None:
    """Fix the mode of the connection at ``port``; PolarityError (a
    CompositionError) propagates when the component's declared polarity
    forbids it."""
    if port.mode is None:
        port.component.fix_port_mode(port.name, mode)
    elif port.mode is not mode:
        from repro.errors import PolarityError

        raise PolarityError(
            f"{port.qualified_name()} must operate in {mode} mode here, but "
            f"its polarity fixes it to {port.mode} mode"
        )


def _check_event_operability(senders: list[Component]) -> None:
    """Section 2.3: a component that sends control events to its neighbours
    needs someone on that side able to react, or the pipeline is not
    operational."""
    for component in senders:
        if component.events_sent_downstream:
            handled = _collect_handled(component, downstream=True)
            missing = set(component.events_sent_downstream) - handled
            if missing:
                raise AllocationError(
                    f"{component.name!r} sends control event(s) "
                    f"{sorted(missing)} downstream but no downstream "
                    "component handles them"
                )
        if component.events_sent_upstream:
            handled = _collect_handled(component, downstream=False)
            missing = set(component.events_sent_upstream) - handled
            if missing:
                raise AllocationError(
                    f"{component.name!r} sends control event(s) "
                    f"{sorted(missing)} upstream but no upstream "
                    "component handles them"
                )


def _collect_handled(start: Component, downstream: bool) -> set[str]:
    handled: set[str] = set()
    stack = [start]
    seen = {start}
    while stack:
        component = stack.pop()
        ports = component.out_ports() if downstream else component.in_ports()
        for port in ports:
            if port.peer is None:
                continue
            neighbour = port.peer.component
            if neighbour in seen:
                continue
            seen.add(neighbour)
            handled.update(neighbour.events_handled)
            stack.append(neighbour)
    return handled
