"""Pipeline restructuring: swapping components in a paused pipeline.

The paper points at an "Infopipe Composition and Restructuring
Microlanguage" as the planned configuration layer (section 5, ref [24]).
The composition half lives in :mod:`repro.lang`; this module provides the
restructuring primitive: replacing one pipeline stage with a compatible
component while the pipeline is paused, without rebuilding anything else.

Supported targets are *direct-called linear stages* (function, and
consumer/producer used in their natural mode): they hold no in-flight
control state, so a paused swap is safe.  Coroutine stages, boundaries and
activity origins are rejected — their replacement would require draining a
suspended control flow, which the paper leaves to future work (and so do
we, explicitly).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.component import Component
from repro.core.composition import derive_typespecs, reachable_components
from repro.core.glue import FlowNode
from repro.core.styles import Style
from repro.errors import CompositionError, RuntimeFault

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.engine import Engine


@dataclass(frozen=True)
class Replacement:
    """One committed restructuring, as recorded in ``engine.restructure_log``.

    The log is the audit trail the refinement checker stores in its
    certificates (:func:`repro.check.refine.certify_restructure`): which
    stage was swapped, in which section and mode, at what virtual time.
    """

    old: str
    new: str
    section: str
    mode: str
    virtual_time: float

    def __str__(self) -> str:
        return (
            f"replace {self.old!r} -> {self.new!r} in section "
            f"{self.section!r} ({self.mode} mode) at t={self.virtual_time}"
        )


def replace_component(
    engine: "Engine", old: Component, new: Component
) -> Replacement:
    """Replace ``old`` with ``new`` in a set-up (ideally paused) pipeline.

    Checks performed before anything is mutated:

    * ``old`` is a direct-called stage of some section (not a coroutine,
      boundary, origin, or shared segment member);
    * ``new`` is unconnected and linear (one ``in``, one ``out`` port);
    * ``new``'s style is directly callable in the stage's mode;
    * the flow Typespecs still check out with ``new`` in place.

    On success the ports are rewired, the allocation plan and runtime
    wiring are updated, ``new`` handles all subsequent items, and the swap
    is appended to ``engine.restructure_log`` as a :class:`Replacement`
    (also returned).  Raises :class:`CompositionError` /
    :class:`RuntimeFault` with nothing changed otherwise.
    """
    engine.setup()
    stage, section, node = _locate(engine, old)

    from repro.core.glue import needs_coroutine

    if new.in_ports() and len(new.in_ports()) != 1 or len(new.out_ports()) != 1:
        raise CompositionError(
            f"replacement {new.name!r} must be linear (one in, one out)"
        )
    if any(p.connected for p in new.ports.values()):
        raise CompositionError(f"{new.name!r} is already connected")
    if new.style is None or needs_coroutine(new.style, stage.mode):
        raise CompositionError(
            f"{new.name!r} ({new.style}) would need a coroutine in "
            f"{stage.mode} mode; only direct-callable replacements are "
            "supported"
        )

    intake = engine._replays.get(old)
    if intake is not None and new.style is not Style.PRODUCER and intake.held():
        raise RuntimeFault(
            f"{old.name!r} holds {intake.held()} fetched item(s) "
            f"of an unfinished pull; only a producer can take them over, "
            f"not {new.name!r} ({new.style})"
        )

    upstream_port = old.in_port.peer
    downstream_port = old.out_port.peer
    assert upstream_port is not None and downstream_port is not None

    # -- trial rewire + typespec check, with rollback on failure ----------
    _rewire(old, new, upstream_port, downstream_port, stage.mode)
    try:
        derive_typespecs(reachable_components(new))
    except CompositionError:
        _rewire(new, old, upstream_port, downstream_port, stage.mode)
        raise

    # -- commit: plan, pipeline, runtime wiring ---------------------------
    stage.component = new
    node.component = new
    pipeline = engine.pipeline
    pipeline._components = dict.fromkeys(
        new if member is old else member for member in pipeline._components
    )

    _transfer_runtime_wiring(engine, old, new)

    # The compiled flow walkers hold the old component's bound methods;
    # rebuild them from the mutated plan.
    engine._compile_walkers()

    record = Replacement(
        old=old.name,
        new=new.name,
        section=section.origin.name,
        mode=str(stage.mode),
        virtual_time=engine.scheduler.now(),
    )
    engine.restructure_log.append(record)
    return record


def _locate(engine: "Engine", old: Component):
    assert engine.plan is not None
    for section in engine.plan.sections:
        for stage in section.stages:
            if stage.component is old:
                if stage.coroutine:
                    raise RuntimeFault(
                        f"{old.name!r} runs as a coroutine; restructuring "
                        "suspended control flows is not supported"
                    )
                if stage.shared:
                    raise RuntimeFault(
                        f"{old.name!r} is shared between sections and "
                        "cannot be swapped"
                    )
                node = _find_node(section, old)
                return stage, section, node
    raise RuntimeFault(
        f"{old.name!r} is not a direct stage of any section (boundaries, "
        "pumps and endpoints cannot be swapped)"
    )


def _find_node(section, component) -> FlowNode:
    for root in (section.pull_root, section.push_root):
        if root is None or not isinstance(root, FlowNode):
            continue
        for node in root.walk():
            if node.component is component:
                return node
    raise RuntimeFault(f"no flow node for {component.name!r}")  # pragma: no cover


def _rewire(old, new, upstream_port, downstream_port, mode) -> None:
    old.in_port.peer = None
    old.out_port.peer = None
    new.fix_port_mode("in", mode)
    new.in_port.peer = upstream_port
    upstream_port.peer = new.in_port
    new.out_port.peer = downstream_port
    downstream_port.peer = new.out_port


def _transfer_runtime_wiring(engine: "Engine", old, new) -> None:
    # Ownership and event registration follow the slot, not the object.
    owner = engine._owner.pop(old.name, None)
    if owner is not None:
        engine._owner[new.name] = owner
        owned = engine._thread_components.get(owner, {})
        owned.pop(old.name, None)
        owned[new.name] = new
    engine.events.unregister(old.name)
    engine._register_events(new)
    # Fresh emit/intake structures are created lazily for `new`; drop the
    # old ones so nothing keeps feeding a detached component.  What the old
    # intake still holds (reads a NIL-interrupted pull left uncommitted, a
    # seen EOS) was fetched for the slot: the new producer's intake gets it.
    engine._pendings.pop(old, None)
    held = engine._replays.pop(old, None)
    if held is not None and new.style is Style.PRODUCER:
        intake = engine.replay_for(new)
        for port, items in held.buffers.items():
            intake.buffers[port].extend(items)
        intake.eos |= held.eos
    old.on_detach()
    new.on_attach(engine)
