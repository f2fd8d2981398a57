"""Placement: deciding which components run in which shard.

The paper's location property (section 2.4) makes a pipeline's placement
orthogonal to its logic; Dearle et al. argue placement must arrive as
*external policy* rather than being baked into components.  A
:class:`Placement` is exactly that policy — either an explicit component →
shard map or an automatic planner — and :func:`plan_placement` turns it
into a concrete :class:`ShardPlan`.

The planner may cut the graph **only at Buffer/netpipe boundaries**:

* A plain FIFO :class:`~repro.components.buffers.Buffer` (one in, one
  out, blocking overflow policy) is the natural seam between two
  independently-clocked sections — the deployment replaces it with a
  marshal → wire → unmarshal bridge whose receive queue plays the
  buffer's role (the receiver inherits the buffer's underflow policy).
* An existing netpipe pair (sender/receiver sharing one protocol
  object) is *already* a wire; cutting there re-homes the pair onto a
  real socket transport.

Every other edge is intra-segment: components connected by direct calls,
coroutine hand-offs or non-seam buffers must land in the same shard.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.components.buffers import Buffer, OnFull
from repro.core.component import Component, Role
from repro.core.composition import Pipeline
from repro.errors import DeployError
from repro.net.netpipe import netpipe_pairs


@dataclass(frozen=True)
class Cut:
    """One cut edge of a shard plan (picklable wire descriptor)."""

    kind: str                #: "buffer" or "netpipe"
    index: int               #: stable id; pairs the two socket ends
    via: str                 #: buffer name, or the netpipe flow name
    upstream: str            #: component producing into the cut
    upstream_port: str
    downstream: str          #: component consuming from the cut
    downstream_port: str
    src_shard: int
    dst_shard: int
    on_empty: str = "block"  #: receiver underflow policy (from the buffer)
    capacity: int | None = None

    def describe(self) -> str:
        return (
            f"cut#{self.index} [{self.kind}] {self.upstream} --{self.via}--> "
            f"{self.downstream}  (shard {self.src_shard} -> "
            f"{self.dst_shard})"
        )


@dataclass
class ShardPlan:
    """A validated placement: assignment plus the cut edges bridging it."""

    shards: int
    assignment: dict[str, int]
    cuts: tuple[Cut, ...]
    #: Planner diagnostics: per-segment members and shard (info only).
    segments: list[dict[str, Any]] = field(default_factory=list)

    def shard_components(self, shard: int) -> list[str]:
        return sorted(
            name for name, s in self.assignment.items() if s == shard
        )

    def describe(self) -> str:
        lines = [f"placement: {self.shards} shard(s), "
                 f"{len(self.cuts)} wire edge(s)"]
        for shard in range(self.shards):
            members = ", ".join(self.shard_components(shard))
            lines.append(f"  shard {shard}: {members}")
        for cut in self.cuts:
            lines.append("  " + cut.describe())
        return "\n".join(lines)


@dataclass
class Placement:
    """The external placement policy handed to a deployment."""

    shards: int
    #: Explicit component → shard map; None selects the automatic planner.
    assignment: Mapping[str, int] | None = None

    @classmethod
    def auto(cls, shards: int) -> "Placement":
        if shards < 1:
            raise DeployError("a placement needs at least one shard")
        return cls(shards=shards)

    @classmethod
    def explicit(
        cls, assignment: Mapping[str, int], shards: int | None = None
    ) -> "Placement":
        if not assignment:
            raise DeployError("explicit placement map is empty")
        inferred = max(assignment.values()) + 1
        return cls(shards=shards or inferred, assignment=dict(assignment))


# ---------------------------------------------------------------------------
# Cut-candidate discovery
# ---------------------------------------------------------------------------


def _is_seam_buffer(component: Component) -> bool:
    """A buffer the planner may replace with a wire: plain FIFO, one in,
    one out, both connected, blocking overflow (a dropping buffer is
    *semantics*, not just a seam — replacing it with a reliable
    unbounded wire would change the delivered stream)."""
    if not isinstance(component, Buffer):
        return False
    if component.on_full is not OnFull.BLOCK:
        return False
    ins = component.in_ports()
    outs = component.out_ports()
    if len(ins) != 1 or len(outs) != 1:
        return False
    return ins[0].peer is not None and outs[0].peer is not None


class _UnionFind:
    def __init__(self, items):
        self.parent = {item: item for item in items}

    def find(self, item):
        root = item
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[item] != root:
            self.parent[item], item = root, self.parent[item]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def _segments(pipeline: Pipeline, seams: set[str]):
    """Connected component groups after cutting every seam buffer's OUT
    edge (the buffer itself travels with its upstream segment) and
    splitting at netpipe pairs (which have no port edge anyway).

    Returns ``(segment lists, name -> segment index)`` with segments in
    deterministic order (by their first component in pipeline order).
    """
    components = pipeline.components
    uf = _UnionFind([c.name for c in components])
    for component in components:
        for port in component.out_ports():
            if port.peer is None:
                continue
            if component.name in seams:
                continue  # the seam: downstream starts a new segment
            uf.union(component.name, port.peer.component.name)
    groups: dict[str, list[str]] = {}
    for component in components:
        groups.setdefault(uf.find(component.name), []).append(component.name)
    ordered = sorted(groups.values(), key=lambda names: names[0])
    index = {}
    for i, names in enumerate(ordered):
        for name in names:
            index[name] = i
    return ordered, index


# ---------------------------------------------------------------------------
# Planning
# ---------------------------------------------------------------------------


def plan_placement(pipeline: Pipeline, placement: Placement) -> ShardPlan:
    """Resolve a placement policy against a built pipeline."""
    components = pipeline.components
    if not components:
        raise DeployError("cannot place an empty pipeline")
    seam_buffers = {
        c.name for c in components if _is_seam_buffer(c)
    }
    pairs = netpipe_pairs(components)
    segments, segment_of = _segments(pipeline, seam_buffers)

    if placement.assignment is not None:
        shard_of_segment = _resolve_explicit(
            placement, components, segments, segment_of
        )
    else:
        shard_of_segment = _plan_auto(placement, segments)

    assignment = {
        name: shard_of_segment[segment_of[name]]
        for segment in segments
        for name in segment
    }

    cuts: list[Cut] = []
    for component in components:
        if component.name not in seam_buffers:
            continue
        upstream = component.in_port.peer
        downstream = component.out_port.peer
        src = assignment[upstream.component.name]
        dst = assignment[downstream.component.name]
        if src == dst:
            continue
        cuts.append(Cut(
            kind="buffer",
            index=len(cuts),
            via=component.name,
            upstream=upstream.component.name,
            upstream_port=upstream.name,
            downstream=downstream.component.name,
            downstream_port=downstream.name,
            src_shard=src,
            dst_shard=dst,
            on_empty=component.on_empty.value,
            capacity=component.capacity,
        ))
    for sender, receiver in pairs:
        src = assignment[sender.name]
        dst = assignment[receiver.name]
        if src == dst:
            continue
        cuts.append(Cut(
            kind="netpipe",
            index=len(cuts),
            via=sender.protocol.flow,
            upstream=sender.name,
            upstream_port="in",
            downstream=receiver.name,
            downstream_port="out",
            src_shard=src,
            dst_shard=dst,
        ))

    plan = ShardPlan(
        shards=placement.shards,
        assignment=assignment,
        cuts=tuple(cuts),
        segments=[
            {"members": segment, "shard": shard_of_segment[i]}
            for i, segment in enumerate(segments)
        ],
    )
    _validate(plan, pipeline, seam_buffers)
    return plan


def _resolve_explicit(placement, components, segments, segment_of):
    known = {c.name for c in components}
    for name in placement.assignment:
        if name not in known:
            raise DeployError(
                f"explicit placement names unknown component {name!r}"
            )
    shard_of_segment: dict[int, int] = {}
    for name, shard in placement.assignment.items():
        if not 0 <= shard < placement.shards:
            raise DeployError(
                f"component {name!r} placed on shard {shard}, but the "
                f"placement has {placement.shards} shard(s)"
            )
        segment = segment_of[name]
        previous = shard_of_segment.get(segment)
        if previous is not None and previous != shard:
            raise DeployError(
                f"components {name!r} and "
                f"{_segment_rep(segments, segment, placement)!r} are "
                "wired together without a Buffer/netpipe seam between "
                "them; they must share a shard"
            )
        shard_of_segment[segment] = shard
    for i, segment in enumerate(segments):
        if i not in shard_of_segment:
            raise DeployError(
                f"segment containing {segment[0]!r} has no shard "
                "assignment; name at least one component per segment"
            )
    return shard_of_segment


def _segment_rep(segments, segment, placement):
    for name in segments[segment]:
        if name in placement.assignment:
            return name
    return segments[segment][0]


def _plan_auto(placement, segments):
    if placement.shards > len(segments):
        raise DeployError(
            f"automatic placement cannot split this pipeline into "
            f"{placement.shards} shards: only {len(segments)} "
            "cut-separated segment(s) exist (add Buffer seams)"
        )
    segment_weight = [len(segment) for segment in segments]
    # Longest-processing-time greedy, a segment weighing its component
    # count: heaviest segment to the least loaded shard; deterministic
    # tie-breaks (weight desc, then first member name).  Every
    # inter-segment edge is a legal cut, so any assignment is feasible —
    # balance is the goal, seeded so that shard 0 gets the first segment
    # (sources tend to live there).
    order = sorted(
        range(len(segments)),
        key=lambda i: (-segment_weight[i], segments[i][0]),
    )
    load = [0] * placement.shards
    used: set[int] = set()
    shard_of_segment: dict[int, int] = {}
    for i in order:
        candidates = sorted(
            range(placement.shards),
            key=lambda s: (load[s], s),
        )
        # Give every shard at least one segment before balancing freely.
        empty = [s for s in candidates if s not in used]
        shard = empty[0] if empty else candidates[0]
        used.add(shard)
        shard_of_segment[i] = shard
        load[shard] += segment_weight[i]
    return shard_of_segment


def _validate(plan: ShardPlan, pipeline: Pipeline, seam_buffers: set[str]):
    # Every crossing edge must be one of the recorded cuts.
    cut_vias = {c.via for c in plan.cuts if c.kind == "buffer"}
    for component in pipeline.components:
        for port in component.out_ports():
            peer = port.peer
            if peer is None:
                continue
            src = plan.assignment[component.name]
            dst = plan.assignment[peer.component.name]
            if src == dst:
                continue
            if component.name in cut_vias or peer.component.name in cut_vias:
                continue
            raise DeployError(
                f"edge {port.qualified_name()} -> "
                f"{peer.qualified_name()} crosses shards {src}/{dst} "
                "but is not a Buffer/netpipe seam"
            )
    # Each shard must hold at least one activity origin (a pump or an
    # active endpoint): a shard of purely passive components can never
    # make progress.  Cut seam buffers don't count — they are replaced.
    for shard in range(plan.shards):
        names = set(plan.shard_components(shard))
        if not names:
            raise DeployError(f"shard {shard} is empty")
        has_origin = any(
            pipeline.component(name).is_activity_origin
            for name in names
            if name not in cut_vias
        )
        if not has_origin:
            raise DeployError(
                f"shard {shard} has no pump or active endpoint; it could "
                "never make progress"
            )
