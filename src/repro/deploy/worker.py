"""Shard workers: build, cut, bridge and run one shard's engine.

Each shard is one OS process running one :class:`~repro.runtime.engine
.Engine`.  The worker rebuilds the *whole* pipeline from the run spec's
program (a microlanguage source string or a picklable builder callable —
nothing live crosses the process boundary), applies the plan's cuts,
keeps only its own shard's connected subgraph, bridges the cut edges
with :class:`~repro.net.socketlink.SocketLink` transports whose socket
ends the parent passed in, and realises the spec over that subgraph
(:meth:`repro.api.Pipeline.build`) — so every execution option stated on
the spec means in a shard what it means in-process.

Lifecycle (the cross-process start/EOS/shutdown barrier):

1. child builds its shard and reports ``("ready", shard)``;
2. parent broadcasts ``("go",)`` once every shard is ready — children
   time their run span from here, so spawn/import/build cost never
   pollutes throughput numbers;
3. the engine runs via :meth:`Engine.run_with_io`, pumping inbound
   sockets between scheduler runs; EOS crosses the wire as a framed
   message and completes downstream pump drivers;
4. child reports ``("done", payload)`` with stats, a metrics dump and
   its collected sink items, then waits for ``("exit",)``.
"""

from __future__ import annotations

import pickle
import time
import traceback
from dataclasses import dataclass
from typing import Any

from repro import api
from repro.api import build_program
from repro.components.buffers import OnEmpty
from repro.core.component import Component
from repro.core.composition import Pipeline, connect, derive_typespecs
from repro.core.typespec import Typespec, props
from repro.errors import DeployError
from repro.deploy.placement import Cut
from repro.net.marshal import MarshalFilter, UnmarshalFilter
from repro.net.netpipe import NetpipeReceiver, NetpipeSender
from repro.net.socketlink import SocketLink


@dataclass
class ShardSpec:
    """Everything a shard process needs, in picklable form."""

    shard: int
    shards: int
    #: The run spec: the program (source string or picklable builder
    #: callable) and every execution option, exactly as stated once.
    app: api.Pipeline
    assignment: dict[str, int]
    cuts: tuple[Cut, ...] = ()


# ---------------------------------------------------------------------------
# Cutting and bridging
# ---------------------------------------------------------------------------


def _disconnect(port) -> None:
    peer = port.peer
    port.peer = None
    if peer is not None:
        peer.peer = None


def apply_cuts(
    pipeline: Pipeline,
    cuts: tuple[Cut, ...],
    transport_for,
) -> list[Component]:
    """Realize every cut in place; returns the new bridge components.

    ``transport_for(cut)`` returns ``(link, build_send, build_recv)``:
    the transport object for this cut and which bridge halves to build
    in this process (a shard only builds its own side; the co-simulated
    twin builds both over one in-process link).
    """
    bridges: list[Component] = []
    # The wire flow is plain bytes; the receiver must advertise the
    # item-level spec it carries (same scheme as repro.net.remote), or the
    # unmarshaller's downstream would see an untyped 'item' flow.
    flow_specs = derive_typespecs(pipeline.components)
    for cut in cuts:
        link, build_send, build_recv = transport_for(cut)
        if cut.kind == "netpipe":
            _rehome_netpipe(pipeline, cut, link, build_send, build_recv)
            continue
        buffer = pipeline.component(cut.via)
        upstream_out = buffer.in_port.peer
        downstream_in = buffer.out_port.peer
        carried = flow_specs.get(
            buffer.out_port.qualified_name(), Typespec.any()
        )
        _disconnect(buffer.in_port)
        _disconnect(buffer.out_port)
        if build_send:
            marshal = MarshalFilter(name=f"{cut.via}-wire-marshal")
            sender = NetpipeSender(link, name=f"{cut.via}-wire-send")
            connect(upstream_out, marshal.in_port, check_typespecs=False)
            connect(marshal.out_port, sender.in_port, check_typespecs=False)
            bridges += [marshal, sender]
        if build_recv:
            receiver = NetpipeReceiver(
                link,
                name=f"{cut.via}-wire-recv",
                on_empty=OnEmpty(cut.on_empty),
                flow_spec=Typespec(
                    {props.FORMAT: "bytes", "carried": carried}
                ),
            )
            unmarshal = UnmarshalFilter(name=f"{cut.via}-wire-unmarshal")
            connect(receiver.out_port, unmarshal.in_port,
                    check_typespecs=False)
            connect(unmarshal.out_port, downstream_in,
                    check_typespecs=False)
            bridges += [receiver, unmarshal]
    return bridges


def _rehome_netpipe(pipeline, cut, link, build_send, build_recv) -> None:
    """Swap an existing netpipe pair's simulated protocol for the real
    link; only the halves present in this process are touched."""
    if build_send:
        sender = pipeline.component(cut.upstream)
        sender.protocol = link
        sender.location = link.src
    if build_recv:
        pipeline.component(cut.downstream).bind(link)


def extract_shard(
    pipeline: Pipeline,
    plan_assignment: dict[str, int],
    cuts: tuple[Cut, ...],
    shard: int,
    bridges: list[Component],
) -> Pipeline:
    """The shard's connected subgraph after cuts, as a fresh Pipeline."""
    replaced = {c.via for c in cuts if c.kind == "buffer"}
    seed = [
        c for c in pipeline.components
        if plan_assignment.get(c.name) == shard and c.name not in replaced
    ]
    members: dict[int, Component] = {}
    stack = list(seed)
    while stack:
        component = stack.pop()
        if id(component) in members:
            continue
        members[id(component)] = component
        other = plan_assignment.get(component.name)
        if other is not None and other != shard \
                and component.name not in replaced:
            raise DeployError(
                f"component {component.name!r} (shard {other}) is still "
                f"wired into shard {shard}; the plan's cuts do not "
                "separate them"
            )
        for port in component.ports.values():
            if port.peer is not None:
                stack.append(port.peer.component)
    ordered = [
        c for c in (*pipeline.components, *bridges) if id(c) in members
    ]
    if not ordered:
        raise DeployError(f"shard {shard} has no components")
    shard_pipe = Pipeline(ordered)
    shard_pipe.derive_typespecs()
    return shard_pipe


def build_shard_pipeline(
    spec: ShardSpec, sockets: dict[int, Any]
) -> tuple[Pipeline, dict[int, SocketLink]]:
    """Build this shard's pipeline and every socket transport it uses,
    inbound and outbound, keyed by cut index.  The caller owns the links
    and closes them."""
    pipeline = build_program(spec.app.program)
    links: dict[int, SocketLink] = {}

    def transport_for(cut: Cut):
        build_send = cut.src_shard == spec.shard
        build_recv = cut.dst_shard == spec.shard
        if not (build_send or build_recv):
            return None, False, False
        sock = sockets[cut.index]
        link = SocketLink(
            sock_out=sock, sock_in=sock,
            src=f"shard-{cut.src_shard}", dst=f"shard-{cut.dst_shard}",
            flow=cut.via,
        )
        links[cut.index] = link
        return link, build_send, build_recv

    bridges = apply_cuts(pipeline, spec.cuts, transport_for)
    shard_pipe = extract_shard(
        pipeline, spec.assignment, spec.cuts, spec.shard, bridges
    )
    return shard_pipe, links


#: Receive-ahead bound, in items: a wire receiver already holding this many
#: is not handed more; the rest waits in the link's read buffer and the
#: kernel's socket buffer, where it blocks the producer's ``sendall``.
#: It stands in for the capacity of the buffer a cut removes, and is
#: deliberately not that capacity: every refill costs a ``select`` and a
#: scheduler re-entry, so a bound as small as ``buffer(64)`` spends the
#: seam's gain on them.  Picked by measurement, ``python3 -m bench
#: --workload deploy-seam-2shard --seconds 15``, medians of three runs
#: (seeds 40-42), items/s by bound: 64 -> 672k, 128 -> 754k, 256 -> 816k,
#: 512 -> 864k, 1024 -> 881k, 4096 -> 895k, unbounded -> 904k, with
#: ``peak_rss_mb`` 78.2-78.6 on every row.  1024 is the knee.
RECEIVE_AHEAD_ITEMS = 1024


class ShardIO:
    """The engine's I/O pump: the shard's wire receivers (each fed by its
    own inbound link) plus the control pipe."""

    def __init__(self, receivers: list[NetpipeReceiver], conn):
        self.receivers = receivers
        self.conn = conn
        self.stop_requested = False

    def pump(self) -> int:
        """Top every receiver up to the receive-ahead bound, one message
        (a frame is one message) at a time; a frame that overshoots the
        bound is still delivered whole."""
        delivered = 0
        for receiver in self.receivers:
            pump = receiver.protocol.pump
            while receiver.fill_level < RECEIVE_AHEAD_ITEMS and pump(1):
                delivered += 1
        return delivered

    def wait(self, timeout: float) -> bool:
        import select as _select

        # A receiver at its bound is waiting for the engine, not for the
        # wire: its readable socket must not turn this wait into a spin.
        readables = [
            r.protocol for r in self.receivers
            if r.fill_level < RECEIVE_AHEAD_ITEMS
            and not r.protocol.peer_closed
        ]
        ready, _, _ = _select.select(
            [*readables, self.conn], [], [], timeout
        )
        for item in ready:
            if item is self.conn:
                self._drain_control()
        return any(item is not self.conn for item in ready)

    def _drain_control(self) -> None:
        while self.conn.poll():
            message = self.conn.recv()
            if message and message[0] in ("stop", "exit"):
                self.stop_requested = True

    def should_stop(self) -> bool:
        if self.conn.poll():
            self._drain_control()
        return self.stop_requested


#: What pickling a sink item that cannot cross a process boundary raises.
_PICKLE_ERRORS = (pickle.PicklingError, TypeError, AttributeError)


def _done_message(payload: dict[str, Any]) -> bytes:
    """The pickled ``("done", payload)`` message — the sink lists are
    pickled once, here.  Only when that fails is each sink probed on its
    own and the unpicklable ones replaced by their items' ``repr``."""
    try:
        return pickle.dumps(("done", payload))
    except _PICKLE_ERRORS:
        sinks = dict(payload["sinks"])
        for name, items in sinks.items():
            try:
                pickle.dumps(items)
            except _PICKLE_ERRORS:
                sinks[name] = [repr(item) for item in items]
        return pickle.dumps(("done", {**payload, "sinks": sinks}))


def done_payload(
    shard: int, built: api.BuiltApp, run_seconds: float, wire: dict[int, dict]
) -> dict[str, Any]:
    """What one finished shard reports: the ``done`` payload of a shard
    process and of the in-process single-shard run alike."""
    engine = built.engine
    stats = engine.stats
    payload: dict[str, Any] = {
        "shard": shard,
        "run_seconds": run_seconds,
        "completed": engine.completed,
        "stats": {
            "components": stats.components,
            "cycles": stats.cycles,
            "nil_cycles": stats.nil_cycles,
            "batching": stats.batching,
            "retained": stats.retained,
            "held": stats.held,
            "context_switches": stats.context_switches,
            "coroutine_switches": stats.coroutine_switches,
            "messages_delivered": stats.messages_delivered,
            "time": stats.time,
            "threads": stats.threads,
        },
        # Sink contents (CollectSink-style ``items`` lists) by component.
        "sinks": {
            component.name: component.items
            for component in engine.pipeline.components
            if isinstance(getattr(component, "items", None), list)
        },
        "wire": wire,
    }
    if built.telemetry is not None:
        from repro.obs.metrics import dump_registry

        payload["metrics"] = dump_registry(built.telemetry.registry)
    return payload


def shard_main(spec: ShardSpec, conn, sockets: dict[int, Any]) -> None:
    """Process entry point for one shard (top level: spawn-picklable)."""
    links: dict[int, SocketLink] = {}
    try:
        shard_pipe, links = build_shard_pipeline(spec, sockets)
        built = spec.app.build(shard_pipe)
        engine = built.engine
        engine.setup()
        io = ShardIO(
            [
                c for c in shard_pipe.components
                if isinstance(c, NetpipeReceiver)
                and isinstance(c.protocol, SocketLink)
            ],
            conn,
        )
        conn.send(("ready", spec.shard))
        message = conn.recv()
        if not message or message[0] != "go":
            return
        started = time.perf_counter()
        engine.start()
        engine.run_with_io(io)
        payload = done_payload(
            spec.shard, built, time.perf_counter() - started,
            {
                cut.index: dict(links[cut.index].stats)
                for cut in spec.cuts if cut.dst_shard == spec.shard
            },
        )
        # The parent's ``conn.recv()`` unpickles exactly these bytes.
        conn.send_bytes(_done_message(payload))
        # Shutdown barrier: hold sockets open until the parent confirms
        # every shard reported, so no peer sees a mid-stream close.
        try:
            conn.recv()
        except EOFError:
            pass
    except Exception:
        try:
            conn.send(("error", spec.shard, traceback.format_exc()))
        except Exception:  # pragma: no cover - parent already gone
            pass
    finally:
        for link in links.values():
            link.close()
        conn.close()
