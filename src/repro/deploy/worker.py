"""Shard workers: split one build, bridge and run each shard's engine.

Each shard is one OS process running one :class:`~repro.runtime.engine
.Engine`.  :func:`split` cuts one build of the program into every
shard's connected subgraph, each cut edge a credited stream
(:data:`SEAM_WINDOW`) of the :class:`~repro.net.mux.StreamMux` a shard
keeps per peer, and the run spec realises each (:func:`realise`), so an
execution option means in a shard what it means in-process.  Under
``fork`` the deploying process splits the build it planned and sets up
every shard before it forks any; under ``spawn`` / ``forkserver`` each
shard process builds once and keeps its own slice.

Lifecycle (the cross-process start/EOS/shutdown barrier):

1. a shard whose engine is set up reports ``("ready", shard)``;
2. parent broadcasts ``("go",)`` once every shard is ready — children
   time their run span from here, so spawn/import/build cost never
   pollutes throughput numbers;
3. the engine runs via :meth:`Engine.run_with_io`, pumping the muxes
   between scheduler runs; a pump whose stream's window is spent parks
   until the peer's grant arrives, and EOS crosses as a stream record
   that completes downstream pump drivers;
4. child reports ``("done", payload)`` with stats, a metrics dump and
   its collected sink items, then waits for ``("exit",)``.
"""

from __future__ import annotations

import copy
import pickle
import select
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
from repro.deploy.placement import Cut, ShardPlan
from repro.net.marshal import MarshalFilter, UnmarshalFilter
from repro.net.mux import StreamMux
from repro.net.netpipe import NetpipeReceiver, NetpipeSender
from repro.net.network import Network
from repro.net.protocols import Protocol
from repro.net.socketlink import SocketLink


@dataclass
class ShardSpec:
    """Everything a shard process needs, in picklable form."""

    shard: int
    #: The run spec: the program (source string or picklable builder
    #: callable) and every execution option, exactly as stated once.
    app: api.Pipeline
    plan: ShardPlan


# ---------------------------------------------------------------------------
# Cutting and bridging
# ---------------------------------------------------------------------------


def _disconnect(port) -> None:
    peer = port.peer
    port.peer = None
    if peer is not None:
        peer.peer = None


#: A seam's credit window, in items: what a cut's sender may have sent
#: that its receiver's consumer has not drained.  A grant leaves when the
#: receiving scheduler idles, so a small window runs stop-and-wait:
#: ``python3 -m bench --workload deploy-seam-2shard --seconds 6`` (2-vCPU
#: container, medians of 3) read 1 024 -> 756k items/s, 2 048 -> 867k,
#: 4 096 -> 1 390k, 8 192 -> 1 453k; docs/DEPLOY.md has the table.
SEAM_WINDOW = 8192


def _stream(muxes, cut: Cut, shard: int, peer: int):
    """Stream ``cut.index`` of ``shard``'s mux toward ``peer``, if any."""
    if shard not in muxes:
        return None
    stream = muxes[shard][peer].open_stream(cut.index, credits=SEAM_WINDOW)
    # The netpipe halves stamp these as their locations.
    stream.src = f"shard-{cut.src_shard}"
    stream.dst = f"shard-{cut.dst_shard}"
    return stream


def apply_cuts(pipeline: Pipeline, cuts: tuple[Cut, ...],
               muxes) -> list[Component]:
    """Realize every cut in place; returns the new bridge components.  A
    cut's half is built for a shard in ``muxes`` (``{shard: {peer:
    StreamMux}}``), over stream ``cut.index`` of its mux toward the peer;
    a half whose shard is absent is not built."""
    bridges: list[Component] = []
    # The wire flow is plain bytes; the receiver must advertise the
    # item-level spec it carries (same scheme as repro.net.remote), or the
    # unmarshaller's downstream would see an untyped 'item' flow.
    flow_specs = derive_typespecs(pipeline.components)
    for cut in cuts:
        send = _stream(muxes, cut, cut.src_shard, cut.dst_shard)
        recv = _stream(muxes, cut, cut.dst_shard, cut.src_shard)
        if cut.kind == "netpipe":
            # Swap the pair's simulated protocol for the real link.
            if send is not None:
                sender = pipeline.component(cut.upstream)
                sender.protocol = send
                sender.location = send.src
            if recv is not None:
                pipeline.component(cut.downstream).bind(recv)
            continue
        buffer = pipeline.component(cut.via)
        upstream_out = buffer.in_port.peer
        downstream_in = buffer.out_port.peer
        carried = flow_specs.get(
            buffer.out_port.qualified_name(), Typespec.any()
        )
        _disconnect(buffer.in_port)
        _disconnect(buffer.out_port)
        if send is not None:
            marshal = MarshalFilter(name=f"{cut.via}-wire-marshal")
            sender = NetpipeSender(send, name=f"{cut.via}-wire-send")
            connect(upstream_out, marshal.in_port, check_typespecs=False)
            connect(marshal.out_port, sender.in_port, check_typespecs=False)
            bridges += [marshal, sender]
        if recv is not None:
            receiver = NetpipeReceiver(
                recv,
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


def extract_shard(pipeline: Pipeline, plan: ShardPlan, shard: int,
                  bridges: list[Component]) -> Pipeline:
    """The shard's connected subgraph after cuts, as a fresh Pipeline."""
    replaced = {c.via for c in plan.cuts if c.kind == "buffer"}
    stack = [
        c for c in pipeline.components
        if plan.assignment.get(c.name) == shard and c.name not in replaced
    ]
    members: dict[int, Component] = {}
    while stack:
        component = stack.pop()
        if id(component) in members:
            continue
        members[id(component)] = component
        other = plan.assignment.get(component.name)
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


def split(pipeline: Pipeline, plan: ShardPlan, muxes) -> dict[int, Pipeline]:
    """One pipeline per shard in ``muxes``, in shard order, cut out of
    ``pipeline`` (consumed), the build ``plan`` was made on; a deploy
    passes every shard's muxes, a spawned shard only its own."""
    bridges = apply_cuts(pipeline, plan.cuts, muxes)
    return {
        shard: extract_shard(pipeline, plan, shard, bridges)
        for shard in sorted(muxes)
    }


def split_shards(pipeline: Pipeline, plan: ShardPlan, sockets) -> dict:
    """``{shard: (muxes, pipe)}`` for each shard in ``sockets`` (``{shard:
    {peer: its end of their socket pair}}``): its ends, one mux per peer,
    and its :func:`split` pipeline over them."""
    muxes = {
        shard: {peer: StreamMux(SocketLink(
            sock_out=sock, sock_in=sock, src=f"shard-{shard}",
            dst=f"shard-{peer}", flow=f"shards-{shard}-{peer}",
        )) for peer, sock in ends.items()}
        for shard, ends in sockets.items()
    }
    return {
        shard: (muxes[shard], pipe)
        for shard, pipe in split(pipeline, plan, muxes).items()
    }


def realise(app: api.Pipeline, pipeline: Pipeline) -> api.BuiltApp:
    """``app`` realised over a shard's pipeline, its engine set up; its
    simulated netpipes ride a copy of their network, the shard's own as
    in its own process (one network binds one engine's scheduler)."""
    copies: dict[int, Network] = {}
    for component in pipeline.components:
        if isinstance(component, (NetpipeSender, NetpipeReceiver)) \
                and isinstance(component.protocol, Protocol):
            network = component.protocol.network
            component.protocol.network = copies.setdefault(
                id(network), copy.copy(network))
    built = app.build(pipeline)
    built.engine.setup()
    return built


class ShardIO:
    """The engine's I/O source: the shard's muxes, one per peer shard,
    plus the control pipe."""

    def __init__(self, muxes: list[StreamMux], conn):
        self.muxes = muxes
        self.conn = conn
        self.stop_requested = False

    def pump(self) -> int:
        return sum(mux.pump() for mux in self.muxes)

    def wait(self, timeout: float) -> bool:
        ready, _, _ = select.select(
            [*(mux.inbound for mux in self.muxes), self.conn], [], [],
            timeout,
        )
        if self.conn in ready:
            self._drain_control()
        return any(item is not self.conn for item in ready)

    def _drain_control(self) -> None:
        while self.conn.poll():
            message = self.conn.recv()
            if message and message[0] in ("stop", "exit"):
                self.stop_requested = True

    def should_stop(self) -> bool:
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


def shard_main(spec: ShardSpec, conn, sockets: dict[int, Any],
               shard: tuple | None, foreign: list) -> None:
    """Process entry point for one shard (top level: spawn-picklable):
    ``shard`` is the ``(muxes, built)`` it inherited under fork; without
    one, it builds and keeps its own slice, over ``sockets``.  A forked
    shard first closes ``foreign``, the inherited ends not its own."""
    try:
        for end in foreign:
            end.close()
        if shard is None:
            ((muxes, pipe),) = split_shards(build_program(
                spec.app.program), spec.plan, {spec.shard: sockets}).values()
            shard = muxes, realise(spec.app, pipe)
        muxes, built = shard
        engine = built.engine
        io = ShardIO(list(muxes.values()), conn)
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
                cut.index: dict(muxes[cut.src_shard].streams[cut.index].stats)
                for cut in spec.plan.cuts if cut.dst_shard == spec.shard
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
        for sock in sockets.values():  # the trains left as the engine idled
            sock.close()
        conn.close()
