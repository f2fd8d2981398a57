"""Netpipes: the components that carry a plain byte flow between nodes.

A netpipe is realized as a component *pair* (Figure 3): the
:class:`NetpipeSender` terminates the producer-side pipeline (a passive
sink feeding the transport protocol), and the :class:`NetpipeReceiver`
heads the consumer-side pipeline (a passive boundary, like a buffer's
out-end, filled asynchronously by packet arrivals).

"These netpipes support plain data flows and may manage low-level
properties such as bandwidth and latency" — the receiver's Typespec stamps
the link's QoS properties and the new location onto the flow.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.components.buffers import EMPTY, OK, Boundary, OnEmpty
from repro.core.component import Component, Role
from repro.core.events import EOS
from repro.core.items import NIL
from repro.core.polarity import Mode
from repro.core.styles import Style
from repro.core.typespec import Typespec, props
from repro.errors import MarshalError, RemoteError
from repro.net.marshal import EncodedRun, decode_frame_run, encode_batch
from repro.net.network import Network
from repro.net.protocols import DatagramProtocol, StreamProtocol, Transport


class NetpipeSender(Component):
    """Passive sink pushing each byte item into the transport protocol."""

    role = Role.SINK
    style = Style.CONSUMER
    input_spec = Typespec({props.FORMAT: "bytes"})

    #: The items pushed here are not delivered: they continue on a wire.
    #: The runtime may therefore stage ``trailer`` — one opaque chunk the
    #: next frame carries after its data chunks, for the receiving gate to
    #: strip — before it calls :meth:`push` / :meth:`push_many`.
    wire_sink = True
    trailer: bytes | None = None

    def __init__(self, protocol: Transport, name: str | None = None):
        super().__init__(name)
        self.add_in_port(mode=Mode.PUSH)
        self.protocol = protocol
        self.location = protocol.src
        self.stats.update(frames_out=0, bytes_in=0)

    def on_attach(self, engine) -> None:
        self.protocol.attach_scheduler(engine.scheduler)

    def push(self, item: Any) -> None:
        if not isinstance(item, (bytes, bytearray, memoryview)):
            raise MarshalError(
                f"{self.name!r} needs a byte flow; put a MarshalFilter "
                f"upstream (got {type(item).__name__})"
            )
        self.stats["bytes_in"] += len(item)
        if self.trailer is None:
            self.protocol.send(item)
        else:
            # A one-item frame carries the trailer with its item.
            self._send_frame([item])

    def push_many(self, items: list) -> None:
        """Batched entry used by the batched data plane: coalesce the run
        into ONE frame message (one encode_batch + one protocol send)
        instead of one message per item.  The receiving netpipe (or the
        protocol itself, for frame-unaware receivers) unfragments the
        frame back to individual items, so the item stream is unchanged.

        An :class:`EncodedRun` is the zero-copy fast path: its buffer is
        *already* in frame format (the marshal filter wrote headers and
        payloads into one preallocated bytearray), so the run goes to the
        protocol as-is — no per-item validation, no re-framing copy.
        """
        if isinstance(items, EncodedRun):
            self.stats["bytes_in"] += items.nbytes
        else:
            total = 0
            for item in items:
                if not isinstance(item, (bytes, bytearray, memoryview)):
                    raise MarshalError(
                        f"{self.name!r} needs a byte flow; put a "
                        f"MarshalFilter upstream (got {type(item).__name__})"
                    )
                total += len(item)
            self.stats["bytes_in"] += total
        self._send_frame(items)

    def _send_frame(self, chunks) -> None:
        """One coalesced frame out; a staged trailer rides as its last
        chunk (appended in place to an :class:`EncodedRun`)."""
        self.stats["frames_out"] += 1
        items = len(chunks)
        trailer = self.trailer
        if trailer is not None:
            self.trailer = None
        if isinstance(chunks, EncodedRun):
            if trailer is not None:
                chunks.append_side_chunk(trailer)
            payload = chunks.frame_payload()
        else:
            payload = encode_batch(
                chunks if trailer is None else [*chunks, trailer]
            )
        self.protocol.send_frame(payload, items)

    def on_eos(self) -> None:
        """Called by the runtime when EOS reaches this sink: forward the
        end of stream across the network."""
        self.protocol.send_eos()


class NetpipeReceiver(Boundary):
    """Passive boundary fed by packet arrivals.

    Downstream pumps pull from it exactly as from a buffer; an empty
    receiver blocks the puller (or yields NIL under the nil policy) until
    the network delivers.
    """

    def __init__(
        self,
        protocol: Transport,
        name: str | None = None,
        on_empty: OnEmpty = OnEmpty.BLOCK,
        flow_spec: Typespec | None = None,
    ):
        super().__init__(name)
        self.add_out_port(mode=Mode.PULL)
        self.on_empty = on_empty
        self.flow_spec = flow_spec or Typespec({props.FORMAT: "bytes"})
        #: Received wire data, oldest first: bytes per message, ONE
        #: EncodedRun per frame of equal-length chunks, memoryview slices
        #: of the frame for any other.  ``_queued`` counts items.
        self._queue: deque = deque()
        self._queued = 0
        self._eos_pending = False
        self._gate = None
        self.stats.update(frames_in=0, bytes_in=0, bytes_out=0)
        self.bind(protocol)

    def bind(self, protocol: Transport) -> None:
        """Receive from ``protocol`` (again, when a shard re-homes a
        simulated pair onto its real link)."""
        self.protocol = protocol
        self.location = protocol.dst
        #: Flow-control pacing: a transport that ``counts_drained`` (a
        #: credited :class:`repro.net.mux.MuxStream`) learns the items the
        #: consumer pulled, so credits track drain rate, not arrivals.
        self._drained_hook = (
            protocol.note_drained if protocol.counts_drained else None
        )
        protocol.on_deliver(
            self._deliver, self._deliver_eos, self._deliver_frame
        )

    # -- typespec -----------------------------------------------------------

    def transform_typespec(self, spec: Typespec) -> Typespec:
        return spec.intersect(
            self.flow_spec, context=f"flow received by {self.name!r}"
        )

    # -- runtime boundary interface (buffer-compatible) ----------------------

    @property
    def fill_level(self) -> int:
        return self._queued

    def _take(self, k: int) -> list:
        """The first ``k`` queued items as a list of chunks, splitting a
        frame run the cut falls inside."""
        queue = self._queue
        run: list = []
        while len(run) < k:
            head = queue.popleft()
            if type(head) is EncodedRun:
                run += head[:]
            else:
                run.append(head)
        if len(run) > k:
            queue.extendleft(reversed(run[k:]))
            del run[k:]
        self._queued -= k
        return run

    def try_push(self, item: Any, port: str = "in") -> str:
        raise RemoteError(
            f"{self.name!r} is filled by the network, not by pushes"
        )

    def try_pull(self, port: str = "out") -> tuple[str, Any]:
        if self._queue:
            self.stats["items_out"] += 1
            if type(self._queue[0]) is EncodedRun:
                (chunk,) = self._take(1)
            else:
                chunk = self._queue.popleft()
                self._queued -= 1
            self.stats["bytes_out"] += len(chunk)
            if self._drained_hook is not None:
                self._drained_hook(1)
            return OK, chunk
        if self._eos_pending:
            self._eos_pending = False
            return OK, EOS
        if self.on_empty is OnEmpty.NIL:
            return OK, NIL
        return EMPTY, None

    def try_pull_many(self, n: int, port: str = "out") -> tuple[str, list]:
        """Batched pull with the Buffer run conventions (data first, EOS
        at most once and last, [] for nil-now)."""
        queued = self._queued
        if queued:
            k = queued if queued < n else n
            run = self._queue[0]
            if type(run) is EncodedRun and len(run) == k:
                # The head frame is exactly the run asked for: it goes
                # downstream whole, as it went into the wire.
                self._queue.popleft()
                self._queued = queued - k
                self.stats["bytes_out"] += run.nbytes
            else:
                run = self._take(k)
                self.stats["bytes_out"] += sum(map(len, run))
            self.stats["items_out"] += k
            if self._drained_hook is not None:
                self._drained_hook(k)
            if k < n and self._eos_pending:
                self._eos_pending = False
                if type(run) is not list:
                    run = run[:]
                run.append(EOS)
            return OK, run
        if self._eos_pending:
            self._eos_pending = False
            return OK, [EOS]
        if self.on_empty is OnEmpty.NIL:
            return OK, []
        return EMPTY, []

    # -- network side ----------------------------------------------------------

    def on_attach(self, engine) -> None:
        self._gate = engine.gate_for(self)
        self.protocol.attach_scheduler(engine.scheduler)

    def _deliver(self, payload: bytes) -> None:
        self._arrive([payload], len(payload), framed=False)

    def _deliver_frame(self, payload) -> None:
        """A coalesced frame arrived: unfragment back to items, one wake
        for the whole run.

        The chunks handed downstream are ``memoryview`` slices into the
        received frame buffer — zero payload copies on the receive path
        (the run-codec decoders keep aliasing that buffer all the way
        into component payload views) — and a frame of equal-length
        chunks is not even sliced: it queues as one run.  A truncated or
        malformed frame raises a clear :class:`~repro.errors.MarshalError`.
        """
        self.stats["frames_in"] += 1
        self._arrive(decode_frame_run(payload), len(payload), framed=True)

    def _arrive(self, chunks, nbytes: int, framed: bool) -> None:
        """Queue arrived chunks — what the gate says is data among them:
        the runtime strips what the sending side's runtime added to a
        frame — and wake the pullers once."""
        gate = self._gate
        if gate is not None:
            chunks = gate.external_put(chunks, framed)
        if type(chunks) is list:
            self._queue.extend(chunks)
        else:
            self._queue.append(chunks)
        self._queued += len(chunks)
        self.stats["items_in"] += len(chunks)
        self.stats["bytes_in"] += nbytes
        if gate is not None:
            gate.external_wake_pullers()

    def _deliver_eos(self) -> None:
        self._eos_pending = True
        if self._gate is not None:
            self._gate.external_wake_pullers()


def make_netpipe_over(
    transport: Transport,
    on_empty: OnEmpty = OnEmpty.BLOCK,
    flow_spec: Typespec | None = None,
) -> tuple[NetpipeSender, NetpipeReceiver]:
    """Build a netpipe pair over a ready transport object, named after
    the transport's ``flow``.

    ``transport`` is any :class:`~repro.net.protocols.Transport` — a
    simulated :class:`~repro.net.protocols.Protocol`, a real-socket
    :class:`~repro.net.socketlink.SocketLink`, an in-process
    :class:`~repro.net.socketlink.InProcessLink` or a
    :class:`~repro.net.mux.MuxStream`.  The netpipe components
    themselves are transport-agnostic; this is the factory the sharded
    deployment layer (:mod:`repro.deploy`) uses to bridge cut edges.
    """
    sender = NetpipeSender(transport, name=f"netpipe-send-{transport.flow}")
    receiver = NetpipeReceiver(
        transport,
        name=f"netpipe-recv-{transport.flow}",
        on_empty=on_empty,
        flow_spec=flow_spec,
    )
    return sender, receiver


def make_netpipe(
    network: Network,
    flow: str,
    src_node: str,
    dst_node: str,
    protocol: str = "datagram",
    on_empty: OnEmpty = OnEmpty.BLOCK,
    flow_spec: Typespec | None = None,
    **protocol_kwargs: Any,
) -> tuple[NetpipeSender, NetpipeReceiver]:
    """Build a netpipe pair over an existing link of the simulated
    network.  ``protocol`` selects the transport: ``"datagram"`` (best
    effort) or ``"stream"`` (reliable, in order).
    """
    if protocol == "datagram":
        transport = DatagramProtocol(
            network, flow, src_node, dst_node, **protocol_kwargs
        )
    elif protocol == "stream":
        transport = StreamProtocol(
            network, flow, src_node, dst_node, **protocol_kwargs
        )
    else:
        raise RemoteError(f"unknown transport protocol {protocol!r}")
    return make_netpipe_over(transport, on_empty=on_empty, flow_spec=flow_spec)


def netpipe_pairs(components) -> list[tuple[NetpipeSender, NetpipeReceiver]]:
    """The netpipe halves among ``components`` that share one transport."""
    senders = {id(c.protocol): c for c in components
               if isinstance(c, NetpipeSender)}
    return [(senders[id(c.protocol)], c) for c in components
            if isinstance(c, NetpipeReceiver) and id(c.protocol) in senders]
