"""Stream multiplexing: thousands of logical netpipes over ONE link.

A multi-tenant fabric (:mod:`repro.fabric`) cannot afford one socket per
session.  :class:`StreamMux` multiplexes any
:class:`~repro.net.protocols.Transport`
(:class:`~repro.net.socketlink.SocketLink`,
:class:`~repro.net.socketlink.InProcessLink`, a simulated protocol) into
per-tenant :class:`MuxStream` endpoints that *themselves* are transports
— so ``make_netpipe_over(mux.open_stream(sid))`` just works and the whole
marshalling / coalesced-frame / zero-copy substrate transfers unchanged.

Wire format — records and trains
--------------------------------
Every message on a multiplexed link is a coalesced frame
(:func:`~repro.net.marshal.encode_batch`): a **train** of **records**
back to back.  A record is a stream-ID header chunk — extending the
side-chunk pattern that flow tracing introduced (trace-context chunks
ride *last*; stream headers ride *first* so routing needs no scan) —
then the payload chunk its kind calls for::

    header:  STREAM_CHUNK_MAGIC (0x7E) | kind u8 | stream_id u32 | arg i32
    payload: one chunk after a DATA / FRAME header, none after EOS / CREDIT

``kind`` is DATA (a single ``protocol.send`` payload), FRAME (a
coalesced frame payload, delivered to the stream's ``deliver_frame``
for per-stream reassembly), EOS (per-stream end of stream; the shared
link stays open for the other tenants), or CREDIT (flow control,
``arg`` = items granted).  A train is parsed whole before any of its
records is delivered.

*When* a record's bytes leave is the middleware's choice.  One emitted
while the stream's scheduler dispatches is held, and the train leaves as
ONE ``transport.send_frame`` before that scheduler next waits or returns
(:meth:`repro.mbt.Scheduler.before_idle`; the netpipe endpoints hand
their scheduler over in ``on_attach``) or at :data:`TRAIN_BYTES`; in it,
one stream's consecutive ``send`` payloads travel as ONE FRAME record
(``encode_batch`` of them), a run for the receiving netpipe.  Emitted at
any other time, a record is a train of one, written through at once.

Per-stream flow control
-----------------------
With ``credits=N`` a stream starts with a window of N items.  Sends are
charged per data item (a frame costs the count its sender states, else
its chunk count); when the window is exhausted, further sends queue
*locally* in the stream — ``pending`` — instead of entering the shared
link, so one slow tenant backpressures only itself.  The receiving end
returns credits as its
consumer actually drains (``note_drained``, which a
:class:`~repro.net.netpipe.NetpipeReceiver` calls on a transport that
declares ``counts_drained``), batched to half the window
to amortize the reverse-direction frames.  A stream with ``credits=None``
(the default) is uncontrolled.

Link-level EOS (the peer closed the whole transport) fans out as EOS to
every open stream that has a receiver bound; a send-only end is only
marked ended.  Frames for unknown stream ids — a tenant crashed and
its session was closed while frames were in flight — are counted and
dropped, never poisoning the remaining tenants.
"""

from __future__ import annotations

import struct
from collections import deque
from typing import Any

from repro.errors import MarshalError, RemoteError
from repro.net.marshal import (
    STREAM_CHUNK_MAGIC,
    decode_batch_views,
    encode_batch,
)
from repro.net.protocols import DATA_KIND, EOS_KIND, FRAME_KIND, Transport

#: Stream-frame kinds (second byte of the header chunk).
MUX_DATA = 0
MUX_FRAME = 1
MUX_EOS = 2
MUX_CREDIT = 3
#: The contract kind of each record kind a stream's receiver is handed.
_KINDS = (DATA_KIND, FRAME_KIND, EOS_KIND)

_HEADER = struct.Struct("!BBIi")

#: A held train leaves once it is about this big: the cap on what a mux
#: keeps back.  Swept on `fabric-mux` (largest train ≈ 14 KB; 3 × 6 s a
#: point, median items/s): 256 B 42.9k · 1 KiB 44.9k · 4 KiB 44.9k ·
#: 16 KiB 46.4k · 64 KiB 44.7k · 1 MiB 45.8k (parent 36k) — flat, within
#: noise, from 4 KiB; 32 KiB stays far below any socket buffer.
TRAIN_BYTES = 1 << 15


def encode_stream_header(kind: int, stream_id: int, arg: int = 0) -> bytes:
    """The stream-ID TLV chunk: magic, kind, stream id, argument."""
    return _HEADER.pack(STREAM_CHUNK_MAGIC, kind, stream_id, arg)


def decode_stream_header(chunk) -> tuple[int, int, int]:
    """Parse a header chunk back to ``(kind, stream_id, arg)``."""
    if len(chunk) != _HEADER.size or chunk[0] != STREAM_CHUNK_MAGIC:
        raise MarshalError(
            f"not a stream-ID header chunk ({len(chunk)} bytes, "
            f"first byte {chunk[0] if len(chunk) else None!r})"
        )
    _, kind, stream_id, arg = _HEADER.unpack_from(chunk)
    return kind, stream_id, arg


def _frame_cost(payload) -> int:
    """Items in a coalesced frame = its chunk count (header word)."""
    if len(payload) < 4:
        return 1
    (count,) = struct.unpack_from("!I", payload, 0)
    return count if count > 0 else 1


class MuxStream(Transport):
    """One logical stream of a :class:`StreamMux`: a transport in its own
    right, sender and receiver side.  One process normally uses only one
    side of a given stream.
    """

    __slots__ = (
        "mux",
        "stream_id",
        "credits",
        "window",
        "pending",
        "eos_sent",
        "_grant_batch",
        "_to_grant",
        "_scheduler",
    )

    counts_drained = True

    def __init__(
        self, mux: "StreamMux", stream_id: int, credits: int | None = None
    ):
        super().__init__(f"stream-{stream_id}", mux.src, mux.dst)
        self.mux = mux
        self.stream_id = stream_id
        #: Remaining send window in items; None = flow control off.
        self.credits = credits
        self.window = credits
        #: Locally queued (kind, payload) sends awaiting credit.
        self.pending: deque = deque()
        self.eos_sent = False
        self.stats.update(stalled=0, credits_granted=0)
        self._grant_batch = 1 if credits is None else max(1, credits // 2)
        self._to_grant = 0
        self._scheduler: Any = None

    def attach_scheduler(self, scheduler: Any) -> None:
        """The scheduler whose threads use this stream (wired by the
        netpipe endpoints): while it dispatches, records are held."""
        self._scheduler = scheduler

    # -- producer side ------------------------------------------------------

    def send(self, payload) -> None:
        self._submit(MUX_DATA, payload, 1)

    def send_frame(self, payload, items: int | None = None) -> None:
        """``items``: the data items in the frame, stated by the sender
        that built it (its chunk count may include side chunks)."""
        self._submit(
            MUX_FRAME, payload,
            _frame_cost(payload) if items is None else items,
        )

    def send_eos(self) -> None:
        if self.eos_sent:
            return
        self.eos_sent = True
        if self.pending:
            # EOS must not overtake queued data.
            self.pending.append((MUX_EOS, None, 0))
            return
        self.mux._put(self, MUX_EOS)

    def _submit(self, kind: int, payload, cost: int) -> None:
        if self.eos_sent:
            raise RemoteError(
                f"stream {self.flow!r}: send after send_eos"
            )
        credits = self.credits
        if self.pending or (credits is not None and credits <= 0):
            # Window exhausted (or draining in order behind earlier
            # stalled sends): queue locally, off the shared link.
            self.pending.append((kind, bytes(payload), cost))
            self.stats["stalled"] += 1
            return
        if credits is not None:
            self.credits = credits - cost
        self.stats["sent"] += 1
        self.mux._put(self, kind, payload)

    def _on_credit(self, granted: int) -> None:
        if self.credits is not None:
            self.credits += granted
        self._flush_pending()

    def _flush_pending(self) -> None:
        pending = self.pending
        while pending:
            kind, payload, cost = pending[0]
            if kind != MUX_EOS and (
                self.credits is not None and self.credits <= 0
            ):
                return
            pending.popleft()
            if self.credits is not None:
                self.credits -= cost
            if kind != MUX_EOS:
                self.stats["sent"] += 1
            self.mux._put(self, kind, payload)

    # -- consumer side ------------------------------------------------------

    def note_drained(self, items: int) -> None:
        """The consumer actually removed ``items`` from its queue; return
        the credits to the sender, batched to amortize control frames."""
        if self.window is None:
            return
        self._to_grant += items
        if self._to_grant >= self._grant_batch or self.eos_received:
            granted, self._to_grant = self._to_grant, 0
            self.stats["credits_granted"] += granted
            self.mux.stats["credits_sent"] += 1
            self.mux._put(self, MUX_CREDIT, arg=granted)

    def pump(self, max_messages: int | None = None) -> int:
        """Pump the *shared* transport (routing may deliver to any
        stream); provided so a stream can stand alone as an io source."""
        return self.mux.pump(max_messages)

    def close(self) -> None:
        self.mux.close_stream(self.stream_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<MuxStream {self.flow!r} id={self.stream_id} "
            f"credits={self.credits} pending={len(self.pending)}>"
        )


class StreamMux:
    """Multiplexes many :class:`MuxStream` endpoints over one transport.

    Parameters
    ----------
    transport:
        The shared link used for outbound frames (SocketLink end,
        InProcessLink, simulated protocol...).
    inbound:
        The link inbound frames arrive on; defaults to ``transport``
        (duplex links such as a socketpair end).  Pass the reverse-
        direction link when the transport is unidirectional (e.g. a pair
        of InProcessLinks).
    """

    def __init__(self, transport: Transport, inbound: Transport | None = None):
        self.transport = transport
        self.inbound = inbound if inbound is not None else transport
        self.src = transport.src
        self.dst = transport.dst
        self._streams: dict[int, MuxStream] = {}
        #: The train being gathered — ``(kind, stream_id, arg, chunks)``
        #: records in emission order, a DATA record's chunks growing
        #: while its stream keeps sending — and about its wire size.
        self._train: list[tuple] = []
        self._train_bytes = 0
        self.stats = {
            "frames_sent": 0,
            "frames_received": 0,
            "credits_sent": 0,
            "credits_received": 0,
            "unknown_stream_drops": 0,
        }
        self.inbound.on_deliver(
            self._rx_plain, self._rx_link_eos, self._rx_frame
        )

    # -- stream lifecycle ----------------------------------------------------

    def open_stream(
        self, stream_id: int, credits: int | None = None
    ) -> MuxStream:
        """Register (or fetch) the stream called ``stream_id``.

        Both link ends must open a given id to converse on it; ``credits``
        arms per-stream flow control (see the module docstring) and must
        match on the sending end (the receiving end's value sizes the
        grant batching).
        """
        stream = self._streams.get(stream_id)
        if stream is None:
            stream = MuxStream(self, stream_id, credits=credits)
            self._streams[stream_id] = stream
        return stream

    def close_stream(self, stream_id: int) -> None:
        """Forget a stream; late frames for it are counted and dropped."""
        self._streams.pop(stream_id, None)

    @property
    def streams(self) -> dict[int, MuxStream]:
        return dict(self._streams)

    # -- outbound ------------------------------------------------------------

    def _put(self, stream: MuxStream, kind: int, body=None, arg=0) -> None:
        """One record joins the train.  A train begun while the stream's
        scheduler dispatches is held — that scheduler calls :meth:`flush`
        before it waits — and one begun any other time leaves at once."""
        chunks = [] if body is None else [bytes(body)]  # held: owned
        train = self._train
        last = train[-1] if train else None
        if (kind == MUX_DATA and last is not None
                and last[0] == MUX_DATA and last[1] == stream.stream_id):
            last[3].extend(chunks)
        else:
            train.append((kind, stream.stream_id, arg, chunks))
        self._train_bytes += 18 if body is None else 18 + len(body)
        held = last is not None  # a train already begun is registered
        if not held and stream._scheduler is not None:
            held = stream._scheduler.before_idle(self.flush)
        if not held or self._train_bytes >= TRAIN_BYTES:
            self.flush()

    def flush(self) -> None:
        """Write the held train out as one link frame."""
        train = self._train
        if not train:
            return
        self._train, self._train_bytes = [], 0
        out = []
        for kind, stream_id, arg, chunks in train:
            if len(chunks) > 1:  # one stream's consecutive sends: a run
                kind, chunks = MUX_FRAME, [encode_batch(chunks)]
            out.append(encode_stream_header(kind, stream_id, arg))
            out += chunks
        self.stats["frames_sent"] += len(train)
        self.transport.send_frame(encode_batch(out))

    def send_link_eos(self) -> None:
        """Close the whole shared link (fans out as EOS to every peer
        stream)."""
        self.flush()
        self.transport.send_eos()

    # -- inbound -------------------------------------------------------------

    def _rx_frame(self, payload) -> None:
        """A train arrived: parse it whole, then deliver its records in
        order.  A record for an unknown stream is counted and dropped; one
        whose delivery raises does not take the records behind it along
        (the first such error is raised once all were delivered)."""
        chunks = iter(decode_batch_views(payload))
        records = []
        for header in chunks:
            kind, stream_id, arg = decode_stream_header(header)
            body = None
            if kind in (MUX_DATA, MUX_FRAME):
                body = next(chunks, None)
                if body is None:
                    raise MarshalError(
                        f"stream {stream_id} record has no payload chunk"
                    )
            elif kind not in (MUX_EOS, MUX_CREDIT):
                raise MarshalError(f"unknown stream record kind {kind}")
            records.append((kind, stream_id, arg, body))
        if not records:
            raise MarshalError("empty frame on multiplexed link")
        stats = self.stats
        stats["frames_received"] += len(records)
        failed = None
        for kind, stream_id, arg, body in records:
            stream = self._streams.get(stream_id)
            try:
                if stream is None:
                    stats["unknown_stream_drops"] += 1
                elif kind == MUX_CREDIT:
                    stats["credits_received"] += 1
                    stream._on_credit(arg)
                else:
                    stream._receive(_KINDS[kind], body)
            except Exception as exc:  # noqa: BLE001 - re-raised below
                if failed is None:
                    failed = exc
        if failed is not None:
            raise failed

    def _rx_plain(self, payload) -> None:
        raise MarshalError(
            "un-multiplexed data message on a multiplexed link; all "
            "senders must go through StreamMux streams"
        )

    def _rx_link_eos(self) -> None:
        for stream in list(self._streams.values()):
            if stream.eos_received:
                continue
            if stream._deliver_eos is None:
                # A send-only end has nobody to tell: it is marked ended.
                stream.eos_received = True
            else:
                stream._receive(EOS_KIND)

    # -- io loop -------------------------------------------------------------

    def pump(self, max_messages: int | None = None) -> int:
        return self.inbound.pump(max_messages)

    def wait(self, timeout: float) -> bool:
        return self.inbound.wait(timeout)

    def should_stop(self) -> bool:
        """A shared link never ends its loop before its sessions do."""
        return False

    def close(self) -> None:
        self.flush()
        self.transport.close()
        if self.inbound is not self.transport:
            self.inbound.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<StreamMux {self.src}->{self.dst} streams={len(self._streams)} "
            f"sent={self.stats['frames_sent']} "
            f"received={self.stats['frames_received']}>"
        )
