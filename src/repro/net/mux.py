"""Stream multiplexing: thousands of logical netpipes over ONE link.

:class:`StreamMux` multiplexes any :class:`~repro.net.protocols.Transport`
(a socket link, an in-process link, a simulated protocol) into
:class:`MuxStream` endpoints that *themselves* are transports, so
``make_netpipe_over(mux.open_stream(sid))`` just works: a session fabric's
tenants (:mod:`repro.fabric`) and a deployment's cuts between two shards
(:mod:`repro.deploy`) each ride one stream of one shared link.

Wire format — records and trains
--------------------------------
Every message on a multiplexed link is a coalesced frame
(:func:`~repro.net.marshal.encode_batch`): a **train** of **records**
back to back.  A record is a stream-ID header chunk (stream headers ride
*first*, trace-context chunks *last*), then the payload chunk its kind
calls for::

    header:  STREAM_CHUNK_MAGIC (0x7E) | kind u8 | stream_id u32 | arg i32
    payload: one chunk after a DATA / FRAME header, none after EOS / CREDIT

``kind`` is DATA (one ``send`` payload), FRAME (a coalesced frame, for
the stream's ``deliver_frame``), EOS (per-stream end of stream; the link
stays open for the others) or CREDIT (``arg`` = items granted).  A train
is parsed whole before any of its records is delivered.

A record emitted while the stream's scheduler dispatches, or inside
:meth:`StreamMux.pump`, is held: the train leaves as ONE
``transport.send_frame`` before that scheduler next waits or returns
(:meth:`repro.mbt.Scheduler.before_idle`; the netpipe endpoints hand
their scheduler over in ``on_attach``), before that pump returns or
raises, or at :data:`TRAIN_BYTES`.  In it one stream's consecutive
``send`` payloads travel as ONE FRAME record.  Emitted at any other time,
a record is a train of one, written through at once.

Per-stream flow control
-----------------------
With ``credits=N`` a stream starts with a window of N items, charged per
data item (a frame costs the count its sender states, else its chunk
count).  A pump sending here waits while the window is spent, exactly as
at a full BLOCK buffer, and the grant that reopens it wakes the pump
(:meth:`MuxStream.windowed`); under an open window a send is a call.  So
one slow tenant backpressures only its own pump, and a stream never
holds a send.  A frame larger than what is left still goes, overdrawing
the window once, so no frame can deadlock; a direct ``send`` on a spent
window raises.  The receiving end grants credits as its consumer drains
(``note_drained``, called by a receiving netpipe on a transport that
``counts_drained``), batched to half the window; a train holds ONE
CREDIT record per stream, and a grant of no credit or less is malformed.
``credits=None`` (the default) is uncontrolled.

Link-level EOS fans out as EOS to every open stream with a receiver
bound (a send-only end is only marked ended).  Records for unknown
stream ids — a tenant's session closed while they were in flight — are
counted and dropped, never poisoning the other tenants.
"""

from __future__ import annotations

import struct
from typing import Any

from repro.core.events import EOS
from repro.errors import MarshalError, RemoteError
from repro.mbt.message import Message
from repro.net.marshal import (
    STREAM_CHUNK_MAGIC,
    decode_batch_views,
    encode_batch,
)
from repro.net.protocols import DATA_KIND, EOS_KIND, FRAME_KIND, Transport
from repro.runtime.section import awaiting

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
    return _HEADER.unpack_from(chunk)[1:]  # kind, stream_id, arg


def _frame_cost(payload) -> int:
    """Items in a coalesced frame = its chunk count (header word)."""
    count = struct.unpack_from("!I", payload)[0] if len(payload) >= 4 else 1
    return count or 1


class MuxStream(Transport):
    """One logical stream of a :class:`StreamMux`: a transport in its own
    right, sender and receiver side.  One process normally uses only one
    side of a given stream.
    """

    __slots__ = ("mux", "stream_id", "credits", "window", "waiters",
                 "eos_sent", "_grant_batch", "_to_grant", "_scheduler")

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
        #: Threads of the pumps parked on this stream's spent window.
        self.waiters: list[str] = []
        self.eos_sent = False
        self.stats.update(stalled=0, credits_granted=0, bytes_received=0)
        self._grant_batch = 1 if credits is None else max(1, credits // 2)
        self._to_grant = 0
        self._scheduler: Any = None

    def attach_scheduler(self, scheduler: Any) -> None:
        """The scheduler whose threads use this stream (wired by the
        netpipe endpoints): while it dispatches, records are held."""
        self._scheduler = scheduler

    # -- producer side ------------------------------------------------------

    def send(self, payload) -> None:
        credits = self.credits
        if self.eos_sent or credits is not None and credits <= 0:
            self._refuse()
        self.credits = None if credits is None else credits - 1
        self.stats["sent"] += 1
        self.mux._put(self, MUX_DATA, payload)

    def send_frame(self, payload, items: int | None = None) -> None:
        """``items``: the data items in the frame, stated by the sender
        that built it (its chunk count may include side chunks)."""
        credits = self.credits
        if self.eos_sent or credits is not None and credits <= 0:
            self._refuse()
        if credits is not None:
            self.credits = credits - (
                _frame_cost(payload) if items is None else items)
        self.stats["sent"] += 1
        self.mux._put(self, MUX_FRAME, payload)

    def send_eos(self) -> None:
        if not self.eos_sent:
            self.eos_sent = True
            self.mux._put(self, MUX_EOS)

    def _refuse(self) -> None:
        raise RemoteError(f"stream {self.flow!r}: " + (
            "send after send_eos" if self.eos_sent else f"send on a spent "
            f"window ({self.credits} credits); a pump sending here parks"))

    def windowed(self, ctx: Any, walker):
        """``walker``'s own generator while credits remain or for EOS (it
        costs no credit); on a spent window, first the thread's
        :meth:`~repro.runtime.section.ThreadCtx.wait` for a credit, naming
        this stream's consumer, until a grant reopens the window
        (:meth:`_on_credit`)."""
        if self.window is None:
            return walker
        waiters, thread = self.waiters, ctx.thread_name
        wait_for, stats, receive = ctx.wait, self.stats, None

        def parked(arg):
            return walker(arg) if self.credits > 0 or arg is EOS else wait(arg)

        def wait(arg):
            nonlocal receive
            while self.credits <= 0:
                if receive is None:  # built at the first park
                    receive = awaiting(
                        "credit", f"consumer of {self.flow} at {self.dst}",
                        f"credit wait on {self.flow}")
                waiters.append(thread)
                stats["stalled"] += 1
                yield from wait_for(receive)
            return (yield from walker(arg))

        return parked

    def _on_credit(self, granted: int) -> None:
        """A grant arrived: what the parked pumps wait for, as one post."""
        if self.credits is None:
            return
        self.credits += granted
        if self.waiters and self.credits > 0:
            wakes = [Message(kind="credit", target=thread, sender=self.flow)
                     for thread in self.waiters]
            self.waiters.clear()
            self._scheduler.post_many(wakes)

    # -- consumer side ------------------------------------------------------

    def note_drained(self, items: int) -> None:
        """The consumer actually removed ``items`` from its queue; return
        the credits to the sender, batched to amortize control frames."""
        if self.window is None:
            return
        self._to_grant += items
        # After EOS whatever is owed goes at once — but never a zero grant.
        if self._to_grant >= (1 if self.eos_received else self._grant_batch):
            granted, self._to_grant = self._to_grant, 0
            self.stats["credits_granted"] += granted
            self.mux._put(self, MUX_CREDIT, arg=granted)

    def wire_key(self, sending: bool):
        """The link this stream's mux writes (``sending``) or reads, and
        the stream id: the two ends of a stream are two objects."""
        mux = self.mux
        return mux.transport if sending else mux.inbound, self.stream_id

    def pump(self) -> int:
        """Pump the *shared* transport (routing may deliver to any
        stream); provided so a stream can stand alone as an io source."""
        return self.mux.pump()

    def close(self) -> None:
        self.mux.close_stream(self.stream_id)


class StreamMux:
    """Multiplexes many :class:`MuxStream` endpoints over one transport:
    ``transport`` carries the outbound trains, ``inbound`` (default: the
    same duplex link, a socketpair end) the arriving ones — pass the
    reverse link of a unidirectional pair (two InProcessLinks)."""

    def __init__(self, transport: Transport, inbound: Transport | None = None):
        self.transport = transport
        self.inbound = inbound if inbound is not None else transport
        self.src, self.dst = transport.src, transport.dst
        self._streams: dict[int, MuxStream] = {}
        #: The train being gathered — ``[kind, stream_id, arg, chunks]``
        #: records in emission order, a DATA record's chunks growing
        #: while its stream keeps sending — and about its wire size.
        self._train: list[list] = []
        self._train_bytes = 0
        #: Stream id -> its CREDIT record in the train being gathered.
        self._grants: dict[int, list] = {}
        self._pumping = False
        #: Why a train with data could not leave: the next pump raises it.
        self._lost: OSError | None = None
        self.stats = dict.fromkeys(
            ("frames_sent", "frames_received", "credits_sent",
             "credits_received", "unknown_stream_drops"), 0,
        )
        self.inbound.on_deliver(
            self._rx_plain, self._rx_link_eos, self._rx_frame
        )

    # -- stream lifecycle ----------------------------------------------------

    def open_stream(
        self, stream_id: int, credits: int | None = None
    ) -> MuxStream:
        """Register (or fetch) the stream called ``stream_id``; both link
        ends open it, with the same ``credits`` window (module docstring):
        the sender's is spent and parks, the receiver's sizes its grants."""
        stream = self._streams.get(stream_id)
        if stream is None:
            stream = MuxStream(self, stream_id, credits=credits)
            self._streams[stream_id] = stream
        return stream

    def close_stream(self, stream_id: int) -> None:
        """Forget a stream, and the pumps parked on it; late frames for it
        are counted and dropped."""
        stream = self._streams.pop(stream_id, None)
        if stream is not None:
            stream.waiters.clear()

    @property
    def streams(self) -> dict[int, MuxStream]:
        return dict(self._streams)

    # -- outbound ------------------------------------------------------------

    def _put(self, stream: MuxStream, kind: int, body=None, arg=0) -> None:
        """One record joins the train.  A train begun inside :meth:`pump`
        leaves as that pump returns; one begun while the stream's scheduler
        dispatches is held until that scheduler calls :meth:`flush` before
        it waits; one begun any other time leaves at once."""
        train, sid = self._train, stream.stream_id
        if (kind == MUX_DATA and train and train[-1][1] == sid
                and train[-1][0] == MUX_DATA):  # the same stream sends on
            train[-1][3].append(bytes(body))
            self._train_bytes += 18 + len(body)
            if self._train_bytes >= TRAIN_BYTES:
                self.flush()
            return
        record = [kind, sid, arg, [] if body is None else [bytes(body)]]
        if kind == MUX_CREDIT:
            grant = self._grants.setdefault(sid, record)
            if grant is not record:  # one grant record per stream a train
                grant[2] += arg
                return
            self.stats["credits_sent"] += 1
        train.append(record)  # held, so its chunks are owned bytes
        self._train_bytes += 18 if body is None else 18 + len(body)
        # A train already begun is registered, and a pump flushes its own.
        held = len(train) > 1 or self._pumping
        if not held and stream._scheduler is not None:
            held = stream._scheduler.before_idle(self.flush)
        if not held or self._train_bytes >= TRAIN_BYTES:
            self.flush()

    def flush(self) -> None:
        """Write the held train out as one link frame."""
        train = self._train
        if not train:
            return
        self._train, self._train_bytes, self._grants = [], 0, {}
        out = []
        for kind, stream_id, arg, chunks in train:
            if len(chunks) > 1:  # one stream's consecutive sends: a run
                kind, chunks = MUX_FRAME, [encode_batch(chunks)]
            out.append(encode_stream_header(kind, stream_id, arg))
            out += chunks
        self.stats["frames_sent"] += len(train)
        try:
            self.transport.send_frame(encode_batch(out))
        except (BrokenPipeError, ConnectionResetError) as lost:
            # The peer is gone: a grant it can no longer draw on is moot;
            # lost data fails the io loop's pump, not a thread that sent.
            if any(record[0] != MUX_CREDIT for record in train):
                self._lost = lost

    def send_link_eos(self) -> None:
        """Close the whole shared link: EOS to every peer stream."""
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
                    raise MarshalError(f"stream {stream_id}: no payload chunk")
            elif kind == MUX_CREDIT and arg <= 0:
                raise MarshalError(f"stream {stream_id} grant {arg} <= 0")
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
                    stream.stats["bytes_received"] += len(body or b"")
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
            if stream._deliver_eos is None:  # send-only: just marked ended
                stream.eos_received = True
            elif not stream.eos_received:
                stream._receive(EOS_KIND)

    # -- io loop -------------------------------------------------------------

    def pump(self) -> int:
        """Deliver what the link holds; what that makes this mux emit (a
        delivery callback's grant or send) leaves as one train when the
        pump returns or raises.  Raises once a train with data was lost
        to a broken link."""
        pumping, self._pumping = self._pumping, True
        try:
            return self.inbound.pump()
        finally:
            self._pumping = pumping
            self.flush()
            if self._lost is not None:
                raise self._lost

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
