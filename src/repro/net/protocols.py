"""Transport protocols runnable inside netpipes.

"Any single protocol built into a middleware platform is inadequate";
netpipes therefore encapsulate pluggable transports.  Two are provided:

* :class:`DatagramProtocol` — best-effort: packets may be lost (link loss,
  queue overflow) and may arrive out of order (jitter).  This is the
  transport under the Figure-1 video pipeline, where loss is *managed* by
  a feedback-controlled dropping filter rather than masked.
* :class:`StreamProtocol` — reliable and in-order: selective repeat with
  per-packet retransmission timers and cumulative acks riding the reverse
  link.  Loss turns into latency, as a TCP-like transport would.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.errors import MarshalError, RemoteError
from repro.net.marshal import decode_batch
from repro.net.network import Network
from repro.net.packets import Packet

DeliverFn = Callable[[bytes], None]
# The contract's three message kinds — also what ``Packet.kind`` carries.
#: A single ``send`` payload.
DATA_KIND = "data"
#: End of stream.
EOS_KIND = "eos"
#: A coalesced batch frame (see marshal.encode_batch): one message
#: carrying several encoded items, unfragmented back to items on the
#: receiving side.
FRAME_KIND = "frame"


#: Default maximum payload bytes per packet (Ethernet-ish).
DEFAULT_MTU = 1400


class Transport:
    """The contract a netpipe pair speaks to whatever carries its bytes
    (docs/RUNTIME.md, "Seams and their contracts").

    The four transport families — the simulated :class:`Protocol` s,
    :class:`~repro.net.socketlink.SocketLink`,
    :class:`~repro.net.socketlink.InProcessLink` and
    :class:`~repro.net.mux.MuxStream` — inherit it, so everything the
    netpipe endpoints, a :class:`~repro.net.mux.StreamMux`, the planner
    and the shard worker ask of a transport is an attribute declared
    here, with a default.  A sender calls ``send`` / ``send_frame`` /
    ``send_eos``; the receiving side binds three callbacks with
    :meth:`on_deliver`, and the transport hands every arrived message to
    :meth:`_receive` under one of the contract's three kinds.  How a kind
    is spelt on a wire (``Packet.kind``, a header byte, a mux record
    kind) is the transport's own business.
    """

    __slots__ = ("flow", "src", "dst", "stats", "eos_received",
                 "_deliver", "_deliver_eos", "_deliver_frame")

    #: True for a transport that charges sends per data item: the
    #: receiving netpipe then reports what its consumer drained through
    #: ``note_drained(items)`` (read once, when the receiver is built).
    counts_drained = False

    def __init__(self, flow: str, src: str, dst: str):
        self.flow = flow
        #: Node names stamped onto the netpipe components' ``location``.
        self.src = src
        self.dst = dst
        #: ``delivered`` counts messages a bound receiver took, EOS
        #: included.
        self.stats = {"sent": 0, "delivered": 0, "retransmits": 0}
        self.eos_received = False
        self._deliver: DeliverFn | None = None
        self._deliver_eos: Callable[[], None] | None = None
        self._deliver_frame: DeliverFn | None = None

    # -- sender side -------------------------------------------------------

    def send(self, payload) -> None:
        raise NotImplementedError

    def send_frame(self, payload, items: int | None = None) -> None:
        """Send a coalesced batch frame (marshal.encode_batch payload).
        ``items``: the data items in it, stated by the sender that built
        it (its chunk count may include side chunks)."""
        raise NotImplementedError

    def send_eos(self) -> None:
        raise NotImplementedError

    # -- receiver side ------------------------------------------------------

    def on_deliver(
        self,
        deliver: DeliverFn,
        deliver_eos: Callable[[], None],
        deliver_frame: DeliverFn | None = None,
    ) -> None:
        self._deliver = deliver
        self._deliver_eos = deliver_eos
        self._deliver_frame = deliver_frame

    def _receive(self, kind: str, payload=None) -> None:
        """Hand one arrived message to the bound receiver: a frame is
        unframed chunk by chunk when the receiver has no frame path, and
        a message nothing is bound for raises ``RemoteError`` whatever
        its kind."""
        if kind == EOS_KIND:
            deliver = self._deliver_eos
        elif kind == DATA_KIND or kind == FRAME_KIND:
            deliver = self._deliver
        else:
            raise MarshalError(
                f"flow {self.flow!r}: unknown message kind {kind!r}"
            )
        if deliver is None:
            raise RemoteError(f"flow {self.flow!r} has no receiver bound")
        self.stats["delivered"] += 1
        if kind == DATA_KIND:
            deliver(payload)
        elif kind == EOS_KIND:
            self.eos_received = True
            deliver()
        elif self._deliver_frame is not None:
            self._deliver_frame(payload)
        else:
            for chunk in decode_batch(payload):
                deliver(chunk)

    def receiver_loss_sample(self) -> float:
        """Wire loss fraction since the previous sample; a transport that
        never loses reports 0."""
        return 0.0

    # -- io loop and lifecycle ----------------------------------------------

    def attach_scheduler(self, scheduler: Any) -> None:
        """The scheduler whose threads use this transport (handed over by
        the netpipe endpoints in ``on_attach``); most ignore it."""

    def pump(self, max_messages: int | None = None) -> int:
        """Deliver what is waiting; returns the messages delivered.  A
        transport that delivers synchronously never has any."""
        return 0

    def wait(self, timeout: float) -> bool:
        """Block up to ``timeout`` seconds for inbound bytes."""
        return False

    def close(self) -> None:
        pass


class Protocol(Transport):
    """Base of the simulated transports: a one-directional byte flow
    between two nodes of a :class:`~repro.net.network.Network`.

    Messages larger than the MTU are fragmented into multiple packets; the
    receiving side reassembles.  Under the datagram protocol the loss of
    any fragment loses the whole message — which is why arbitrary network
    dropping disproportionately kills large (I) frames, the effect the
    Figure-1 feedback loop avoids by dropping whole low-priority frames at
    the producer instead.
    """

    def __init__(self, network: Network, flow: str, src: str, dst: str,
                 mtu: int = DEFAULT_MTU):
        super().__init__(flow, src, dst)
        self.network = network
        self.mtu = int(mtu)
        # Receiver-side loss estimation window (packet-sequence gaps).
        self._rx_highest = -1
        self._rx_window_expected = 0
        self._rx_window_received = 0
        self._next_msg_seq = 0
        network.register_receiver(flow, self._on_packet)

    def _fragments(self, payload: bytes, kind: str = DATA_KIND):
        """Split a message into MTU-sized fragment packets (unsequenced;
        the caller assigns packet seq numbers)."""
        msg_seq = self._next_msg_seq
        self._next_msg_seq += 1
        chunks = [payload[i : i + self.mtu]
                  for i in range(0, len(payload), self.mtu)] or [b""]
        return [
            Packet(
                flow=self.flow,
                seq=-1,
                payload=chunk,
                kind=kind,
                msg_seq=msg_seq,
                frag_idx=idx,
                frag_count=len(chunks),
            )
            for idx, chunk in enumerate(chunks)
        ]

    def _observe_rx(self, seq: int) -> None:
        if seq > self._rx_highest:
            self._rx_window_expected += seq - self._rx_highest
            self._rx_highest = seq
        self._rx_window_received += 1

    def receiver_loss_sample(self) -> float:
        """Packet loss fraction since the previous sample.

        This measures *network* loss (packet-sequence gaps at the
        receiver), which is what a consumer-side feedback sensor must use:
        frame-sequence gaps would also count the producer-side filter's own
        intentional drops and destabilize the loop.
        """
        expected = self._rx_window_expected
        received = self._rx_window_received
        self._rx_window_expected = 0
        self._rx_window_received = 0
        if expected <= 0:
            return 0.0
        return max(0.0, 1.0 - received / expected)

    def send_frame(self, payload: bytes, items: int | None = None) -> None:
        self.send(payload, FRAME_KIND)


class DatagramProtocol(Protocol):
    """Unreliable, unordered, no flow control — plain best effort."""

    def __init__(self, network: Network, flow: str, src: str, dst: str,
                 mtu: int = DEFAULT_MTU):
        super().__init__(network, flow, src, dst, mtu)
        self._next_seq = 0
        self._eos_pending = False
        # msg_seq -> {frag_idx: payload}; incomplete messages linger until
        # evicted by the horizon below.
        self._reassembly: dict[int, dict[int, bytes]] = {}
        self._frag_counts: dict[int, int] = {}
        self._delivered_msgs: set[int] = set()

    def send(self, payload: bytes, kind: str = DATA_KIND) -> None:
        for packet in self._fragments(payload, kind):
            packet.seq = self._next_seq
            self._next_seq += 1
            self.stats["sent"] += 1
            self.network.transmit(self.src, self.dst, packet)

    def send_eos(self) -> None:
        # Best-effort EOS: send a few copies so a lossy link still ends the
        # stream (a real system would use the session protocol).
        for _ in range(3):
            packet = Packet(
                flow=self.flow, seq=self._next_seq, payload=b"", kind=EOS_KIND
            )
            self._next_seq += 1
            self.network.transmit(self.src, self.dst, packet)

    def _on_packet(self, packet: Packet) -> None:
        if packet.kind == EOS_KIND:
            if self._eos_pending:
                return  # duplicate EOS copy
            self._eos_pending = True
            self._receive(EOS_KIND)
            return
        self._observe_rx(packet.seq)
        message = self._reassemble(packet)
        if message is not None:
            self._receive(packet.kind, message)

    def _reassemble(self, packet: Packet) -> bytes | None:
        msg = packet.msg_seq
        if msg in self._delivered_msgs:
            return None
        if packet.frag_count == 1:
            self._delivered_msgs.add(msg)
            self._evict_stale(msg)
            return packet.payload
        frags = self._reassembly.setdefault(msg, {})
        frags[packet.frag_idx] = packet.payload
        self._frag_counts[msg] = packet.frag_count
        if len(frags) < packet.frag_count:
            return None
        del self._reassembly[msg]
        del self._frag_counts[msg]
        self._delivered_msgs.add(msg)
        self._evict_stale(msg)
        return b"".join(frags[i] for i in range(packet.frag_count))

    def _evict_stale(self, completed_msg: int, horizon: int = 64) -> None:
        stale = [m for m in self._reassembly if m < completed_msg - horizon]
        for msg in stale:
            del self._reassembly[msg]
            self._frag_counts.pop(msg, None)
        self._delivered_msgs = {
            m for m in self._delivered_msgs if m >= completed_msg - horizon
        }


class StreamProtocol(Protocol):
    """Reliable in-order transport: selective repeat + cumulative acks."""

    def __init__(
        self,
        network: Network,
        flow: str,
        src: str,
        dst: str,
        retransmit_timeout: float = 0.1,
        max_retries: int = 20,
        mtu: int = DEFAULT_MTU,
    ):
        super().__init__(network, flow, src, dst, mtu)
        self.retransmit_timeout = retransmit_timeout
        self.max_retries = max_retries
        self._ack_flow = flow + "/ack"
        network.register_receiver(self._ack_flow, self._on_ack)
        # Sender state.
        self._next_seq = 0
        self._unacked: dict[int, tuple[Packet, int]] = {}
        # Receiver state.
        self._expected = 0
        self._reorder: dict[int, Packet] = {}
        self._partial: list[bytes] = []
        self._partial_msg: int | None = None

    # -- sender -------------------------------------------------------------

    def send(self, payload: bytes, kind: str = DATA_KIND) -> None:
        for packet in self._fragments(payload, kind):
            packet.seq = self._next_seq
            self._next_seq += 1
            self._transmit_tracked(packet, retries=0)

    def send_eos(self) -> None:
        packet = Packet(
            flow=self.flow, seq=self._next_seq, payload=b"", kind=EOS_KIND
        )
        self._next_seq += 1
        self._transmit_tracked(packet, retries=0)

    def _transmit_tracked(self, packet: Packet, retries: int) -> None:
        self.stats["sent"] += 1
        if retries:
            self.stats["retransmits"] += 1
        self._unacked[packet.seq] = (packet, retries)
        self.network.transmit(self.src, self.dst, packet)
        timeout = self.retransmit_timeout * (1 + retries)
        self.network.scheduler.after(
            timeout, lambda: self._check_retransmit(packet.seq)
        )

    def _check_retransmit(self, seq: int) -> None:
        entry = self._unacked.get(seq)
        if entry is None:
            return  # acked in the meantime
        packet, retries = entry
        if retries >= self.max_retries:
            raise RemoteError(
                f"flow {self.flow!r}: packet {seq} lost after "
                f"{retries} retries"
            )
        self._transmit_tracked(packet, retries + 1)

    def _on_ack(self, ack: Packet) -> None:
        # Cumulative: everything below ack.seq is delivered.
        for seq in [s for s in self._unacked if s < ack.seq]:
            del self._unacked[seq]

    # -- receiver -------------------------------------------------------------

    def _on_packet(self, packet: Packet) -> None:
        if packet.kind != EOS_KIND:
            self._observe_rx(packet.seq)
        if packet.seq >= self._expected and packet.seq not in self._reorder:
            self._reorder[packet.seq] = packet
        while self._expected in self._reorder:
            ready = self._reorder.pop(self._expected)
            self._expected += 1
            self._deliver_in_order(ready)
        self._send_ack()

    def _deliver_in_order(self, packet: Packet) -> None:
        if packet.kind == EOS_KIND or packet.frag_count == 1:
            self._receive(packet.kind, packet.payload)
            return
        # Fragments of one message arrive consecutively (in-order stream).
        if self._partial_msg != packet.msg_seq:
            self._partial = []
            self._partial_msg = packet.msg_seq
        self._partial.append(packet.payload)
        if len(self._partial) == packet.frag_count:
            message = b"".join(self._partial)
            self._partial = []
            self._partial_msg = None
            self._receive(packet.kind, message)

    def _send_ack(self) -> None:
        ack = Packet(
            flow=self._ack_flow, seq=self._expected, payload=b"", kind="ack"
        )
        self.network.transmit(self.dst, self.src, ack)
