"""Real-socket netpipe transports: the deployment data plane.

The simulated :class:`~repro.net.protocols.Protocol` family carries
netpipe flows inside one discrete-event scheduler.  A sharded deployment
(:mod:`repro.deploy`) needs the same flows carried **between OS
processes**, so :class:`SocketLink` implements the
:class:`~repro.net.protocols.Transport` contract the netpipe pair already
speaks over a real ``socket.socketpair()`` or TCP stream.  Because only
the transport changes, ``marshal.encode_batch`` / ``EncodedRun`` zero-copy
framing, flow-trace TLV side-chunks and QoS property stamping all
transfer unchanged.

Wire format: a 5-byte header per message — one kind byte (data / frame /
eos) and a ``!I`` payload length — followed by the payload.  TCP/socketpair
byte streams preserve order and never drop, so there is no
sequence/retransmit machinery; OS socket buffers provide natural
backpressure (a fast producer blocks in ``sendall`` until the consumer
drains).

:class:`InProcessLink` is the co-simulation twin used by
``Deployment.simulate()``: the same interface with synchronous in-memory
delivery, so a sharded cut can run inside ONE engine/scheduler where the
refinement checker can explore schedules deterministically.
"""

from __future__ import annotations

import select
import socket
import struct

from repro.errors import MarshalError, RemoteError
from repro.net.protocols import DATA_KIND, EOS_KIND, FRAME_KIND, Transport

#: Message kinds on the wire (one byte), and the contract kind of each.
_DATA = 0
_FRAME = 1
_EOS = 2
_KINDS = {_DATA: DATA_KIND, _FRAME: FRAME_KIND, _EOS: EOS_KIND}

_HEADER = struct.Struct("!BI")
_RECV_CHUNK = 1 << 16
#: Payloads up to this size are copied into the header's send call.
_COALESCE_LIMIT = 1 << 12


def tcp_socketpair(
    host: str = "127.0.0.1",
) -> tuple[socket.socket, socket.socket]:
    """A connected (client, server) pair of TCP_NODELAY sockets over
    loopback — ``socket.socketpair()`` for a real TCP leg."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        listener.bind((host, 0))
        listener.listen(1)
        client = socket.create_connection(listener.getsockname())
        server, _ = listener.accept()
    finally:
        listener.close()
    for sock in (client, server):
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return client, server


def _set_bufsize(sock: socket.socket, bufsize: int | None) -> None:
    if bufsize is None:
        return
    for opt in (socket.SO_SNDBUF, socket.SO_RCVBUF):
        try:
            sock.setsockopt(socket.SOL_SOCKET, opt, bufsize)
        except OSError:  # pragma: no cover - platform cap; best effort
            pass


class SocketLink(Transport):
    """Netpipe transport over a real stream socket.

    Parameters
    ----------
    sock_out:
        Socket used for sends; ``None`` for a receive-only end.
    sock_in:
        Socket used for receives; ``None`` for a send-only end.  May be
        the same object as ``sock_out`` (full duplex, the deployment
        case: each shard wraps its own end of a socketpair).
    """

    def __init__(
        self,
        sock_out: socket.socket | None = None,
        sock_in: socket.socket | None = None,
        src: str = "local",
        dst: str = "remote",
        flow: str = "flow",
    ):
        super().__init__(flow, src, dst)
        self._sock_out = sock_out
        self._sock_in = sock_in
        self.stats.update(bytes_sent=0, bytes_received=0, frames_sent=0)
        self.eos_sent = False
        self.peer_closed = False
        self._buf = bytearray()

    # -- construction helpers ----------------------------------------------

    @classmethod
    def pair(
        cls, bufsize: int | None = None
    ) -> tuple["SocketLink", "SocketLink"]:
        """A connected (sender-end, receiver-end) link pair over a
        ``socket.socketpair()`` — one object per process end.

        ``bufsize`` raises SO_SNDBUF/SO_RCVBUF on both ends: a
        multiplexed link carrying thousands of per-stream frames needs
        headroom beyond the OS default (tiny messages pay large per-skb
        accounting), or a burst from many tenants can block the sender
        before the peer's pump loop gets a turn.
        """
        a, b = socket.socketpair()
        _set_bufsize(a, bufsize)
        _set_bufsize(b, bufsize)
        return cls(a, a, "shard-0", "shard-1"), cls(b, b, "shard-0", "shard-1")

    @classmethod
    def tcp_pair(
        cls,
        src: str = "shard-0",
        dst: str = "shard-1",
        flow: str = "flow",
        host: str = "127.0.0.1",
    ) -> tuple["SocketLink", "SocketLink"]:
        """Like :meth:`pair` but over :func:`tcp_socketpair`."""
        client, server = tcp_socketpair(host)
        tx = cls(sock_out=client, sock_in=client, src=src, dst=dst, flow=flow)
        rx = cls(sock_out=server, sock_in=server, src=src, dst=dst, flow=flow)
        return tx, rx

    # -- sender side --------------------------------------------------------

    def _sendall(self, kind: int, payload) -> None:
        if self._sock_out is None:
            raise RemoteError(
                f"link {self.flow!r} has no outbound socket; this is the "
                "receive-only end"
            )
        length = len(payload)
        header = _HEADER.pack(kind, length)
        if length and length <= _COALESCE_LIMIT:
            # One syscall (and, on AF_UNIX, one skb) per small message:
            # a multiplexed link sends thousands of tiny per-stream
            # frames, and per-message kernel overhead dominates their
            # buffer accounting.
            self._sock_out.sendall(header + bytes(payload))
        else:
            self._sock_out.sendall(header)
            if length:
                self._sock_out.sendall(payload)
        self.stats["bytes_sent"] += length

    def send(self, payload) -> None:
        self._sendall(_DATA, payload)
        self.stats["sent"] += 1

    def send_frame(self, payload, items: int | None = None) -> None:
        self._sendall(_FRAME, payload)
        self.stats["sent"] += 1
        self.stats["frames_sent"] += 1

    def send_eos(self) -> None:
        if self.eos_sent:
            return
        self.eos_sent = True
        self._sendall(_EOS, b"")

    # -- receiver side ------------------------------------------------------

    def fileno(self) -> int:
        if self._sock_in is None:
            raise RemoteError(f"link {self.flow!r} has no inbound socket")
        return self._sock_in.fileno()

    def readable(self, timeout: float = 0.0) -> bool:
        """True when at least one byte (or peer close) is waiting."""
        if self._sock_in is None or self.peer_closed:
            return False
        ready, _, _ = select.select([self._sock_in], [], [], timeout)
        return bool(ready)

    def pump(self, max_messages: int | None = None) -> int:
        """Deliver what the socket holds *right now* into the bound
        receiver callbacks; returns the number of delivered messages.

        Non-blocking: returns 0 immediately when nothing is waiting.  The
        shard worker loop alternates ``engine.run()`` with ``pump()``
        (see :meth:`repro.runtime.engine.Engine.run_with_io`).

        The socket is read only when the bytes already buffered hold no
        complete message, so with ``max_messages`` set whatever was not
        asked for stays in the kernel's socket buffer, where it
        backpressures the sender, rather than piling up here.
        """
        if self._sock_in is None:
            return 0
        delivered = 0
        while True:
            delivered += self._dispatch(
                None if max_messages is None else max_messages - delivered
            )
            if max_messages is not None and delivered >= max_messages:
                break
            if not self._recv_more():
                if self.peer_closed and self._buf:
                    # Every complete message was dispatched above, so the
                    # leftover bytes can only be a truncated one.
                    raise MarshalError(
                        f"link {self.flow!r}: peer closed mid-message "
                        f"({len(self._buf)} stray bytes)"
                    )
                break
        return delivered

    def _recv_more(self) -> bool:
        """One non-blocking read into the buffer; False when nothing is
        waiting or the peer closed."""
        if not self.readable(0.0):
            return False
        try:
            chunk = self._sock_in.recv(_RECV_CHUNK)
        except (BlockingIOError, InterruptedError):
            return False
        if not chunk:
            self.peer_closed = True
            return False
        self._buf += chunk
        return True

    def wait(self, timeout: float) -> bool:
        """Block up to ``timeout`` seconds for inbound bytes."""
        return self.readable(timeout)

    def _dispatch(self, limit: int | None) -> int:
        buf = self._buf
        count = 0
        while limit is None or count < limit:
            if len(buf) < _HEADER.size:
                break
            kind, length = _HEADER.unpack_from(buf)
            end = _HEADER.size + length
            if len(buf) < end:
                break
            payload = bytes(buf[_HEADER.size:end])
            del buf[:end]
            self.stats["bytes_received"] += length
            # An unknown header byte is refused as an unknown kind.
            self._receive(_KINDS.get(kind, kind), payload)
            count += 1
        return count

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        for sock in {
            s for s in (self._sock_out, self._sock_in) if s is not None
        }:
            try:
                sock.close()
            except OSError:  # pragma: no cover - best effort
                pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SocketLink {self.flow!r} {self.src}->{self.dst} "
            f"sent={self.stats['sent']} delivered={self.stats['delivered']}>"
        )


class InProcessLink(Transport):
    """Synchronous in-memory transport.

    ``Deployment.simulate()`` realizes every planner cut with one of
    these so the whole sharded structure runs inside a single engine:
    sends deliver immediately into the receiver callbacks (a zero-delay
    reliable wire), keeping runs deterministic and schedule exploration
    (:func:`repro.check.check_refinement`) applicable.  Sender and
    receiver share the one object, which is also what lets
    ``lossy_channels`` pair the two netpipe halves across the cut.

    ``loss_rate`` > 0 turns it into a seeded lossy datagram wire (each
    data or frame message may be dropped), for exercising wire-loss
    attribution without a network simulator.
    """

    def __init__(
        self,
        src: str = "shard-0",
        dst: str = "shard-1",
        flow: str = "flow",
        loss_rate: float = 0.0,
        seed: int = 0,
    ):
        import random

        super().__init__(flow, src, dst)
        self.loss_rate = loss_rate
        self._rng = random.Random(seed)
        self.stats["lost"] = 0
        self.eos_sent = False

    def _carry(self, kind: str, payload) -> None:
        self.stats["sent"] += 1
        if self.loss_rate > 0.0 and self._rng.random() < self.loss_rate:
            self.stats["lost"] += 1
        else:
            self._receive(kind, bytes(payload))

    def send(self, payload) -> None:
        self._carry(DATA_KIND, payload)

    def send_frame(self, payload, items: int | None = None) -> None:
        self._carry(FRAME_KIND, payload)

    def send_eos(self) -> None:
        if not self.eos_sent:
            self.eos_sent = True
            self._receive(EOS_KIND)
