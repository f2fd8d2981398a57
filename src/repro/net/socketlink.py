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
sequence/retransmit machinery; flow control is the credit window of the
:class:`~repro.net.mux.StreamMux` a deployment runs over each link.

:class:`InProcessLink` is the same contract with synchronous in-memory
delivery: ``Deployment.simulate()`` runs a shard pair's two muxes over
two of them (one each way) in place of the socket, so every shard of a
deployment runs inside ONE engine/scheduler, on the wire protocol it
ships, where the refinement checker can explore schedules
deterministically.
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

    def wait(self, timeout: float) -> bool:
        """Block up to ``timeout`` seconds for inbound bytes (or the
        peer's close); False at once after that close."""
        if self._sock_in is None or self.peer_closed:
            return False
        ready, _, _ = select.select([self._sock_in], [], [], timeout)
        return bool(ready)

    def pump(self) -> int:
        """Deliver what the socket holds *right now* into the bound
        receiver callbacks; returns the number of delivered messages, 0
        at once when nothing is waiting."""
        if self._sock_in is None:
            return 0
        delivered, buf = 0, self._buf  # _recv_more grows it in place
        while True:
            while len(buf) >= _HEADER.size:
                kind, length = _HEADER.unpack_from(buf)
                end = _HEADER.size + length
                if len(buf) < end:
                    break
                payload = bytes(buf[_HEADER.size:end])
                del buf[:end]
                self.stats["bytes_received"] += length
                # An unknown header byte is refused as an unknown kind.
                self._receive(_KINDS.get(kind, kind), payload)
                delivered += 1
            if not self._recv_more():
                if self.peer_closed and buf:
                    # Every complete message was dispatched above, so the
                    # leftover bytes can only be a truncated one.
                    raise MarshalError(
                        f"link {self.flow!r}: peer closed mid-message "
                        f"({len(buf)} stray bytes)"
                    )
                break
        return delivered

    def _recv_more(self) -> bool:
        """One non-blocking read into the buffer; False when nothing is
        waiting or the peer closed."""
        if not self.wait(0.0):
            return False
        try:
            chunk = self._sock_in.recv(_RECV_CHUNK)
        except (BlockingIOError, InterruptedError):
            return False
        except ConnectionResetError:  # it closed with our bytes unread
            chunk = b""
        if not chunk:
            self.peer_closed = True
            return False
        self._buf += chunk
        return True

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        for sock in {
            s for s in (self._sock_out, self._sock_in) if s is not None
        }:
            try:
                sock.close()
            except OSError:  # pragma: no cover - best effort
                pass


class InProcessLink(Transport):
    """Synchronous, reliable in-memory transport: a send is delivered
    into the receiver callbacks at once (a zero-delay wire that never
    drops), keeping runs deterministic and schedule exploration
    (:func:`repro.check.check_refinement`) applicable.  Sender and
    receiver share the one object.  ``Deployment.simulate()`` joins each
    shard pair with a :class:`~repro.net.mux.StreamMux` pair over two of
    these, one per direction.
    """

    def __init__(
        self, src: str = "shard-0", dst: str = "shard-1", flow: str = "flow"
    ):
        super().__init__(flow, src, dst)
        self.eos_sent = False

    def send(self, payload) -> None:
        self.stats["sent"] += 1
        self._receive(DATA_KIND, bytes(payload))

    def send_frame(self, payload, items: int | None = None) -> None:
        self.stats["sent"] += 1
        self._receive(FRAME_KIND, bytes(payload))

    def send_eos(self) -> None:
        if not self.eos_sent:
            self.eos_sent = True
            self._receive(EOS_KIND)
