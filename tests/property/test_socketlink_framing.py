"""``SocketLink`` framing against arbitrary byte-stream cuts.

A stream socket delivers bytes, not messages: ``recv`` may return half a
header, a header and part of its payload, or the tail of one message and
the start of the next.  Here the bytes a sending ``SocketLink`` wrote are
replayed into a receiving one in pieces cut at arbitrary points, with a
``pump()`` after every k-th piece (or only once all arrived, so one
``recv`` holds many messages), and what the receiver delivers must be
exactly what was sent.  Hostile streams end in a named
error: an unknown kind byte and a stream closed mid-message raise
``MarshalError``, and a forged length never makes the receiver hold more
than the bytes that arrived.
"""

import socket
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MarshalError
from repro.net.socketlink import _HEADER, _RECV_CHUNK, SocketLink

payloads = st.one_of(
    st.binary(max_size=64),
    st.integers(4090, 4100).map(lambda n: bytes(i % 251 for i in range(n))),
)
messages = st.one_of(
    st.tuples(st.just("data"), payloads),
    st.tuples(st.just("frame"), payloads),
    st.just(("eos", b"")),
)
streams = st.lists(messages, max_size=8)


def wire_bytes(sent) -> bytes:
    """What a sending ``SocketLink`` writes for ``sent``."""
    out, raw = socket.socketpair()
    tx = SocketLink(sock_out=out)
    for kind, payload in sent:
        {"data": tx.send, "frame": tx.send_frame,
         "eos": lambda _: tx.send_eos()}[kind](payload)
    out.close()
    chunks = []
    while chunk := raw.recv(1 << 16):
        chunks.append(chunk)
    raw.close()
    return b"".join(chunks)


def delivered_by_sender(sent):
    """``sent`` as the receiver must report it: a second EOS is never
    written (``send_eos`` is idempotent)."""
    first_eos = next(
        (i for i, (kind, _) in enumerate(sent) if kind == "eos"), None)
    return [
        (kind, payload) for i, (kind, payload) in enumerate(sent)
        if kind != "eos" or i == first_eos
    ]


class Receiver:
    """A receive-only ``SocketLink`` fed raw bytes piece by piece."""

    def __init__(self):
        self.feed, sock_in = socket.socketpair()
        self.link = SocketLink(sock_in=sock_in)
        self.got = []
        self.link.on_deliver(
            lambda data: self.got.append(("data", bytes(data))),
            lambda: self.got.append(("eos", b"")),
            lambda frame: self.got.append(("frame", bytes(frame))),
        )

    def pump(self):
        self.link.pump()

    def close(self):
        self.feed.close()
        self.link.close()


def pieces(data: bytes, cuts) -> list[bytes]:
    bounds = [0, *sorted({cut % (len(data) + 1) for cut in cuts}), len(data)]
    return [data[a:b] for a, b in zip(bounds, bounds[1:])]


@settings(max_examples=150)
@given(streams, st.lists(st.integers(min_value=0), max_size=12),
       st.one_of(st.none(), st.integers(1, 3)))
def test_any_cut_of_the_stream_delivers_what_was_sent(sent, cuts, every):
    data = wire_bytes(sent)
    rx = Receiver()
    try:
        for index, piece in enumerate(pieces(data, cuts)):
            rx.feed.sendall(piece)
            if every is not None and index % every == 0:
                rx.pump()
        rx.feed.close()
        rx.pump()
        assert rx.got == delivered_by_sender(sent)
        assert not rx.link._buf and rx.link.peer_closed
    finally:
        rx.close()


@given(streams, st.integers(3, 255), st.binary(max_size=16),
       st.lists(st.integers(min_value=0), max_size=4))
def test_an_unknown_kind_byte_is_a_marshal_error(sent, kind, payload, cuts):
    data = wire_bytes(sent) + _HEADER.pack(kind, len(payload)) + payload
    rx = Receiver()
    try:
        with pytest.raises(MarshalError, match="unknown message kind"):
            for piece in pieces(data, cuts):
                rx.feed.sendall(piece)
                rx.pump()
        assert rx.got == delivered_by_sender(sent)
    finally:
        rx.close()


@given(streams.filter(lambda sent: len(sent) > 0), st.data())
def test_a_stream_closed_mid_message_is_a_marshal_error(sent, draw):
    data = wire_bytes(sent)
    ends, end = set(), 0
    for _, payload in delivered_by_sender(sent):
        end += _HEADER.size + len(payload)
        ends.add(end)
    cut = draw.draw(st.integers(1, len(data) - 1).filter(
        lambda at: at not in ends))
    rx = Receiver()
    try:
        rx.feed.sendall(data[:cut])
        rx.feed.close()
        with pytest.raises(MarshalError, match="peer closed mid-message"):
            rx.pump()
    finally:
        rx.close()


@given(st.integers(3 * _RECV_CHUNK + 1, 2**32 - 1),
       st.integers(0, 3 * _RECV_CHUNK))
@settings(max_examples=25)
def test_a_forged_length_holds_only_the_bytes_that_arrived(length, sent):
    rx = Receiver()
    body = bytes(sent)
    try:
        rx.feed.sendall(_HEADER.pack(0, length))
        tracemalloc.start()
        try:
            for at in range(0, sent + 1, _RECV_CHUNK // 2):
                rx.feed.sendall(body[at:at + _RECV_CHUNK // 2])
                rx.pump()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rx.got == []
        assert len(rx.link._buf) == _HEADER.size + sent
        assert peak < _HEADER.size + sent + 4 * _RECV_CHUNK
    finally:
        rx.close()
