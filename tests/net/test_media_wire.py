"""Zero-copy media marshalling over netpipes.

The acceptance property the tentpole pins: zero payload copies on the
netpipe receive path, asserted via ``memoryview`` identity — every
payload view a component sees aliases the single received frame buffer.
"""

import hashlib
import struct

import pytest

from repro.errors import MarshalError
from repro.media import FrameBatch, GopStructure
from repro.net.marshal import (
    EncodedRun,
    MarshalFilter,
    UnmarshalFilter,
    decode_batch,
    decode_batch_views,
    decode_item,
    encode_batch,
    encode_run,
)
from repro.net.netpipe import NetpipeReceiver, NetpipeSender
from repro.net.protocols import Transport


class FakeProtocol(Transport):
    """Protocol stand-in recording sends and exposing delivery hooks."""

    def __init__(self):
        super().__init__("fake", "a", "b")
        self.sent = []

    def send(self, payload):
        self.sent.append(("item", payload))

    def send_frame(self, payload, items=None):
        self.sent.append(("frame", payload))

    def send_eos(self):
        self.sent.append(("eos", None))


def encoded_run(frames=8):
    batch = GopStructure(seed=9).frame_batch(0, frames, payloads=True)
    run = MarshalFilter().convert_many(batch)
    assert isinstance(run, EncodedRun)
    return batch, run


class TestSendPath:
    def test_marshal_columnar_returns_encoded_run(self):
        batch, run = encoded_run()
        assert len(run) == len(batch)
        # One chunk per frame: marshal stays 1:1 (conservation intact).
        assert all(run.chunk(i).obj is run.buffer for i in range(len(run)))

    def test_sender_ships_the_run_buffer_unframed(self):
        _, run = encoded_run()
        protocol = FakeProtocol()
        sender = NetpipeSender(protocol)
        sender.push_many(run)
        (kind, payload), = protocol.sent
        assert kind == "frame"
        # Zero-copy send: the protocol got the run's own buffer, not a
        # re-framed copy.
        assert payload.obj is run.buffer
        assert sender.stats["frames_out"] == 1
        assert sender.stats["bytes_in"] == run.nbytes

    def test_run_frame_payload_is_valid_frame_format(self):
        _, run = encoded_run()
        chunks = decode_batch(bytes(run.frame_payload()))
        assert chunks == [bytes(run.chunk(i)) for i in range(len(run))]

    def test_plain_chunk_list_still_coalesces(self):
        protocol = FakeProtocol()
        sender = NetpipeSender(protocol)
        sender.push_many([b"one", b"two"])
        (kind, payload), = protocol.sent
        assert kind == "frame"
        assert decode_batch(payload) == [b"one", b"two"]


class TestReceivePathZeroCopy:
    def deliver(self, run):
        protocol = FakeProtocol()
        receiver = NetpipeReceiver(protocol)
        wire = bytes(run.frame_payload())  # the network's one reassembly
        protocol._deliver_frame(wire)
        return receiver, wire

    def test_queued_chunks_alias_the_received_frame(self):
        batch, run = encoded_run()
        receiver, wire = self.deliver(run)
        status, chunks = receiver.try_pull_many(len(batch))
        assert len(chunks) == len(batch)
        for chunk in chunks:
            assert isinstance(chunk, memoryview)
            assert chunk.obj is wire  # zero payload copies

    def test_decoded_batch_payloads_alias_the_received_frame(self):
        batch, run = encoded_run()
        receiver, wire = self.deliver(run)
        _, chunks = receiver.try_pull_many(len(batch))
        decoded = UnmarshalFilter().convert_many(chunks)
        assert isinstance(decoded, FrameBatch)
        for i in range(len(decoded)):
            assert decoded.payload_view(i).obj is wire
        # ... and a materialized frame still aliases the same buffer.
        assert decoded[0].payload.obj is wire
        assert bytes(decoded[0].payload) == bytes(batch.payload_view(0))

    def test_single_raw_chunk_decodes_per_item(self):
        batch, run = encoded_run(2)
        frame = decode_item(bytes(run.chunk(0)))
        assert frame.seq == 0 and frame.encoded
        assert bytes(frame.payload) == bytes(batch.payload_view(0))

    def test_receiver_counts_frame_and_bytes(self):
        _, run = encoded_run(4)
        receiver, wire = self.deliver(run)
        assert receiver.stats["frames_in"] == 1
        assert receiver.stats["items_in"] == 4
        assert receiver.stats["bytes_in"] == len(wire)


class TestMalformedFrames:
    def test_truncated_frame_header(self):
        with pytest.raises(MarshalError, match="truncated frame header"):
            decode_batch_views(b"\x00\x00")

    def test_truncated_length_prefix(self):
        frame = encode_batch([b"abc", b"defg"])
        # Cut inside chunk 1's length prefix (4 header + 4 + 3 body = 11).
        with pytest.raises(MarshalError, match="no\\s+length prefix"):
            decode_batch_views(frame[:13])

    def test_truncated_chunk_body(self):
        frame = encode_batch([b"abcdefgh"])
        with pytest.raises(MarshalError, match="truncated frame chunk"):
            decode_batch_views(frame[:-2])

    def test_trailing_garbage(self):
        frame = encode_batch([b"abc"])
        with pytest.raises(MarshalError, match="trailing garbage"):
            decode_batch_views(frame + b"zz")

    def test_receiver_surfaces_marshal_error(self):
        protocol = FakeProtocol()
        NetpipeReceiver(protocol)
        with pytest.raises(MarshalError):
            protocol._deliver_frame(encode_batch([b"abc"])[:-1])

    def test_truncated_tlv_is_marshal_error(self):
        # Satellite fix: a short fixed-width field used to escape as a
        # raw struct.error.
        from repro.net.marshal import encode_item

        data = encode_item(12345)
        with pytest.raises(MarshalError, match="truncated"):
            decode_item(data[:-2])

    def test_truncated_tlv_string_is_marshal_error(self):
        from repro.net.marshal import encode_item

        data = encode_item("hello world")
        with pytest.raises(MarshalError, match="truncated string"):
            decode_item(data[:-3])

    def test_truncated_tlv_bytes_is_marshal_error(self):
        from repro.net.marshal import encode_item

        data = encode_item(b"hello world")
        with pytest.raises(MarshalError, match="truncated bytes"):
            decode_item(data[:-3])


class TestEncodedRun:
    def test_run_protocol(self):
        _, run = encoded_run(5)
        assert len(run) == 5
        assert run[-1].obj is run.buffer
        assert [bytes(c) for c in run[1:3]] == [
            bytes(run.chunk(1)), bytes(run.chunk(2))
        ]
        with pytest.raises(IndexError):
            run[5]
        assert run.nbytes == sum(run.lengths)

    def test_unregistered_columnar_run_falls_back(self):
        from repro.core.runs import ColumnarRun

        class Odd(ColumnarRun):
            def __len__(self):
                return 2

            def __getitem__(self, i):
                return i

        assert encode_run(Odd()) is None


class TestForgedMediaChunks:
    """A media chunk header is outside input: a field that can only make
    sense non-negative is refused by name, as a ``MarshalError`` — never
    a ``struct.error`` out of a receiver thread, never a batch whose
    byte accounting runs backwards."""

    FRAME = "<BBBBqdqqiii"  # wire, flags, kind, ndeps, seq, pts, size, body, w, h, gop
    SAMPLE = "<BBqddqq"  # wire, flags, seq, pts, duration, size, body

    def frame_chunk(self, ndeps=0, size=48, body=0, width=160, height=120,
                    tail=b""):
        return struct.pack(
            self.FRAME, 0x20, 0x02, ord("P"), ndeps, 7, 0.25, size, body,
            width, height, 0,
        ) + tail

    def sample_chunk(self, size=0, body=0, tail=b""):
        return struct.pack(self.SAMPLE, 0x21, 0, 7, 0.25, 0.02, size, body) + tail

    def test_negative_body_len_cancelling_the_deps_is_refused(self):
        # 48 header bytes + 8 * 2 deps - 16 body == the 48 bytes present.
        chunk = self.frame_chunk(ndeps=2, body=-16)
        assert len(chunk) == 48
        for decode in (decode_item, lambda c: UnmarshalFilter().convert_many([c])):
            with pytest.raises(MarshalError, match="negative body_len -16"):
                decode(chunk)

    @pytest.mark.parametrize("field", ["size", "width", "height"])
    def test_negative_frame_dimension_is_refused(self, field):
        chunk = self.frame_chunk(**{field: -1})
        with pytest.raises(MarshalError, match=f"negative {field} -1"):
            decode_item(chunk)
        with pytest.raises(MarshalError, match=f"negative {field} -1"):
            UnmarshalFilter().convert_many([chunk, chunk])

    @pytest.mark.parametrize("field", ["size", "body"])
    def test_negative_sample_field_is_refused(self, field):
        name = {"size": "size", "body": "body_len"}[field]
        chunk = self.sample_chunk(**{field: -8})
        with pytest.raises(MarshalError, match=f"negative {name} -8"):
            decode_item(chunk)
        with pytest.raises(MarshalError, match=f"negative {name} -8"):
            UnmarshalFilter().convert_many([chunk])

    def test_receiver_surfaces_a_forged_media_frame_as_marshal_error(self):
        protocol = FakeProtocol()
        receiver = NetpipeReceiver(protocol)
        protocol._deliver_frame(
            encode_batch([self.frame_chunk(ndeps=2, body=-16)] * 2)
        )
        _, chunks = receiver.try_pull_many(2)
        with pytest.raises(MarshalError, match="negative body_len"):
            UnmarshalFilter().convert_many(chunks)

    def test_well_formed_chunks_still_decode(self):
        frame = decode_item(self.frame_chunk(ndeps=1, tail=b"\x05" + b"\0" * 7))
        assert (frame.seq, frame.kind, frame.deps, frame.size) == (7, "P", (5,), 48)
        sample = decode_item(self.sample_chunk(size=4, body=4, tail=b"abcd"))
        assert sample.payload is None and sample.size == 4


def test_one_encoded_run_is_byte_for_byte_the_recorded_one():
    """Digests recorded at the commit before the run encoders read their
    columns once: 32 frames of the ``video-wire`` GOP, with payloads and
    metadata-only (padded to nominal size)."""
    def digest(payloads):
        gop = GopStructure(
            pattern="IBBPBBPBB", seed=12345, width=160, height=120
        )
        run = MarshalFilter().convert_many(
            gop.frame_batch(0, 32, payloads=payloads)
        )
        return hashlib.sha256(bytes(run.frame_payload())).hexdigest(), run.nbytes

    assert digest(True) == (
        "226a3906552e011e19903032f9bc60ebb48b36742df496cf9b95c3a8ad453208",
        9468,
    )
    assert digest(False)[0] == (
        "622fc0d4cbddb71b0f8b4aad9e2fd9c8471010a94f88cda9fd9d25305dd862a6"
    )
