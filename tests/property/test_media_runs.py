"""Hostile bytes on the media run codec (wire id 0x20; the retired 0x21).

A netpipe frame of media chunks is outside input.  Whatever arrives —
arbitrary bytes, a valid ``_encode_frame_run`` frame with one byte
flipped, a truncation, a forged count, length prefix
or header field — the run route (``decode_frame_run`` ->
``UnmarshalFilter.convert_many``) ends in a ``MarshalError`` or in a
batch equal, item for item, to what the per-chunk oracle
(``decode_batch_views`` -> ``decode_item``) decodes; nothing else
escapes, and nothing is allocated in proportion to a forged field.
Shape: ``tests/property/test_seam_runs.py``.
"""

import struct
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import MarshalError
from repro.media import FrameBatch, VideoFrame
from repro.net.marshal import (
    UnmarshalFilter,
    decode_batch_views,
    decode_frame_run,
    decode_item,
    encode_batch,
    encode_run,
)

FRAME_HEAD = struct.Struct("<BBBBqdqqiii")

int64s = st.integers(min_value=-(2**63), max_value=2**63 - 1)
int32s = st.integers(min_value=0, max_value=2**31 - 1)
floats = st.floats(allow_nan=False)
payloads = st.binary(max_size=24)


@st.composite
def frame_batches(draw):
    with_payloads = draw(st.booleans())
    frames = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        payload = draw(payloads) if with_payloads else None
        frames.append(VideoFrame(
            seq=draw(int64s),
            kind=draw(st.sampled_from("IPB")),
            pts=draw(floats),
            size=len(payload) if with_payloads else draw(
                st.integers(min_value=0, max_value=200)
            ),
            width=draw(int32s),
            height=draw(int32s),
            gop_id=draw(int32s),
            encoded=draw(st.booleans()),
            deps=tuple(draw(st.lists(int64s, max_size=3))),
            payload=payload,
        ))
    return FrameBatch.from_frames(frames)


def wire(batch) -> bytes:
    return bytes(encode_run(batch).frame_payload())


valid_frames = frame_batches().map(wire)


def plain(item):
    """An item as comparable plain data: floats by their bits (a flipped
    byte can make a NaN), payload views by their bytes."""
    if isinstance(item, VideoFrame):
        return (
            "frame", item.seq, item.kind, struct.pack("<d", item.pts),
            item.size, item.width, item.height, item.gop_id, item.encoded,
            tuple(item.deps), item.owner,
            None if item.payload is None else bytes(item.payload),
        )
    return ("other", repr(item))


def run_route(data):
    return list(UnmarshalFilter().convert_many(decode_frame_run(data)))


def oracle_route(data):
    return [decode_item(chunk) for chunk in decode_batch_views(data)]


def outcome(route, data):
    """The decoded items as plain data, or ``MarshalError``.  Any other
    exception propagates and fails the test: that is the property."""
    try:
        items = route(data)
    except MarshalError:
        return MarshalError
    for item in items:
        # What decodes is fit to account and to size a region from.
        if isinstance(item, VideoFrame):
            assert item.size >= 0
            assert item.width >= 0 and item.height >= 0
    return [plain(item) for item in items]


def assert_routes_agree(data):
    assert outcome(run_route, data) == outcome(oracle_route, data)


# -- valid frames round-trip, and both routes see the same batch ---------------


@given(frame_batches())
def test_valid_runs_decode_to_the_batch_that_was_encoded(batch):
    data = wire(batch)
    want = [plain(item) for item in batch]
    assert outcome(run_route, data) == want
    assert outcome(oracle_route, data) == want


# -- hostile bytes --------------------------------------------------------------


@given(st.binary(max_size=160))
def test_arbitrary_bytes_end_in_marshal_error_or_the_oracles_items(data):
    assert_routes_agree(data)


@given(
    st.sampled_from([0x20, 0x21]),
    st.lists(st.binary(max_size=80), min_size=1, max_size=4),
)
@example(0x20, [FRAME_HEAD.pack(0x20, 2, 80, 2, 7, 0.25, 48, -16, 1, 1, 0)[1:]])
def test_arbitrary_chunk_bodies_under_a_media_wire_id(wire_id, bodies):
    assert_routes_agree(encode_batch([bytes([wire_id]) + b for b in bodies]))


@given(valid_frames, st.data())
def test_one_mutated_byte_or_a_truncation(frame, data):
    index = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
    value = data.draw(st.integers(min_value=0, max_value=255))
    assert_routes_agree(frame[:index] + bytes([value]) + frame[index + 1:])
    cut = data.draw(st.integers(min_value=0, max_value=len(frame)))
    assert_routes_agree(frame[:cut])


#: Offsets of the length-like fields inside a chunk: the frame header's
#: ``ndeps`` (B), ``size`` and ``body_len`` (q), ``width`` / ``height``
#: (i).
FRAME_FIELDS = {"ndeps": (3, "<B"), "size": (20, "<q"), "body_len": (28, "<q"),
                "width": (36, "<i"), "height": (40, "<i")}


def forge(frame: bytes, chunk_index: int, field, value) -> bytes:
    """``frame`` with one header field of one chunk overwritten."""
    chunks = decode_batch_views(frame)
    offset, code = FRAME_FIELDS[field]
    chunk = bytearray(chunks[chunk_index % len(chunks)])
    size = struct.calcsize(code)
    limit = 1 << (8 * size)
    raw = value % limit
    if code != "<B" and raw >= limit // 2:
        raw -= limit
    struct.pack_into(code, chunk, offset, raw)
    rebuilt = [bytes(c) for c in chunks]
    rebuilt[chunk_index % len(chunks)] = bytes(chunk)
    return encode_batch(rebuilt)


@given(
    valid_frames,
    st.integers(min_value=0, max_value=4),
    st.sampled_from(sorted(FRAME_FIELDS)),
    st.one_of(
        st.integers(min_value=-(2**63), max_value=2**63 - 1),
        st.sampled_from([-1, -8, -16, 0, 1, 255, 2**31 - 1, 2**62]),
    ),
)
def test_a_forged_header_field(frame, chunk_index, field, value):
    assert_routes_agree(forge(frame, chunk_index, field, value))


@given(valid_frames, st.integers(min_value=0, max_value=2**32 - 1), st.data())
def test_a_forged_count_or_length_prefix(frame, value, data):
    # The count is at 0; a length prefix sits before every chunk.
    offsets = [0]
    offset = 4
    for chunk in decode_batch_views(frame):
        offsets.append(offset)
        offset += 4 + len(chunk)
    at = data.draw(st.sampled_from(offsets))
    assert_routes_agree(
        frame[:at] + struct.pack("!I", value) + frame[at + 4:]
    )


# -- forged counts and lengths allocate nothing of that size -------------------


def big_frame() -> bytes:
    frames = [
        VideoFrame(seq=i, kind="P", pts=i / 30, size=64, deps=(i - 1,),
                   payload=bytes(64))
        for i in range(32)
    ]
    return wire(FrameBatch.from_frames(frames))


@pytest.mark.parametrize("forged", [2**32 - 1, 2**31, 2**24 + 1])
@pytest.mark.parametrize("field", ["count", "first length", "later length"])
def test_forged_frame_count_or_length_allocates_nothing_of_that_size(
    forged, field
):
    frame = bytearray(big_frame())
    chunk = len(decode_batch_views(bytes(frame))[0])
    offset = {"count": 0, "first length": 4,
              "later length": 4 + 7 * (4 + chunk)}[field]
    struct.pack_into("!I", frame, offset, forged)
    assert peak_while_refusing(bytes(frame)) < 64 * 1024 + 4 * len(frame)


@pytest.mark.parametrize("forged", [2**62, 2**40, -(2**62), -16])
@pytest.mark.parametrize("field", ["size", "body_len", "ndeps"])
def test_forged_header_field_allocates_nothing_of_that_size(forged, field):
    frame = big_frame()
    data = forge(frame, 5, field, 255 if field == "ndeps" else forged)
    peak = peak_while_decoding(data)
    assert peak < 64 * 1024 + 4 * len(frame)


def peak_while_decoding(data) -> int:
    tracemalloc.start()
    try:
        outcome(run_route, data)
        outcome(oracle_route, data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def peak_while_refusing(data) -> int:
    assert outcome(run_route, data) is MarshalError
    assert outcome(oracle_route, data) is MarshalError
    return peak_while_decoding(data)


@settings(max_examples=25)
@given(valid_frames)
def test_decoding_a_valid_run_allocates_in_proportion_to_its_bytes(frame):
    assert peak_while_decoding(frame) < 64 * 1024 + 64 * len(frame)
