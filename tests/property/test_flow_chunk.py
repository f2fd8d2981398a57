"""A forged trace side-chunk ends in ``MarshalError``.

``split_flow_chunk`` accepts exactly what ``encode_flow_chunk`` writes: a
list of ``(index, fields)`` pairs, the indices ascending ints within the
frame's data chunks and the fields a dict with exactly a context's keys
(``TraceContext.to_wire``).  Any other body — a scalar, a short or long
tuple, a bool or out-of-range index, a repeated index, a non-dict, a
dict missing a context's field, bytes that are not TLV at all (a string
that is not UTF-8, an unhashable dict key) — is refused before a
queue's lane rebuilds a single context from it, so ``from_wire`` never
meets a ``KeyError``.  The oracle below states the accepted shape
independently of the implementation; the mutant twin is a split that
checks no field names.
"""

import pytest
from hypothesis import example, given, strategies as st

from repro.components.buffers import Buffer
from repro.errors import MarshalError
from repro.net.marshal import (
    FLOW_CHUNK_MAGIC,
    encode_flow_chunk,
    encode_item,
    split_flow_chunk,
)
from repro.obs.flow import FlowTracer, Lane, TraceContext

FIELDS = TraceContext("t-1", 0.5, "wire", "sender").to_wire()

scalars = st.one_of(
    st.integers(min_value=-3, max_value=8), st.booleans(), st.none(),
    st.floats(allow_nan=False), st.text(max_size=4), st.binary(max_size=4),
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=2), inner, max_size=2),
    ),
    max_leaves=8,
)
#: A context's fields with one of them missing.
short_fields = st.sampled_from(sorted(FIELDS)).map(
    lambda gone: {k: v for k, v in FIELDS.items() if k != gone})
#: Near misses of an entry: the right shape with one part wrong, or not.
entries = st.one_of(
    st.tuples(st.integers(min_value=-2, max_value=8),
              st.one_of(st.just(FIELDS), short_fields, values)),
    st.tuples(st.booleans(), st.just(FIELDS)),
    st.lists(st.integers(min_value=0, max_value=3), max_size=3).map(tuple),
    st.lists(st.integers(min_value=0, max_value=3), max_size=2),
    values,
)
bodies = st.one_of(st.lists(entries, max_size=4), values)
data_chunks = st.lists(st.integers(0, 2**63 - 1), max_size=6).map(
    lambda items: [encode_item(item) for item in items]
)


def well_formed(body, n: int) -> bool:
    """What ``encode_flow_chunk`` can have written for ``n`` data chunks."""
    if type(body) is not list:
        return False
    indices = []
    for entry in body:
        if not (type(entry) is tuple and len(entry) == 2
                and type(entry[0]) is int and type(entry[1]) is dict
                and sorted(entry[1]) == sorted(FIELDS)):
            return False
        indices.append(entry[0])
    return indices == sorted(set(indices)) and all(
        0 <= index < n for index in indices)


def side_chunk(body) -> bytes:
    return bytes([FLOW_CHUNK_MAGIC]) + encode_item(body)


@given(data_chunks, st.lists(st.just(FIELDS), max_size=6), st.randoms())
def test_what_the_sender_writes_is_split_back(data, fields, rng):
    picked = sorted(rng.sample(range(len(data)), min(len(fields), len(data))))
    written = [(index, FIELDS) for index in picked]
    split = split_flow_chunk(data + [encode_flow_chunk(written)])
    assert split == (data, written)


@given(data_chunks, bodies)
@example([encode_item(1)], 5)
@example([encode_item(1)], (0, {}))
@example([encode_item(1)], [(0,)])
@example([encode_item(1)], [(0, 7)])
@example([encode_item(1)], [(1, {})])
@example([encode_item(1), encode_item(2)], [(1, {}), (0, {})])
@example([encode_item(1), encode_item(2)], [(0, {}), (0, {})])
@example([encode_item(1)], [(True, {})])
@example([encode_item(1)], [])
@example([encode_item(1)], [(0, {"id": "t-1"})])
def test_anything_else_is_a_marshal_error(data, body):
    frame = data + [side_chunk(body)]
    if well_formed(body, len(data)):
        assert split_flow_chunk(frame) == (data, body)
    else:
        with pytest.raises(MarshalError):
            split_flow_chunk(frame)


@given(data_chunks, st.binary(max_size=24))
@example([encode_item(1)], b"\x01")
@example([encode_item(1)], b"")
@example([encode_item(1)], b"\x05\x00\x00\x00\x01\xff")  # not UTF-8
@example([encode_item(1)], b"\x09\x00\x00\x00\x01\x08" + bytes(5))  # {[]: None}
def test_bytes_that_are_not_tlv_are_a_marshal_error(data, raw):
    try:
        rest, body = split_flow_chunk(data + [bytes([FLOW_CHUNK_MAGIC]) + raw])
    except MarshalError:
        return
    assert rest == data and well_formed(body, len(data))


def traced_lane() -> Lane:
    lane = Lane(Buffer(8, name="q"), now=lambda: 1.0)
    lane.tracer = FlowTracer()
    return lane


@given(data_chunks, bodies)
def test_a_lane_refuses_a_forged_chunk_before_it_rebuilds_a_context(
        data, body):
    lane = traced_lane()
    frame = data + [side_chunk(body)]
    if well_formed(body, len(data)) and all(f == FIELDS for _, f in body):
        assert lane.arrive(frame, framed=True) == data
        assert len(lane.tracer.store) == min(len(body), 1)
    elif not well_formed(body, len(data)):
        with pytest.raises(MarshalError):
            lane.arrive(frame, framed=True)
        assert len(lane.tracer.store) == 0 and not lane.entries


def test_a_split_that_checks_no_field_names_fails(monkeypatch):
    """The mutant twin: a split that takes any dict as a context's
    fields fails the property, and hands ``from_wire`` a dict it meets
    with a ``KeyError``."""
    from repro.net import marshal

    monkeypatch.setattr(marshal, "CONTEXT_FIELDS", _AnyKeys())
    with pytest.raises(pytest.fail.Exception):
        test_anything_else_is_a_marshal_error()
    frame = [encode_item(1), side_chunk([(0, {"id": "t-1"})])]
    with pytest.raises(KeyError):
        traced_lane().arrive(frame, framed=True)


class _AnyKeys:
    """Compares equal to every dict's keys."""

    def __eq__(self, other):
        return True

    def __ne__(self, other):
        return False
