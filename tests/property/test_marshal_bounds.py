"""What the TLV codec cannot carry ends in ``MarshalError``.

Two inputs used to escape as other exceptions: an int outside int64
(``struct.error`` from the encoder) and containers nested thousands deep
(``RecursionError`` from either side).  Containers now nest at most
``MAX_NESTING`` deep, on the wire and off it, and an int out of range is
refused by name.  Each property has a mutant twin that must fail it.
"""

import struct
import sys

import pytest
from hypothesis import given, strategies as st

from repro.errors import MarshalError
from repro.net import marshal
from repro.net.marshal import MAX_NESTING, decode_item, encode_item

_LIST = bytes([marshal._T_LIST])


def nested_wire(depth: int) -> bytes:
    """A TLV list of one list of one list ... ``depth`` deep, built by
    hand so no encoder recursion is needed to make it."""
    return (_LIST + struct.pack("!I", 1)) * (depth - 1) + _LIST + bytes(4)


def nested(depth: int):
    value: list = []
    for _ in range(depth - 1):
        value = [value]
    return value


@given(st.one_of(
    st.integers(min_value=2**63), st.integers(max_value=-(2**63) - 1)))
def test_an_int_outside_int64_is_a_marshal_error(value):
    with pytest.raises(MarshalError, match="cannot marshal"):
        encode_item([1, {"k": value}])


@given(st.integers(min_value=-(2**63), max_value=2**63 - 1))
def test_an_int64_round_trips(value):
    assert decode_item(encode_item(value)) == value


@pytest.mark.parametrize("depth", [MAX_NESTING + 1, 3_000])
def test_nesting_past_the_bound_is_a_marshal_error(depth):
    with pytest.raises(MarshalError, match="nested deeper"):
        decode_item(nested_wire(depth))
    with pytest.raises(MarshalError, match="nested deeper"):
        encode_item(nested(depth))


def test_nesting_at_the_bound_round_trips():
    assert encode_item(nested(MAX_NESTING)) == nested_wire(MAX_NESTING)
    assert decode_item(nested_wire(MAX_NESTING)) == nested(MAX_NESTING)


def test_an_encoder_without_the_range_check_fails(monkeypatch):
    """Mutant twin: ``encode_item`` lets the ``struct.error`` out."""

    def unchecked(item):
        out = bytearray()
        marshal._encode(item, out, 0)
        return bytes(out)

    monkeypatch.setattr(
        sys.modules[__name__], "encode_item", unchecked
    )
    with pytest.raises(struct.error):
        test_an_int_outside_int64_is_a_marshal_error.hypothesis.inner_test(
            2**70
        )


def test_an_unbounded_nesting_fails(monkeypatch):
    """Mutant twin: with no bound, one level past it decodes, and 3 000
    levels would end in Python's own ``RecursionError`` (not provoked
    here: it would also unset any profiler running the suite)."""
    monkeypatch.setattr(marshal, "MAX_NESTING", 10**9)
    with pytest.raises(pytest.fail.Exception):
        test_nesting_past_the_bound_is_a_marshal_error(MAX_NESTING + 1)
