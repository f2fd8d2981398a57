"""The seam's run-granular routes against their per-item oracles.

A homogeneous scalar run is packed, split and unpacked a run at a time
(``MarshalFilter.convert_many`` -> ``decode_frame_run`` ->
``UnmarshalFilter.convert_many``) and a uniform-stride frame stays one
object in the netpipe receiver's queue.  None of that may change a wire
byte, a decoded value or type, an error, or the order and size of what a
pull returns: ``encode_item`` / ``decode_item``, the per-chunk frame
loop and a flat list of chunks are the references.
"""

import enum
import struct
import tracemalloc

import pytest
from hypothesis import example, given, strategies as st

from repro.components.buffers import EMPTY, OK
from repro.core.events import EOS
from repro.errors import MarshalError
from repro.net.marshal import (
    EncodedRun,
    MarshalFilter,
    UnmarshalFilter,
    decode_batch_views,
    decode_frame_run,
    decode_item,
    encode_batch,
    encode_item,
)
from repro.net.netpipe import NetpipeReceiver
from repro.net.protocols import DATA_KIND, EOS_KIND, FRAME_KIND, Transport


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2**40


INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1

ints = st.one_of(
    st.integers(min_value=INT64_MIN, max_value=INT64_MAX),
    st.sampled_from([INT64_MIN, INT64_MAX, 0, -1]),
)
floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), -0.0, 0.0, float("-inf")]),
)
anything = st.one_of(
    ints,
    floats,
    st.booleans(),
    st.none(),
    st.sampled_from(list(Level)),
    st.text(max_size=8),
    st.binary(max_size=12),
    st.tuples(ints, floats),
)
sizes = st.sampled_from([0, 1, 2, 3, 32, 33])


def lists_of(elements):
    return sizes.flatmap(
        lambda n: st.lists(elements, min_size=n, max_size=n)
    )


#: Homogeneous int and float runs (the run-granular route), near-misses
#: (a bool or an IntEnum among ints, one int past int64) and mixed runs.
item_lists = st.one_of(
    lists_of(ints),
    lists_of(floats),
    lists_of(st.one_of(ints, st.booleans(), st.sampled_from(list(Level)))),
    lists_of(st.integers(min_value=INT64_MIN - 1, max_value=INT64_MAX + 1)),
    lists_of(anything),
)


def outcome(fn, *args):
    """What ``fn`` returned, or the error it raised, comparably."""
    try:
        return fn(*args)
    except (MarshalError, struct.error) as exc:
        return (type(exc), str(exc))


def frame_bytes(encoded) -> bytes:
    if isinstance(encoded, EncodedRun):
        return bytes(encoded.frame_payload())
    return encode_batch(encoded)


def same_values_and_types(got, want) -> bool:
    # Wire bytes compare nan payloads and the sign of zero exactly.
    return [type(x) for x in got] == [type(x) for x in want] and [
        encode_item(x) for x in got
    ] == [encode_item(x) for x in want]


# -- (a) byte identity and exact round trip ----------------------------------


@given(item_lists)
@example([True, 1])
@example([1, True])
@example([Level.LOW, Level.HIGH])
@example([1, Level.LOW])
@example([INT64_MIN, INT64_MAX])
@example([INT64_MAX + 1, 0])
@example([0, INT64_MIN - 1])
@example([float("nan"), -0.0])
@example([1, 2.0])
@example(list(range(33)))
def test_run_marshal_is_byte_identical_and_round_trips(items):
    want_chunks = outcome(lambda: [encode_item(i) for i in items])
    got = outcome(MarshalFilter().convert_many, list(items))
    if isinstance(want_chunks, tuple):
        assert got == want_chunks  # same error, per item or per run
        return
    frame = frame_bytes(got)
    assert frame == encode_batch(want_chunks)
    want_items = [decode_item(chunk) for chunk in want_chunks]
    for split in (decode_batch_views, decode_frame_run):
        back = UnmarshalFilter().convert_many(split(frame))
        assert same_values_and_types(list(back), want_items)


@given(lists_of(ints), lists_of(floats))
def test_homogeneous_scalar_runs_take_the_run_route(int_items, float_items):
    for items in (int_items, float_items):
        out = MarshalFilter().convert_many(items)
        assert isinstance(out, EncodedRun) == (len(items) >= 2)


def test_marshal_stats_count_the_same_bytes_on_both_routes():
    run, per_item = MarshalFilter(), MarshalFilter()
    items = list(range(40))
    run.convert_many(items)
    for item in items:
        per_item.convert(item)
    assert run.stats["bytes_out"] == per_item.stats["bytes_out"]
    frame = frame_bytes(MarshalFilter().convert_many(items))
    whole, split = UnmarshalFilter(), UnmarshalFilter()
    whole.convert_many(decode_frame_run(frame))
    split.convert_many(decode_batch_views(frame))
    assert whole.stats["bytes_in"] == split.stats["bytes_in"] == 9 * 40


# -- (b) hostile bytes: the uniform split agrees with the per-chunk loop -------


def split_outcome(split, data):
    result = outcome(split, data)
    if isinstance(result, tuple):
        return result
    return [bytes(chunk) for chunk in result]


def loop_outcome(data):
    return split_outcome(decode_batch_views, data)


@given(st.binary(max_size=96))
def test_arbitrary_bytes_split_like_the_loop(data):
    assert split_outcome(decode_frame_run, data) == loop_outcome(data)


uniform_frames = st.one_of(
    lists_of(ints).map(lambda xs: frame_bytes(MarshalFilter().convert_many(xs))),
    st.integers(min_value=0, max_value=6).flatmap(
        lambda width: st.lists(
            st.binary(min_size=width, max_size=width), min_size=2, max_size=9
        )
    ).map(encode_batch),
)


@given(uniform_frames, st.data())
def test_one_mutated_byte_splits_like_the_loop(frame, data):
    index = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
    value = data.draw(st.integers(min_value=0, max_value=255))
    mutated = frame[:index] + bytes([value]) + frame[index + 1:]
    assert split_outcome(decode_frame_run, mutated) == loop_outcome(mutated)
    cut = data.draw(st.integers(min_value=0, max_value=len(frame)))
    assert split_outcome(decode_frame_run, frame[:cut]) == \
        loop_outcome(frame[:cut])


@given(uniform_frames, st.data())
def test_one_mutated_byte_decodes_like_the_items(frame, data):
    """A tag or body byte flipped inside a scalar frame: the one-unpack
    decode and ``decode_item`` agree on every item or on the error."""
    index = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
    value = data.draw(st.integers(min_value=0, max_value=255))
    mutated = frame[:index] + bytes([value]) + frame[index + 1:]
    chunks = outcome(decode_batch_views, mutated)
    if isinstance(chunks, tuple):
        return
    want = outcome(lambda: [decode_item(chunk) for chunk in chunks])
    for split in (decode_batch_views, decode_frame_run):
        got = outcome(UnmarshalFilter().convert_many, split(mutated))
        if isinstance(want, tuple):
            assert got == want
        else:
            assert same_values_and_types(list(got), want)


@pytest.mark.parametrize("forged", [2**32 - 1, 2**31, 2**24 + 1])
@pytest.mark.parametrize("field", ["count", "first length", "later length"])
def test_forged_count_or_length_allocates_nothing_of_that_size(forged, field):
    frame = bytearray(frame_bytes(MarshalFilter().convert_many(list(range(32)))))
    offset = {"count": 0, "first length": 4, "later length": 4 + 13 * 7}[field]
    struct.pack_into("!I", frame, offset, forged)
    frame = bytes(frame)
    tracemalloc.start()
    try:
        with pytest.raises(MarshalError):
            decode_frame_run(frame)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


# -- (c) the receiver's run-granular queue against a flat list of chunks -------


class StubProtocol(Transport):
    """The contract alone: what arrives is handed to ``_receive``."""

    def __init__(self):
        super().__init__("stub", "a", "b")


arrivals = st.one_of(
    st.tuples(st.just("item"), st.binary(min_size=1, max_size=9)),
    st.tuples(st.just("frame"), lists_of(ints).map(
        lambda xs: [encode_item(x) for x in xs])),
    st.tuples(st.just("frame"), st.lists(st.binary(max_size=5), max_size=4)),
    st.tuples(st.just("pull"), st.integers(min_value=1, max_value=40)),
    st.tuples(st.just("pull-one"), st.none()),
)


@given(st.lists(arrivals, max_size=12), st.integers(min_value=1, max_value=40))
def test_receiver_queue_pulls_like_a_flat_chunk_list(script, final_n):
    protocol = StubProtocol()
    receiver = NetpipeReceiver(protocol)
    model: list[bytes] = []
    pulled = 0

    def check_pull(n):
        nonlocal pulled
        status, run = receiver.try_pull_many(n)
        want, model[:] = model[:n], model[n:]
        assert status == (OK if want else EMPTY)
        assert [bytes(chunk) for chunk in run] == want
        pulled += len(want)

    for kind, arg in script:
        if kind == "item":
            protocol._receive(DATA_KIND, arg)
            model.append(arg)
        elif kind == "frame":
            protocol._receive(FRAME_KIND, encode_batch(arg))
            model.extend(arg)
        elif kind == "pull":
            check_pull(arg)
        elif model:
            status, chunk = receiver.try_pull()
            assert (status, bytes(chunk)) == (OK, model.pop(0))
            pulled += 1
        assert receiver.fill_level == len(model)
        assert receiver.stats["items_out"] == pulled
    # EOS comes last, once, and only in a run with room for it.
    protocol._receive(EOS_KIND)
    seen = []
    while True:
        status, run = receiver.try_pull_many(final_n)
        assert status == OK and len(run) <= final_n
        if run[-1] is EOS:
            seen += [bytes(chunk) for chunk in run[:-1]]
            break
        assert len(run) == final_n
        seen += [bytes(chunk) for chunk in run]
    assert seen == model
    assert receiver.fill_level == 0


def test_a_frame_pulled_whole_stays_one_run_over_the_received_bytes():
    protocol = StubProtocol()
    receiver = NetpipeReceiver(protocol)
    wire = frame_bytes(MarshalFilter().convert_many(list(range(100, 132))))
    protocol._receive(FRAME_KIND, wire)
    assert receiver.fill_level == 32
    _, run = receiver.try_pull_many(32)
    assert isinstance(run, EncodedRun) and len(run) == 32
    assert run.frame_payload().obj is wire  # not one byte copied or sliced
    assert receiver.stats["bytes_out"] == 9 * 32
    assert UnmarshalFilter().convert_many(run) == list(range(100, 132))
