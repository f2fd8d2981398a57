"""The seam's run-granular routes against their per-item oracles.

A homogeneous scalar run is packed, split and unpacked a run at a time
(``MarshalFilter.convert_many`` -> ``decode_frame_run`` ->
``UnmarshalFilter.convert_many``) and a uniform-stride frame stays one
object in the netpipe receiver's queue.  None of that may change a wire
byte, a decoded value or type, an error, or the order and size of what a
pull returns: ``encode_item`` / ``decode_item``, the per-chunk frame
loop and a flat list of chunks are the references.  A uniform run is
held as its buffer, chunk count and chunk length alone, and must behave
as the run built with its offset and length lists; the scalar decoder,
asked before the raw codecs, must still leave an equal-length raw run to
its codec and read every tag (its mutant twin trusts the first).
"""

import enum
import struct
import tracemalloc

import pytest
from hypothesis import example, given, strategies as st

from repro.components.buffers import EMPTY, OK
from repro.core.events import EOS
from repro.errors import MarshalError
from repro.media import arrays
from repro.media.batch import FrameBatch
from repro.net import marshal
from repro.net.marshal import (
    EncodedRun,
    MarshalFilter,
    UnmarshalFilter,
    alloc_run_buffer,
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


def check_decodes_like_the_items(mutated):
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


@given(uniform_frames, st.data())
def test_one_mutated_byte_decodes_like_the_items(frame, data):
    """A tag or body byte flipped inside a scalar frame: the one-unpack
    decode and ``decode_item`` agree on every item or on the error."""
    index = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
    value = data.draw(st.integers(min_value=0, max_value=255))
    check_decodes_like_the_items(frame[:index] + bytes([value])
                                 + frame[index + 1:])


def scalar_run_trusting_the_first_tag(chunks):
    """Mutant: the first chunk's tag read, every other one stepped over."""
    if type(chunks) is not EncodedRun or chunks.length != 9:
        return None
    code = {3: "q", 4: "d"}.get(chunks.buffer[8])
    if code is None:
        return None
    unit = "5x" + code  # the length prefix and the tag, unread
    return list(struct.unpack("!4x" + unit * len(chunks), chunks.buffer))


def test_a_scalar_decoder_that_trusts_the_first_tag_fails(monkeypatch):
    """Mutant twin of the test above: chunk 5 of a 32-int frame retagged
    as a float, or as None, must not decode as an int."""
    frame = frame_bytes(MarshalFilter().convert_many(list(range(32))))
    at = 4 + 13 * 5 + 4  # chunk 5's tag byte
    retagged = [frame[:at] + bytes([tag]) + frame[at + 1:] for tag in (4, 0)]
    for mutated in (frame, *retagged):
        check_decodes_like_the_items(mutated)
    monkeypatch.setattr(marshal, "_decode_scalar_run",
                        scalar_run_trusting_the_first_tag)
    check_decodes_like_the_items(frame)
    for mutated in retagged:
        with pytest.raises(AssertionError):
            check_decodes_like_the_items(mutated)


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


# -- (d) a uniform run is its buffer, count and length -------------------------


def bodies(count: int, length: int):
    body = st.binary(min_size=length, max_size=length)
    if length == 9:  # scalar-sized: scalar chunks too
        body = st.one_of(body, ints.map(encode_item), floats.map(encode_item))
    return st.lists(body, min_size=count, max_size=count)


uniform_bodies = st.tuples(
    st.integers(min_value=2, max_value=64),
    st.one_of(st.just(9), st.integers(min_value=0, max_value=40)),
).flatmap(lambda shape: bodies(*shape))


def eager_run(chunks) -> EncodedRun:
    """The run built with explicit offset and length lists."""
    lengths = [len(chunk) for chunk in chunks]
    buffer, offsets = alloc_run_buffer(lengths)
    for offset, chunk in zip(offsets, chunks):
        buffer[offset : offset + len(chunk)] = chunk
    return EncodedRun(buffer, offsets, lengths)


def decoded(run):
    got = outcome(UnmarshalFilter().convert_many, run)
    return got if isinstance(got, tuple) else [encode_item(x) for x in got]


def check_same_run(cheap: EncodedRun, eager: EncodedRun, cut: slice):
    n = len(eager)
    assert len(cheap) == n and cheap.nbytes == eager.nbytes
    assert bytes(cheap.frame_payload()) == bytes(eager.frame_payload())
    assert [bytes(cheap.chunk(i)) for i in range(n)] == \
        [bytes(eager.chunk(i)) for i in range(n)]
    for index in (cut, slice(None), -1, 0):
        got, want = cheap[index], eager[index]
        if isinstance(index, slice):
            got, want = list(map(bytes, got)), list(map(bytes, want))
        else:
            got, want = bytes(got), bytes(want)
        assert got == want
    assert cheap.lengths == eager.lengths and cheap.offsets == eager.offsets


@given(uniform_bodies, st.data())
def test_a_uniform_run_is_the_eager_run(chunks, data):
    """Buffer, count and length alone: the same length, bytes, chunks,
    slices, tables and decoded items as the run built with its tables,
    before and after a side chunk, whichever is read first."""
    eager = eager_run(chunks)
    frame = bytes(eager.frame_payload())
    assert frame == encode_batch(chunks)
    shape = (len(chunks), len(chunks[0]))
    cut = data.draw(st.slices(len(chunks)))
    side = data.draw(st.binary(max_size=12))
    indexed = EncodedRun.uniform(bytearray(frame), *shape)
    check_same_run(indexed, eager, cut)
    assert decoded(EncodedRun.uniform(frame, *shape)) == decoded(eager) \
        == decoded(decode_batch_views(frame))
    unread = EncodedRun.uniform(bytearray(frame), *shape)
    for run in (eager, indexed, unread):
        run.append_side_chunk(side)
    check_same_run(indexed, eager, cut)
    check_same_run(unread, eager, cut)
    assert bytes(unread.frame_payload()) == encode_batch([*chunks, side])


@given(st.integers(min_value=2, max_value=64),
       st.integers(min_value=0, max_value=200))
def test_a_raw_codec_run_of_one_length_decodes_to_its_batch(count, size):
    """Equal-length raw chunks stay one uniform run on arrival and still
    rebuild their ColumnarRun: the scalar route, asked first, declines."""

    def column(make, value):
        return make([value] * count)

    batch = FrameBatch(
        seq=arrays.i64(list(range(count))), kind="P" * count,
        pts=arrays.f64([i / 30 for i in range(count)]),
        size=column(arrays.i64, size), width=column(arrays.i64, 160),
        height=column(arrays.i64, 120), gop_id=column(arrays.i64, 0),
        encoded=column(arrays.u8, 1), deps=((),) * count,
    )
    frame = frame_bytes(MarshalFilter().convert_many(batch))
    received = decode_frame_run(frame)
    assert type(received) is EncodedRun and received.length is not None
    for run in (received, decode_batch_views(frame)):
        got = UnmarshalFilter().convert_many(run)
        assert isinstance(got, FrameBatch)
        assert (got.kind, got.deps) == (batch.kind, batch.deps)
        for name in ("seq", "pts", "size", "width", "height", "gop_id",
                     "encoded"):
            assert arrays.tolist(getattr(got, name)) == \
                arrays.tolist(getattr(batch, name))
