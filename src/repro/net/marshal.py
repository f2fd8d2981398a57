"""Marshalling: items <-> bytes (paper sections 2.4 and Figure 3).

"Marshalling filters on either side translate the raw data flow to and from
a higher-level information flow."

The wire format is a compact tag-length-value binary encoding built with
``struct`` — no pickling, so the format is explicit, versionable, and safe
to decode.  Applications register codecs for their own item classes with
:func:`register_codec` (the media substrate registers its frame types).

Two encodings coexist on the wire, and the first has two routes:

* **per-item TLV** — :func:`encode_item` / :func:`decode_item`, the
  original format, unchanged byte-for-byte (golden traces pin it).  A
  run of two or more plain ``int``s, or of plain ``float``s, produces
  and consumes *the same bytes* by another route: one cached
  ``struct.Struct`` packs the whole run straight into frame layout
  (:func:`_encode_scalar_run`, returning an :class:`EncodedRun`), one
  ``unpack`` checks every length prefix of a uniform-stride frame
  (:func:`decode_frame_run`, which keeps the frame whole as an
  :class:`EncodedRun`), and one ``unpack`` checks every tag and reads
  every value (:func:`_decode_scalar_run`).  The route is chosen from
  what the run is observed to hold; anything it does not recognise —
  ``bool``, ``int`` subclasses, mixed or single-item runs, an int
  outside int64, unequal lengths, a foreign tag — takes the per-item
  functions and the per-chunk loop (:func:`decode_batch_views`), which
  are also the oracle the property tests compare the run route against;
* **columnar runs** — a :class:`~repro.core.runs.ColumnarRun` whose type
  was registered with :func:`register_run_codec` encodes straight into ONE
  preallocated ``bytearray`` already laid out in the coalesced frame
  format (:class:`EncodedRun`), and decodes back from ``memoryview``
  slices into the received frame without copying payload bytes
  (:func:`decode_batch_views`).  Chunk first-bytes ``0x20..0x7F`` are
  reserved for these raw codecs, disjoint from the TLV tags below.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from typing import Any, Callable

from repro.core.runs import ColumnarRun
from repro.core.styles import FunctionComponent
from repro.core.typespec import Typespec, props
from repro.errors import MarshalError

# -- primitive TLV codec -------------------------------------------------------

_T_NONE = 0
_T_TRUE = 1
_T_FALSE = 2
_T_INT = 3
_T_FLOAT = 4
_T_STR = 5
_T_BYTES = 6
_T_TUPLE = 7
_T_LIST = 8
_T_DICT = 9
_T_CUSTOM = 10
#: How many values deep one item may nest (itself the first), on the wire
#: and off it: deeper is a ``MarshalError``, never a ``RecursionError``.
MAX_NESTING = 100

_custom_encoders: dict[type, tuple[str, Callable[[Any], dict]]] = {}
_custom_decoders: dict[str, Callable[[dict], Any]] = {}

#: First byte of a raw columnar chunk; values below this are TLV tags.
RUN_WIRE_BASE = 0x20

#: First byte of a trace-context side-chunk (repro.obs.flow).  Reserved
#: out of the run-codec id space: a coalesced frame may carry one such
#: chunk after its data chunks, holding the TLV-encoded flow contexts of
#: the sampled items in the frame (the per-run context column for the
#: 0x20 run codec).  Flow-aware receivers strip it before the data
#: chunks reach the unmarshaller.
FLOW_CHUNK_MAGIC = 0x7F

#: First byte of a stream-ID header chunk (repro.net.mux).  Reserved out
#: of the run-codec id space like the flow chunk: on a multiplexed link
#: every wire message is a coalesced frame whose FIRST chunk starts with
#: this byte and names the logical stream (tenant) the rest of the frame
#: belongs to.  The mux strips it before payloads reach the per-stream
#: receivers.
STREAM_CHUNK_MAGIC = 0x7E

_run_encoders: dict[type, Callable[[Any], "EncodedRun"]] = {}
_run_decoders: dict[int, tuple[Callable[[list], Any], Callable[[Any], Any]]] = {}


def register_codec(
    cls: type,
    tag: str,
    to_fields: Callable[[Any], dict],
    from_fields: Callable[[dict], Any],
) -> None:
    """Register a codec for a custom item class.

    ``to_fields`` maps an instance to a dict of primitive values;
    ``from_fields`` rebuilds the instance.
    """
    _custom_encoders[cls] = (tag, to_fields)
    _custom_decoders[tag] = from_fields


def register_run_codec(
    run_cls: type,
    wire_id: int,
    encode_run: Callable[[Any], "EncodedRun"],
    decode_many: Callable[[list], Any],
    decode_one: Callable[[Any], Any],
) -> None:
    """Register a columnar run codec.

    ``encode_run`` maps a ColumnarRun instance to an :class:`EncodedRun`;
    ``decode_many`` rebuilds a ColumnarRun from a homogeneous list of
    chunk views (each starting with ``wire_id``); ``decode_one`` rebuilds
    a single item from one chunk (the per-item fallback when a raw chunk
    meets an unbatched receiver).
    """
    if not (RUN_WIRE_BASE <= wire_id < STREAM_CHUNK_MAGIC):
        raise MarshalError(
            f"run wire id must be in [{RUN_WIRE_BASE:#x}, "
            f"{STREAM_CHUNK_MAGIC - 1:#x}], got {wire_id:#x}"
        )
    _run_encoders[run_cls] = encode_run
    _run_decoders[wire_id] = (decode_many, decode_one)


def encode_item(item: Any) -> bytes:
    """Encode an item to wire bytes (an exact int or float: one pack)."""
    scalar = _SCALAR_ITEM.get(type(item))
    try:
        if scalar is not None:
            return scalar[1].pack(scalar[0], item)
        out = bytearray()
        _encode(item, out, 0)
    except struct.error as exc:  # an int outside int64, say
        raise MarshalError(f"cannot marshal {item!r:.40}: {exc}") from None
    return bytes(out)


def decode_item(data) -> Any:
    """Decode wire bytes (or a memoryview of them) back to an item."""
    if len(data) == _SCALAR_LEN and data[0] in _SCALAR_CHUNK:
        return _SCALAR_CHUNK[data[0]].unpack(data)[1]
    if len(data) and data[0] >= RUN_WIRE_BASE:
        if data[0] == FLOW_CHUNK_MAGIC:
            raise MarshalError(
                "trace-context side-chunk reached the unmarshaller; "
                "flow chunks must be stripped by the netpipe receiver"
            )
        if data[0] == STREAM_CHUNK_MAGIC:
            raise MarshalError(
                "stream-ID header chunk reached the unmarshaller; "
                "multiplexed frames must pass through a StreamMux"
            )
        codec = _run_decoders.get(data[0])
        if codec is None:
            raise MarshalError(f"unknown wire tag {data[0]}")
        return codec[1](data)
    try:
        item, offset = _decode(data, 0, 0)
    except (struct.error, UnicodeDecodeError, TypeError) as exc:
        # short bytes, a string that is not UTF-8, or an unhashable key
        raise MarshalError(f"truncated or malformed data: {exc}") from None
    if offset != len(data):
        raise MarshalError(
            f"trailing garbage: consumed {offset} of {len(data)} bytes"
        )
    return item


def _encode(value: Any, out: bytearray, depth: int) -> None:
    if depth >= MAX_NESTING:
        raise MarshalError(f"nested deeper than {MAX_NESTING}")
    if value is None:
        out.append(_T_NONE)
    elif value is True:
        out.append(_T_TRUE)
    elif value is False:
        out.append(_T_FALSE)
    elif isinstance(value, int):
        out.append(_T_INT)
        out += struct.pack("!q", value)
    elif isinstance(value, float):
        out.append(_T_FLOAT)
        out += struct.pack("!d", value)
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(_T_STR)
        out += struct.pack("!I", len(raw))
        out += raw
    elif isinstance(value, (bytes, bytearray, memoryview)):
        out.append(_T_BYTES)
        out += struct.pack("!I", len(value))
        out += value
    elif isinstance(value, (tuple, list)):
        out.append(_T_TUPLE if isinstance(value, tuple) else _T_LIST)
        out += struct.pack("!I", len(value))
        for element in value:
            _encode(element, out, depth + 1)
    elif isinstance(value, dict):
        out.append(_T_DICT)
        out += struct.pack("!I", len(value))
        for key, element in value.items():
            _encode(key, out, depth + 1)
            _encode(element, out, depth + 1)
    elif type(value) in _custom_encoders:
        tag, to_fields = _custom_encoders[type(value)]
        out.append(_T_CUSTOM)
        raw_tag = tag.encode("ascii")
        out += struct.pack("!H", len(raw_tag))
        out += raw_tag
        _encode(to_fields(value), out, depth + 1)
    else:
        raise MarshalError(
            f"cannot marshal {type(value).__name__}; register_codec() it"
        )


def _decode(data, offset: int, depth: int) -> tuple[Any, int]:
    if depth >= MAX_NESTING:
        raise MarshalError(f"nested deeper than {MAX_NESTING}")
    try:
        tag = data[offset]
    except IndexError:
        raise MarshalError("truncated data") from None
    offset += 1
    if tag == _T_NONE:
        return None, offset
    if tag == _T_TRUE:
        return True, offset
    if tag == _T_FALSE:
        return False, offset
    if tag == _T_INT:
        (value,) = struct.unpack_from("!q", data, offset)
        return value, offset + 8
    if tag == _T_FLOAT:
        (value,) = struct.unpack_from("!d", data, offset)
        return value, offset + 8
    if tag == _T_STR:
        (length,) = struct.unpack_from("!I", data, offset)
        offset += 4
        if offset + length > len(data):
            raise MarshalError(
                f"truncated string: need {length} bytes, "
                f"have {len(data) - offset}"
            )
        return str(data[offset : offset + length], "utf-8"), offset + length
    if tag == _T_BYTES:
        (length,) = struct.unpack_from("!I", data, offset)
        offset += 4
        if offset + length > len(data):
            raise MarshalError(
                f"truncated bytes: need {length} bytes, "
                f"have {len(data) - offset}"
            )
        return bytes(data[offset : offset + length]), offset + length
    if tag in (_T_TUPLE, _T_LIST):
        (length,) = struct.unpack_from("!I", data, offset)
        offset += 4
        elements = []
        for _ in range(length):
            element, offset = _decode(data, offset, depth + 1)
            elements.append(element)
        return (tuple(elements) if tag == _T_TUPLE else elements), offset
    if tag == _T_DICT:
        (length,) = struct.unpack_from("!I", data, offset)
        offset += 4
        result = {}
        for _ in range(length):
            key, offset = _decode(data, offset, depth + 1)
            value, offset = _decode(data, offset, depth + 1)
            result[key] = value
        return result, offset
    if tag == _T_CUSTOM:
        (tag_len,) = struct.unpack_from("!H", data, offset)
        offset += 2
        if offset + tag_len > len(data):
            raise MarshalError("truncated codec tag")
        type_tag = str(data[offset : offset + tag_len], "ascii")
        offset += tag_len
        fields, offset = _decode(data, offset, depth + 1)
        decoder = _custom_decoders.get(type_tag)
        if decoder is None:
            raise MarshalError(f"no codec registered for tag {type_tag!r}")
        return decoder(fields), offset
    raise MarshalError(f"unknown wire tag {tag}")


# -- coalesced frames ----------------------------------------------------------


def encode_batch(chunks: list) -> bytes:
    """Coalesce already-encoded items into one frame payload.

    Frame format: ``!I`` chunk count, then per chunk a ``!I`` length
    prefix followed by the chunk bytes.  Used by the batched data plane's
    netpipe coalescing (one frame per sender flush instead of one message
    per item); :func:`decode_batch` unfragments exactly.  Chunks may be
    ``bytes``, ``bytearray`` or ``memoryview``.
    """
    out = bytearray(struct.pack("!I", len(chunks)))
    for chunk in chunks:
        out += struct.pack("!I", len(chunk))
        out += chunk
    return bytes(out)


def alloc_run_buffer(lengths: list[int]) -> tuple[bytearray, list[int]]:
    """Preallocate ONE frame-format buffer for chunks of the given lengths.

    Returns ``(buffer, offsets)``: the chunk-count header and every
    per-chunk length prefix are already written; ``offsets[i]`` is where
    chunk ``i``'s body starts.  Run codecs fill the bodies in place via
    ``memoryview`` slices (zero intermediate allocations), then wrap the
    buffer in an :class:`EncodedRun`.
    """
    n = len(lengths)
    buffer = bytearray(4 + 4 * n + sum(lengths))
    struct.pack_into("!I", buffer, 0, n)
    offsets = []
    offset = 4
    for length in lengths:
        struct.pack_into("!I", buffer, offset, length)
        offset += 4
        offsets.append(offset)
        offset += length
    return buffer, offsets


class EncodedRun(ColumnarRun):
    """A columnar run of already-encoded wire chunks sharing ONE buffer.

    The buffer is *already in the coalesced frame format* — the sender
    hands it to ``protocol.send_frame`` as-is, with no per-item encode and
    no reassembly copy.  Indexing and iteration yield ``memoryview``
    chunk slices, so the run still behaves as N byte items for gates,
    stats and any per-item fallback path.

    The receiving netpipe keeps a uniform-stride frame in the same form
    (:func:`decode_frame_run`), over the received bytes: read-only, so
    :meth:`append_side_chunk` is for the sending side alone.
    """

    __slots__ = ("buffer", "offsets", "lengths", "_mv")

    def __init__(self, buffer: "bytearray | memoryview",
                 offsets: list[int], lengths: list[int]):
        self.buffer = buffer
        self.offsets = offsets
        self.lengths = lengths
        self._mv = memoryview(buffer)

    @classmethod
    def uniform(cls, buffer, count: int, length: int) -> "EncodedRun":
        """The run over a frame-format ``buffer`` of ``count`` chunks,
        every one ``length`` bytes long."""
        stride = 4 + length
        return cls(
            buffer, list(range(8, 8 + count * stride, stride)),
            [length] * count,
        )

    def __len__(self) -> int:
        return len(self.offsets)

    def chunk(self, i: int) -> memoryview:
        offset = self.offsets[i]
        return self._mv[offset : offset + self.lengths[i]]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self.chunk(i) for i in range(len(self))[index]]
        return self.chunk(range(len(self))[index])

    @property
    def nbytes(self) -> int:
        return sum(self.lengths)

    def frame_payload(self) -> memoryview:
        """The whole buffer, ready for ``protocol.send_frame``."""
        return self._mv

    def append_side_chunk(self, side: bytes) -> None:
        """Append one extra chunk to the already-framed buffer in place.

        Used by flow tracing to attach the trace-context side-chunk to a
        zero-copy run without re-encoding it: the chunk count at offset 0
        is patched and the length-prefixed side bytes are appended.  The
        exported ``memoryview`` must be released around the resize; if
        some other view still pins the buffer, fall back to a copy.
        """
        self._mv.release()
        buffer = self.buffer
        try:
            buffer += struct.pack("!I", len(side))
        except BufferError:
            buffer = bytearray(buffer)
            buffer += struct.pack("!I", len(side))
            self.buffer = buffer
        self.offsets.append(len(buffer))
        self.lengths.append(len(side))
        buffer += side
        struct.pack_into("!I", buffer, 0, len(self.offsets))
        self._mv = memoryview(buffer)


def encode_run(run: Any) -> EncodedRun | None:
    """Encode a ColumnarRun via its registered run codec, or None when no
    codec covers its type (callers fall back to per-item TLV)."""
    encoder = _run_encoders.get(type(run))
    return None if encoder is None else encoder(run)


# -- scalar runs: the per-item TLV bytes, packed and unpacked a run at a time ----

#: Wire length of an int or float TLV chunk: the tag byte and 8 body bytes.
_SCALAR_LEN = 9
#: Exact item type -> (tag, struct code).  ``bool`` and ``int`` subclasses
#: are other types and take the TLV walk, per item and per run.
_SCALAR_WIRE = {int: (_T_INT, "q"), float: (_T_FLOAT, "d")}
_SCALAR_CODE = {tag: code for tag, code in _SCALAR_WIRE.values()}
#: One scalar chunk: tag -> ONE ``!B`` + code Struct; type -> (tag, it).
_SCALAR_CHUNK = {t: struct.Struct("!B" + c) for t, c in _SCALAR_WIRE.values()}
_SCALAR_ITEM = {k: (t, _SCALAR_CHUNK[t]) for k, (t, _) in _SCALAR_WIRE.items()}
#: Longest run the run-granular routes take: keeps every cached Struct
#: small.  Longer runs (batch_max is tens to hundreds) go per item.
_RUN_MAX = 4096
#: A frame's chunk count and its first chunk's length prefix.
_COUNT_AND_LENGTH = struct.Struct("!II")


@lru_cache(maxsize=128)
def _repeat_struct(head: str, unit: str, n: int) -> struct.Struct:
    """``head`` then ``unit`` repeated ``n`` times, network order.  Callers
    size ``n`` from items or bytes they hold, never from a wire field."""
    return struct.Struct("!" + head + unit * n)


def _encode_scalar_run(items: list) -> EncodedRun | None:
    """A run of two or more exact ``int``s, or of exact ``float``s, packed
    by ONE struct call straight into frame layout — byte for byte
    ``encode_batch([encode_item(i) for i in items])``.  ``None`` for any
    other run (mixed, ``bool``, subclasses, an int outside int64): the
    caller encodes those per item."""
    n = len(items)
    if not 2 <= n <= _RUN_MAX:
        return None
    kinds = set(map(type, items))
    if len(kinds) != 1:
        return None
    wire = _SCALAR_WIRE.get(kinds.pop())
    if wire is None:
        return None
    tag, code = wire
    fields = [_SCALAR_LEN, tag, None] * n
    fields[2::3] = items
    buffer = bytearray(4 + (4 + _SCALAR_LEN) * n)
    try:
        _repeat_struct("I", "IB" + code, n).pack_into(buffer, 0, n, *fields)
    except struct.error:
        return None
    return EncodedRun.uniform(buffer, n, _SCALAR_LEN)


def _decode_scalar_run(chunks, lengths: list[int]) -> list | None:
    """Inverse of :func:`_encode_scalar_run`: ONE unpack when every chunk
    is scalar-sized and every tag equals the first (int or float);
    ``None`` otherwise, for :func:`decode_item`.  A frame kept whole
    (:func:`decode_frame_run`) is unpacked where it lies, stepping over
    the count and the length prefixes; a list of chunks is joined first."""
    n = len(lengths)
    if not 2 <= n <= _RUN_MAX or lengths.count(_SCALAR_LEN) != n:
        return None
    if type(chunks) is EncodedRun:
        data, gap, first = chunks.frame_payload(), "4x", 8
    else:
        data, gap, first = b"".join(chunks), "", 0
    tag = data[first]
    code = _SCALAR_CODE.get(tag)
    if code is None:
        return None
    fields = _repeat_struct(gap, gap + "B" + code, n).unpack(data)
    if fields[0::2].count(tag) != n:
        return None
    return list(fields[1::2])


def decode_batch(data) -> list[bytes]:
    """Split a frame payload back into its encoded items (copying)."""
    return [bytes(chunk) for chunk in decode_batch_views(data)]


def decode_batch_views(data) -> list[memoryview]:
    """Split a frame payload into ``memoryview`` chunk slices — zero copy.

    Every chunk aliases the received frame buffer; raising a clear
    :class:`MarshalError` on truncated or malformed frames (count or
    length prefixes pointing past the end, trailing garbage) instead of
    misparsing.  This per-chunk loop is the general frame split, and
    what :func:`decode_frame_run` is tested against.
    """
    view = data if isinstance(data, memoryview) else memoryview(data)
    total = view.nbytes
    if total < 4:
        raise MarshalError(
            f"truncated frame header: {total} of 4 bytes"
        )
    (count,) = struct.unpack_from("!I", view, 0)
    offset = 4
    chunks: list[memoryview] = []
    for index in range(count):
        if offset + 4 > total:
            raise MarshalError(
                f"truncated frame: chunk {index} of {count} has no "
                f"length prefix"
            )
        (length,) = struct.unpack_from("!I", view, offset)
        offset += 4
        end = offset + length
        if end > total:
            raise MarshalError(
                f"truncated frame chunk {index}: need {length} bytes, "
                f"have {total - offset}"
            )
        chunks.append(view[offset:end])
        offset = end
    if offset != total:
        raise MarshalError(
            f"trailing garbage: consumed {offset} of {total} bytes"
        )
    return chunks


def decode_frame_run(data) -> "EncodedRun | list[memoryview]":
    """:func:`decode_batch_views` for the receiving netpipe: a frame of
    two or more equal-length chunks stays whole — ONE :class:`EncodedRun`
    over the received buffer (the receive-side twin of the sender's), no
    per-chunk object.  Every other frame, valid or not, takes the
    per-chunk loop.

    The count and the first length prefix are believed only once they
    account for the frame's size exactly, so the format checked next is
    sized by bytes that arrived, not by a forged field; then EVERY length
    prefix is read in one ``unpack`` and must equal the first.
    """
    view = data if isinstance(data, memoryview) else memoryview(data)
    total = view.nbytes
    if total >= 8:
        count, length = _COUNT_AND_LENGTH.unpack_from(view, 0)
        if 2 <= count <= _RUN_MAX and 4 + count * (4 + length) == total:
            prefixes = _repeat_struct("4x", f"I{length}x", count).unpack(view)
            if prefixes.count(length) == count:
                return EncodedRun.uniform(view, count, length)
    return decode_batch_views(view)


# -- trace-context side-chunks (repro.obs.flow) --------------------------------


#: The keys of a :meth:`~repro.obs.flow.TraceContext.to_wire` dict.
CONTEXT_FIELDS = frozenset(("id", "p", "b", "s", "ok", "on", "ot"))


def encode_flow_chunk(entries: list) -> bytes:
    """Encode flow-trace entries into a side-chunk.

    ``entries`` is a list of ``(run_index, wire_fields)`` tuples — the
    positional index of the sampled item within the frame plus its
    :meth:`~repro.obs.flow.TraceContext.to_wire` dict.  The body after
    the :data:`FLOW_CHUNK_MAGIC` byte is ordinary TLV.
    """
    return bytes([FLOW_CHUNK_MAGIC]) + encode_item(
        [tuple(entry) for entry in entries]
    )


def split_flow_chunk(chunks: list) -> tuple[list, list | None]:
    """Split a decoded frame's chunks into (data chunks, flow entries).

    The trace-context side-chunk, when present, is always the last chunk
    of a frame.  Returns the entries decoded by :func:`encode_flow_chunk`
    or ``None`` when the frame carries no flow chunk.  Anything but what
    it writes — a list of ``(index, fields)`` pairs, the indices ascending
    ints within the data chunks, the fields a dict of exactly
    :data:`CONTEXT_FIELDS` — raises :class:`MarshalError`.
    """
    last = chunks[-1] if chunks else b""
    if (
        not isinstance(last, (bytes, bytearray, memoryview))
        or not len(last)
        or last[0] != FLOW_CHUNK_MAGIC
    ):
        return chunks, None
    data, entries, previous = chunks[:-1], decode_item(last[1:]), -1
    if type(entries) is not list:
        raise MarshalError(f"forged flow side-chunk: {entries!r:.80}")
    for entry in entries:
        if (type(entry) is not tuple or len(entry) != 2
                or type(entry[0]) is not int or type(entry[1]) is not dict
                or entry[1].keys() != CONTEXT_FIELDS
                or not previous < entry[0] < len(data)):
            raise MarshalError(f"forged flow side-chunk: {entry!r:.80}")
        previous = entry[0]
    return data, entries


# -- marshalling filters -------------------------------------------------------


class MarshalFilter(FunctionComponent):
    """Item flow -> byte flow, for the sending side of a netpipe."""

    output_props = {props.FORMAT: "bytes"}

    def __init__(self, name: str | None = None):
        super().__init__(name)
        self.stats.update(bytes_out=0)

    def convert(self, item: Any) -> bytes:
        data = encode_item(item)
        self.stats["bytes_out"] += len(data)
        return data

    def convert_many(self, items: list) -> Any:
        run = None
        if isinstance(items, ColumnarRun):
            run = encode_run(items)
            if run is None:
                items = list(items)
        if run is None:
            run = _encode_scalar_run(items)
        if run is not None:
            out, total = run, run.nbytes
        else:
            out = [encode_item(item) for item in items]
            total = sum(map(len, out))
        self.stats["bytes_out"] += total
        return out

    def transform_typespec(self, spec: Typespec) -> Typespec:
        # Remember the item-level properties so the peer unmarshaller can
        # restore them; the wire flow itself is plain bytes.
        return Typespec({props.FORMAT: "bytes", "carried": spec})


class UnmarshalFilter(FunctionComponent):
    """Byte flow -> item flow, for the receiving side of a netpipe."""

    input_spec = Typespec({props.FORMAT: "bytes"})

    def __init__(self, name: str | None = None):
        super().__init__(name)
        self.stats.update(bytes_in=0)

    def convert(self, data) -> Any:
        self.stats["bytes_in"] += len(data)
        return decode_item(data)

    def convert_many(self, chunks: list) -> Any:
        if type(chunks) is EncodedRun:
            lengths = chunks.lengths
        else:
            lengths = list(map(len, chunks))
        total = sum(lengths)
        self.stats["bytes_in"] += total
        run = self._decode_run(chunks)
        if run is None:
            run = _decode_scalar_run(chunks, lengths)
        if run is not None:
            return run
        return [decode_item(data) for data in chunks]

    @staticmethod
    def _decode_run(chunks: list) -> Any:
        """Rebuild a ColumnarRun when every chunk carries the same
        registered raw wire id — the received payload views flow straight
        into the batch's payload columns, zero copies."""
        if not chunks:
            return None
        first = chunks[0]
        if not isinstance(first, (bytes, bytearray, memoryview)):
            return None
        if not len(first) or first[0] < RUN_WIRE_BASE:
            return None
        wire_id = first[0]
        codec = _run_decoders.get(wire_id)
        if codec is None:
            return None
        for chunk in chunks:
            if (
                not isinstance(chunk, (bytes, bytearray, memoryview))
                or not len(chunk)
                or chunk[0] != wire_id
            ):
                return None
        return codec[0](chunks)

    def transform_typespec(self, spec: Typespec) -> Typespec:
        carried = spec["carried"]
        if not isinstance(carried, Typespec):
            return spec.without("carried").with_props(format="item")
        # Restore the item-level flow, keeping the QoS properties the
        # netpipe stamped onto the byte-level flow (including the location,
        # which only netpipes may change).
        restored = carried
        for key in (
            props.LATENCY,
            props.JITTER,
            props.LOSS_RATE,
            props.BANDWIDTH,
            props.LOCATION,
        ):
            if key in spec:
                restored = restored.with_props(**{key: spec[key]})
        return restored
