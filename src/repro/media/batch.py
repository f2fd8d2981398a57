"""Columnar media batches: FrameBatch and SampleBatch.

The §2.2 argument — media pipelines pass frames *by reference* because
copying payloads dominates — applied to the batched data plane: a run of
media items is ONE object holding parallel arrays (seq/pts/kind/size/...)
plus a single contiguous buffer-protocol payload region, instead of a list
of per-item dataclasses.  numpy backs the columns when installed (the
``repro[media]`` extra); the stdlib ``array`` module otherwise — see
:mod:`repro.media.arrays`.

A batch satisfies the :class:`~repro.core.runs.ColumnarRun` contract, so
it flows through every batch walker unchanged: vectorized components
(codec, dropper, resizer, mixer, marshal) transform whole columns, while
non-vectorized components transparently materialize per-item
``VideoFrame``/``AudioSample`` objects on demand.

Payload storage is one of:

* a shared **region** + per-item offsets (lengths are the ``size``
  column) — what sources and vectorized converters build;
* a list of per-item **views** (``memoryview`` slices into a received
  netpipe frame, or borrowed from per-item payloads by
  :meth:`FrameBatch.from_frames`) — zero-copy on the receive path;
* nothing (metadata-only flows, exactly as before payloads existed).

Wire format: each batch type registers a *run codec* with
:mod:`repro.net.marshal` — encoding writes fixed headers + payload bytes
straight into one preallocated frame buffer, decoding hands back payload
``memoryview`` slices into the received buffer (zero payload copies).
Metadata-only frames are padded to their nominal ``size`` on the wire, so
the simulated network sees the same bandwidth demand as the per-item TLV
format.
"""

from __future__ import annotations

import struct
from itertools import accumulate, starmap
from typing import Any, Iterable, Sequence

from repro.core.runs import ColumnarRun
from repro.errors import MarshalError
from repro.media import arrays
from repro.media.frames import AudioSample, VideoFrame, synth_payload
from repro.net.marshal import EncodedRun, alloc_run_buffer, register_run_codec

#: Raw chunk wire ids (first byte; disjoint from the TLV tag space).
FRAME_WIRE_ID = 0x20
SAMPLE_WIRE_ID = 0x21

_F_HAS_PAYLOAD = 0x01
_F_ENCODED = 0x02

# wire_id, flags, kind, ndeps, seq, pts, size, body_len, width, height, gop_id
_VF_HEAD = struct.Struct("<BBBBqdqqiii")
# wire_id, flags, seq, pts, duration, size, body_len
_AS_HEAD = struct.Struct("<BBqddqq")

#: The order ``to_frames`` / ``to_samples`` hand columns to the item
#: constructors in (by position: a keyword call costs as much again as
#: the column pass).  A reordered or added field fails here, at import.
_FRAME_FIELDS = (
    "seq", "kind", "pts", "size", "width", "height", "gop_id", "encoded",
    "deps", "owner", "payload",
)
_SAMPLE_FIELDS = ("seq", "pts", "duration", "size", "payload")
if (VideoFrame.__slots__, AudioSample.__slots__) != (
    _FRAME_FIELDS, _SAMPLE_FIELDS
):
    raise TypeError("VideoFrame / AudioSample fields moved: update batch.py")


class _ColumnarBatch(ColumnarRun):
    """Shared payload-region/views plumbing for the two batch types."""

    __slots__ = ("size", "region", "offsets", "views", "_region_mv")

    def _init_payload(self, region, offsets, views) -> None:
        self.region = region
        self.offsets = offsets
        self.views = views
        self._region_mv = (
            arrays.region_view(region) if region is not None else None
        )

    @property
    def has_payload(self) -> bool:
        return self.region is not None or self.views is not None

    def payload_view(self, i: int):
        """Zero-copy view of item ``i``'s payload (None when absent)."""
        views = self.views
        if views is not None:
            return views[i]
        mv = self._region_mv
        if mv is None:
            return None
        offset = int(self.offsets[i])
        return mv[offset : offset + int(self.size[i])]

    def payload_views(self) -> "list | None":
        """Every item's payload view in order, as a fresh list (None
        when metadata-only)."""
        if self.views is not None:
            return list(self.views)
        mv = self._region_mv
        if mv is None:
            return None
        return [
            mv[offset : offset + size]
            for offset, size in zip(
                arrays.tolist(self.offsets), arrays.tolist(self.size),
                strict=True,
            )
        ]

    def _payload_take(self, indices: Sequence[int]):
        """Payload storage for a sub-batch of ``indices`` — always shares
        the underlying bytes (region + re-indexed offsets, or a view
        sub-list); never copies payload data."""
        if self.views is not None:
            return None, None, [self.views[i] for i in indices]
        if self.region is not None:
            return self.region, arrays.take(self.offsets, indices), None
        return None, None, None

    @property
    def payload_nbytes(self) -> int:
        """Total payload bytes actually carried (0 for metadata-only)."""
        if self.views is not None:
            return sum(v.nbytes for v in self.views if v is not None)
        if self.region is not None:
            return arrays.col_sum(self.size)
        return 0

    @property
    def nominal_bytes(self) -> int:
        """Sum of the nominal ``size`` column (defined even without
        payloads — what the bytes accounting counts)."""
        return arrays.col_sum(self.size)


class FrameBatch(_ColumnarBatch):
    """A columnar run of video frames."""

    __slots__ = (
        "seq", "kind", "pts", "width", "height", "gop_id", "encoded",
        "deps", "owner",
    )

    def __init__(
        self,
        seq,
        kind: str,
        pts,
        size,
        width,
        height,
        gop_id,
        encoded,
        deps: tuple,
        owner: tuple | None = None,
        region=None,
        offsets=None,
        views=None,
    ):
        self.seq = seq
        self.kind = kind
        self.pts = pts
        self.size = size
        self.width = width
        self.height = height
        self.gop_id = gop_id
        self.encoded = encoded
        self.deps = deps
        self.owner = owner
        self._init_payload(region, offsets, views)

    # -- construction --------------------------------------------------------

    @classmethod
    def from_frames(cls, frames: Iterable[VideoFrame]) -> "FrameBatch":
        """Build a batch from per-item frames.

        Payloads are *borrowed* (per-item views), not copied; frames
        without payload stay payload-less in the batch.
        """
        frames = list(frames)
        kind = "".join(f.kind for f in frames)
        views: list | None = [
            memoryview(f.payload) if f.payload is not None else None
            for f in frames
        ]
        if not any(v is not None for v in views):
            views = None
        owner: tuple | None = tuple(f.owner for f in frames)
        if not any(owner):
            owner = None
        return cls(
            seq=arrays.i64([f.seq for f in frames]),
            kind=kind,
            pts=arrays.f64([f.pts for f in frames]),
            size=arrays.i64([f.size for f in frames]),
            width=arrays.i64([f.width for f in frames]),
            height=arrays.i64([f.height for f in frames]),
            gop_id=arrays.i64([f.gop_id for f in frames]),
            encoded=arrays.u8([1 if f.encoded else 0 for f in frames]),
            deps=tuple(tuple(f.deps) for f in frames),
            owner=owner,
            views=views,
        )

    # -- run protocol --------------------------------------------------------

    def __len__(self) -> int:
        return len(self.kind)

    def frame(self, i: int) -> VideoFrame:
        """Materialize frame ``i`` (payload stays a zero-copy view)."""
        return VideoFrame(
            seq=int(self.seq[i]),
            kind=self.kind[i],
            pts=float(self.pts[i]),
            size=int(self.size[i]),
            width=int(self.width[i]),
            height=int(self.height[i]),
            gop_id=int(self.gop_id[i]),
            encoded=bool(self.encoded[i]),
            deps=self.deps[i],
            owner=self.owner[i] if self.owner is not None else "",
            payload=self.payload_view(i),
        )

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.select(range(len(self))[index])
        n = len(self)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError(index)
        return self.frame(index)

    def to_frames(self) -> list[VideoFrame]:
        """Materialize every frame, each column converted once."""
        tolist = arrays.tolist
        n = len(self)
        return list(starmap(VideoFrame, zip(  # in _FRAME_FIELDS order
            tolist(self.seq), self.kind, tolist(self.pts), tolist(self.size),
            tolist(self.width), tolist(self.height), tolist(self.gop_id),
            map(bool, tolist(self.encoded)), self.deps,
            self.owner or [""] * n, self.payload_views() or [None] * n,
            strict=True,
        )))

    def __iter__(self):
        return iter(self.to_frames())

    def select(self, indices: Iterable[int]) -> "FrameBatch":
        """Sub-batch of ``indices`` — columns re-indexed, payload bytes
        shared with this batch (zero copy)."""
        indices = list(indices)
        region, offsets, views = self._payload_take(indices)
        return FrameBatch(
            seq=arrays.take(self.seq, indices),
            kind="".join(self.kind[i] for i in indices),
            pts=arrays.take(self.pts, indices),
            size=arrays.take(self.size, indices),
            width=arrays.take(self.width, indices),
            height=arrays.take(self.height, indices),
            gop_id=arrays.take(self.gop_id, indices),
            encoded=arrays.take(self.encoded, indices),
            deps=tuple(self.deps[i] for i in indices),
            owner=(
                tuple(self.owner[i] for i in indices)
                if self.owner is not None
                else None
            ),
            region=region,
            offsets=offsets,
            views=views,
        )


class SampleBatch(_ColumnarBatch):
    """A columnar run of audio sample blocks."""

    __slots__ = ("seq", "pts", "duration")

    def __init__(self, seq, pts, duration, size,
                 region=None, offsets=None, views=None):
        self.seq = seq
        self.pts = pts
        self.duration = duration
        self.size = size
        self._init_payload(region, offsets, views)

    @classmethod
    def from_samples(cls, samples: Iterable[AudioSample]) -> "SampleBatch":
        samples = list(samples)
        views: list | None = [
            memoryview(s.payload) if s.payload is not None else None
            for s in samples
        ]
        if not any(v is not None for v in views):
            views = None
        return cls(
            seq=arrays.i64([s.seq for s in samples]),
            pts=arrays.f64([s.pts for s in samples]),
            duration=arrays.f64([s.duration for s in samples]),
            size=arrays.i64([s.size for s in samples]),
            views=views,
        )

    def __len__(self) -> int:
        return len(self.seq)

    def sample(self, i: int) -> AudioSample:
        return AudioSample(
            seq=int(self.seq[i]),
            pts=float(self.pts[i]),
            duration=float(self.duration[i]),
            size=int(self.size[i]),
            payload=self.payload_view(i),
        )

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.select(range(len(self))[index])
        n = len(self)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError(index)
        return self.sample(index)

    def to_samples(self) -> list[AudioSample]:
        """Materialize every block, each column converted once."""
        tolist = arrays.tolist
        return list(starmap(AudioSample, zip(  # in _SAMPLE_FIELDS order
            tolist(self.seq), tolist(self.pts), tolist(self.duration),
            tolist(self.size), self.payload_views() or [None] * len(self),
            strict=True,
        )))

    def __iter__(self):
        return iter(self.to_samples())

    def select(self, indices: Iterable[int]) -> "SampleBatch":
        indices = list(indices)
        region, offsets, views = self._payload_take(indices)
        return SampleBatch(
            seq=arrays.take(self.seq, indices),
            pts=arrays.take(self.pts, indices),
            duration=arrays.take(self.duration, indices),
            size=arrays.take(self.size, indices),
            region=region,
            offsets=offsets,
            views=views,
        )


def build_payload_region(seqs: Sequence[int], sizes: Sequence[int]):
    """One contiguous region filled with each item's synthetic payload.

    Returns ``(region, offsets)`` for batch construction, byte-identical
    to the per-item :func:`~repro.media.frames.synth_payload` and written
    once: when every size is a multiple of 8 the numpy backend repeats
    each item's 64-bit sequence word into place; otherwise each payload
    is copied into a region that is not zeroed first, since items lie
    end to end and so cover it.
    """
    sizes = arrays.tolist(sizes)
    if sizes and min(sizes) < 0:
        raise ValueError(f"negative payload size {min(sizes)}")
    offsets = list(accumulate(sizes, initial=0))
    total = offsets.pop()
    np = arrays.np
    if np is not None and not any(size & 7 for size in sizes):
        words = np.asarray(seqs, dtype="<i8").view("<u8")
        counts = np.asarray(sizes, dtype=np.intp) >> 3
        region = words.repeat(counts).view(np.uint8)
    else:
        region = arrays.scratch_region(total)
        mv = arrays.region_view(region)
        for seq, offset, size in zip(
            arrays.tolist(seqs), offsets, sizes, strict=True
        ):
            mv[offset : offset + size] = synth_payload(seq, size)
    return region, arrays.i64(offsets)


# -- wire run codecs -----------------------------------------------------------


def _encode_frame_run(batch: FrameBatch) -> EncodedRun:
    head = _VF_HEAD.size
    tolist = arrays.tolist
    deps = batch.deps
    sizes = tolist(batch.size)
    payloads = batch.payload_views() or [None] * len(sizes)
    lengths = [
        payload.nbytes + head + 8 * len(frame_deps)
        if payload is not None
        else max(size, head + 8 * len(frame_deps))
        for payload, frame_deps, size in zip(
            payloads, deps, sizes, strict=True
        )
    ]
    buffer, offsets = alloc_run_buffer(lengths)
    pack = _VF_HEAD.pack_into
    for (
        offset, length, payload, frame_deps, kind_code,
        seq, pts, size, width, height, gop_id, encoded,
    ) in zip(
        offsets, lengths, payloads, deps, map(ord, batch.kind),
        tolist(batch.seq), tolist(batch.pts), sizes, tolist(batch.width),
        tolist(batch.height), tolist(batch.gop_id), tolist(batch.encoded),
        strict=True,
    ):
        ndeps = len(frame_deps)
        flags = (_F_HAS_PAYLOAD if payload is not None else 0) | (
            _F_ENCODED if encoded else 0
        )
        pack(
            buffer, offset,
            FRAME_WIRE_ID, flags, kind_code, ndeps,
            seq, pts, size, length - head - 8 * ndeps,
            width, height, gop_id,
        )
        offset += head
        if ndeps:
            struct.pack_into(f"<{ndeps}q", buffer, offset, *frame_deps)
            offset += 8 * ndeps
        if payload is not None:
            buffer[offset : offset + payload.nbytes] = payload
        # else: the pad bytes are already zero in the fresh buffer.
    return EncodedRun(buffer, offsets, lengths)


def _negative_field(what: str, **fields: int) -> MarshalError:
    name, value = next(item for item in fields.items() if item[1] < 0)
    return MarshalError(f"malformed {what} chunk: negative {name} {value}")


def _parse_frame_chunk(chunk):
    mv = chunk if isinstance(chunk, memoryview) else memoryview(chunk)
    head = _VF_HEAD.size
    if mv.nbytes < head:
        raise MarshalError(
            f"truncated frame chunk: {mv.nbytes} of {head} header bytes"
        )
    (
        _wire, flags, kind_code, ndeps,
        seq, pts, size, body, width, height, gop_id,
    ) = _VF_HEAD.unpack_from(mv, 0)
    if body < 0 or size < 0 or width < 0 or height < 0:
        raise _negative_field(
            "frame", body_len=body, size=size, width=width, height=height
        )
    expected = head + 8 * ndeps + body
    if mv.nbytes != expected:
        raise MarshalError(
            f"malformed frame chunk: {mv.nbytes} bytes, expected {expected}"
        )
    offset = head
    deps = struct.unpack_from(f"<{ndeps}q", mv, offset) if ndeps else ()
    offset += 8 * ndeps
    payload = mv[offset : offset + body] if flags & _F_HAS_PAYLOAD else None
    return (
        seq, chr(kind_code), pts, size, width, height, gop_id,
        bool(flags & _F_ENCODED), deps, payload,
    )


def _decode_frame_run(chunks: list) -> FrameBatch:
    seqs, kinds, ptss, sizes = [], [], [], []
    widths, heights, gops, encs, deps, views = [], [], [], [], [], []
    any_payload = False
    for chunk in chunks:
        (seq, kind, pts, size, width, height, gop_id,
         encoded, frame_deps, payload) = _parse_frame_chunk(chunk)
        seqs.append(seq)
        kinds.append(kind)
        ptss.append(pts)
        sizes.append(size)
        widths.append(width)
        heights.append(height)
        gops.append(gop_id)
        encs.append(1 if encoded else 0)
        deps.append(frame_deps)
        views.append(payload)
        any_payload = any_payload or payload is not None
    return FrameBatch(
        seq=arrays.i64(seqs),
        kind="".join(kinds),
        pts=arrays.f64(ptss),
        size=arrays.i64(sizes),
        width=arrays.i64(widths),
        height=arrays.i64(heights),
        gop_id=arrays.i64(gops),
        encoded=arrays.u8(encs),
        deps=tuple(deps),
        views=views if any_payload else None,
    )


def _decode_frame_one(chunk) -> VideoFrame:
    (seq, kind, pts, size, width, height, gop_id,
     encoded, deps, payload) = _parse_frame_chunk(chunk)
    return VideoFrame(
        seq=seq, kind=kind, pts=pts, size=size, width=width, height=height,
        gop_id=gop_id, encoded=encoded, deps=deps, payload=payload,
    )


def _encode_sample_run(batch: SampleBatch) -> EncodedRun:
    head = _AS_HEAD.size
    tolist = arrays.tolist
    payloads = batch.payload_views() or [None] * len(batch)
    lengths = [
        head + (payload.nbytes if payload is not None else 0)
        for payload in payloads
    ]
    buffer, offsets = alloc_run_buffer(lengths)
    pack = _AS_HEAD.pack_into
    for offset, length, payload, seq, pts, duration, size in zip(
        offsets, lengths, payloads, tolist(batch.seq), tolist(batch.pts),
        tolist(batch.duration), tolist(batch.size), strict=True,
    ):
        flags = _F_HAS_PAYLOAD if payload is not None else 0
        pack(
            buffer, offset,
            SAMPLE_WIRE_ID, flags, seq, pts, duration, size, length - head,
        )
        if payload is not None:
            offset += head
            buffer[offset : offset + payload.nbytes] = payload
    return EncodedRun(buffer, offsets, lengths)


def _parse_sample_chunk(chunk):
    mv = chunk if isinstance(chunk, memoryview) else memoryview(chunk)
    head = _AS_HEAD.size
    if mv.nbytes < head:
        raise MarshalError(
            f"truncated sample chunk: {mv.nbytes} of {head} header bytes"
        )
    _wire, flags, seq, pts, duration, size, body = _AS_HEAD.unpack_from(mv, 0)
    if body < 0 or size < 0:
        raise _negative_field("sample", body_len=body, size=size)
    if mv.nbytes != head + body:
        raise MarshalError(
            f"malformed sample chunk: {mv.nbytes} bytes, "
            f"expected {head + body}"
        )
    payload = mv[head : head + body] if flags & _F_HAS_PAYLOAD else None
    return seq, pts, duration, size, payload


def _decode_sample_run(chunks: list) -> SampleBatch:
    seqs, ptss, durations, sizes, views = [], [], [], [], []
    any_payload = False
    for chunk in chunks:
        seq, pts, duration, size, payload = _parse_sample_chunk(chunk)
        seqs.append(seq)
        ptss.append(pts)
        durations.append(duration)
        sizes.append(size)
        views.append(payload)
        any_payload = any_payload or payload is not None
    return SampleBatch(
        seq=arrays.i64(seqs),
        pts=arrays.f64(ptss),
        duration=arrays.f64(durations),
        size=arrays.i64(sizes),
        views=views if any_payload else None,
    )


def _decode_sample_one(chunk) -> AudioSample:
    seq, pts, duration, size, payload = _parse_sample_chunk(chunk)
    return AudioSample(seq=seq, pts=pts, duration=duration, size=size,
                       payload=payload)


register_run_codec(
    FrameBatch, FRAME_WIRE_ID,
    _encode_frame_run, _decode_frame_run, _decode_frame_one,
)
register_run_codec(
    SampleBatch, SAMPLE_WIRE_ID,
    _encode_sample_run, _decode_sample_run, _decode_sample_one,
)

__all__ = [
    "FrameBatch",
    "SampleBatch",
    "build_payload_region",
    "FRAME_WIRE_ID",
    "SAMPLE_WIRE_ID",
]
