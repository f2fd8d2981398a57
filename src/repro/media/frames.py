"""Media item types."""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Any

from repro.net.marshal import register_codec


def synth_payload(seq: int, size: int) -> bytes:
    """Deterministic synthetic payload for frame ``seq``.

    The content is the frame's sequence number repeated as a little-endian
    64-bit word — cheap to generate (one C-level multiply), and the same
    bytes whether produced per item or per batch, so equivalence tests can
    compare payloads verbatim.
    """
    if size <= 0:
        return b""
    word = struct.pack("<Q", seq & 0xFFFFFFFFFFFFFFFF)
    return (word * ((size + 7) // 8))[:size]


@dataclass(slots=True)
class VideoFrame:
    """One video frame, encoded or decoded.

    ``deps`` names the sequence numbers this frame needs as references
    (empty for I frames).  ``owner`` is set by a decoder that still shares
    the frame as a reference — the consumer must send a ``frame-release``
    event to ``owner`` when done (section 2.2).

    ``payload`` optionally carries the frame's actual bytes (``size`` long
    when present): ``bytes`` when freshly synthesized, or a ``memoryview``
    slice into a shared buffer when the frame was materialized from a
    columnar batch or a received netpipe frame (zero-copy; see
    docs/MEDIA.md for the ownership rules).  Metadata-only frames keep
    ``payload=None`` and behave exactly as before this field existed.
    """

    seq: int
    kind: str  # "I" | "P" | "B"
    pts: float
    size: int
    width: int = 640
    height: int = 480
    gop_id: int = 0
    encoded: bool = True
    deps: tuple[int, ...] = ()
    owner: str = ""
    payload: Any = None

    def decoded_copy(self, owner: str = "") -> "VideoFrame":
        raw_size = int(self.width * self.height * 1.5)  # YUV420
        return VideoFrame(
            seq=self.seq,
            kind=self.kind,
            pts=self.pts,
            size=raw_size,
            width=self.width,
            height=self.height,
            gop_id=self.gop_id,
            encoded=False,
            deps=self.deps,
            owner=owner,
            payload=(
                synth_payload(self.seq, raw_size)
                if self.payload is not None
                else None
            ),
        )

    def resized(self, width: int, height: int) -> "VideoFrame":
        scale = (width * height) / max(1, self.width * self.height)
        size = max(1, int(self.size * scale))
        return VideoFrame(
            seq=self.seq,
            kind=self.kind,
            pts=self.pts,
            size=size,
            width=width,
            height=height,
            gop_id=self.gop_id,
            encoded=self.encoded,
            deps=self.deps,
            owner=self.owner,
            payload=(
                synth_payload(self.seq, size)
                if self.payload is not None
                else None
            ),
        )


@dataclass(slots=True)
class AudioSample:
    """A block of audio samples.

    ``payload``, when present, holds ``size`` bytes of interleaved signed
    16-bit samples (native byte order) — same conventions as
    :class:`VideoFrame.payload`.
    """

    seq: int
    pts: float
    duration: float
    size: int = 1024
    payload: Any = None


@dataclass(slots=True)
class MidiEvent:
    """A tiny control-rate item: the paper's many-small-items workload
    ("applications ... such as a MIDI mixer")."""

    seq: int
    channel: int
    note: int
    velocity: int
    pts: float = 0.0


# -- wire codecs ---------------------------------------------------------------

# The wire representation is padded to the frame's nominal size, so the
# simulated network sees realistic bandwidth demand even when the synthetic
# frames carry no pixel data of their own.  Frames WITH a payload send the
# payload instead of the pad; metadata-only frames keep the exact pre-payload
# wire bytes (golden traces pin the per-item format bit-for-bit).
_FRAME_HEADER_BYTES = 120


def _frame_to_fields(f: VideoFrame) -> dict:
    fields = {
        "seq": f.seq, "kind": f.kind, "pts": f.pts, "size": f.size,
        "width": f.width, "height": f.height, "gop_id": f.gop_id,
        "encoded": f.encoded, "deps": tuple(f.deps),
    }
    if f.payload is None:
        fields["pad"] = b"\x00" * max(0, f.size - _FRAME_HEADER_BYTES)
    else:
        fields["payload"] = bytes(f.payload)
    return fields


def _frame_from_fields(d: dict) -> VideoFrame:
    return VideoFrame(
        seq=d["seq"], kind=d["kind"], pts=d["pts"], size=d["size"],
        width=d["width"], height=d["height"], gop_id=d["gop_id"],
        encoded=d["encoded"], deps=tuple(d["deps"]),
        payload=d.get("payload"),
    )


register_codec(VideoFrame, "vframe", _frame_to_fields, _frame_from_fields)


def _sample_to_fields(s: AudioSample) -> dict:
    fields = {"seq": s.seq, "pts": s.pts, "duration": s.duration,
              "size": s.size}
    if s.payload is not None:
        fields["payload"] = bytes(s.payload)
    return fields


def _sample_from_fields(d: dict) -> AudioSample:
    return AudioSample(seq=d["seq"], pts=d["pts"], duration=d["duration"],
                       size=d["size"], payload=d.get("payload"))


register_codec(AudioSample, "asample", _sample_to_fields, _sample_from_fields)

register_codec(
    MidiEvent,
    "midi",
    lambda e: {"seq": e.seq, "channel": e.channel, "note": e.note,
               "velocity": e.velocity, "pts": e.pts},
    lambda d: MidiEvent(seq=d["seq"], channel=d["channel"], note=d["note"],
                        velocity=d["velocity"], pts=d["pts"]),
)
