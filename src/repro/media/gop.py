"""Group-of-pictures structure for the synthetic MPEG model."""

from __future__ import annotations

import random

from repro.media.frames import VideoFrame

#: Typical relative sizes of MPEG frame kinds, bytes at 640x480.
DEFAULT_SIZES = {"I": 12_000, "P": 5_000, "B": 2_000}


class GopStructure:
    """Generates frames following a repeating GOP pattern.

    ``pattern`` is a string over {I, P, B} starting with I, e.g. the
    classic ``"IBBPBBPBB"``.  Frame sizes vary deterministically (seeded
    RNG) around the nominal size per kind.  Dependencies are modelled as:
    I frames are self-contained; P and B frames reference the most recent
    preceding I/P frame.
    """

    def __init__(
        self,
        pattern: str = "IBBPBBPBB",
        fps: float = 30.0,
        size_variation: float = 0.25,
        width: int = 640,
        height: int = 480,
        seed: int = 1234,
    ):
        if not pattern or pattern[0] != "I":
            raise ValueError("GOP pattern must start with an I frame")
        if any(k not in "IPB" for k in pattern):
            raise ValueError(f"invalid GOP pattern {pattern!r}")
        if fps <= 0:
            raise ValueError("fps must be positive")
        self.pattern = pattern
        self.fps = float(fps)
        self.size_variation = size_variation
        self.width = width
        self.height = height
        self._rng = random.Random(seed)
        self._last_reference: int | None = None

    def kind_of(self, seq: int) -> str:
        return self.pattern[seq % len(self.pattern)]

    def frame(self, seq: int) -> VideoFrame:
        """Build the encoded frame with sequence number ``seq``.

        Frames must be requested in increasing order for dependency
        tracking to be meaningful (as a file source does).
        """
        kind = self.kind_of(seq)
        nominal = DEFAULT_SIZES[kind]
        scale = (self.width * self.height) / (640 * 480)
        jittered = nominal * scale * (
            1.0 + self.size_variation * (2.0 * self._rng.random() - 1.0)
        )
        if kind == "I":
            deps: tuple[int, ...] = ()
        else:
            deps = (self._last_reference,) if self._last_reference is not None else ()
        frame = VideoFrame(
            seq=seq,
            kind=kind,
            pts=seq / self.fps,
            size=max(64, int(jittered)),
            width=self.width,
            height=self.height,
            gop_id=seq // len(self.pattern),
            deps=deps,
        )
        if kind in ("I", "P"):
            self._last_reference = seq
        return frame

    def frames(self, count: int):
        """Generate ``count`` frames in order."""
        for seq in range(count):
            yield self.frame(seq)

    def frame_batch(
        self, start_seq: int, count: int, payloads: bool = False
    ) -> "FrameBatch":
        """Build frames ``start_seq .. start_seq+count-1`` as ONE columnar
        batch — no per-frame dataclasses.

        Column values (including the per-frame RNG draw order and the
        reference-dependency tracking) are byte-identical to ``count``
        sequential :meth:`frame` calls, so per-item and columnar pipelines
        see the same stream.  With ``payloads=True`` one contiguous region
        is filled with each frame's synthetic payload.
        """
        from repro.media import arrays
        from repro.media.batch import FrameBatch, build_payload_region

        pattern = self.pattern
        plen = len(pattern)
        sizes_by_kind = DEFAULT_SIZES
        scale = (self.width * self.height) / (640 * 480)
        variation = self.size_variation
        rng = self._rng.random
        fps = self.fps
        seqs, kinds, ptss, sizes, gops, deps = [], [], [], [], [], []
        for seq in range(start_seq, start_seq + count):
            kind = pattern[seq % plen]
            jittered = sizes_by_kind[kind] * scale * (
                1.0 + variation * (2.0 * rng() - 1.0)
            )
            if kind == "I":
                frame_deps: tuple[int, ...] = ()
            else:
                frame_deps = (
                    (self._last_reference,)
                    if self._last_reference is not None
                    else ()
                )
            seqs.append(seq)
            kinds.append(kind)
            ptss.append(seq / fps)
            sizes.append(max(64, int(jittered)))
            gops.append(seq // plen)
            deps.append(frame_deps)
            if kind in ("I", "P"):
                self._last_reference = seq
        region = offsets = None
        if payloads:
            region, offsets = build_payload_region(seqs, sizes)
        return FrameBatch(
            seq=arrays.i64(seqs),
            kind="".join(kinds),
            pts=arrays.f64(ptss),
            size=arrays.i64(sizes),
            width=arrays.i64([self.width] * count),
            height=arrays.i64([self.height] * count),
            gop_id=arrays.i64(gops),
            encoded=arrays.u8([1] * count),
            deps=tuple(deps),
            region=region,
            offsets=offsets,
        )

    def average_frame_size(self) -> float:
        scale = (self.width * self.height) / (640 * 480)
        total = sum(DEFAULT_SIZES[k] * scale for k in self.pattern)
        return total / len(self.pattern)

    def bitrate(self) -> float:
        """Nominal bits per second of the encoded flow."""
        return self.average_frame_size() * 8.0 * self.fps
