"""The synthetic MPEG codec.

The decoder models the three behaviours the paper's arguments rest on:

* **decode cost** — CPU time proportional to frame size, charged to the
  scheduler, so video decoding is the long-running preemptible work of
  section 3.2;
* **reference-frame sharing** — "an MPEG-decoder that passes on decoded
  video frames and at the same time still needs them as reference frames
  itself.  Communication between the decoder and downstream components
  must determine when the shared frames can be deleted" (section 2.2):
  decoded I/P frames stay in the decoder's reference store until the
  consumer sends a ``frame-release`` control event;
* **loss sensitivity** — P/B frames whose references were lost upstream
  are undecodable and skipped, which is why feedback-controlled dropping
  (B first) beats arbitrary network dropping at equal loss rates.
"""

from __future__ import annotations

from heapq import heappop, heappush

from repro.core.styles import Consumer
from repro.core.typespec import Typespec, props
from repro.media import arrays
from repro.media.batch import FrameBatch, build_payload_region
from repro.media.frames import VideoFrame, synth_payload


class MpegDecoder(Consumer):
    """Decoder: encoded frames in, decoded (shared) frames out."""

    input_spec = Typespec({props.ITEM_TYPE: "video-frame",
                           props.FORMAT: "mpeg"})
    output_props = {props.FORMAT: "raw"}
    events_handled = frozenset({"frame-release"})
    # ``skipped_undecodable`` is loss, but not via a drops/dropped* stat —
    # declare it so flow invariants and the refinement checker sanction
    # (and report) it instead of flagging undeclared loss.
    declares_drops = True
    loss_reason = "skips frames whose GOP reference frames were lost"

    def __init__(
        self,
        name: str | None = None,
        cost_per_mb: float = 0.004,
        share_references: bool = True,
    ):
        super().__init__(name)
        #: Simulated decode cost in seconds per megabyte of *decoded* data.
        self.cost_per_mb = cost_per_mb
        self.share_references = share_references
        #: Decoded reference frames still shared with downstream, by seq.
        self.reference_frames: dict[int, VideoFrame] = {}
        #: Sequence numbers of frames decoded successfully, and the same
        #: numbers as a min-heap so pruning never scans the set.
        self._decoded: set[int] = set()
        self._decoded_heap: list[int] = []
        self.stats.update(decoded=0, skipped_undecodable=0, released=0,
                          bytes_in=0, bytes_out=0)

    # -- data path ---------------------------------------------------------

    def push(self, frame: VideoFrame) -> None:
        if not isinstance(frame, VideoFrame) or not frame.encoded:
            raise TypeError(
                f"{self.name!r} expects encoded VideoFrames, got {frame!r}"
            )
        self.stats["bytes_in"] += frame.size
        if not self._decoded.issuperset(frame.deps):
            self.stats["skipped_undecodable"] += 1
            return
        # Only reference frames (I/P) are shared with downstream; B frames
        # are not kept and need no release.
        shares = self.share_references and frame.kind in ("I", "P")
        decoded = frame.decoded_copy(owner=self.name if shares else "")
        if self.cost_per_mb:
            self.charge(self.cost_per_mb * decoded.size / 1_000_000.0)
        self._mark_decoded(frame.seq)
        if frame.kind in ("I", "P") and self.share_references:
            self.reference_frames[frame.seq] = decoded
        self.stats["decoded"] += 1
        self.stats["bytes_out"] += decoded.size
        self.put(decoded)
        self._forget_stale(frame.seq)

    def process_run(self, run) -> "FrameBatch | None":
        """Vectorized entry for columnar runs.

        Declines (returns None, falling back to per-item pushes) when
        reference sharing is on — the §2.2 frame-release protocol hands
        out *owned* per-frame objects, which a columnar batch cannot
        represent — or when the run is not a batch of encoded frames.
        The decode loop walks sequences in order so within-batch
        dependencies (a P frame referencing the I frame three slots
        earlier) resolve exactly as they do per item.
        """
        if self.share_references:
            return None
        if not isinstance(run, FrameBatch):
            return None
        count = len(run)
        if arrays.col_sum(run.encoded) != count:
            return None  # per-item path raises the clear type error
        stats = self.stats
        stats["items_in"] += count
        stats["bytes_in"] += run.nominal_bytes
        decodable = self._decoded.issuperset
        cost = self.cost_per_mb
        keep: list[int] = []
        seqs: list[int] = []
        raw_sizes: list[int] = []
        for i, (seq, frame_deps, width, height) in enumerate(zip(
            arrays.tolist(run.seq), run.deps,
            arrays.tolist(run.width), arrays.tolist(run.height),
            strict=True,
        )):
            if not decodable(frame_deps):
                stats["skipped_undecodable"] += 1
                continue
            raw = int(width * height * 1.5)  # YUV420
            if cost:
                self.charge(cost * raw / 1_000_000.0)
            stats["decoded"] += 1
            keep.append(i)
            seqs.append(seq)
            raw_sizes.append(raw)
            self._mark_decoded(seq)
            self._forget_stale(seq)
        n = len(keep)
        region = offsets = None
        if n and run.has_payload:
            region, offsets = build_payload_region(seqs, raw_sizes)
        # A run decoded whole keeps its columns; only one that lost
        # frames is re-indexed.
        kept = run if n == count else run.select(keep)
        out = FrameBatch(
            seq=kept.seq,
            kind=kept.kind,
            pts=kept.pts,
            size=arrays.i64(raw_sizes),
            width=kept.width,
            height=kept.height,
            gop_id=kept.gop_id,
            encoded=arrays.u8([0] * n),
            deps=kept.deps,
            region=region,
            offsets=offsets,
        )
        stats["items_out"] += n
        stats["bytes_out"] += out.nominal_bytes
        return out

    def _mark_decoded(self, seq: int) -> None:
        if seq not in self._decoded:
            self._decoded.add(seq)
            heappush(self._decoded_heap, seq)

    def _forget_stale(self, current_seq: int, horizon: int = 64) -> None:
        # Bound the decoded-set so infinite streams do not grow memory;
        # references older than the horizon can never be dependencies.
        # The heap holds exactly the set's members, so popping while its
        # least is stale removes what a scan of the set would.
        heap = self._decoded_heap
        stale_below = current_seq - horizon
        while heap and heap[0] < stale_below:
            self._decoded.discard(heappop(heap))

    # -- shared-frame lifecycle ----------------------------------------------

    def on_frame_release(self, event) -> None:
        """Downstream is done displaying a shared reference frame."""
        seq = event.payload
        if self.reference_frames.pop(seq, None) is not None:
            self.stats["released"] += 1

    @property
    def shared_frame_count(self) -> int:
        return len(self.reference_frames)


class MpegEncoder(Consumer):
    """Encoder: raw frames in, encoded frames out (for camera pipelines)."""

    input_spec = Typespec({props.ITEM_TYPE: "video-frame",
                           props.FORMAT: "raw"})
    output_props = {props.FORMAT: "mpeg"}

    def __init__(
        self,
        name: str | None = None,
        cost_per_mb: float = 0.008,
        compression: float = 20.0,
    ):
        super().__init__(name)
        self.cost_per_mb = cost_per_mb
        self.compression = compression
        self.stats.update(encoded=0, bytes_in=0, bytes_out=0)

    def push(self, frame: VideoFrame) -> None:
        if not isinstance(frame, VideoFrame) or frame.encoded:
            raise TypeError(
                f"{self.name!r} expects raw VideoFrames, got {frame!r}"
            )
        self.stats["bytes_in"] += frame.size
        if self.cost_per_mb:
            self.charge(self.cost_per_mb * frame.size / 1_000_000.0)
        size = max(64, int(frame.size / self.compression))
        encoded = VideoFrame(
            seq=frame.seq,
            kind=frame.kind,
            pts=frame.pts,
            size=size,
            width=frame.width,
            height=frame.height,
            gop_id=frame.gop_id,
            encoded=True,
            deps=frame.deps,
            payload=(
                synth_payload(frame.seq, size)
                if frame.payload is not None
                else None
            ),
        )
        self.stats["encoded"] += 1
        self.stats["bytes_out"] += size
        self.put(encoded)
