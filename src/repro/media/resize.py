"""The resizer: control interaction from the display (section 2.2)."""

from __future__ import annotations

from repro.core.styles import FunctionComponent
from repro.core.typespec import Typespec, props
from repro.media import arrays
from repro.media.batch import FrameBatch, build_payload_region
from repro.media.frames import VideoFrame, synth_payload


class Resizer(FunctionComponent):
    """Scales decoded frames to the display's window size.

    "A video resizing component ... needs to be informed by the video
    display whenever the user changes the window size" — the display
    broadcasts ``window-resize`` and this component adapts, mid-stream,
    under the synchronized-object guarantees (the handler never interleaves
    with ``convert``).
    """

    input_spec = Typespec({props.ITEM_TYPE: "video-frame",
                           props.FORMAT: "raw"})
    events_handled = frozenset({"window-resize"})

    def __init__(
        self,
        width: int = 640,
        height: int = 480,
        cost_per_mpixel: float = 0.002,
        name: str | None = None,
    ):
        super().__init__(name)
        self.width = width
        self.height = height
        self.cost_per_mpixel = cost_per_mpixel
        self.stats.update(resized=0, bytes_in=0, bytes_out=0)
        #: (width, height, at-item-count) history.
        self.size_changes: list[tuple[int, int, int]] = []

    def on_window_resize(self, event) -> None:
        self.width, self.height = event.payload
        self.size_changes.append(
            (self.width, self.height, self.stats["items_in"])
        )

    def convert(self, frame: VideoFrame) -> VideoFrame:
        self.stats["bytes_in"] += frame.size
        if frame.width == self.width and frame.height == self.height:
            self.stats["bytes_out"] += frame.size
            return frame
        if self.cost_per_mpixel:
            self.charge(
                self.cost_per_mpixel * (self.width * self.height) / 1e6
            )
        self.stats["resized"] += 1
        out = frame.resized(self.width, self.height)
        self.stats["bytes_out"] += out.size
        return out

    def convert_many(self, items):
        """Vectorized path: scale a whole columnar run at once.

        Frames already at the window size pass through untouched
        (payload views shared, zero copy); resized frames get the same
        per-item-exact size arithmetic and regenerated payloads that
        :meth:`~repro.media.frames.VideoFrame.resized` produces.
        """
        if not isinstance(items, FrameBatch):
            return super().convert_many(items)
        kinds = items.kind
        stats = self.stats
        count = len(items)
        stats["bytes_in"] += items.nominal_bytes
        W, H = self.width, self.height
        target = W * H
        resized: list[bool] = []
        new_sizes: list[int] = []
        for size, width, height in zip(
            arrays.tolist(items.size), arrays.tolist(items.width),
            arrays.tolist(items.height), strict=True,
        ):
            resize = width != W or height != H
            if resize:
                scale = target / max(1, width * height)
                size = max(1, int(size * scale))
            resized.append(resize)
            new_sizes.append(size)
        resized_count = sum(resized)
        if not resized_count:
            stats["bytes_out"] += items.nominal_bytes
            return items
        if self.cost_per_mpixel:
            per_frame = self.cost_per_mpixel * target / 1e6
            for _ in range(resized_count):
                self.charge(per_frame)
        stats["resized"] += resized_count
        region = offsets = views = None
        if items.has_payload:
            if resized_count == count:
                region, offsets = build_payload_region(items.seq, new_sizes)
            else:
                views = [
                    memoryview(synth_payload(seq, size)) if resize else view
                    for resize, seq, size, view in zip(
                        resized, arrays.tolist(items.seq), new_sizes,
                        items.payload_views(), strict=True,
                    )
                ]
        out = FrameBatch(
            seq=items.seq,
            kind=kinds,
            pts=items.pts,
            size=arrays.i64(new_sizes),
            width=arrays.i64([W] * count),
            height=arrays.i64([H] * count),
            gop_id=items.gop_id,
            encoded=items.encoded,
            deps=items.deps,
            owner=items.owner,
            region=region,
            offsets=offsets,
            views=views,
        )
        stats["bytes_out"] += out.nominal_bytes
        return out

    def transform_typespec(self, spec: Typespec) -> Typespec:
        return spec.with_props(
            **{props.FRAME_WIDTH: self.width, props.FRAME_HEIGHT: self.height}
        )
