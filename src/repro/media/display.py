"""The video display sink."""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.components.sinks import Sink
from repro.core.events import EventScope
from repro.core.typespec import Typespec, props
from repro.media.frames import VideoFrame

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.engine import Engine


class VideoDisplay(Sink):
    """Passive display sink with timing statistics.

    Records per-frame arrival times against presentation timestamps and
    derives jitter, lateness and continuity metrics.  After "rendering" a
    shared frame it sends a ``frame-release`` control event back to the
    owning decoder (section 2.2's first example), and on window resize it
    broadcasts ``window-resize`` (the second example; the
    :class:`~repro.media.resize.Resizer` reacts).
    """

    input_spec = Typespec({props.ITEM_TYPE: "video-frame",
                           props.FORMAT: "raw"})

    def __init__(
        self,
        name: str | None = None,
        render_cost: float = 0.0005,
        input_spec: Typespec | None = None,
    ):
        super().__init__(name, input_spec)
        self.render_cost = render_cost
        self.frames: list[VideoFrame] = []
        self.arrivals: list[float] = []
        self._engine: "Engine | None" = None
        self.width = 640
        self.height = 480
        self.stats.update(displayed=0, releases_sent=0, bytes_in=0)

    def on_attach(self, engine: "Engine") -> None:
        self._engine = engine

    # -- data path ----------------------------------------------------------

    def push(self, frame: VideoFrame) -> None:
        self.stats["bytes_in"] += frame.size
        if self.render_cost:
            self.charge(self.render_cost)
        self.frames.append(frame)
        if self._engine is not None:
            self.arrivals.append(self._engine.now())
        self.stats["displayed"] += 1
        if frame.owner:
            # Tell the decoder its shared reference frame may be deleted.
            self.send_event(
                "frame-release",
                payload=frame.seq,
                scope=EventScope.DIRECT,
                target=frame.owner,
            )
            self.stats["releases_sent"] += 1

    # -- user interaction -----------------------------------------------------

    def resize_window(self, width: int, height: int) -> None:
        """Simulated user action: broadcast the new window size ("a video
        resizing component ... needs to be informed by the video display
        whenever the user changes the window size")."""
        self.width = width
        self.height = height
        self.send_event("window-resize", payload=(width, height))

    # -- metrics ----------------------------------------------------------------

    def continuity(self, total_frames: int) -> float:
        """Fraction of the stream that reached the display."""
        if total_frames <= 0:
            return 1.0
        return len(self.frames) / total_frames

    def interarrival_jitter(self) -> float:
        """Standard deviation of inter-arrival gaps, seconds."""
        if len(self.arrivals) < 3:
            return 0.0
        gaps = [b - a for a, b in zip(self.arrivals, self.arrivals[1:])]
        mean = sum(gaps) / len(gaps)
        variance = sum((g - mean) ** 2 for g in gaps) / len(gaps)
        return math.sqrt(variance)

    def lateness(self) -> list[float]:
        """Arrival time minus (pts + constant offset), per frame.

        The offset is chosen so the first frame is on time; positive values
        are late frames.
        """
        if not self.frames or not self.arrivals:
            return []
        offset = self.arrivals[0] - self.frames[0].pts
        return [
            arrival - (frame.pts + offset)
            for frame, arrival in zip(self.frames, self.arrivals)
        ]

    def late_fraction(self, tolerance: float = 0.010) -> float:
        lates = self.lateness()
        if not lates:
            return 0.0
        return sum(1 for l in lates if l > tolerance) / len(lates)
