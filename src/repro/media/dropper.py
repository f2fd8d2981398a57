"""The feedback-controlled priority dropping filter (Figure 1).

"The filter drops when the network is congested.  The dropping is
controlled by a feedback mechanism using a sensor on the consumer side.
This lets us control which data is dropped rather than incurring arbitrary
dropping in the network."

Drop levels:

===== ==========================================
level behaviour
===== ==========================================
0     pass everything
1     drop B frames
2     drop B and P frames
3     drop everything except I frames (same as 2
      for the standard GOP, but also drops any
      non-I kinds an exotic flow may carry)
===== ==========================================
"""

from __future__ import annotations

from repro.core.styles import Consumer
from repro.core.typespec import Typespec, props
from repro.media.frames import VideoFrame

_DROPPED_KINDS = {0: set(), 1: {"B"}, 2: {"B", "P"}}


class PriorityDropFilter(Consumer):
    """Drops low-priority frame kinds according to its drop level."""

    input_spec = Typespec({props.ITEM_TYPE: "video-frame"})
    events_handled = frozenset({"set-drop-level"})
    # Drops are exactly counted in dropped_* stats (conservation stays an
    # exact check — no ``declares_drops`` blanket waiver); the reason is
    # declared so refinement failures and lossy-channel reports name it.
    loss_reason = "sheds B/P frames per its commanded drop level"

    def __init__(self, level: int = 0, name: str | None = None):
        super().__init__(name)
        self._level = 0
        self.level = level
        self.stats.update(dropped_B=0, dropped_P=0, dropped_other=0,
                          bytes_in=0, bytes_out=0)
        #: (level, at-item-count) history of level changes.
        self.level_changes: list[tuple[int, int]] = []

    @property
    def level(self) -> int:
        return self._level

    @level.setter
    def level(self, value: int) -> None:
        self._level = max(0, min(3, int(value)))

    def on_set_drop_level(self, event) -> None:
        self.level = event.payload
        self.level_changes.append((self._level, self.stats["items_in"]))

    def push(self, frame: VideoFrame) -> None:
        self.stats["bytes_in"] += frame.size
        if self._should_drop(frame):
            key = f"dropped_{frame.kind}" if frame.kind in ("B", "P") \
                else "dropped_other"
            self.stats[key] = self.stats.get(key, 0) + 1
            return
        self.stats["bytes_out"] += frame.size
        self.put(frame)

    def _should_drop(self, frame: VideoFrame) -> bool:
        if self._level >= 3:
            return frame.kind != "I"
        return frame.kind in _DROPPED_KINDS[self._level]

    def _drops_kind(self, kind: str) -> bool:
        if self._level >= 3:
            return kind != "I"
        return kind in _DROPPED_KINDS[self._level]

    def process_run(self, run) -> "object | None":
        """Vectorized entry for columnar runs: one kind-column scan, a
        zero-copy :meth:`~repro.media.batch.FrameBatch.select` of the
        kept frames, and the same stats the per-item path counts."""
        kinds = getattr(run, "kind", None)
        if not isinstance(kinds, str):
            return None
        stats = self.stats
        count = len(run)
        stats["items_in"] += count
        stats["bytes_in"] += run.nominal_bytes
        if self._level == 0:
            stats["items_out"] += count
            stats["bytes_out"] += run.nominal_bytes
            return run
        drops_kind = self._drops_kind
        dropped = {kind for kind in set(kinds) if drops_kind(kind)}
        if not dropped:
            stats["items_out"] += count
            stats["bytes_out"] += run.nominal_bytes
            return run
        keep = [i for i, kind in enumerate(kinds) if kind not in dropped]
        for kind in dropped:
            key = f"dropped_{kind}" if kind in ("B", "P") \
                else "dropped_other"
            stats[key] = stats.get(key, 0) + kinds.count(kind)
        kept = run.select(keep)
        stats["items_out"] += len(keep)
        stats["bytes_out"] += kept.nominal_bytes
        return kept
