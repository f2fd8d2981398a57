"""Audio endpoints.

"Audio devices that have their own timing control can be implemented as a
clock-driven active sink" (section 3.1) — the :class:`AudioDevice` is
exactly that, and is the natural high-priority activity origin used in the
preemption experiments (audio must not be delayed by video decoding).
"""

from __future__ import annotations

from repro.components.sinks import ActiveSink
from repro.components.sources import Source
from repro.core.events import EOS
from repro.core.typespec import Typespec, props
from repro.media.frames import AudioSample


class AudioSource(Source):
    """Passive source of audio sample blocks."""

    flow_spec = Typespec({props.ITEM_TYPE: "audio-sample"})

    def __init__(
        self,
        blocks: int = 1000,
        block_duration: float = 0.020,
        name: str | None = None,
        block_size: int = 1024,
    ):
        super().__init__(name)
        self._total = blocks
        self.block_duration = block_duration
        self._next = 0
        self.block_size = block_size
        self.stats.update(bytes_out=0)

    def pull(self):
        if self._next >= self._total:
            return EOS
        sample = AudioSample(
            seq=self._next,
            pts=self._next * self.block_duration,
            duration=self.block_duration,
            size=self.block_size,
        )
        self.stats["bytes_out"] += sample.size
        self._next += 1
        return sample


class AudioDevice(ActiveSink):
    """Clock-driven active sink: its own timer pulls one block per period.

    Tracks playout gaps: if the gap between consecutive consumed blocks
    exceeds the block duration by more than half a period, an underrun is
    counted.
    """

    input_spec = Typespec({props.ITEM_TYPE: "audio-sample"})

    def __init__(
        self,
        rate_hz: float = 50.0,  # 20 ms blocks
        name: str | None = None,
        priority: int = 8,
        max_items: int | None = None,
        play_cost: float = 0.0002,
    ):
        super().__init__(rate_hz, name, priority, max_items)
        self.play_cost = play_cost
        self.consumed: list[AudioSample] = []
        self.play_times: list[float] = []
        self._engine = None
        self.stats.update(underruns=0, bytes_in=0)

    def on_attach(self, engine) -> None:
        self._engine = engine

    def consume(self, sample: AudioSample) -> None:
        self.stats["bytes_in"] += sample.size
        if self.play_cost:
            self.charge(self.play_cost)
        now = self._engine.now() if self._engine is not None else 0.0
        if self.play_times:
            gap = now - self.play_times[-1]
            period = 1.0 / self.rate_hz if self.rate_hz else 0.0
            if period and gap > period * 1.5:
                self.stats["underruns"] += 1
        self.consumed.append(sample)
        self.play_times.append(now)
