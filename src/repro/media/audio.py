"""Audio endpoints.

"Audio devices that have their own timing control can be implemented as a
clock-driven active sink" (section 3.1) — the :class:`AudioDevice` is
exactly that, and is the natural high-priority activity origin used in the
preemption experiments (audio must not be delayed by video decoding).
"""

from __future__ import annotations

from itertools import accumulate

from repro.components.sinks import ActiveSink
from repro.components.sources import Source
from repro.core.events import EOS
from repro.core.styles import FunctionComponent
from repro.core.typespec import Typespec, props
from repro.media import arrays
from repro.media.batch import SampleBatch, build_payload_region
from repro.media.frames import AudioSample, synth_payload


class AudioSource(Source):
    """Passive source of audio sample blocks."""

    flow_spec = Typespec({props.ITEM_TYPE: "audio-sample"})

    def __init__(
        self,
        blocks: int = 1000,
        block_duration: float = 0.020,
        name: str | None = None,
        payloads: bool = False,
        block_size: int = 1024,
    ):
        super().__init__(name)
        self._total = blocks
        self.block_duration = block_duration
        self._next = 0
        #: Attach synthetic int16 sample bytes to every block.
        self.payloads = payloads
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
        if self.payloads:
            sample.payload = synth_payload(sample.seq, sample.size)
        self.stats["bytes_out"] += sample.size
        self._next += 1
        return sample

    def pull_many(self, n: int):
        """Batch pull entry (columnar fast path): up to ``n`` blocks as
        ONE SampleBatch; ``[EOS]`` once exhausted.  The block stream is
        identical to per-item :meth:`pull` calls."""
        remaining = self._total - self._next
        if remaining <= 0:
            return [EOS]
        count = n if n < remaining else remaining
        start = self._next
        seqs = list(range(start, start + count))
        size = self.block_size
        sizes = [size] * count
        region = offsets = None
        if self.payloads:
            region, offsets = build_payload_region(seqs, sizes)
        duration = self.block_duration
        batch = SampleBatch(
            seq=arrays.i64(seqs),
            pts=arrays.f64([seq * duration for seq in seqs]),
            duration=arrays.f64([duration] * count),
            size=arrays.i64(sizes),
            region=region,
            offsets=offsets,
        )
        self._next += count
        self.stats["bytes_out"] += batch.nominal_bytes
        return batch


class AudioMixer(FunctionComponent):
    """Applies a rational gain to int16 sample payloads.

    The gain is the exact fraction ``gain_num / gain_den`` applied with
    integer floor division and clamped to the int16 range, so the numpy
    and pure-Python mixing paths produce identical bytes (no float
    rounding).  Metadata-only blocks pass through untouched.  A trailing
    odd byte (payloads are not required to be sample-aligned) is copied
    verbatim.
    """

    input_spec = Typespec({props.ITEM_TYPE: "audio-sample"})
    events_handled = frozenset({"set-gain"})

    def __init__(
        self,
        gain_num: int = 1,
        gain_den: int = 1,
        cost_per_block: float = 0.0001,
        name: str | None = None,
    ):
        super().__init__(name)
        if gain_den <= 0:
            raise ValueError("gain_den must be positive")
        self.gain_num = int(gain_num)
        self.gain_den = int(gain_den)
        self.cost_per_block = cost_per_block
        self.stats.update(mixed=0, bytes_in=0, bytes_out=0)

    def on_set_gain(self, event) -> None:
        num, den = event.payload
        if den <= 0:
            raise ValueError("gain_den must be positive")
        self.gain_num, self.gain_den = int(num), int(den)

    def _mix_into(self, src: memoryview, dst: memoryview) -> None:
        """Write ``src`` scaled by the gain into ``dst`` (same length)."""
        num, den = self.gain_num, self.gain_den
        n = src.nbytes
        usable = n - (n % 2)
        np = arrays.np
        if np is not None and usable:
            samples = np.frombuffer(src[:usable], dtype=np.int16)
            scaled = (samples.astype(np.int64) * num) // den
            np.clip(scaled, -32768, 32767, out=scaled)
            dst[:usable] = scaled.astype(np.int16).tobytes()
        elif usable:
            s = src[:usable].cast("h")
            d = dst[:usable].cast("h")
            for i in range(len(s)):
                v = (s[i] * num) // den
                if v > 32767:
                    v = 32767
                elif v < -32768:
                    v = -32768
                d[i] = v
        if usable != n:
            dst[usable:] = src[usable:]

    def convert(self, sample: AudioSample) -> AudioSample:
        stats = self.stats
        stats["bytes_in"] += sample.size
        payload = sample.payload
        if payload is None:
            stats["bytes_out"] += sample.size
            return sample
        src = (
            payload
            if isinstance(payload, memoryview)
            else memoryview(payload)
        )
        out = bytearray(src.nbytes)
        self._mix_into(src, memoryview(out))
        if self.cost_per_block:
            self.charge(self.cost_per_block)
        stats["mixed"] += 1
        stats["bytes_out"] += sample.size
        return AudioSample(
            seq=sample.seq,
            pts=sample.pts,
            duration=sample.duration,
            size=sample.size,
            payload=bytes(out),
        )

    def convert_many(self, items):
        """Vectorized path: mix a whole columnar run into one fresh
        payload region (the gain math is applied per block over numpy
        arrays when available)."""
        if not isinstance(items, SampleBatch):
            return super().convert_many(items)
        count = len(items)
        stats = self.stats
        if not items.has_payload:
            stats["bytes_in"] += items.nominal_bytes
            stats["bytes_out"] += items.nominal_bytes
            return items
        sizes = arrays.tolist(items.size)
        payloads = items.payload_views()
        if any(
            p is None or p.nbytes != size
            for p, size in zip(payloads, sizes, strict=True)
        ):
            return super().convert_many(items)  # per-item exact fallback
        stats["bytes_in"] += items.nominal_bytes
        offsets = list(accumulate(sizes, initial=0))
        region = arrays.payload_region(offsets.pop())
        mv = arrays.region_view(region)
        cost = self.cost_per_block
        for payload, offset, size in zip(
            payloads, offsets, sizes, strict=True
        ):
            self._mix_into(payload, mv[offset : offset + size])
            if cost:
                self.charge(cost)
        stats["mixed"] += count
        out = SampleBatch(
            seq=items.seq,
            pts=items.pts,
            duration=items.duration,
            size=items.size,
            region=region,
            offsets=arrays.i64(offsets),
        )
        stats["bytes_out"] += out.nominal_bytes
        return out


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
