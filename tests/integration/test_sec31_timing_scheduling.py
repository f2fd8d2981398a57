"""Section 3.1: timing control and scheduling through pump choice.

"The programmer does not need to deal with these low-level details but can
choose timing and scheduling policies by choosing pumps and by setting
appropriate parameters."  Plus section 3.2's preemption requirement: long
video decodes must not delay the time-critical audio device.
"""

import pytest

from repro import (
    Buffer,
    ClockedPump,
    CollectSink,
    CostFilter,
    Engine,
    FeedbackPump,
    GreedyPump,
    IterSource,
    api,
    pipeline,
)
from repro.components.sources import CountingSource
from repro.media import (
    AudioDevice,
    AudioSource,
    MpegDecoder,
    MpegFileSource,
    VideoDisplay,
)


class TestPumpClasses:
    def test_clock_driven_pump_constant_rate(self):
        """First pump class: 'Clock driven pumps typically operate at a
        constant rate and are often used with passive sinks and sources.'"""
        sink = CollectSink()
        engine = api.Pipeline.from_pipeline(
            pipeline(CountingSource(), ClockedPump(25), sink)
        ).run(until=4.0).engine
        assert len(sink.items) == pytest.approx(100, abs=2)

    def test_self_adjusting_pump_relies_on_buffer_blocking(self):
        """Second class, simplest version: 'does not limit its rate at all
        and relies on buffers to block the thread when a buffer is full or
        empty' — the greedy pump ends up pacing itself to the consumer."""
        buf = Buffer(capacity=4)
        sink = CollectSink()
        pipe = pipeline(
            CountingSource(limit=40), GreedyPump(), buf, ClockedPump(20),
            sink,
        )
        engine = api.Pipeline.from_pipeline(pipe).run().engine
        assert sink.items == list(range(40))
        assert buf.stats["drops"] == 0
        # The greedy pump was paced to ~20 items/s by backpressure alone.
        assert engine.now() == pytest.approx(2.0, rel=0.1)

    def test_feedback_adjusted_pump(self):
        """Producer-node pump 'adjusted by a feedback mechanism to
        compensate for clock drift' — here simply adjusted at run time."""
        pump = FeedbackPump(10)
        sink = CollectSink()
        pipe = pipeline(CountingSource(), pump, sink)
        engine = Engine(pipe)
        engine.start()
        engine.run(until=1.0)
        pump.set_rate(40)  # drift compensation kicks in
        engine.run(until=2.0)
        engine.stop()
        engine.run()
        assert 45 <= len(sink.items) <= 55  # ~10 + ~40


class TestSchedulingTransparency:
    def test_audio_not_delayed_by_video_decode(self):
        """'running data processing functions such as video decoders
        non-preemptively can introduce unacceptable delay in more
        time-critical components such as writing samples to the audio
        device' — with preemptive Work and pump priorities, the audio
        device keeps its cadence despite an expensive decoder."""
        # Video pipeline with a heavyweight decode (20 ms per frame).
        video = pipeline(
            MpegFileSource(frames=60),
            CostFilter(0.020),
            ClockedPump(30, priority=1),
            CollectSink(),
        )
        # Audio pipeline at 50 Hz with higher priority.
        audio_dev = AudioDevice(rate_hz=50, priority=9)
        audio = pipeline(AudioSource(blocks=100), audio_dev)

        from repro.core.composition import Pipeline

        combined = Pipeline(video.components + audio.components)
        engine = Engine(combined)
        engine.start()
        engine.run()
        assert len(audio_dev.consumed) == 100
        assert audio_dev.stats["underruns"] == 0
        # audio cadence is clean: inter-play gaps stay near 20 ms
        gaps = [b - a for a, b in zip(audio_dev.play_times,
                                      audio_dev.play_times[1:])]
        assert max(gaps) < 0.025

    def test_low_priority_audio_suffers_without_transparency(self):
        """Control experiment: with the priorities reversed, the same load
        does delay the audio device — the scheduling choice matters."""
        video = pipeline(
            MpegFileSource(frames=60),
            CostFilter(0.020),
            ClockedPump(30, priority=9),
            CollectSink(),
        )
        audio_dev = AudioDevice(rate_hz=50, priority=1)
        audio = pipeline(AudioSource(blocks=100), audio_dev)

        from repro.core.composition import Pipeline

        combined = Pipeline(video.components + audio.components)
        engine = Engine(combined)
        engine.start()
        engine.run()
        gaps = [b - a for a, b in zip(audio_dev.play_times,
                                      audio_dev.play_times[1:])]
        assert max(gaps) > 0.025  # visible disturbance

    def test_reservation_rejected_when_overcommitted(self):
        from repro.errors import SchedulerError

        video = pipeline(
            MpegFileSource(frames=1),
            ClockedPump(30, reservation=0.7),
            MpegDecoder(share_references=False),
            VideoDisplay(),
        )
        audio = pipeline(
            AudioSource(blocks=1), AudioDevice(rate_hz=50)
        )
        audio.components[-1].reservation = 0.5

        from repro.core.composition import Pipeline

        combined = Pipeline(video.components + audio.components)
        engine = Engine(combined)
        with pytest.raises(SchedulerError, match="reservation"):
            engine.setup()
