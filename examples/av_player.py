#!/usr/bin/env python3
"""An audio/video player with feedback-driven A/V synchronization.

The Infopipe abstraction grew out of "a distributed real-time MPEG video
audio player" (the paper's refs [5, 32]), and section 3.1 describes the
pump class this example exercises: a pump whose "speed is adjusted by a
feedback mechanism to compensate for clock drift".

The audio device is the master clock (a clock-driven active sink, as the
paper prescribes for audio).  The video pump's crystal is deliberately
mis-trimmed to 28.5 Hz instead of 30 Hz — a 5% drift that would
desynchronize A/V by three seconds per minute.  A feedback loop measures
the playhead skew (video position vs audio position) and trims the video
pump's rate.

Pass ``--payloads`` to move real video payload bytes (decoded frames —
see ``docs/MEDIA.md``) instead of metadata-only items; the audio blocks
stay metadata-only.
"""

import sys

from repro import Buffer, Engine, FeedbackPump, GreedyPump, pipeline
from repro.core.composition import Pipeline
from repro.feedback import (
    CallbackSensor,
    FeedbackLoop,
    PidController,
    PumpRateActuator,
)
from repro.media import (
    AudioDevice,
    AudioSource,
    MpegDecoder,
    MpegFileSource,
    VideoDisplay,
)

SECONDS = 30
FPS = 30.0
AUDIO_HZ = 50.0  # 20 ms blocks


def build(with_sync: bool, payloads: bool = False):
    # Video path: file -> decoder -> buffer -> (drifting) pump -> display.
    video_source = MpegFileSource("movie.mpg", frames=int(SECONDS * FPS) + 60,
                                  payloads=payloads)
    decoder = MpegDecoder(share_references=False)
    feeder = GreedyPump()
    jitter_buffer = Buffer(capacity=8)
    video_pump = FeedbackPump(28.5, min_rate_hz=10, max_rate_hz=60,
                              name="video-pump")  # drifting crystal
    display = VideoDisplay()
    video = pipeline(video_source, decoder, feeder, jitter_buffer,
                     video_pump, display)

    # Audio path: its own clock, the sync master.
    audio_source = AudioSource(blocks=int(SECONDS * AUDIO_HZ) + 100,
                               block_duration=1.0 / AUDIO_HZ)
    audio_device = AudioDevice(rate_hz=AUDIO_HZ, priority=8)
    audio = pipeline(audio_source, audio_device)

    engine = Engine(Pipeline(video.components + audio.components))

    loop = None
    if with_sync:
        def playhead_skew() -> float:
            video_pos = display.stats["displayed"] / FPS
            audio_pos = len(audio_device.consumed) / AUDIO_HZ
            return video_pos - audio_pos

        controller = PidController(
            setpoint=0.0, kp=12.0, ki=4.0,
            output_min=10.0, output_max=60.0, bias=28.5,  # it must *discover* the drift
        )
        loop = FeedbackLoop(
            CallbackSensor(playhead_skew), controller,
            PumpRateActuator(video_pump), period=0.5,
        )
        loop.attach(engine)

    engine.start()
    engine.run(until=SECONDS)
    engine.stop()
    engine.run(max_steps=500_000)
    skew = display.stats["displayed"] / FPS \
        - len(audio_device.consumed) / AUDIO_HZ
    return skew, display, audio_device, loop


def main() -> None:
    payloads = "--payloads" in sys.argv[1:]
    mode = " (real video payloads)" if payloads else ""
    print(f"playing {SECONDS}s of A/V{mode}; video crystal drifts at "
          f"28.5 Hz instead of {FPS:.0f} Hz\n")
    for label, with_sync in (("free-running", False),
                             ("feedback-synced", True)):
        skew, display, audio, loop = build(with_sync, payloads=payloads)
        print(f"{label:16}: video={display.stats['displayed']} frames, "
              f"audio={len(audio.consumed)} blocks, "
              f"final A/V skew={skew * 1000:+.0f} ms")
        if loop is not None:
            print("  rate corrections (t, skew, commanded rate):")
            for t, skew_sample, rate in loop.history[::10]:
                print(f"    t={t:5.1f}s skew={skew_sample * 1000:+6.0f} ms "
                      f"rate={rate:5.2f} Hz")


if __name__ == "__main__":
    main()
