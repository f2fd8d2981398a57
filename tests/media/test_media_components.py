"""Unit tests for dropper, display, resizer, audio and media sources."""

import pytest

from repro import (
    Buffer,
    ClockedPump,
    CollectSink,
    Engine,
    GreedyPump,
    IterSource,
    api,
    pipeline,
)
from repro.core.events import EOS, Event, is_eos
from repro.media import (
    AudioDevice,
    AudioSource,
    CameraSource,
    GopStructure,
    MidiSource,
    MpegDecoder,
    MpegFileSource,
    PriorityDropFilter,
    Resizer,
    VideoDisplay,
)


def frames(n=9):
    return list(GopStructure().frames(n))


class TestPriorityDropFilter:
    def feed(self, drop, stream):
        out = []
        drop._emitters["out"] = out.append
        for frame in stream:
            drop.push(frame)
        return out

    def test_level_0_passes_everything(self):
        out = self.feed(PriorityDropFilter(0), frames(9))
        assert len(out) == 9

    def test_level_1_drops_b(self):
        drop = PriorityDropFilter(1)
        out = self.feed(drop, frames(9))
        assert {f.kind for f in out} == {"I", "P"}
        assert drop.stats["dropped_B"] == 6

    def test_level_2_drops_b_and_p(self):
        drop = PriorityDropFilter(2)
        out = self.feed(drop, frames(9))
        assert {f.kind for f in out} == {"I"}
        assert drop.stats["dropped_P"] == 2

    def test_level_3_keeps_only_i(self):
        out = self.feed(PriorityDropFilter(3), frames(9))
        assert {f.kind for f in out} == {"I"}

    def test_level_clamped(self):
        assert PriorityDropFilter(99).level == 3
        assert PriorityDropFilter(-5).level == 0

    def test_set_drop_level_event(self):
        drop = PriorityDropFilter(0)
        drop.handle_event(Event(kind="set-drop-level", payload=2))
        assert drop.level == 2
        assert len(drop.level_changes) == 1


class TestMpegFileSource:
    def test_same_filename_same_movie(self):
        a = [MpegFileSource("a.mpg", frames=5).pull() for _ in range(5)]
        b = [MpegFileSource("a.mpg", frames=5).pull() for _ in range(5)]
        assert [f.size for f in a] == [f.size for f in b]

    def test_different_filename_different_movie(self):
        a = [MpegFileSource("a.mpg", frames=5).pull() for _ in range(5)]
        c = [MpegFileSource("c.mpg", frames=5).pull() for _ in range(5)]
        assert [f.size for f in a] != [f.size for f in c]

    def test_eos_after_declared_frames(self):
        src = MpegFileSource(frames=2)
        src.pull()
        src.pull()
        assert is_eos(src.pull())

    def test_flow_spec_declares_video(self):
        spec = MpegFileSource().flow_spec
        assert spec["item_type"] == "video-frame"
        assert spec["format"] == "mpeg"


class TestCameraSource:
    def test_produces_frames_at_rate(self):
        cam = CameraSource(rate_hz=20)
        dec = MpegDecoder(share_references=False)
        sink = CollectSink()
        pipe = pipeline(cam, dec, sink)
        engine = Engine(pipe)
        engine.start()
        engine.run(until=1.0)
        engine.stop()
        engine.run()
        assert 18 <= len(sink.items) <= 22


class TestVideoDisplay:
    def test_collects_frames_and_arrivals(self):
        src = MpegFileSource(frames=30)
        dec = MpegDecoder(share_references=False)
        disp = VideoDisplay()
        pipe = pipeline(src, dec, ClockedPump(30), disp)
        api.Pipeline.from_pipeline(pipe).run()
        assert disp.stats["displayed"] == 30
        assert len(disp.arrivals) == 30
        assert disp.continuity(30) == 1.0

    def test_jitter_zero_for_perfectly_clocked_stream(self):
        src = MpegFileSource(frames=30)
        dec = MpegDecoder(share_references=False)
        disp = VideoDisplay(render_cost=0.0)
        pipe = pipeline(src, dec, ClockedPump(30), disp)
        api.Pipeline.from_pipeline(pipe).run()
        assert disp.interarrival_jitter() == pytest.approx(0.0, abs=1e-9)

    def test_lateness_offset_normalized(self):
        src = MpegFileSource(frames=10)
        dec = MpegDecoder(share_references=False)
        disp = VideoDisplay(render_cost=0.0)
        pipe = pipeline(src, dec, ClockedPump(30), disp)
        api.Pipeline.from_pipeline(pipe).run()
        lates = disp.lateness()
        assert lates[0] == pytest.approx(0.0)
        assert disp.late_fraction() == pytest.approx(0.0)

    def test_frame_release_events_flow_back_to_decoder(self):
        src = MpegFileSource(frames=30)
        dec = MpegDecoder(share_references=True)
        disp = VideoDisplay()
        pipe = pipeline(src, dec, ClockedPump(30), disp)
        api.Pipeline.from_pipeline(pipe).run()
        assert disp.stats["releases_sent"] > 0
        assert dec.stats["released"] == disp.stats["releases_sent"]
        assert dec.shared_frame_count == 0  # no leak at end of stream


class TestResizer:
    def test_noop_when_size_matches(self):
        rz = Resizer(640, 480)
        frame = frames(1)[0].decoded_copy()
        assert rz.convert(frame) is frame
        assert rz.stats["resized"] == 0

    def test_resizes_to_target(self):
        rz = Resizer(320, 240)
        out = rz.convert(frames(1)[0].decoded_copy())
        assert (out.width, out.height) == (320, 240)
        assert rz.stats["resized"] == 1

    def test_window_resize_event_changes_target_mid_stream(self):
        src = MpegFileSource(frames=60)
        dec = MpegDecoder(share_references=False)
        rz = Resizer(640, 480)
        disp = VideoDisplay()
        pipe = pipeline(src, dec, rz, ClockedPump(30), disp)
        engine = Engine(pipe)
        engine.start()
        engine.run(until=0.7)
        disp.resize_window(320, 240)
        engine.run()
        sizes = [(f.width, f.height) for f in disp.frames]
        switch_at = sizes.index((320, 240))
        assert switch_at > 0
        assert all(s == (640, 480) for s in sizes[:switch_at])
        assert all(s == (320, 240) for s in sizes[switch_at:])

    def test_typespec_stamps_dimensions(self):
        from repro.core.typespec import Typespec

        rz = Resizer(320, 240)
        out = rz.transform_typespec(Typespec())
        assert out["frame_width"] == 320


class TestAudio:
    def test_audio_device_plays_at_its_own_clock(self):
        src = AudioSource(blocks=50, block_duration=0.02)
        dev = AudioDevice(rate_hz=50)
        engine = api.Pipeline.from_pipeline(pipeline(src, dev)).run().engine
        assert len(dev.consumed) == 50
        assert engine.now() == pytest.approx(1.0, rel=0.05)
        assert dev.stats["underruns"] == 0

    def test_underrun_detection(self):
        # Device pulls at 50 Hz but a slow upstream pump starves it.
        src = AudioSource(blocks=10)
        slow_pump = ClockedPump(5)
        buf = Buffer(capacity=4)
        dev = AudioDevice(rate_hz=50)
        pipe = pipeline(src, slow_pump, buf, dev)
        api.Pipeline.from_pipeline(pipe).run()
        assert dev.stats["underruns"] > 0


class TestMidiSource:
    def test_generates_small_events(self):
        src = MidiSource(events=5, channel=2)
        events = [src.pull() for _ in range(5)]
        assert all(e.channel == 2 for e in events)
        assert [e.seq for e in events] == list(range(5))
        assert is_eos(src.pull())

    def test_deterministic_per_seed(self):
        a = [MidiSource(events=10, seed=1).pull().note for _ in range(1)]
        b = [MidiSource(events=10, seed=1).pull().note for _ in range(1)]
        assert a == b
