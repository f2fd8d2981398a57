"""Unit tests for the synthetic MPEG codec."""

import pytest

from repro import CollectSink, GreedyPump, IterSource, api, pipeline
from repro.core.events import Event
from repro.media.codec import MpegDecoder, MpegEncoder
from repro.media.frames import VideoFrame
from repro.media.gop import GopStructure


def frames(n=9, pattern="IBBPBBPBB"):
    return list(GopStructure(pattern=pattern).frames(n))


class TestDecoderBasics:
    def test_decodes_clean_stream_completely(self):
        dec, sink = MpegDecoder(share_references=False), CollectSink()
        pipe = pipeline(IterSource(frames(18)), GreedyPump(), dec, sink)
        api.Pipeline.from_pipeline(pipe).run()
        assert len(sink.items) == 18
        assert all(not f.encoded for f in sink.items)
        assert dec.stats["decoded"] == 18
        assert dec.stats["skipped_undecodable"] == 0

    def test_rejects_raw_frames(self):
        dec = MpegDecoder()
        raw = frames(1)[0].decoded_copy()
        with pytest.raises(TypeError):
            dec.push(raw)

    def test_decode_cost_charged_proportionally(self):
        dec = MpegDecoder(cost_per_mb=1.0, share_references=False)
        dec._emitters["out"] = lambda item: None
        dec.push(frames(1)[0])
        raw_bytes = int(640 * 480 * 1.5)
        assert dec.drain_cost() == pytest.approx(raw_bytes / 1e6)


class TestLossSensitivity:
    def test_missing_reference_skips_dependents(self):
        stream = frames(9)  # I B B P B B P B B
        missing_i = stream[1:]  # drop the I frame
        dec, sink = MpegDecoder(share_references=False), CollectSink()
        pipe = pipeline(IterSource(missing_i), GreedyPump(), dec, sink)
        api.Pipeline.from_pipeline(pipe).run()
        # everything in the GOP depended (transitively) on the lost I
        assert sink.items == []
        assert dec.stats["skipped_undecodable"] == 8

    def test_next_i_frame_resynchronizes(self):
        stream = frames(18)  # two GOPs
        broken = stream[1:]  # first I lost; second GOP intact
        dec, sink = MpegDecoder(share_references=False), CollectSink()
        pipe = pipeline(IterSource(broken), GreedyPump(), dec, sink)
        api.Pipeline.from_pipeline(pipe).run()
        assert [f.seq for f in sink.items] == list(range(9, 18))

    def test_b_loss_harms_nothing_else(self):
        stream = frames(9)
        without_b = [f for f in stream if f.kind != "B"]
        dec, sink = MpegDecoder(share_references=False), CollectSink()
        pipe = pipeline(IterSource(without_b), GreedyPump(), dec, sink)
        api.Pipeline.from_pipeline(pipe).run()
        assert len(sink.items) == len(without_b)
        assert dec.stats["skipped_undecodable"] == 0


class TestReferenceSharing:
    """Section 2.2: shared decoded frames freed via frame-release events."""

    def test_references_retained_until_released(self):
        dec = MpegDecoder(share_references=True)
        dec._emitters["out"] = lambda item: None
        for frame in frames(9):
            dec.push(frame)
        # I and P frames are retained (1 I + 2 P in this pattern)
        assert dec.shared_frame_count == 3

    def test_release_event_frees_frame(self):
        dec = MpegDecoder(share_references=True)
        out = []
        dec._emitters["out"] = out.append
        dec.push(frames(1)[0])
        seq = out[0].seq
        assert dec.shared_frame_count == 1
        dec.handle_event(Event(kind="frame-release", payload=seq))
        assert dec.shared_frame_count == 0
        assert dec.stats["released"] == 1

    def test_release_of_unknown_seq_ignored(self):
        dec = MpegDecoder(share_references=True)
        dec.handle_event(Event(kind="frame-release", payload=999))
        assert dec.stats["released"] == 0

    def test_decoded_frames_carry_owner_tag(self):
        dec = MpegDecoder(share_references=True, name="the-decoder")
        out = []
        dec._emitters["out"] = out.append
        dec.push(frames(1)[0])
        assert out[0].owner == "the-decoder"

    def test_no_sharing_mode_keeps_nothing(self):
        dec = MpegDecoder(share_references=False)
        dec._emitters["out"] = lambda item: None
        for frame in frames(9):
            dec.push(frame)
        assert dec.shared_frame_count == 0


class TestEncoder:
    def test_round_trip_with_decoder(self):
        gop = GopStructure()
        raw = [f.decoded_copy() for f in gop.frames(9)]
        enc, dec = MpegEncoder(), MpegDecoder(share_references=False)
        sink = CollectSink()
        pipe = pipeline(IterSource(raw), GreedyPump(), enc, dec, sink)
        api.Pipeline.from_pipeline(pipe).run()
        assert len(sink.items) == 9
        assert [f.seq for f in sink.items] == list(range(9))

    def test_compression_shrinks_frames(self):
        enc = MpegEncoder(compression=10.0)
        out = []
        enc._emitters["out"] = out.append
        raw = frames(1)[0].decoded_copy()
        enc.push(raw)
        assert out[0].encoded
        assert out[0].size == pytest.approx(raw.size / 10, rel=0.01)

    def test_rejects_encoded_input(self):
        with pytest.raises(TypeError):
            MpegEncoder().push(frames(1)[0])
