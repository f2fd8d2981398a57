"""Unit tests for the wire codec and marshalling filters."""

import pytest

from repro.core.typespec import Typespec, props
from repro.errors import MarshalError
from repro.net.marshal import (
    MarshalFilter,
    UnmarshalFilter,
    decode_item,
    encode_item,
    register_codec,
)


class TestPrimitiveCodec:
    CASES = [
        None,
        True,
        False,
        0,
        -1,
        2**40,
        -(2**40),
        3.14159,
        "",
        "hello",
        "ünïcødé ✓",
        b"",
        b"\x00\xff binary",
        (),
        (1, 2, 3),
        [1, "two", 3.0],
        {"a": 1, "b": [2, 3]},
        (1, ("nested", (2.5, b"x"))),
        {"outer": {"inner": (True, None)}},
    ]

    @pytest.mark.parametrize("value", CASES, ids=repr)
    def test_round_trip(self, value):
        assert decode_item(encode_item(value)) == value

    def test_tuple_list_distinction_preserved(self):
        assert decode_item(encode_item((1, 2))) == (1, 2)
        assert isinstance(decode_item(encode_item([1, 2])), list)
        assert isinstance(decode_item(encode_item((1, 2))), tuple)

    def test_unregistered_type_rejected(self):
        class Mystery:
            pass

        with pytest.raises(MarshalError):
            encode_item(Mystery())

    def test_truncated_data_rejected(self):
        data = encode_item("hello world")
        with pytest.raises(MarshalError):
            decode_item(data[:-3])

    def test_trailing_garbage_rejected(self):
        with pytest.raises(MarshalError):
            decode_item(encode_item(1) + b"\x00")

    def test_unknown_tag_rejected(self):
        with pytest.raises(MarshalError):
            decode_item(b"\xfe")


class TestCustomCodec:
    def test_register_and_round_trip(self):
        class Point:
            def __init__(self, x, y):
                self.x, self.y = x, y

            def __eq__(self, other):
                return (self.x, self.y) == (other.x, other.y)

        register_codec(
            Point, "test-point",
            lambda p: {"x": p.x, "y": p.y},
            lambda d: Point(d["x"], d["y"]),
        )
        assert decode_item(encode_item(Point(1, 2))) == Point(1, 2)

    def test_video_frame_codec_registered(self):
        from repro.media.frames import VideoFrame

        frame = VideoFrame(seq=3, kind="P", pts=0.1, size=5000, deps=(0,))
        decoded = decode_item(encode_item(frame))
        assert decoded == VideoFrame(seq=3, kind="P", pts=0.1, size=5000,
                                     deps=(0,))

    def test_audio_sample_codec_registered(self):
        from repro.media.frames import AudioSample, synth_payload

        for payload in (None, synth_payload(7, 64)):
            sample = AudioSample(seq=7, pts=0.35, duration=0.05, size=64,
                                 payload=payload)
            assert decode_item(encode_item(sample)) == sample

    def test_video_frame_wire_size_tracks_nominal_size(self):
        from repro.media.frames import VideoFrame

        frame = VideoFrame(seq=0, kind="I", pts=0.0, size=12_000)
        wire = encode_item(frame)
        assert 11_000 <= len(wire) <= 13_000


class TestMarshalFilters:
    def test_filters_invert_each_other(self):
        m, u = MarshalFilter(), UnmarshalFilter()
        data = m.convert({"key": (1, 2)})
        assert isinstance(data, bytes)
        assert u.convert(data) == {"key": (1, 2)}

    def test_marshal_typespec_carries_item_flow(self):
        m = MarshalFilter()
        spec = Typespec(item_type="video-frame", format="mpeg")
        wire_spec = m.transform_typespec(spec)
        assert wire_spec[props.FORMAT] == "bytes"
        assert wire_spec["carried"] == spec

    def test_unmarshal_restores_carried_flow_with_netpipe_qos(self):
        m, u = MarshalFilter(), UnmarshalFilter()
        spec = Typespec(item_type="video-frame", format="mpeg")
        wire_spec = m.transform_typespec(spec).with_props(
            **{props.LOCATION: "node-b", props.LOSS_RATE: 0.1}
        )
        restored = u.transform_typespec(wire_spec)
        assert restored["item_type"] == "video-frame"
        assert restored[props.FORMAT] == "mpeg"
        assert restored[props.LOCATION] == "node-b"
        assert restored[props.LOSS_RATE] == 0.1

    def test_marshal_cost_charged(self):
        m = MarshalFilter(cost_per_kb=0.001)
        m.convert(b"x" * 2048)
        assert m.drain_cost() == pytest.approx(0.002, rel=0.1)
