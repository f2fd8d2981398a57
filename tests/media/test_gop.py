"""Unit tests for the GOP structure."""

import pytest

from repro.media.gop import GopStructure
from repro.media.frames import VideoFrame


class TestGopValidation:
    def test_pattern_must_start_with_i(self):
        with pytest.raises(ValueError):
            GopStructure(pattern="BBI")

    def test_pattern_letters_restricted(self):
        with pytest.raises(ValueError):
            GopStructure(pattern="IXP")

    def test_fps_positive(self):
        with pytest.raises(ValueError):
            GopStructure(fps=0)


class TestFrameGeneration:
    def test_kinds_follow_pattern(self):
        gop = GopStructure(pattern="IBBP")
        kinds = [gop.frame(i).kind for i in range(8)]
        assert kinds == ["I", "B", "B", "P", "I", "B", "B", "P"]

    def test_pts_spacing_matches_fps(self):
        gop = GopStructure(fps=25)
        frames = list(gop.frames(5))
        for i, frame in enumerate(frames):
            assert frame.pts == pytest.approx(i / 25)

    def test_sizes_ordered_i_greater_p_greater_b(self):
        gop = GopStructure(size_variation=0.0)
        frames = list(gop.frames(9))
        by_kind = {f.kind: f.size for f in frames}
        assert by_kind["I"] > by_kind["P"] > by_kind["B"]

    def test_size_variation_is_deterministic_per_seed(self):
        a = [f.size for f in GopStructure(seed=5).frames(20)]
        b = [f.size for f in GopStructure(seed=5).frames(20)]
        c = [f.size for f in GopStructure(seed=6).frames(20)]
        assert a == b
        assert a != c

    def test_dimension_scaling(self):
        small = GopStructure(width=320, height=240, size_variation=0.0)
        large = GopStructure(width=640, height=480, size_variation=0.0)
        assert large.frame(0).size == pytest.approx(small.frame(0).size * 4,
                                                    rel=0.01)


class TestDependencies:
    def test_i_frames_self_contained(self):
        gop = GopStructure()
        assert gop.frame(0).deps == ()

    def test_p_and_b_depend_on_previous_reference(self):
        gop = GopStructure(pattern="IBBPBB")
        frames = list(gop.frames(6))
        assert frames[1].deps == (0,)  # B after I
        assert frames[2].deps == (0,)
        assert frames[3].deps == (0,)  # P references the I
        assert frames[4].deps == (3,)  # B after the P references the P
        assert frames[5].deps == (3,)

    def test_gop_ids(self):
        gop = GopStructure(pattern="IBB")
        frames = list(gop.frames(7))
        assert [f.gop_id for f in frames] == [0, 0, 0, 1, 1, 1, 2]


class TestRates:
    def test_average_size_and_bitrate(self):
        gop = GopStructure(pattern="IPB", fps=10, size_variation=0.0)
        # DEFAULT_SIZES: I 12 000, P 5 000, B 2 000 bytes at 640x480.
        assert gop.average_frame_size() == pytest.approx(19_000 / 3)
        assert gop.bitrate() == pytest.approx(19_000 / 3 * 8 * 10)


class TestVideoFrame:
    def test_decoded_copy_is_raw_yuv_size(self):
        frame = VideoFrame(seq=0, kind="I", pts=0.0, size=10_000,
                           width=640, height=480)
        decoded = frame.decoded_copy(owner="dec")
        assert not decoded.encoded
        assert decoded.size == int(640 * 480 * 1.5)
        assert decoded.owner == "dec"

    def test_resized_scales_size(self):
        frame = VideoFrame(seq=0, kind="I", pts=0.0, size=1000,
                           width=640, height=480, encoded=False)
        half = frame.resized(320, 240)
        assert half.width == 320
        assert half.size == pytest.approx(250, rel=0.05)
