"""Columnar media batches: construction, selection, payloads, wire.

Every test runs under both array backends (numpy and the pure stdlib
fallback) via the ``backend`` fixture; batches built under one backend
must stay readable under the other (the helpers dispatch on the actual
column types).
"""

import pytest

from repro import CollectSink, Engine, FunctionComponent, GreedyPump, pipeline
from repro.errors import MarshalError
from repro.media import (
    FrameBatch,
    GopStructure,
    MpegFileSource,
    VideoFrame,
    synth_payload,
)
from repro.media import arrays
from repro.media.batch import _decode_frame_run, build_payload_region
from repro.net.marshal import decode_batch_views, encode_run


@pytest.fixture(params=["numpy", "pure"])
def backend(request, monkeypatch):
    if request.param == "numpy":
        if arrays._numpy is None:
            pytest.skip("numpy not installed")
        monkeypatch.setattr(arrays, "np", arrays._numpy)
    else:
        monkeypatch.setattr(arrays, "np", None)
    return request.param


def make_frames(count=10, payloads=True):
    gop = GopStructure(seed=42)
    frames = [gop.frame(i) for i in range(count)]
    if payloads:
        for frame in frames:
            frame.payload = synth_payload(frame.seq, frame.size)
    return frames


class TestFrameBatch:
    def test_gop_frame_batch_matches_per_item(self, backend):
        batch = GopStructure(seed=42).frame_batch(0, 10, payloads=True)
        for got, want in zip(batch.to_frames(), make_frames(10)):
            assert (got.seq, got.kind, got.pts, got.size) == (
                want.seq, want.kind, want.pts, want.size
            )
            assert (got.width, got.height, got.gop_id) == (
                want.width, want.height, want.gop_id
            )
            assert got.encoded and got.deps == want.deps
            assert bytes(got.payload) == want.payload

    def test_frame_batch_resumes_reference_tracking(self, backend):
        gop_a, gop_b = GopStructure(seed=7), GopStructure(seed=7)
        first = gop_a.frame_batch(0, 5)
        second = gop_a.frame_batch(5, 7)
        reference = [gop_b.frame(i) for i in range(12)]
        got = first.to_frames() + second.to_frames()
        assert [f.deps for f in got] == [f.deps for f in reference]
        assert [f.size for f in got] == [f.size for f in reference]

    def test_from_frames_borrows_payload_views(self, backend):
        frames = make_frames(4)
        batch = FrameBatch.from_frames(frames)
        assert batch.has_payload
        # Borrowed, not copied: the view aliases the frame's own payload.
        assert batch.payload_view(2).obj is frames[2].payload
        assert batch.to_frames()[2].seq == frames[2].seq

    def test_select_shares_payload_region(self, backend):
        batch = GopStructure(seed=1).frame_batch(0, 9, payloads=True)
        sub = batch.select([0, 4, 7])
        assert sub.region is batch.region  # zero copy
        assert len(sub) == 3
        assert bytes(sub.payload_view(1)) == bytes(batch.payload_view(4))
        assert sub.kind == batch.kind[0] + batch.kind[4] + batch.kind[7]

    def test_slice_and_negative_index(self, backend):
        batch = GopStructure(seed=1).frame_batch(0, 9, payloads=True)
        sub = batch[2:5]
        assert isinstance(sub, FrameBatch) and len(sub) == 3
        assert int(sub.seq[0]) == 2
        assert batch[-1].seq == 8
        with pytest.raises(IndexError):
            batch[9]

    def test_iteration_materializes_frames(self, backend):
        batch = GopStructure(seed=1).frame_batch(0, 6)
        seqs = [frame.seq for frame in batch]
        assert seqs == list(range(6))
        assert all(isinstance(f, VideoFrame) for f in batch)
        assert not batch.has_payload and batch[0].payload is None

    def test_metadata_only_probe_is_not_eos(self, backend):
        from repro.core.events import EOS

        batch = GopStructure(seed=1).frame_batch(0, 3)
        assert batch[-1] is not EOS  # batch walkers probe run[-1]

    def test_nominal_and_payload_bytes(self, backend):
        batch = GopStructure(seed=1).frame_batch(0, 6, payloads=True)
        total = sum(int(batch.size[i]) for i in range(6))
        assert batch.nominal_bytes == total
        assert batch.payload_nbytes == total

    def test_build_payload_region_matches_synth(self, backend):
        region, offsets = build_payload_region([3, 9], [16, 10])
        view = arrays.region_view(region)
        assert bytes(view[0:16]) == synth_payload(3, 16)
        assert bytes(view[16:26]) == synth_payload(9, 10)


class TestFrameWire:
    def test_wire_roundtrip_with_payloads(self, backend):
        batch = GopStructure(seed=3).frame_batch(0, 8, payloads=True)
        run = encode_run(batch)
        chunks = decode_batch_views(bytes(run.frame_payload()))
        decoded = _decode_frame_run(chunks)
        for got, want in zip(decoded.to_frames(), batch.to_frames()):
            assert (got.seq, got.kind, got.size, got.deps) == (
                want.seq, want.kind, want.size, want.deps
            )
            assert bytes(got.payload) == bytes(want.payload)

    def test_metadata_only_pads_to_nominal_size(self, backend):
        # Bandwidth parity with the per-item TLV format: a metadata-only
        # chunk occupies the frame's nominal size on the wire.
        batch = GopStructure(seed=3).frame_batch(0, 8)
        run = encode_run(batch)
        decoded = _decode_frame_run([run.chunk(i) for i in range(8)])
        assert not decoded.has_payload
        for i in range(8):
            from repro.media.batch import _VF_HEAD

            floor = _VF_HEAD.size + 8 * len(batch.deps[i])
            assert len(run.chunk(i)) == max(int(batch.size[i]), floor)

    def test_truncated_chunk_raises_marshal_error(self, backend):
        batch = GopStructure(seed=3).frame_batch(0, 2, payloads=True)
        run = encode_run(batch)
        chunk = bytes(run.chunk(0))
        with pytest.raises(MarshalError, match="truncated frame chunk"):
            _decode_frame_run([chunk[:10]])
        with pytest.raises(MarshalError, match="malformed frame chunk"):
            _decode_frame_run([chunk[:-3]])
        with pytest.raises(MarshalError, match="malformed frame chunk"):
            _decode_frame_run([chunk + b"xx"])


class TestCrossBackend:
    def test_numpy_batch_readable_under_pure_helpers(self, monkeypatch):
        if arrays._numpy is None:
            pytest.skip("numpy not installed")
        monkeypatch.setattr(arrays, "np", arrays._numpy)
        batch = GopStructure(seed=11).frame_batch(0, 6, payloads=True)
        monkeypatch.setattr(arrays, "np", None)
        sub = batch.select([1, 3])  # take() dispatches on column type
        assert [f.seq for f in sub.to_frames()] == [1, 3]
        assert bytes(sub.payload_view(0)) == bytes(batch.payload_view(1))


class Passthrough(FunctionComponent):
    def convert(self, item):
        return item

    def convert_many(self, items):
        return items


class RunSink(CollectSink):
    """Coalescing sink: takes each run whole, as a netpipe sender does."""

    def __init__(self):
        super().__init__()
        self.runs = []

    def push_many(self, items):
        self.runs.append(items)


class TestColumnarRunsStayColumnar:
    def test_function_hop_and_batched_cycle_materialize_nothing(
        self, backend, monkeypatch
    ):
        # Asking a run whether it ends in EOS must not index a columnar
        # batch: that builds a throw-away VideoFrame per run.
        calls = []
        original = FrameBatch.frame
        monkeypatch.setattr(
            FrameBatch, "frame",
            lambda self, i: calls.append(i) or original(self, i),
        )
        sink = RunSink()
        source = MpegFileSource("t.mpg", frames=40)
        pipe = pipeline(source, Passthrough(), GreedyPump(), sink)
        Engine(pipe, batch_max=8).run_to_completion()
        assert [len(run) for run in sink.runs] == [8] * 5
        assert all(isinstance(run, FrameBatch) for run in sink.runs)
        assert sink.stats["items_in"] == 40
        assert calls == []
