"""The media plane's fast bodies against the slow ones they replaced.

* ``build_payload_region`` writes each byte once (one ``repeat`` of the
  sequence words for 8-aligned sizes on numpy, else a per-item copy into
  a region that is not zeroed first) — the reference is per-item
  ``synth_payload`` joined end to end.
* ``to_frames`` / ``to_samples`` and the batch iterators convert each
  column once — the reference is ``frame(i)`` / ``sample(i)``.
* ``MpegDecoder`` prunes its decoded set through a min-heap — the
  reference keeps the scan of the whole set on every frame.
"""

from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from repro.media import (
    AudioSample,
    FrameBatch,
    GopStructure,
    MpegDecoder,
    SampleBatch,
    VideoFrame,
    arrays,
    synth_payload,
)
from repro.media.batch import _encode_frame_run, build_payload_region

BACKENDS = ["pure"] + (["numpy"] if arrays._numpy is not None else [])


@contextmanager
def backend(name):
    """``arrays.np`` set for the block (hypothesis-friendly: no fixture)."""
    saved = arrays.np
    arrays.np = arrays._numpy if name == "numpy" else None
    try:
        yield
    finally:
        arrays.np = saved


# -- (a) one-pass region fill --------------------------------------------------

sizes = st.one_of(
    st.just(0),
    st.integers(min_value=0, max_value=40).map(lambda n: 8 * n),
    st.integers(min_value=0, max_value=300),
)
seqs = st.one_of(
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.sampled_from([0, -1, 1, 2**63 - 1, -(2**63)]),
)
regions = st.one_of(
    # every size aligned (the one-repeat route) ...
    st.lists(st.tuples(seqs, sizes.filter(lambda n: n % 8 == 0)), max_size=12),
    # ... and mixed with odd sizes (the per-item route).
    st.lists(st.tuples(seqs, sizes), max_size=12),
)


@pytest.mark.parametrize("name", BACKENDS)
@given(regions)
def test_region_fill_equals_per_item_synth_payload(name, items):
    item_seqs = [seq for seq, _ in items]
    item_sizes = [size for _, size in items]
    want = b"".join(synth_payload(seq, size) for seq, size in items)
    with backend(name):
        region, offsets = build_payload_region(item_seqs, item_sizes)
        assert bytes(arrays.region_view(region)) == want
        running = [sum(item_sizes[:i]) for i in range(len(items))]
        assert arrays.tolist(offsets) == running
        assert type(offsets) is type(arrays.i64([]))
        # Columns are accepted as they are, not only lists.
        again, _ = build_payload_region(
            arrays.i64(item_seqs), arrays.i64(item_sizes)
        )
        assert bytes(arrays.region_view(again)) == want


@pytest.mark.parametrize("name", BACKENDS)
@given(regions)
def test_region_fill_covers_every_byte_of_an_unzeroed_region(name, items):
    """Hand the fill a poisoned scratch region: a byte it did not write
    would differ between the two poisons."""
    def poisoned(value):
        def scratch_region(nbytes):
            return bytearray([value]) * nbytes
        return scratch_region

    results = []
    with backend(name):
        real = arrays.scratch_region
        try:
            for value in (0xAA, 0x55):
                arrays.scratch_region = poisoned(value)
                region, _ = build_payload_region(
                    [seq for seq, _ in items], [size for _, size in items]
                )
                results.append(bytes(arrays.region_view(region)))
        finally:
            arrays.scratch_region = real
    assert results[0] == results[1] == b"".join(
        synth_payload(seq, size) for seq, size in items
    )


@pytest.mark.parametrize("name", BACKENDS)
def test_region_fill_refuses_a_negative_size(name):
    # Items lie end to end only if no size is negative; an unzeroed
    # region must not be handed out with a hole in it.
    with backend(name), pytest.raises(ValueError, match="negative"):
        build_payload_region([1, 2], [16, -8])


@pytest.mark.parametrize("name", BACKENDS)
@pytest.mark.parametrize("sizes", [[16, 8], [16, 7]])
def test_region_fill_refuses_fewer_sequence_numbers_than_sizes(name, sizes):
    with backend(name), pytest.raises(ValueError):
        build_payload_region([1], sizes)


# -- (b) one column conversion per run ------------------------------------------


def frame_fields(frame):
    return [
        (name, type(value), value)
        for name in VideoFrame.__slots__
        if name != "payload"
        for value in [getattr(frame, name)]
    ]


def same_payload(got, want) -> bool:
    if want is None:
        return got is None
    return (
        isinstance(got, memoryview)
        and got.obj is want.obj  # aliases the same memory ...
        and got.nbytes == want.nbytes
        and bytes(got) == bytes(want)  # ... at the same place
    )


def frame_batches():
    region = GopStructure(seed=5).frame_batch(0, 12, payloads=True)
    frames = region.to_frames()
    for i, frame in enumerate(frames):
        frame.owner = "decoder" if i % 3 == 0 else ""
        frame.encoded = i % 2 == 0
        frame.payload = bytes(frame.payload) if i % 4 else None
    return {
        "region": region,
        "views": FrameBatch.from_frames(frames),
        "metadata-only": GopStructure(seed=5).frame_batch(0, 12),
        "empty": GopStructure(seed=5).frame_batch(0, 0, payloads=True),
    }


@pytest.mark.parametrize("name", BACKENDS)
@pytest.mark.parametrize("kind", ["region", "views", "metadata-only", "empty"])
def test_frames_materialized_a_run_at_a_time_equal_frame_i(name, kind):
    with backend(name):
        whole = frame_batches()[kind]
        count = len(whole)
        for batch in (
            whole, whole.select(range(1, count, 2)), whole[2:7],
            whole.select([]),
        ):
            want = [batch.frame(i) for i in range(len(batch))]
            for got in (list(batch), batch.to_frames(), [*iter(batch)]):
                assert len(got) == len(want)
                for g, w in zip(got, want):
                    assert frame_fields(g) == frame_fields(w)
                    assert same_payload(g.payload, w.payload)
            views = batch.payload_views()
            if batch.has_payload:
                assert all(
                    same_payload(view, batch.payload_view(i))
                    for i, view in enumerate(views)
                )
            else:
                assert views is None


@pytest.mark.parametrize("name", BACKENDS)
def test_a_ragged_batch_is_an_error_not_a_shorter_run(name):
    # frame(i) raised IndexError on a short column; the run-at-a-time
    # bodies must not drop the tail quietly instead.
    with backend(name):
        batch = frame_batches()["region"]
        batch.deps = batch.deps[:-1]
        with pytest.raises(ValueError):
            batch.to_frames()
        with pytest.raises(ValueError):
            list(batch)
        with pytest.raises(ValueError):
            _encode_frame_run(batch)


def test_payload_views_is_the_callers_own_list():
    batch = frame_batches()["views"]
    views = batch.payload_views()
    views.clear()
    assert len(batch.payload_views()) == len(batch)


@pytest.mark.parametrize("name", BACKENDS)
@pytest.mark.parametrize("kind", ["region", "views", "metadata-only"])
def test_samples_materialized_a_run_at_a_time_equal_sample_i(name, kind):
    with backend(name):
        seqs = list(range(-3, 6))
        block_sizes = [16, 7, 0, 8, 24, 1, 32, 8, 9]
        region, offsets = build_payload_region(seqs, block_sizes)
        whole = SampleBatch(
            seq=arrays.i64(seqs),
            pts=arrays.f64([seq * 0.02 for seq in seqs]),
            duration=arrays.f64([0.02] * len(seqs)),
            size=arrays.i64(block_sizes),
            region=region if kind == "region" else None,
            offsets=offsets if kind == "region" else None,
        )
        if kind == "views":
            samples = [whole.sample(i) for i in range(len(whole))]
            for i, (seq, size) in enumerate(zip(seqs, block_sizes)):
                samples[i].payload = (
                    synth_payload(seq, size) if i % 3 else None
                )
            whole = SampleBatch.from_samples(samples)
        for batch in (whole, whole.select([8, 0, 4]), whole[1:5]):
            want = [batch.sample(i) for i in range(len(batch))]
            for got in (list(batch), batch.to_samples()):
                assert len(got) == len(want)
                for g, w in zip(got, want):
                    assert isinstance(g, AudioSample)
                    assert [
                        (type(getattr(g, f)), getattr(g, f))
                        for f in ("seq", "pts", "duration", "size")
                    ] == [
                        (type(getattr(w, f)), getattr(w, f))
                        for f in ("seq", "pts", "duration", "size")
                    ]
                    assert same_payload(g.payload, w.payload)


# -- (c) heap pruning against the scan it replaced --------------------------------


class ScanningDecoder(MpegDecoder):
    """The decoder with the replaced pruning: the decoded set alone,
    scanned whole after every frame."""

    def _mark_decoded(self, seq):
        self._decoded.add(seq)

    def _forget_stale(self, current_seq, horizon=64):
        stale = [s for s in self._decoded if s < current_seq - horizon]
        for seq in stale:
            self._decoded.discard(seq)


steps = st.lists(
    st.tuples(
        # how far the sequence number moves: duplicates, reordering,
        # small gaps, and gaps past the 64-frame horizon.
        st.sampled_from([0, 1, 1, 1, 2, 3, -1, -2, -5, 9, 63, 64, 65, 70, 200]),
        # which earlier frame this one needs: none (an I frame), a near
        # reference, one at the edge of the horizon, one far behind.
        st.sampled_from([None, None, 1, 1, 2, 3, 4, 63, 64, 65, 66, 130]),
    ),
    max_size=80,
)


def stream(script):
    frames, seq = [], 0
    for move, back in script:
        seq += move
        frames.append(VideoFrame(
            seq=seq, kind="I" if back is None else "P", pts=len(frames) / 30,
            size=100 + len(frames), width=16, height=8,
            deps=() if back is None else (seq - back,),
        ))
    return frames


def decoded_signature(frame):
    return (frame.seq, frame.kind, frame.pts, frame.size, frame.width,
            frame.height, frame.encoded, frame.deps)


def drive_per_item(decoder, frames):
    out = []
    decoder._emitters["out"] = out.append
    for frame in frames:
        decoder.push(frame)
    return [decoded_signature(frame) for frame in out]


def drive_runs(decoder, frames, run_length):
    out = []
    for start in range(0, len(frames), run_length):
        run = FrameBatch.from_frames(frames[start:start + run_length])
        out.extend(decoder.process_run(run))
    return [decoded_signature(frame) for frame in out]


CODEC_STATS = ("decoded", "skipped_undecodable", "bytes_in", "bytes_out")


@settings(max_examples=60, deadline=None)
@given(steps)
def test_heap_pruned_decoder_decides_like_the_scanning_one(script):
    frames = stream(script)
    reference = ScanningDecoder(share_references=False)
    want = drive_per_item(reference, frames)
    skipped = {f.seq for f in frames} - {sig[0] for sig in want}
    routes = [(MpegDecoder(share_references=False), drive_per_item)] + [
        (MpegDecoder(share_references=False),
         lambda dec, fs, n=n: drive_runs(dec, fs, n))
        for n in (1, 8, 32)
    ]
    for decoder, drive in routes:
        got = drive(decoder, frames)
        assert got == want
        assert decoder._decoded == reference._decoded
        assert {f.seq for f in frames} - {sig[0] for sig in got} == skipped
        assert [decoder.stats[key] for key in CODEC_STATS] == [
            reference.stats[key] for key in CODEC_STATS
        ]
        assert sorted(decoder._decoded_heap) == sorted(decoder._decoded)


@pytest.mark.parametrize("run_length", [None, 32])
def test_decoded_set_and_heap_stay_within_the_horizon(run_length):
    gop = GopStructure(seed=3, width=16, height=8)
    decoder = MpegDecoder(share_references=False)
    decoder._emitters["out"] = lambda frame: None
    for start in range(0, 10_000, 32):
        frames = [gop.frame(seq) for seq in range(start, start + 32)]
        if run_length is None:
            for frame in frames:
                decoder.push(frame)
        else:
            decoder.process_run(FrameBatch.from_frames(frames))
        assert len(decoder._decoded) <= 65
        assert len(decoder._decoded_heap) == len(decoder._decoded)
    assert decoder.stats["decoded"] == 32 * len(range(0, 10_000, 32))


def test_a_repeated_frame_does_not_grow_the_heap():
    decoder = MpegDecoder(share_references=False)
    decoder._emitters["out"] = lambda frame: None
    frame = GopStructure(seed=3).frame(0)
    for _ in range(1_000):
        decoder.push(frame)
    assert decoder._decoded == {0} and decoder._decoded_heap == [0]
