"""The tentpole suite: mechanized refinement certification.

Certifies the paper's figure pipelines under the transformations PRs 4/5
shipped — batched transmission (``batch_max`` 1/8/32) and the netpipe
split over a lossy link — with >= 25 seeded schedules each, and proves
the checker *rejects*: a LIFO-mutated buffer must yield a minimized,
replayable counterexample in well under a minute.
"""

import time

import pytest

from benchmarks.make_refinement_certs import Figure1Variant
from repro import (
    ActiveComponent,
    Buffer,
    CollectSink,
    Engine,
    GreedyPump,
    IterSource,
    api,
    pipeline,
)
from repro.check import (
    PipelineUnderTest,
    Projection,
    RefinementCertificate,
    RefinementViolation,
    check_refinement,
    replay_certificate,
)
from repro.check.refine import (
    WitnessRun,
    compare_streams,
    first_divergence,
    lossy_channels,
    subsequence_gap,
)
from repro.check.invariants import install_sink_taps
from repro.components.buffers import OK

SEEDS = 25


# ---------------------------------------------------------------------------
# Comparison primitives
# ---------------------------------------------------------------------------


def test_first_divergence():
    assert first_divergence([1, 2, 3], [1, 2, 3]) is None
    assert first_divergence([1, 2, 4], [1, 2, 3]) == 2
    assert first_divergence([1, 2], [1, 2, 3]) == 2
    assert first_divergence([1, 2, 3], [1, 2]) == 2
    assert first_divergence([], []) is None


def test_subsequence_gap():
    assert subsequence_gap([1, 3], [1, 2, 3]) is None
    assert subsequence_gap([], [1, 2]) is None
    assert subsequence_gap([1, 2, 3], [1, 2, 3]) is None
    # reordering is not a loss: 3 consumes the reference past 2
    assert subsequence_gap([1, 3, 2], [1, 2, 3]) == 2
    assert subsequence_gap([4], [1, 2, 3]) == 0


def _lossy_witnesses(*streams):
    return [
        WitnessRun(seed=None, trace_hash="", events=0,
                   streams={"sink#0": list(stream)},
                   lossy={"sink#0": "lossy link"})
        for stream in streams
    ]


LOSSY = {"sink#0": ("subsequence", "lossy link")}


def test_lossy_union_of_two_witnesses_decides_the_verdict():
    """Two witness runs of a lossy channel each lost *different* items;
    a concrete run that delivers some of both embeds in neither, only in
    their order-consistent union — ``_sorted_union`` is the verdict."""
    witnesses = _lossy_witnesses([0, 1, 3, 4], [0, 2, 3, 5])
    concrete = [0, 1, 2, 3]
    for witness in witnesses:
        assert subsequence_gap(concrete, witness.streams["sink#0"]) is not None
    assert compare_streams(
        {"sink#0": concrete}, witnesses, LOSSY, Projection()
    ) is None


def test_lossy_union_rejects_a_reordered_pair():
    """The mutant twin: the same four items with one pair swapped.  A
    lossy link may drop, never reorder — this must NOT refine."""
    witnesses = _lossy_witnesses([0, 1, 3, 4], [0, 2, 3, 5])
    divergence = compare_streams(
        {"sink#0": [0, 2, 1, 3]}, witnesses, LOSSY, Projection()
    )
    assert divergence is not None
    assert (divergence.channel, divergence.mode) == ("sink#0", "subsequence")
    assert divergence.index == 2  # the 1 that arrived after the 2
    assert "lossy link" in divergence.message()


def test_lossy_union_needs_sorted_orderable_witnesses():
    """Witness streams that are not sorted under the projection (or not
    orderable at all) have no order-consistent union: only per-witness
    embedding applies, so a mix of two witnesses is rejected."""
    for streams in (([2, 1], [3]), (["a", 1], [2])):
        witnesses = _lossy_witnesses(*streams)
        mixed = [streams[0][-1], streams[1][0]]
        assert compare_streams(
            {"sink#0": mixed}, witnesses, LOSSY, Projection()
        ) is not None


def test_projection_resolution():
    projection = Projection(
        default=len, channels={"collect-sink": sum}, ignore=frozenset({"x"})
    )
    assert projection.apply("collect-sink#0", [[1, 2], [3]]) == [3, 3]
    assert projection.apply("other#0", [[1, 2], [3]]) == [2, 1]
    assert projection.ignores("x#4") and projection.ignores("x")
    assert not projection.ignores("collect-sink#0")
    by_seq = Projection.by_attr("seq")
    class Item:
        seq = 7
    assert by_seq.apply("any", [Item()]) == [7]
    assert "attr:seq" in by_seq.describe()["default"]


# ---------------------------------------------------------------------------
# Self-refinement and batched transmission: Figure-2 shape
# ---------------------------------------------------------------------------

FIG2_SRC = (
    "counting(limit=24) >> greedy_pump >> buffer(4) >> greedy_pump >> collect"
)
FIG2 = api.Pipeline.from_source(FIG2_SRC).with_trace()


@pytest.mark.parametrize("batch_max", [1, 8, 32])
def test_figure2_batched_refines_per_item_original(batch_max):
    cert = check_refinement(
        FIG2.builder(),
        FIG2.with_batching(batch_max).builder(),
        seeds=SEEDS,
    )
    assert cert.ok, cert.summary()
    assert cert.verdict == "refines"
    # The certificate carries enough to re-run the check: every concrete
    # run's seed and trace hash, and the channel comparison modes.
    assert len(cert.concrete["runs"]) == SEEDS + 1
    assert all(r["trace_hash"] for r in cert.concrete["runs"])
    assert cert.channels == {"collect-sink#0": {"mode": "exact"}}
    cert.raise_if_failed()  # no-op on success


# ---------------------------------------------------------------------------
# Figure-5 shape: coroutine hand-off, batched engine
# ---------------------------------------------------------------------------


class Figure5Builder:
    """Figure 5's coroutine set (pump + two active pass-through stages),
    parameterized by the engine's transmission policy."""

    def __init__(self, n=16, **engine_kwargs):
        self.n = n
        self.engine_kwargs = engine_kwargs

    def __call__(self):
        class Stage(ActiveComponent):
            def run(self):
                while True:
                    item = yield self.pull()
                    yield self.push(item)

        return Engine(
            pipeline(
                IterSource(range(self.n)), GreedyPump(),
                Stage(), Stage(), CollectSink(),
            ),
            **self.engine_kwargs,
        )


@pytest.mark.parametrize("batch_max", [1, 8, 32])
def test_figure5_batched_refines_per_item_original(batch_max):
    cert = check_refinement(
        Figure5Builder(),
        Figure5Builder(batch_max=batch_max),
        seeds=SEEDS,
    )
    assert cert.ok, cert.summary()
    assert cert.concrete["distinct_interleavings"] >= 1
    assert cert.channels["collect-sink#0"]["mode"] == "exact"


# ---------------------------------------------------------------------------
# Figure-1 shape: local vs netpipe over a lossy link
# ---------------------------------------------------------------------------


def test_figure1_netpipe_refines_local():
    cert = check_refinement(
        PipelineUnderTest(
            build=Figure1Variant(netpipe=False),
            drive=Figure1Variant.drive, name="figure1-local",
        ),
        PipelineUnderTest(
            build=Figure1Variant(netpipe=True),
            drive=Figure1Variant.drive, name="figure1-netpipe",
        ),
        seeds=SEEDS,
        projection=Projection.by_attr("seq"),
    )
    assert cert.ok, cert.summary()
    # The display channel must have been auto-detected as lossy (the
    # decoder's declared skip and/or actual network loss) and compared in
    # subsequence mode — exact mode would reject legitimate loss.
    (channel,) = [c for c in cert.channels if c.startswith("video-display")]
    assert cert.channels[channel]["mode"] == "subsequence"
    assert cert.channels[channel]["reason"]


def test_figure1_lossy_channel_reasons_name_components():
    engine = Figure1Variant(netpipe=True)()
    taps = install_sink_taps(engine)
    Figure1Variant.drive(engine)
    lossy = lossy_channels(engine, taps)
    (reason,) = [
        reason for channel, reason in lossy.items()
        if channel.startswith("video-display")
    ]
    assert "mpeg-decoder" in reason
    assert "GOP reference" in reason


# ---------------------------------------------------------------------------
# Rejection: a LIFO-mutated buffer yields a minimized, replayable
# counterexample — fast
# ---------------------------------------------------------------------------


class NewestFirstBuffer(Buffer):
    """The wrong-end deque bug: newest first.  Conservation holds, so only
    stream-order comparison can catch it."""

    def try_pull(self, port: str = "out"):
        if self._items:
            item = self._items.pop()
            self.stats["items_out"] += 1
            return OK, item
        return super().try_pull(port)


def _fig2_build(buffer_cls):
    def build():
        return Engine(
            pipeline(
                IterSource(range(24)), GreedyPump(),
                buffer_cls(capacity=4), GreedyPump(), CollectSink(),
            )
        )
    build.__name__ = buffer_cls.__name__
    return build


def test_lifo_mutation_minimized_replayable_counterexample():
    started = time.monotonic()
    cert = check_refinement(
        _fig2_build(Buffer), _fig2_build(NewestFirstBuffer), seeds=SEEDS
    )
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, elapsed

    assert cert.verdict == "violated"
    ce = cert.counterexample
    assert ce is not None
    assert ce["channel"] == "collect-sink#0"
    assert ce["mode"] == "exact"
    assert isinstance(ce["divergence_index"], int)
    assert ce["minimized_choices"] is not None
    assert len(ce["minimized_choices"]) <= len(ce["choices"])
    # The stored minimized choice list is a standalone deterministic
    # repro: replaying it reproduces the recorded trace hash.
    report = replay_certificate(
        cert, _fig2_build(NewestFirstBuffer), runs="counterexample"
    )
    assert report["ok"], report
    with pytest.raises(RefinementViolation):
        cert.raise_if_failed()
    assert "collect-sink#0" in cert.summary()


# ---------------------------------------------------------------------------
# Certificate plumbing
# ---------------------------------------------------------------------------


def test_certificate_json_roundtrip(tmp_path):
    cert = check_refinement(
        FIG2.builder(),
        FIG2.with_batching(8).builder(),
        seeds=3, witness_seeds=2,
    )
    path = tmp_path / "CERT_fig2_batch8.json"
    cert.save(path)
    loaded = RefinementCertificate.load(path)
    assert loaded.to_dict() == cert.to_dict()
    assert loaded.format == "repro-refinement-certificate/1"
    assert loaded.info["seeds"] == 3
    assert loaded.ok


def test_replay_certificate_catches_drift(tmp_path):
    cert = check_refinement(
        FIG2.builder(),
        FIG2.with_batching(8).builder(),
        seeds=3, witness_seeds=1,
    )
    good = replay_certificate(cert, FIG2.with_batching(8).builder())
    assert good["ok"], good
    assert good["matched"] == good["replayed"] == 4
    # Replaying against a *differently configured* build must mismatch:
    # the certificate pins the schedule of the build it certified.
    drifted = replay_certificate(cert, FIG2.with_batching(32).builder())
    assert not drifted["ok"]
    assert drifted["mismatched"]


def test_explicit_lossy_parameter_overrides_detection():
    # Declare the sink channel lossy by stem: a concrete run that loses
    # items (here: a level-1 dropper vs a level-0 original) then passes
    # in subsequence mode even though nothing on the path *declares* loss
    # to the checker on the abstract side.
    src_keep = "mpeg_file(frames=30) >> greedy_pump >> dropper(level=0) >> collect"
    src_drop = "mpeg_file(frames=30) >> greedy_pump >> dropper(level=1) >> collect"
    cert = check_refinement(
        api.Pipeline.from_source(src_keep).with_trace().builder(),
        api.Pipeline.from_source(src_drop).with_trace().builder(),
        seeds=5, witness_seeds=2,
        lossy={"collect-sink": "level-1 dropper sheds B frames"},
        projection=Projection.by_attr("seq"),
    )
    assert cert.ok, cert.summary()
    assert cert.channels["collect-sink#0"]["mode"] == "subsequence"
    assert cert.channels["collect-sink#0"]["reason"] == (
        "level-1 dropper sheds B frames"
    )
    # Without the declaration (and with exact comparison forced by an
    # empty lossy set), the same pair is rejected.
    cert = check_refinement(
        api.Pipeline.from_source(src_keep).with_trace().builder(),
        api.Pipeline.from_source(src_drop).with_trace().builder(),
        seeds=5, witness_seeds=2,
        lossy={},
        projection=Projection.by_attr("seq"),
    )
    assert cert.verdict == "violated"


def test_failed_certificates_are_archived_when_cert_dir_set(
    tmp_path, monkeypatch
):
    monkeypatch.setenv("REPRO_CERT_DIR", str(tmp_path / "certs"))
    cert = check_refinement(
        _fig2_build(Buffer), _fig2_build(NewestFirstBuffer), seeds=3
    )
    assert cert.verdict == "violated"
    archived = RefinementCertificate.load(cert.info["archived_to"])
    assert archived.counterexample["minimized_choices"] == (
        cert.counterexample["minimized_choices"]
    )
    # Passing checks archive nothing.
    ok = check_refinement(_fig2_build(Buffer), _fig2_build(Buffer), seeds=2)
    assert ok.ok and "archived_to" not in ok.info


def test_abstract_failure_is_reported_not_blamed_on_concrete():
    def broken():
        raise RuntimeError("abstract build exploded")

    cert = check_refinement(broken, FIG2.builder(), seeds=2, witness_seeds=1)
    assert cert.verdict == "abstract-failed"
    assert not cert.ok
    assert "abstract build exploded" in cert.counterexample["error"]
