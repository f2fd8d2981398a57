"""Unit tests for the paper's running example (defragmenter/fragmenter)."""

import pytest

from repro import (
    ActiveDefragmenter,
    ActiveFragmenter,
    CollectSink,
    GreedyPump,
    IterSource,
    PushDefragmenter,
    PushFragmenter,
    PullDefragmenter,
    PullFragmenter,
    api,
    pipeline,
)
from repro.components.frag import default_assemble, default_split


class TestHelpers:
    def test_default_assemble_pairs_scalars(self):
        assert default_assemble(1, 2) == (1, 2)

    def test_default_assemble_concatenates_tuples(self):
        assert default_assemble((1, 2), (3, 4)) == (1, 2, 3, 4)

    def test_default_split_inverts_assemble(self):
        assert default_split(default_assemble(1, 2)) == (1, 2)
        assert default_split((1, 2, 3, 4)) == ((1, 2), (3, 4))

    def test_default_split_rejects_scalars(self):
        with pytest.raises(ValueError):
            default_split(5)


class TestPushDefragmenter:
    """Figure 4a: push-mode passive defragmenter with explicit state."""

    def test_every_second_push_emits(self):
        d = PushDefragmenter()
        emitted = []
        d._emitters["out"] = emitted.append
        d.push(1)
        assert emitted == []          # first push only saves
        assert d.saved == 1
        d.push(2)
        assert emitted == [(1, 2)]    # second push assembles and emits
        assert d.saved is None

    def test_custom_assemble(self):
        d = PushDefragmenter(assemble=lambda a, b: a + b)
        out = []
        d._emitters["out"] = out.append
        d.push(20)
        d.push(22)
        assert out == [42]


class TestPullDefragmenter:
    """Figure 4b: pull-mode passive defragmenter, two upstream pulls."""

    def test_each_pull_does_two_gets(self):
        d = PullDefragmenter()
        feed = iter([1, 2, 3, 4])
        d._intakes["in"] = lambda: next(feed)
        assert d.pull() == (1, 2)
        assert d.pull() == (3, 4)


class TestPullFragmenter:
    """The mirror observation: for a fragmenter, *pull* needs saved state."""

    def test_state_held_between_pulls(self):
        f = PullFragmenter()
        feed = iter([(1, 2)])
        f._intakes["in"] = lambda: next(feed)
        assert f.pull() == 1
        assert f.saved == 2
        assert f.pull() == 2   # no upstream pull needed
        assert f.saved is None


class TestExternalActivityIdentical:
    """The key claim around Figures 4/6/8: the external activity is the
    same for all three implementations, in both modes."""

    STYLES = [PushDefragmenter, PullDefragmenter, ActiveDefragmenter]

    @pytest.mark.parametrize("style", STYLES)
    def test_push_mode_output(self, style):
        sink = CollectSink()
        api.Pipeline.from_pipeline(
            pipeline(IterSource(range(6)), GreedyPump(), style(), sink)
        ).run()
        assert sink.items == [(0, 1), (2, 3), (4, 5)]

    @pytest.mark.parametrize("style", STYLES)
    def test_pull_mode_output(self, style):
        sink = CollectSink()
        api.Pipeline.from_pipeline(
            pipeline(IterSource(range(6)), style(), GreedyPump(), sink)
        ).run()
        assert sink.items == [(0, 1), (2, 3), (4, 5)]

    @pytest.mark.parametrize("style", STYLES)
    def test_source_pull_count_identical(self, style):
        """Every pull triggers two upstream pulls regardless of style."""
        pulls = []

        class CountingIter(IterSource):
            def pull(self):
                item = super().pull()
                pulls.append(item)
                return item

        src = CountingIter(range(6))
        sink = CollectSink()
        api.Pipeline.from_pipeline(
            pipeline(src, style(), GreedyPump(), sink)
        ).run()
        assert len([p for p in pulls if isinstance(p, int)]) == 6

    @pytest.mark.parametrize("style", STYLES)
    def test_odd_trailing_item_discarded(self, style):
        sink = CollectSink()
        api.Pipeline.from_pipeline(
            pipeline(IterSource(range(5)), GreedyPump(), style(), sink)
        ).run()
        assert sink.items == [(0, 1), (2, 3)]


class TestFragmenters:
    STYLES = [PushFragmenter, PullFragmenter, ActiveFragmenter]

    @pytest.mark.parametrize("style", STYLES)
    @pytest.mark.parametrize("position", ["push", "pull"])
    def test_splits_pairs(self, style, position):
        src = IterSource([(0, 1), (2, 3)])
        sink, pump = CollectSink(), GreedyPump()
        chain = (
            [src, pump, style(), sink] if position == "push"
            else [src, style(), pump, sink]
        )
        api.Pipeline.from_pipeline(pipeline(*chain)).run()
        assert sink.items == [0, 1, 2, 3]
