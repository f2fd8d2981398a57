"""Figures 4, 6 and 8: the defragmenter's *external activity* is identical
whatever the implementation style and whichever way the glue adapts it.

"Note that the external activity is the same in Figures 4, 6, and 8.  The
number of incoming and outgoing arrows is the same for each invocation and
for all three implementations.  Every other push triggers a downstream push
in part a of the figure and every pull triggers two upstream pulls in
part b."
"""

import pytest

from repro import (
    ActiveDefragmenter,
    CollectSink,
    GreedyPump,
    IterSource,
    MapFilter,
    PushDefragmenter,
    PullDefragmenter,
    api,
    pipeline,
)

STYLES = [PushDefragmenter, PullDefragmenter, ActiveDefragmenter]


def interleaving_push_mode(style_cls):
    """Trace items entering and leaving the defrag stage in push mode."""
    trace = []
    before = MapFilter(lambda x: trace.append(("in", x)) or x)
    after = MapFilter(lambda y: trace.append(("out", y)) or y)
    pipe = pipeline(
        IterSource(range(6)), GreedyPump(), before, style_cls(), after,
        CollectSink(),
    )
    api.Pipeline.from_pipeline(pipe).run()
    return trace


def interleaving_pull_mode(style_cls):
    trace = []
    before = MapFilter(lambda x: trace.append(("in", x)) or x)
    after = MapFilter(lambda y: trace.append(("out", y)) or y)
    pipe = pipeline(
        IterSource(range(6)), before, style_cls(), after, GreedyPump(),
        CollectSink(),
    )
    api.Pipeline.from_pipeline(pipe).run()
    return trace


EXPECTED = [
    ("in", 0), ("in", 1), ("out", (0, 1)),
    ("in", 2), ("in", 3), ("out", (2, 3)),
    ("in", 4), ("in", 5), ("out", (4, 5)),
]


class TestFig4a6a8a_PushMode:
    """Every other push triggers a downstream push."""

    @pytest.mark.parametrize("style", STYLES)
    def test_interleaving(self, style):
        assert interleaving_push_mode(style) == EXPECTED


class TestFig4b6b8b_PullMode:
    """Every pull triggers two upstream pulls."""

    @pytest.mark.parametrize("style", STYLES)
    def test_interleaving(self, style):
        assert interleaving_pull_mode(style) == EXPECTED


class TestExternalActivityIdenticalAcrossStyles:
    @pytest.mark.parametrize("mode_fn",
                             [interleaving_push_mode, interleaving_pull_mode])
    def test_all_three_styles_indistinguishable(self, mode_fn):
        traces = [mode_fn(style) for style in STYLES]
        assert traces[0] == traces[1] == traces[2]


class TestFig4StateObservations:
    def test_push_implementation_needs_saved_state(self):
        """Figure 4a's push 'requires the programmer to explicitly maintain
        state between two invocations ... using the variable saved'."""
        d = PushDefragmenter()
        sink_items = []
        d._emitters["out"] = sink_items.append
        d.push("x")
        assert d.saved == "x"       # state held across invocations
        d.push("y")
        assert d.saved is None
        assert sink_items == [("x", "y")]

    def test_pull_implementation_is_stateless_between_invocations(self):
        d = PullDefragmenter()
        feed = iter(range(4))
        d._intakes["in"] = lambda: next(feed)
        d.pull()
        # nothing like `saved` exists on the pull-style implementation
        assert not hasattr(d, "saved")
