"""Run entries: one lookup rule decides who moves a run.

A component's ``pull_many`` / ``push_many`` is a transmission policy the
batch walkers may use *instead of* looping ``pull`` / ``push`` — but only
when it stands for the per-item entry its author knew
(:func:`repro.runtime.section._run_entry`, docs/RUNTIME.md §11).
"""

import ast
import inspect
from types import SimpleNamespace

import pytest

from repro import (
    CallbackSink,
    CallbackSource,
    CollectSink,
    CountingSource,
    Engine,
    GreedyPump,
    IterSource,
    NullSink,
    pipeline,
)
from repro.check import install_sink_taps
from repro.core.events import EOS
from repro.core.items import NIL
from repro.media import MpegFileSource
from repro.net.netpipe import NetpipeSender
from repro.runtime import section
from repro.runtime.section import _run_entry


class PushOverride(CollectSink):
    """The ``SlowSink`` shape: per-item code below the run entry."""

    def __init__(self):
        super().__init__()
        self.seen = []

    def push(self, item):
        self.seen.append(item)
        super().push(item)


class PullOverride(IterSource):
    """The ``CountingIter`` shape."""

    def __init__(self, items):
        super().__init__(items)
        self.pulls = []

    def pull(self):
        item = super().pull()
        self.pulls.append(item)
        return item


class AddsRunEntry(PushOverride):
    """The ``RunSink`` shape: a run entry below the per-item override."""

    def __init__(self):
        super().__init__()
        self.runs = []

    def push_many(self, items):
        self.runs.append(list(items))


def run_batched(source, sink, batch_max=32):
    engine = Engine(pipeline(source, GreedyPump(), sink), batch_max=batch_max)
    engine.run_to_completion()
    return engine


class TestTheRule:
    @pytest.mark.parametrize(
        "component, item_entry",
        [
            (IterSource([1]), "pull"),
            (CountingSource(3), "pull"),
            (MpegFileSource("t.mpg", frames=4), "pull"),
            (CollectSink(), "push"),
            (NullSink(), "push"),
            (AddsRunEntry(), "push"),
        ],
    )
    def test_a_run_entry_at_or_below_the_per_item_one_is_bound(
        self, component, item_entry
    ):
        entry = _run_entry(component, item_entry)
        assert entry == getattr(component, item_entry + "_many")

    @pytest.mark.parametrize(
        "component, item_entry",
        [
            (PushOverride(), "push"),
            (PullOverride([1]), "pull"),
            # The callback *is* per-item user code: no run entry at all.
            (CallbackSource(lambda: EOS), "pull"),
            (CallbackSink(lambda item: None), "push"),
        ],
    )
    def test_a_per_item_entry_below_the_run_entry_keeps_the_loop(
        self, component, item_entry
    ):
        assert _run_entry(component, item_entry) is None

    def test_an_instance_tap_on_the_per_item_entry_wins(self):
        sink = CollectSink()
        sink.push = lambda item: None
        assert _run_entry(sink, "push") is None
        # ...unless whoever tapped it stated the run entry as well.
        sink.push_many = lambda items: None
        assert _run_entry(sink, "push") is sink.push_many

    def test_the_wire_sender_keeps_its_one_frame_per_run(self):
        sender = NetpipeSender(SimpleNamespace(src="a"))
        assert _run_entry(sender, "push") == sender.push_many

    def test_section_names_run_entries_only_in_the_resolver(self):
        """One lookup rule: a second ``getattr(component, "push_many")``
        somewhere in section.py would be a second opinion on when a run
        entry may replace the per-item one."""
        names = {"pull_many", "push_many"}
        tree = ast.parse(inspect.getsource(section))
        owners = {}
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(func):
                    owners.setdefault(node, func.name)
        mentions = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and node.value in names:
                mentions.add(owners.get(node))
            assert not (
                isinstance(node, ast.Attribute) and node.attr in names
            ), f"line {node.lineno}: run entry reached past the resolver"
        assert mentions == {"_run_entry"}


class TestRoutesAtBatch32:
    def test_push_override_sees_every_item(self):
        sink = PushOverride()
        run_batched(IterSource(range(100)), sink)
        assert sink.seen == sink.items == list(range(100))

    def test_pull_override_sees_every_pull(self):
        source = PullOverride(range(100))
        sink = CollectSink()
        run_batched(source, sink)
        assert source.pulls == list(range(100)) + [EOS]
        assert sink.items == list(range(100))

    def test_added_run_entry_is_taken_whole(self):
        sink = AddsRunEntry()
        run_batched(IterSource(range(100)), sink)
        assert [len(run) for run in sink.runs] == [32, 32, 32, 4]
        assert sink.seen == []
        assert sink.stats["items_in"] == 100

    def test_instance_tapped_push_wins(self):
        sink = CollectSink()
        tapped = []
        push = sink.push
        sink.push = lambda item: (tapped.append(item), push(item))
        run_batched(IterSource(range(100)), sink)
        assert tapped == sink.items == list(range(100))

    def test_stock_endpoints_move_runs(self, monkeypatch):
        """The route production takes: no per-item entry is called."""
        source, sink = CountingSource(100), CollectSink()
        for klass, name in ((CountingSource, "pull"), (CollectSink, "push")):
            def never(self, *args, _name=name):
                raise AssertionError(f"per-item {_name}() at batch 32")

            # Patched on the *providing* class, so the rule still binds
            # the run entry (same namespace) — and must never reach this.
            monkeypatch.setattr(klass, name, never)
        engine = run_batched(source, sink)
        assert sink.items == list(range(100))
        assert source.stats["items_out"] == sink.stats["items_in"] == 100
        assert engine.completed

    def test_batch_max_1_compiles_the_per_item_walkers(self, monkeypatch):
        for klass, name in (
            (CountingSource, "pull_many"), (CollectSink, "push_many")
        ):
            def never(self, *args, _name=name):
                raise AssertionError(f"{_name}() at batch_max=1")

            monkeypatch.setattr(klass, name, never)
        sink = CollectSink()
        run_batched(CountingSource(10), sink, batch_max=1)
        assert sink.items == list(range(10))


class TestSinkTaps:
    def test_taps_observe_the_run_route(self):
        sink = CollectSink(name="sink")
        engine = Engine(
            pipeline(CountingSource(100), GreedyPump(), sink), batch_max=32
        )
        taps = install_sink_taps(engine)
        per_item = []
        tapped_push = sink.push
        sink.push = lambda item: (per_item.append(item), tapped_push(item))
        engine.run_to_completion()
        assert taps.streams["sink#0"] == sink.items == list(range(100))
        assert per_item == []  # certified on the route production runs

    def test_taps_keep_the_per_item_loop_of_a_push_override(self):
        """The rule loops a subclass that overrides only ``push``, tapped
        or not: the tap may not hand its runs to the inherited
        ``push_many``, which would skip the override."""

        def run(tapped):
            sink = PushOverride()
            engine = Engine(
                pipeline(CountingSource(100), GreedyPump(), sink),
                batch_max=8,
            )
            taps = install_sink_taps(engine) if tapped else None
            engine.run_to_completion()
            return sink, taps

        plain, _ = run(tapped=False)
        sink, taps = run(tapped=True)
        (stream,) = taps.streams.values()
        assert stream == plain.items
        assert sink.items == plain.items == list(range(100))
        # push ran once per item, as it does untapped.
        assert sink.seen == plain.seen == list(range(100))


class TestStockRunEntries:
    def test_iter_source_stops_where_the_walker_would(self):
        source = IterSource(iter([1, 2, NIL, 3, EOS, 4]))
        assert source.pull_many(8) == [1, 2]      # NIL: dropped, run ends
        assert source.pull_many(8) == [3, EOS]    # an EOS item is the end
        assert source.pull_many(8) == [4, EOS]    # then the iterable's own
        assert source.pull_many(8) == [EOS]

    def test_iter_source_draws_no_further_than_n(self):
        source = IterSource(iter(range(5)))
        assert source.pull_many(2) == [0, 1]
        assert source.pull() == 2
        assert source.pull_many(2) == [3, 4]      # a full run: no EOS yet
        assert source.pull_many(2) == [EOS]

    @pytest.mark.parametrize("limit", [None, 0, 5, -1])
    def test_counting_source_matches_per_item_pulls(self, limit):
        by_run, by_item = CountingSource(limit), CountingSource(limit)
        for n in (1, 3, 4, 2):
            expected = []
            while len(expected) < n:
                expected.append(by_item.pull())
                if expected[-1] is EOS:
                    break
            assert by_run.pull_many(n) == expected
            assert by_run._next == by_item._next

    @pytest.mark.parametrize("limit", [None, 0, 5, 7, 100])
    def test_collect_sink_honours_its_limit(self, limit):
        by_run, by_item = CollectSink(limit=limit), CollectSink(limit=limit)
        for run in ([0, 1, 2], [3, 4, 5, 6], [7]):
            by_run.push_many(run)
            for item in run:
                by_item.push(item)
            assert by_run.items == by_item.items
