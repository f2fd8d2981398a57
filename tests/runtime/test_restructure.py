"""Tests for pipeline restructuring (component replacement)."""

import pytest

from repro import (
    ActiveDefragmenter,
    Buffer,
    ClockedPump,
    CollectSink,
    CompositionError,
    Engine,
    GreedyPump,
    MapFilter,
    PredicateFilter,
    RuntimeFault,
    pipeline,
)
from repro.check import certify_restructure, explore
from repro.components.sources import CountingSource
from repro.core.events import Event
from repro.core.typespec import Typespec
from repro.runtime.restructure import Replacement, replace_component


def paused_player(stage):
    source = CountingSource()
    pump = ClockedPump(10)
    sink = CollectSink()
    pipe = pipeline(source, pump, stage, sink)
    engine = Engine(pipe)
    engine.start()
    engine.run(until=1.0)
    engine.send_event("pause")
    engine.run(max_steps=10_000)
    return engine, sink


class TestReplaceFunctionStage:
    def test_swap_changes_behaviour_mid_stream(self):
        old = MapFilter(lambda x: ("old", x))
        engine, sink = paused_player(old)
        before = len(sink.items)
        assert all(tag == "old" for tag, _ in sink.items)

        new = MapFilter(lambda x: ("new", x))
        replace_component(engine, old, new)

        engine.send_event("resume")
        engine.run(until=2.0)
        engine.stop()
        engine.run(max_steps=10_000)
        tags = [tag for tag, _ in sink.items]
        assert tags[:before] == ["old"] * before
        assert set(tags[before:]) == {"new"}
        assert len(sink.items) > before

    def test_swap_to_consumer_style_in_push_mode(self):
        old = MapFilter(lambda x: x)
        engine, sink = paused_player(old)
        keep_even = PredicateFilter(lambda x: x % 2 == 0)
        replace_component(engine, old, keep_even)
        engine.send_event("resume")
        engine.run(until=2.0)
        engine.stop()
        engine.run(max_steps=10_000)
        new_items = [x for x in sink.items if x > 12]
        assert new_items and all(x % 2 == 0 for x in new_items)

    def test_old_component_is_detached(self):
        old = MapFilter(lambda x: x)
        engine, _ = paused_player(old)
        replace_component(engine, old, MapFilter(lambda x: x))
        assert old.in_port.peer is None
        assert old.out_port.peer is None
        with pytest.raises(RuntimeFault):
            engine.events.send_to(old.name, Event(kind="ping", source="t"))


class TestRejections:
    def test_typespec_incompatible_replacement_rolls_back(self):
        source = CountingSource(flow_spec=Typespec(item_type="number"))
        old = MapFilter(lambda x: x)
        sink = CollectSink()
        pipe = pipeline(source, ClockedPump(10), old, sink)
        engine = Engine(pipe)
        engine.start()
        engine.run(until=1.0)
        engine.send_event("pause")
        engine.run(max_steps=10_000)
        picky = MapFilter(lambda x: x,
                          input_spec=Typespec(item_type="video"))
        with pytest.raises(CompositionError):
            replace_component(engine, old, picky)
        # rollback: the old component still works
        engine.send_event("resume")
        engine.run(until=2.0)
        engine.stop()
        engine.run(max_steps=10_000)
        assert len(sink.items) > 10

    def test_coroutine_stage_rejected(self):
        stage = ActiveDefragmenter()
        engine, _ = paused_player(stage)
        with pytest.raises(RuntimeFault, match="coroutine"):
            replace_component(engine, stage, MapFilter(lambda x: x))

    def test_replacement_needing_coroutine_rejected(self):
        old = MapFilter(lambda x: x)
        engine, _ = paused_player(old)
        from repro import PullDefragmenter

        with pytest.raises(CompositionError, match="coroutine"):
            # producer style in push mode would need a wrapper
            replace_component(engine, old, PullDefragmenter())

    def test_boundary_rejected(self):
        source = CountingSource()
        pump1, pump2 = GreedyPump(max_items=5), ClockedPump(10)
        buf, sink = Buffer(), CollectSink()
        pipe = pipeline(source, pump1, buf, pump2, sink)
        engine = Engine(pipe)
        engine.setup()
        with pytest.raises(RuntimeFault, match="not a direct stage"):
            replace_component(engine, buf, Buffer())

    def test_pump_rejected(self):
        old = MapFilter(lambda x: x)
        engine, _ = paused_player(old)
        pump = engine.pump_drivers[0].origin
        with pytest.raises(RuntimeFault, match="not a direct stage"):
            replace_component(engine, pump, MapFilter(lambda x: x))

    def test_already_connected_replacement_rejected(self):
        old = MapFilter(lambda x: x)
        engine, _ = paused_player(old)
        connected = MapFilter(lambda x: x)
        CountingSource() >> connected
        with pytest.raises(CompositionError, match="already connected"):
            replace_component(engine, old, connected)

    def test_rejected_swap_leaves_no_log_entry(self):
        source = CountingSource(flow_spec=Typespec(item_type="number"))
        old = MapFilter(lambda x: x)
        engine = Engine(pipeline(source, ClockedPump(10), old,
                                 CollectSink()))
        engine.setup()
        picky = MapFilter(lambda x: x,
                          input_spec=Typespec(item_type="video"))
        with pytest.raises(CompositionError):
            replace_component(engine, old, picky)
        assert engine.restructure_log == []


class TestRestructureLog:
    def test_commit_returns_and_logs_a_replacement_record(self):
        old = MapFilter(lambda x: x, name="map-old")
        engine, _ = paused_player(old)
        record = replace_component(
            engine, old, MapFilter(lambda x: x, name="map-new")
        )
        assert isinstance(record, Replacement)
        assert engine.restructure_log == [record]
        assert record.old == "map-old"
        assert record.new == "map-new"
        assert record.mode == "push"
        assert record.virtual_time >= 1.0
        assert "map-old" in str(record) and "map-new" in str(record)


# ---------------------------------------------------------------------------
# Restructuring under the schedule explorer and the refinement checker
# ---------------------------------------------------------------------------


def _restructured_run(replacement_factory):
    """One explorable program: run, pause mid-stream, swap the map stage,
    resume, drain.  Returns (build, drive, check) for ``explore``."""
    state = {}

    def build():
        state["old"] = old = MapFilter(lambda x: x + 100, name="map-old")
        state["sink"] = CollectSink()
        pipe = pipeline(
            CountingSource(limit=20), ClockedPump(10), old, state["sink"]
        )
        return Engine(pipe)

    def drive(engine):
        engine.start()
        engine.run(until=1.0)
        engine.send_event("pause")
        engine.run(max_steps=10_000)
        replace_component(engine, state["old"], replacement_factory())
        engine.send_event("resume")
        engine.run(until=4.0)
        engine.stop()
        engine.run(max_steps=10_000)

    def check(engine):
        assert len(engine.restructure_log) == 1
        assert engine.restructure_log[0].old == "map-old"
        # The swap was behaviour-preserving: the full reference stream.
        assert state["sink"].items == [x + 100 for x in range(20)]

    return build, drive, check


def test_replace_component_survives_schedule_exploration():
    build, drive, check = _restructured_run(
        lambda: MapFilter(lambda x: x + 100, name="map-new")
    )
    result = explore(build, seeds=10, drive=drive, check=check)
    assert result.ok, result.summary()


def test_behaviour_changing_swap_is_caught_under_exploration():
    build, drive, check = _restructured_run(
        lambda: MapFilter(lambda x: x + 999, name="map-wrong")
    )
    result = explore(build, seeds=3, drive=drive, check=check)
    assert not result.ok
    assert result.minimized_choices is not None


class TestCertifiedRestructuring:
    """Each documented restructuring ships with a refinement certificate:
    the restructured pipeline must refine the original."""

    @staticmethod
    def _build():
        return Engine(
            pipeline(
                CountingSource(limit=16), GreedyPump(),
                MapFilter(lambda x: x * 2, name="doubler"), CollectSink(),
            )
        )

    @staticmethod
    def _swap(engine, new):
        (old,) = [
            c for c in engine.pipeline.components if c.name == "doubler"
        ]
        replace_component(engine, old, new)

    def test_equivalent_function_swap_is_certified(self):
        cert = certify_restructure(
            self._build,
            lambda engine: self._swap(
                engine, MapFilter(lambda x: x + x, name="adder")
            ),
            seeds=10,
        )
        assert cert.ok, cert.summary()
        # The certificate archives the audit trail of what was swapped.
        (entry,) = cert.info["restructurings"]
        assert "doubler" in entry and "adder" in entry

    def test_equivalent_consumer_style_swap_is_certified(self):
        cert = certify_restructure(
            self._build,
            lambda engine: self._swap(
                engine, PredicateFilter(lambda x: True, name="keep-all")
            ),
            seeds=10,
        )
        # A keep-all predicate is NOT equivalent to a doubler — the
        # checker must reject it with a replayable counterexample ...
        assert cert.verdict == "violated"
        assert cert.counterexample["minimized_choices"] is not None

    def test_inequivalent_swap_is_rejected_with_counterexample(self):
        cert = certify_restructure(
            self._build,
            lambda engine: self._swap(
                engine, MapFilter(lambda x: x * 3, name="tripler")
            ),
            seeds=10,
        )
        assert cert.verdict == "violated"
        ce = cert.counterexample
        assert ce["channel"].startswith("collect-sink")
        assert ce["divergence_index"] >= 0
