"""The origin contract (docs/RUNTIME.md, "Seams and their contracts"):
what :class:`~repro.runtime.engine.PumpDriver` reads off the component
whose section it runs is declared once, on
:class:`~repro.core.styles.ActivityOrigin`, and honoured the same for a
pump, an active source and an active sink."""

import itertools

import pytest

from repro import (
    ClockedPump,
    CollectSink,
    Engine,
    FeedbackPump,
    GreedyPump,
    IterSource,
    pipeline,
)
from repro.components.sinks import ActiveCollectSink
from repro.components.sources import TickingSource
from repro.core.component import Component
from repro.core.styles import ActivityOrigin
from repro.errors import SchedulerError

HANDLERS = ("on_start", "on_stop", "on_pause", "on_resume")


def around(kind, rate_hz=None):
    """``(pipeline, origin, items())`` with an origin of ``kind`` ticking
    at ``rate_hz`` (greedy when None) over an endless supply."""
    supply = itertools.count()
    if kind == "pump":
        sink = CollectSink()
        origin = GreedyPump() if rate_hz is None else ClockedPump(rate_hz)
        pipe = pipeline(IterSource(supply), origin, sink)
    elif kind == "active-source":
        sink = CollectSink()
        origin = TickingSource(lambda: next(supply), rate_hz)
        pipe = pipeline(origin, sink)
    else:
        origin = sink = ActiveCollectSink(rate_hz)
        pipe = pipeline(IterSource(supply), origin)
    return pipe, origin, lambda: list(sink.items)


KINDS = ["pump", "active-source", "active-sink"]


@pytest.mark.parametrize("kind", KINDS)
class TestEveryOriginKind:
    def test_the_four_handlers_are_the_base_ones(self, kind):
        _, origin, _ = around(kind)
        assert isinstance(origin, ActivityOrigin)
        assert origin.is_activity_origin and not Component.is_activity_origin
        assert origin.events_handled >= {"start", "stop", "pause", "resume"}
        for handler in HANDLERS:
            assert getattr(type(origin), handler) is getattr(
                ActivityOrigin, handler)

    def test_start_pause_resume_stop_through_the_event_service(self, kind):
        pipe, origin, items = around(kind, rate_hz=10.0)
        engine = Engine(pipe)
        assert (origin.timing, origin.period()) == ("clocked", 0.1)
        assert not origin.running
        engine.start()  # events reach the origin on its own thread
        engine.run(until=1.0)
        assert origin.running
        assert len(items()) >= 9
        engine.send_event("pause")
        engine.run(until=1.5)
        assert not origin.running
        frozen = len(items())
        engine.run(until=2.5)
        assert len(items()) == frozen
        engine.send_event("resume")
        engine.run(until=3.5)
        assert origin.running
        assert len(items()) >= frozen + 9
        engine.stop()
        engine.run(max_steps=engine.scheduler.steps + 1_000)
        assert not origin.running
        assert items() == list(range(len(items())))

    def test_max_items_ends_the_stream(self, kind):
        pipe, origin, items = around(kind)
        origin.max_items = 3
        assert (origin.timing, origin.period()) == ("greedy", None)
        engine = Engine(pipe)
        engine.start()
        engine.run(max_steps=10_000)
        assert items() == [0, 1, 2]
        assert engine.completed

    def test_reservation_is_made_in_the_threads_name(self, kind):
        pipe, origin, _ = around(kind)
        origin.reservation = 0.7
        engine = Engine(pipe).setup()
        assert engine.scheduler.reservations == {
            f"pump:{origin.name}": 0.7}
        with pytest.raises(SchedulerError, match="already committed"):
            engine.scheduler.reserve("someone-else", 0.4)

    def test_no_reservation_unless_declared(self, kind):
        pipe, origin, _ = around(kind)
        assert origin.reservation is None
        assert Engine(pipe).setup().scheduler.reservations == {}

    def test_deadline_slack_dates_every_tick(self, kind):
        pipe, origin, _ = around(kind, rate_hz=10.0)
        origin.deadline_slack = 0.25
        origin.priority = 3
        (driver,) = Engine(pipe).setup().pump_drivers
        constraint = driver.timer._constraint_fn(2.0)
        assert (constraint.priority, constraint.deadline) == (3, 2.25)

    def test_batch_max_overrides_the_engines(self, kind):
        pipe, origin, items = around(kind)
        origin.batch_max = 8
        origin.max_items = 20
        engine = Engine(pipe)  # engine.batch_max stays 1
        engine.start()
        engine.run(max_steps=10_000)
        (driver,) = engine.pump_drivers
        assert items() == list(range(20))
        assert (driver.batches, driver.batched_items) == (3, 20)

    def test_a_clocked_origin_is_given_the_rate_listener(self, kind):
        pipe, origin, _ = around(kind, rate_hz=10.0)
        assert origin._rate_listener is None
        (driver,) = Engine(pipe).setup().pump_drivers
        origin._rate_listener(40.0)
        assert driver.timer.period == pytest.approx(1 / 40.0)


class TestWhatOnlyPumpsOffer:
    def test_constructor_options_land_on_the_declared_attributes(self):
        clocked = ClockedPump(
            30, priority=2, reservation=0.2, deadline_slack=0.1)
        greedy = GreedyPump(max_items=5, batch_max=4, reservation=0.3)
        assert (clocked.rate_hz, clocked.priority, clocked.reservation,
                clocked.deadline_slack) == (30.0, 2, 0.2, 0.1)
        assert (greedy.max_items, greedy.batch_max, greedy.reservation,
                greedy.rate_hz) == (5, 4, 0.3, None)
        for origin in (clocked, greedy):
            assert not origin.running

    def test_feedback_pump_rate_change_reaches_the_live_timer(self):
        pump = FeedbackPump(10.0)
        sink = CollectSink()
        engine = Engine(pipeline(IterSource(itertools.count()), pump, sink))
        engine.start()
        engine.run(until=1.0)
        slow = len(sink.items)
        engine.send_event("set-rate", 100.0)
        engine.run(until=2.0)
        (driver,) = engine.pump_drivers
        assert driver.timer.period == pytest.approx(0.01)
        assert pump.rate_changes == [100.0]
        assert len(sink.items) - slow >= 5 * slow
