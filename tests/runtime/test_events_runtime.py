"""Runtime event semantics (section 3.2).

"The component developer does not need to deal with inter-thread
synchronization explicitly ... A data processing function is never called
before the previous invocation completes or while a control event handler
of the same component is running.  Control events that arrive while data
processing is in progress are queued and delivered as soon as the data
processing is done.  Note, however, that control events can be delivered,
while threads are blocked in a push or pull."
"""

import pytest

from repro import (
    Buffer,
    ClockedPump,
    CollectSink,
    Consumer,
    CountingSource,
    Engine,
    Event,
    EventScope,
    Gate,
    GreedyPump,
    IterSource,
    MapFilter,
    pipeline,
)
from repro.runtime.section import ThreadCtx


def deaf_wait(self, receive):
    """Mutant twin of :meth:`ThreadCtx.wait`: a control event that
    arrives while the thread is blocked is received and dropped."""
    while (message := (yield receive)).kind == "event":
        pass
    return message


class TestDeliveryWhileBlocked:
    def test_event_reaches_component_while_pump_blocked_in_pull(self):
        src, p1 = IterSource(range(3)), GreedyPump()
        buf, p2 = Buffer(capacity=8), GreedyPump()
        gate, sink = Gate(), CollectSink()
        pipe = pipeline(src, p1, buf, p2, gate, sink)
        engine = Engine(pipe)
        engine.setup()
        # Start only the downstream pump: it blocks pulling the empty buffer.
        engine.events.send_to(p2.name, Event(kind="start", source="test"))
        engine.run(max_steps=100)
        assert engine.scheduler.threads[f"pump:{p2.name}"].is_blocked()
        # The gate's handler runs even though its thread is blocked in pull.
        engine.events.send_to(gate.name, Event(kind="gate-close", source="t"))
        engine.run(max_steps=100)
        assert gate.open is False

    def test_event_reaches_component_while_pump_blocked_in_push(self):
        src, p1 = CountingSource(), GreedyPump()
        buf, p2 = Buffer(capacity=2), GreedyPump()
        gate, sink = Gate(), CollectSink()
        pipe = pipeline(src, p1, gate, buf, p2, sink)
        engine = Engine(pipe)
        engine.setup()
        # Start only the upstream pump: buffer fills, pump blocks in push.
        engine.events.send_to(p1.name, Event(kind="start", source="test"))
        engine.run(max_steps=200)
        assert engine.scheduler.threads[f"pump:{p1.name}"].is_blocked()
        engine.events.send_to(gate.name, Event(kind="gate-close", source="t"))
        engine.run(max_steps=100)
        assert gate.open is False

    def test_a_wait_that_does_not_dispatch_events_fails(self, monkeypatch):
        monkeypatch.setattr(ThreadCtx, "wait", deaf_wait)
        for blocked_in in (
            self.test_event_reaches_component_while_pump_blocked_in_pull,
            self.test_event_reaches_component_while_pump_blocked_in_push,
        ):
            with pytest.raises(AssertionError):
                blocked_in()


class TestSynchronizedObjects:
    def test_handler_never_interleaves_with_data_processing(self):
        """The handler runs between data items, never inside push()."""
        trace = []

        class Tracer(Consumer):
            events_handled = frozenset({"poke"})

            def push(self, item):
                trace.append(("push-start", item))
                trace.append(("push-end", item))
                self.put(item)

            def on_poke(self, event):
                trace.append(("poke", None))

        tracer, sink = Tracer(), CollectSink()
        pipe = pipeline(IterSource(range(5)), GreedyPump(), tracer, sink)
        engine = Engine(pipe)
        engine.setup()
        engine.start()
        engine.send_event("poke")
        engine.run()
        # Every push-start is immediately followed by its own push-end:
        # the poke handler never split a data invocation.
        for i, entry in enumerate(trace):
            if entry[0] == "push-start":
                assert trace[i + 1] == ("push-end", entry[1])
        assert ("poke", None) in trace

    def test_events_processed_before_queued_data(self):
        """Events carry a higher constraint priority than data, so a queued
        event overtakes queued ticks."""
        order = []

        class Recorder(Consumer):
            events_handled = frozenset({"mark"})

            def push(self, item):
                order.append(("data", item))
                self.put(item)

            def on_mark(self, event):
                order.append(("mark", event.payload))

        rec, sink = Recorder(), CollectSink()
        pipe = pipeline(IterSource(range(3)), GreedyPump(), rec, sink)
        engine = Engine(pipe)
        engine.setup()
        # Queue the event, then start: the event must be handled first.
        engine.events.send_to(rec.name, Event(kind="mark", payload=1,
                                              source="test"))
        engine.start()
        engine.run()
        assert order[0] == ("mark", 1)


class TestEventScopes:
    def test_upstream_and_downstream_events(self):
        received = []

        class Up(MapFilter):
            events_handled = frozenset({"note"})

            def on_note(self, event):
                received.append(("up", event.payload))

        class Mid(MapFilter):
            def convert(self, item):
                self.send_event("note", payload=item,
                                scope=EventScope.UPSTREAM)
                self.send_event("note", payload=item,
                                scope=EventScope.DOWNSTREAM)
                return item

        class Down(CollectSink):
            events_handled = frozenset({"note"})

            def on_note(self, event):
                received.append(("down", event.payload))

        # Local events go to the *adjacent* component, so `up` must sit
        # directly upstream of `mid` (not separated by the pump).
        up = Up(lambda x: x)
        mid = Mid(lambda x: x)
        down = Down()
        pipe = pipeline(IterSource([7]), GreedyPump(), up, mid, down)
        engine = Engine(pipe)
        engine.start()
        engine.run()
        assert ("up", 7) in received
        assert ("down", 7) in received

    def test_direct_event_by_name(self):
        gate, sink = Gate(name="the-gate"), CollectSink()
        pipe = pipeline(IterSource(range(3)), GreedyPump(), gate, sink)
        engine = Engine(pipe)
        engine.setup()
        engine.events.send_to(
            "the-gate", Event(kind="gate-close", source="tester",
                              scope=EventScope.DIRECT, target="the-gate")
        )
        engine.start()
        engine.run()
        assert sink.items == []  # everything dropped by the closed gate
        assert gate.stats["dropped"] == 3

    def test_broadcast_reaches_all_sections(self):
        flags = []

        class Flagging(Gate):
            def on_gate_close(self, event):
                super().on_gate_close(event)
                flags.append(self.name)

        g1, g2 = Flagging(), Flagging()
        pipe = pipeline(
            CountingSource(), ClockedPump(10), g1, Buffer(),
            ClockedPump(10), g2, CollectSink()
        )
        engine = Engine(pipe)
        engine.start()
        engine.send_event("gate-close")
        engine.run(until=0.5)
        assert set(flags) == {g1.name, g2.name}
        engine.stop()


class TestStockHandlers:
    """The control events the stock components declare, delivered by the
    engine's event service on a running pipeline (each handler here was
    reached by no test before ISSUE 21)."""

    def test_gate_open_lets_later_items_through(self):
        gate, sink = Gate(open_=False), CollectSink()
        pipe = pipeline(
            CountingSource(limit=10), ClockedPump(rate_hz=10), gate, sink
        )
        engine = Engine(pipe)
        engine.start()
        engine.run(until=0.45)
        assert sink.items == [] and gate.stats["dropped"] == 5
        engine.send_event("gate-open")
        engine.run()
        assert gate.open is True
        assert sink.items == [5, 6, 7, 8, 9]

    def test_pause_and_resume_freeze_an_active_sink(self):
        from repro.components.sinks import ActiveCollectSink

        sink = ActiveCollectSink(rate_hz=10)
        engine = Engine(pipeline(CountingSource(), sink))
        engine.start()
        engine.run(until=0.45)
        taken = len(sink.items)
        assert taken >= 4 and sink.running
        engine.send_event("pause")
        engine.run(until=1.45)
        assert not sink.running
        assert len(sink.items) == taken  # a whole second, not one item
        engine.send_event("resume")
        engine.run(until=1.95)
        assert sink.running
        assert len(sink.items) >= taken + 4
        assert sink.items == list(range(len(sink.items)))
