"""Unit tests for control events and the event service."""

import pytest

from repro.core.events import (
    EOS,
    EVENT_PRIORITY,
    Event,
    EventScope,
    EventService,
    is_eos,
)
from repro.errors import RuntimeFault


class TestEvent:
    def test_event_ids_unique(self):
        assert Event(kind="x").event_id != Event(kind="x").event_id

    def test_default_scope_is_broadcast(self):
        assert Event(kind="start").scope is EventScope.BROADCAST

    def test_event_priority_above_data(self):
        assert EVENT_PRIORITY > 0


class TestEos:
    def test_eos_is_singleton(self):
        assert is_eos(EOS)
        assert not is_eos(None)
        assert not is_eos("eos")


class TestEventService:
    def test_broadcast_reaches_all_receivers(self):
        service = EventService()
        seen = {"a": [], "b": []}
        service.register("a", seen["a"].append)
        service.register("b", seen["b"].append)
        event = Event(kind="start")
        service.broadcast(event)
        assert seen["a"] == [event]
        assert seen["b"] == [event]

    def test_broadcast_skips_source(self):
        service = EventService()
        seen = {"a": [], "b": []}
        service.register("a", seen["a"].append)
        service.register("b", seen["b"].append)
        service.broadcast(Event(kind="ping", source="a"))
        assert seen["a"] == []
        assert len(seen["b"]) == 1

    def test_send_to_single_receiver(self):
        service = EventService()
        seen = []
        service.register("only", seen.append)
        service.send_to("only", Event(kind="poke"))
        assert len(seen) == 1

    def test_send_to_unknown_raises(self):
        with pytest.raises(RuntimeFault):
            EventService().send_to("ghost", Event(kind="poke"))

    def test_duplicate_registration_rejected(self):
        service = EventService()
        service.register("a", lambda e: None)
        with pytest.raises(RuntimeFault):
            service.register("a", lambda e: None)

    def test_unregister_is_idempotent(self):
        service = EventService()
        service.register("a", lambda e: None)
        service.unregister("a")
        service.unregister("a")
        with pytest.raises(RuntimeFault):
            service.send_to("a", Event(kind="ping"))

    def test_relays_see_broadcasts(self):
        service = EventService()
        relayed = []
        service.add_relay(relayed.append)
        service.broadcast(Event(kind="start"))
        assert len(relayed) == 1

    def test_history_records_everything(self):
        service = EventService()
        service.register("a", lambda e: None)
        service.broadcast(Event(kind="one"))
        service.send_to("a", Event(kind="two"))
        assert [e.kind for e in service.history] == ["one", "two"]
