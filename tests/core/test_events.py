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
from repro import CollectSink, GreedyPump, IterSource, MapFilter
from repro.errors import RuntimeFault
from repro.runtime.engine import Engine


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


def table_service(*names):
    """An event service over a table of ``names``, each receiver's
    deliveries recorded in ``seen``."""
    seen = {name: [] for name in names}
    service = EventService(
        dict.fromkeys(names, "thread"),
        lambda event, names: [seen[name].append(event) for name in names],
    )
    return service, seen


class TestEventService:
    def test_broadcast_reaches_all_receivers(self):
        service, seen = table_service("a", "b")
        event = Event(kind="start")
        service.broadcast(event)
        assert seen["a"] == [event]
        assert seen["b"] == [event]

    def test_broadcast_skips_source(self):
        service, seen = table_service("a", "b")
        service.broadcast(Event(kind="ping", source="a"))
        assert seen["a"] == []
        assert len(seen["b"]) == 1

    def test_send_to_single_receiver(self):
        service, seen = table_service("only")
        service.send_to("only", Event(kind="poke"))
        assert len(seen["only"]) == 1

    def test_send_to_unknown_raises(self):
        service, seen = table_service("a")
        with pytest.raises(RuntimeFault, match="no event receiver"):
            service.send_to("ghost", Event(kind="poke"))
        assert seen == {"a": []}

    def test_duplicate_registration_rejected(self):
        """Two components under one name cannot share the engine's event
        table: the second is refused at set-up, naming it."""
        source = IterSource([1], name="twin")
        twin = MapFilter(lambda x: x, name="twin")
        engine = Engine(source >> GreedyPump() >> twin >> CollectSink())
        with pytest.raises(RuntimeFault, match="duplicate event receiver 'twin'"):
            engine.setup()

    def test_the_table_routes_in_its_own_order(self):
        """A broadcast reaches the receivers in the table's order, and a
        name the table drops is no longer a receiver."""
        order = []
        table = dict.fromkeys(["c", "a", "b"], "thread")
        service = EventService(table, lambda event, names: order.extend(names))
        service.broadcast(Event(kind="start"))
        del table["a"]
        service.broadcast(Event(kind="stop"))
        assert order == ["c", "a", "b", "c", "b"]
        with pytest.raises(RuntimeFault):
            service.send_to("a", Event(kind="ping"))
