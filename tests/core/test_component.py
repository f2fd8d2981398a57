"""Unit tests for the component/port model."""

import importlib
import pkgutil

import pytest

import repro
from repro.core import Event, Mode, Polarity
from repro.core.component import Component, Role
from repro.core.polarity import Direction
from repro.core.styles import Consumer, FunctionComponent, Producer
from repro.core.typespec import Typespec
from repro.errors import PolarityError, PortError


class Doubler(FunctionComponent):
    def convert(self, item):
        return item * 2


class TestPorts:
    def test_linear_component_has_in_and_out(self):
        c = Doubler()
        assert c.in_port.direction is Direction.IN
        assert c.out_port.direction is Direction.OUT
        assert c.in_port.qualified_name().endswith(".in")

    def test_duplicate_port_rejected(self):
        c = Doubler()
        with pytest.raises(PortError):
            c.add_in_port("in")

    def test_unknown_port_rejected(self):
        with pytest.raises(PortError):
            Doubler().port("sideways")

    def test_fresh_names_are_unique_and_kebab(self):
        a, b = Doubler(), Doubler()
        assert a.name != b.name
        assert a.name.startswith("doubler-")

    def test_explicit_name_wins(self):
        assert Doubler(name="decode").name == "decode"


def stock_component_classes():
    """Every Component subclass any ``repro`` module defines."""
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(module.name)
    found, todo = set(), [Component]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in found and sub.__module__.startswith("repro."):
                found.add(sub)
                todo.append(sub)
    return sorted(found, key=lambda c: (c.__module__, c.__name__))


#: Constructor arguments of the stock classes that have required ones.
STOCK_ARGS = {
    "PullBatcher": (4,),
    "PushBatcher": (4,),
    "CostFilter": (0.001,),
    "MapFilter": (abs,),
    "PredicateFilter": (bool,),
    "ClockedPump": (10.0,),
    "FeedbackPump": (10.0,),
    "CallbackSink": (print,),
    "CallbackSource": (int,),
    "IterSource": ([1, 2],),
    "TickingSource": (int,),
    "RoutingSwitch": (int,),
}


def make_stock(cls):
    if cls.__name__ in ("NetpipeSender", "NetpipeReceiver"):
        from repro.net import InProcessLink
        from repro.net.netpipe import make_netpipe_over

        return make_netpipe_over(InProcessLink())[
            cls.__name__ == "NetpipeReceiver"
        ]
    return cls(*STOCK_ARGS.get(cls.__name__, ()))


class TestPortIndex:
    """``in_ports()`` / ``out_ports()`` read an index kept where ports are
    declared; it must always be ``ports`` partitioned by direction."""

    @staticmethod
    def assert_partitions(component):
        ins, outs = component.in_ports(), component.out_ports()
        declared = list(component.ports.values())
        assert list(ins) == [
            p for p in declared if p.direction is Direction.IN]
        assert list(outs) == [
            p for p in declared if p.direction is Direction.OUT]
        assert sorted(ins + outs, key=declared.index) == declared
        assert all(p.component is component for p in declared)
        assert [component.port(p.name) for p in declared] == declared

    @pytest.mark.parametrize(
        "cls", stock_component_classes(), ids=lambda cls: cls.__name__
    )
    def test_every_stock_component(self, cls):
        component = make_stock(cls)
        self.assert_partitions(component)
        # Wider fan-in / fan-out where the class takes a width.
        if cls.__name__ in ("MergeTee", "MulticastTee", "ActivityRouter"):
            wide = cls(5)
            self.assert_partitions(wide)
            assert len(wide.ports) == 6

    def test_ports_declared_after_construction(self):
        class Growing(Component):
            def open_tap(self, index):
                return self.add_out_port(f"tap{index}", mode=Mode.PUSH)

        c = Growing()
        assert c.in_ports() == () and c.out_ports() == ()
        c.add_in_port("in")
        before = c.out_ports()
        taps = [c.open_tap(i) for i in range(3)]
        c.add_in_port("aux")
        self.assert_partitions(c)
        assert list(c.out_ports()) == taps
        assert [p.name for p in c.in_ports()] == ["in", "aux"]
        assert before == ()  # a value read earlier is a snapshot

    def test_duplicate_name_is_rejected_and_leaves_the_index_alone(self):
        c = Doubler()
        ins, outs = c.in_ports(), c.out_ports()
        for add in (c.add_in_port, c.add_out_port):
            for name in ("in", "out"):
                with pytest.raises(PortError, match="duplicate port"):
                    add(name)
        assert c.in_ports() == ins and c.out_ports() == outs
        self.assert_partitions(c)

    def test_returned_value_cannot_corrupt_the_index(self):
        c = Doubler()
        ins = c.in_ports()
        with pytest.raises((TypeError, AttributeError)):
            ins.append(c.out_port)
        with pytest.raises(TypeError):
            ins[0] = c.out_port
        grown = c.in_ports()
        grown += (c.out_port,)  # rebinds the local name only
        assert c.in_ports() == ins == (c.in_port,)
        self.assert_partitions(c)


class TestModePropagation:
    def test_fix_port_mode_propagates_through_links(self):
        c = Doubler()
        c.fix_port_mode("in", Mode.PUSH)
        assert c.out_port.mode is Mode.PUSH
        assert c.in_port.polarity is Polarity.NEGATIVE
        assert c.out_port.polarity is Polarity.POSITIVE

    def test_fix_port_mode_idempotent(self):
        c = Doubler()
        c.fix_port_mode("in", Mode.PULL)
        c.fix_port_mode("in", Mode.PULL)
        assert c.in_port.mode is Mode.PULL

    def test_fix_port_mode_conflict_raises(self):
        c = Doubler()
        c.fix_port_mode("in", Mode.PULL)
        with pytest.raises(PolarityError):
            c.fix_port_mode("out", Mode.PUSH)

    def test_propagation_crosses_connections(self):
        from repro.core.composition import connect

        a, b, c = Doubler(), Doubler(), Doubler()
        connect(a.out_port, b.in_port)
        connect(b.out_port, c.in_port)
        a.fix_port_mode("in", Mode.PUSH)
        # the whole α → α chain acquires the induced polarity
        assert c.out_port.mode is Mode.PUSH


class TestEvents:
    def test_handle_event_dispatches_to_on_method(self):
        calls = []

        class WithHandler(Consumer):
            def push(self, item):
                pass

            def on_window_resize(self, event):
                calls.append(event.payload)

        c = WithHandler()
        c.handle_event(Event(kind="window-resize", payload=(1, 2)))
        assert calls == [(1, 2)]

    def test_unknown_event_is_ignored(self):
        Doubler().handle_event(Event(kind="nonsense"))

    def test_send_event_outside_pipeline_raises(self):
        with pytest.raises(PortError):
            Doubler().send_event("start")


class TestCpuAccounting:
    def test_charge_accumulates_and_drains(self):
        c = Doubler()
        c.charge(0.1)
        c.charge(0.2)
        assert c.drain_cost() == pytest.approx(0.3)
        assert c.drain_cost() == 0.0

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            Doubler().charge(-1)


class TestTypespecHooks:
    def test_default_transform_is_identity(self):
        spec = Typespec(a=1)
        assert Doubler().transform_typespec(spec) == spec

    def test_output_props_are_stamped(self):
        class Decoder(Doubler):
            output_props = {"format": "raw"}

        out = Decoder().transform_typespec(Typespec(format="mpeg"))
        assert out["format"] == "raw"

    def test_accepts_returns_input_spec(self):
        class Picky(Doubler):
            input_spec = Typespec(format="mpeg")

        assert Picky().accepts()["format"] == "mpeg"


class TestRuntimeHooks:
    def test_receive_push_dispatches_and_counts(self):
        collected = []

        class Collector(Consumer):
            def push(self, item):
                collected.append(item)

        c = Collector()
        c.receive_push("x")
        assert collected == ["x"]
        assert c.stats["items_in"] == 1

    def test_serve_pull_dispatches_and_counts(self):
        class Once(Producer):
            def pull(self):
                return 42

        c = Once()
        assert c.serve_pull() == 42
        assert c.stats["items_out"] == 1

    def test_receive_push_on_producer_fails(self):
        class P(Producer):
            def pull(self):
                return 1

        with pytest.raises(PortError):
            P().receive_push("x")

    def test_serve_pull_on_consumer_fails(self):
        class C(Consumer):
            def push(self, item):
                pass

        with pytest.raises(PortError):
            C().serve_pull()

    def test_roles(self):
        assert Doubler().role is Role.TRANSFORM
