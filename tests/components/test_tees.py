"""Unit tests for tees and the section-3.3 activity rules."""

import pytest

from repro import (
    ActivityRouter,
    Buffer,
    CollectSink,
    CompositionError,
    GreedyPump,
    IterSource,
    MergeTee,
    MulticastTee,
    Pipeline,
    RoutingSwitch,
    api,
    connect,
)
from repro.core.polarity import Mode, Polarity
from repro.errors import PortError


class TestMulticast:
    def test_copies_to_every_output(self):
        src, pump, tee = IterSource(range(3)), GreedyPump(), MulticastTee(3)
        sinks = [CollectSink() for _ in range(3)]
        pipe = src >> pump >> tee
        for i, sink in enumerate(sinks):
            pipe.connect(tee.port(f"out{i}"), sink.in_port)
        api.Pipeline.from_pipeline(pipe).run()
        for sink in sinks:
            assert sink.items == [0, 1, 2]

    def test_needs_at_least_two_outputs(self):
        with pytest.raises(ValueError):
            MulticastTee(1)

    def test_push_only_polarity(self):
        tee = MulticastTee(2)
        assert tee.in_port.mode is Mode.PUSH
        assert tee.port("out0").mode is Mode.PUSH
        # composing it on a pull side fails at connect time
        buf = Buffer()
        with pytest.raises(CompositionError):
            connect(buf.out_port, tee.in_port)


class TestRoutingSwitch:
    def test_routes_by_value(self):
        src, pump = IterSource(range(6)), GreedyPump()
        switch = RoutingSwitch(lambda x: x % 3, 3)
        sinks = [CollectSink() for _ in range(3)]
        pipe = src >> pump >> switch
        for i, sink in enumerate(sinks):
            pipe.connect(switch.port(f"out{i}"), sink.in_port)
        api.Pipeline.from_pipeline(pipe).run()
        assert sinks[0].items == [0, 3]
        assert sinks[1].items == [1, 4]
        assert sinks[2].items == [2, 5]

    def test_invalid_route_index_rejected(self):
        switch = RoutingSwitch(lambda x: 99, 2)
        switch._emitters["out0"] = lambda item: None
        switch._emitters["out1"] = lambda item: None
        with pytest.raises(PortError):
            switch.receive_push("x")

    def test_pull_side_composition_rejected(self):
        """Section 3.3: the value switch 'could not work in pull-style' —
        a pull at out-port 1 might produce a packet routed to out-port 2."""
        switch = RoutingSwitch(lambda x: 0, 2)
        pump = GreedyPump()
        with pytest.raises(CompositionError):
            connect(switch.port("out0"), pump.in_port)

    def test_eos_fans_out_to_all_outputs(self):
        src, pump = IterSource([0]), GreedyPump()
        switch = RoutingSwitch(lambda x: 0, 2)
        s0, s1 = CollectSink(), CollectSink()
        down0, down1 = GreedyPump(), GreedyPump()
        b0, b1 = Buffer(), Buffer()
        pipe = src >> pump >> switch
        pipe.connect(switch.port("out0"), b0.in_port)
        pipe.connect(switch.port("out1"), b1.in_port)
        pipe.connect(b0.out_port, down0.in_port)
        pipe.connect(down0.out_port, s0.in_port)
        pipe.connect(b1.out_port, down1.in_port)
        pipe.connect(down1.out_port, s1.in_port)
        engine = api.Pipeline.from_pipeline(pipe).run().engine
        # both downstream pumps saw EOS and finished
        assert engine.completed


class TestMergeTee:
    def test_arrival_order_merge(self):
        a, b = IterSource(["a0", "a1"]), IterSource(["b0", "b1"])
        pa, pb = GreedyPump(), GreedyPump()
        merge, sink = MergeTee(2), CollectSink()
        pipe = Pipeline([a, pa, b, pb, merge, sink])
        pipe.connect(a.out_port, pa.in_port)
        pipe.connect(pa.out_port, merge.port("in0"))
        pipe.connect(b.out_port, pb.in_port)
        pipe.connect(pb.out_port, merge.port("in1"))
        pipe.connect(merge.out_port, sink.in_port)
        api.Pipeline.from_pipeline(pipe).run()
        assert sorted(sink.items) == ["a0", "a1", "b0", "b1"]
        assert merge.stats["per_input"] == {"in0": 2, "in1": 2}

    def test_all_in_ports_passive_push(self):
        merge = MergeTee(2)
        for port in merge.in_ports():
            assert port.polarity is Polarity.NEGATIVE
            assert port.mode is Mode.PUSH


class TestActivityRouter:
    def test_paper_polarity_exception(self):
        """'the out-ports must both be passive and the in-port must be
        active.  This component could not work in push-style.'"""
        router = ActivityRouter(2)
        assert router.in_port.polarity is Polarity.POSITIVE
        for name in router.out_names:
            assert router.port(name).polarity is Polarity.NEGATIVE
        # push-style composition fails at connect time
        pump = GreedyPump()
        with pytest.raises(CompositionError):
            connect(pump.out_port, router.in_port)

    def test_pull_on_any_output_triggers_upstream_pull(self):
        src, router = IterSource(range(4)), ActivityRouter(2)
        p0 = GreedyPump(max_items=2)
        p1 = GreedyPump(max_items=2)
        s0, s1 = CollectSink(), CollectSink()
        pipe = Pipeline([src, router, p0, p1, s0, s1])
        pipe.connect(src.out_port, router.in_port)
        pipe.connect(router.port("out0"), p0.in_port)
        pipe.connect(p0.out_port, s0.in_port)
        pipe.connect(router.port("out1"), p1.in_port)
        pipe.connect(p1.out_port, s1.in_port)
        api.Pipeline.from_pipeline(pipe).run()
        assert sorted(s0.items + s1.items) == [0, 1, 2, 3]
        assert sum(router.stats["per_output"].values()) == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            ActivityRouter(1)
        with pytest.raises(ValueError):
            MergeTee(1)
        with pytest.raises(ValueError):
            RoutingSwitch(lambda x: 0, 1)
