"""Unit tests for QoS mapping between flows and netpipes."""

import pytest

from repro.core.typespec import Interval, Typespec, props
from repro.net.links import Link
from repro.net.packets import HEADER_BYTES
from repro.net.qosmap import bandwidth_demand, link_admits, netpipe_flow_props


class TestBandwidthDemand:
    def test_explicit_item_size(self):
        spec = Typespec({props.FRAME_RATE: 30})
        demand = bandwidth_demand(spec, avg_item_bytes=1000)
        assert demand == pytest.approx(30 * (1000 + HEADER_BYTES) * 8)

    def test_rate_range_uses_upper_bound(self):
        spec = Typespec({props.FRAME_RATE: Interval(0, 30)})
        demand = bandwidth_demand(spec, avg_item_bytes=1000)
        assert demand == pytest.approx(30 * (1000 + HEADER_BYTES) * 8)

    def test_no_rate_is_unknown_even_with_an_item_size(self):
        # Without a usable frame rate an item size prices nothing.
        assert bandwidth_demand(Typespec(), avg_item_bytes=1000) is None

    def test_unknown_rate_and_size_returns_none(self):
        assert bandwidth_demand(Typespec()) is None

    def test_any_rate_is_unusable(self):
        # props.FRAME_RATE present but ANY still counts as "no usable
        # rate": the demand is unknown.
        from repro.core.typespec import ANY

        spec = Typespec({props.FRAME_RATE: ANY})
        assert bandwidth_demand(spec, avg_item_bytes=500) is None

    def test_dimensions_imply_size(self):
        spec = Typespec({
            props.FRAME_RATE: 30,
            props.FRAME_WIDTH: 640,
            props.FRAME_HEIGHT: 480,
        })
        demand = bandwidth_demand(spec)
        assert demand is not None
        # ~0.1 bit/pixel at 30 fps: on the order of 1 Mbit/s
        assert 0.5e6 < demand < 2e6

    def test_dimensions_missing_returns_none(self):
        spec = Typespec({props.FRAME_RATE: 30, props.FRAME_WIDTH: 640})
        assert bandwidth_demand(spec) is None


class TestAdmission:
    def test_link_admits_when_capacity_sufficient(self):
        link = Link(src="a", dst="b", bandwidth_bps=10_000_000)
        spec = Typespec({props.FRAME_RATE: 30})
        assert link_admits(link, spec, avg_item_bytes=1000)

    def test_link_rejects_when_undersized(self):
        link = Link(src="a", dst="b", bandwidth_bps=100_000)
        spec = Typespec({props.FRAME_RATE: 30})
        assert not link_admits(link, spec, avg_item_bytes=10_000)

    def test_unknown_demand_admitted(self):
        link = Link(src="a", dst="b", bandwidth_bps=1)
        assert link_admits(link, Typespec())


class TestNetpipeFlowProps:
    def test_props_reflect_link(self):
        link = Link(src="a", dst="b", bandwidth_bps=2e6, delay=0.01,
                    jitter=0.005, loss_rate=0.02)
        flow_props = netpipe_flow_props(link)
        assert flow_props[props.BANDWIDTH] == 2e6
        assert flow_props[props.LATENCY] == Interval(0.01, 0.015)
        assert flow_props[props.JITTER] == 0.005
        assert flow_props[props.LOSS_RATE] == 0.02
