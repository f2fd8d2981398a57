"""QoS mapping between information-flow and netpipe properties.

"These components also encapsulate the QoS mapping of netpipe properties
and information flow properties" (section 2.1): a video flow's rate and
frame size translate into a bandwidth demand on the transport, and the
transport's latency/jitter/loss translate back into flow-level properties
downstream components (and feedback controllers) can read.
"""

from __future__ import annotations

from repro.core.typespec import ANY, Interval, Typespec, props
from repro.net.links import Link
from repro.net.packets import HEADER_BYTES


def bandwidth_demand(
    spec: Typespec, avg_item_bytes: float | None = None
) -> float | None:
    """Estimate the bandwidth (bits/s) a flow needs, or None if unknown.

    Uses the flow's frame rate (upper bound of a range) and either an
    explicit average item size or the flow's frame dimensions (assuming a
    compressed size of ~0.1 bit per pixel, a rough MPEG-like figure).  A
    flow without a usable frame rate is unknown.
    """
    rate = _upper(spec[props.FRAME_RATE])
    if rate is None:
        return None
    if avg_item_bytes is None:
        width = _upper(spec[props.FRAME_WIDTH])
        height = _upper(spec[props.FRAME_HEIGHT])
        if width is None or height is None:
            return None
        avg_item_bytes = width * height * 0.1 / 8.0
    per_item = (avg_item_bytes + HEADER_BYTES) * 8.0
    return rate * per_item


def link_admits(link: Link, spec: Typespec, avg_item_bytes: float | None = None) -> bool:
    """Can the link carry the flow at full rate?"""
    demand = bandwidth_demand(spec, avg_item_bytes)
    if demand is None:
        return True  # unknown demand: admit, feedback will adapt
    return demand <= link.bandwidth_bps


def netpipe_flow_props(link: Link) -> dict:
    """Flow-level properties a netpipe over ``link`` stamps on its output."""
    return {
        props.BANDWIDTH: link.bandwidth_bps,
        props.LATENCY: Interval(link.delay, link.delay + link.jitter),
        props.JITTER: link.jitter,
        props.LOSS_RATE: link.loss_rate,
    }


def _upper(value) -> float | None:
    if value is ANY:
        return None
    if isinstance(value, Interval):
        return value.hi
    if isinstance(value, (int, float)):
        return float(value)
    return None
