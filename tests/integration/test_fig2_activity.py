"""Figure 2: activity originates at the pump.

"In the basic model, pumps have two active ends, buffers have two passive
ends, and filters an active and passive end.  In this way, any activity in
the Infopipe originates from a pump. ... Each pump has an associated thread
that calls all other pipeline stages up to the next buffer up- or
downstream."
"""

from repro import (
    Buffer,
    CollectSink,
    GreedyPump,
    IterSource,
    MapFilter,
    allocate,
    api,
    pipeline,
)
from repro.core.polarity import Mode, Polarity


def test_filters_around_pump_get_opposite_end_polarities():
    # filter A (pull side), filter B and C (push side), as in Figure 2.
    a, b, c = (MapFilter(lambda x: x, name=n) for n in ("fA", "fB", "fC"))
    pump = GreedyPump()
    pipe = pipeline(IterSource(range(4)), a, pump, b, c, CollectSink())
    allocate(pipe)
    # pull side: filter's out-port receives the pump's pull (negative)
    assert a.out_port.polarity is Polarity.NEGATIVE
    assert a.in_port.polarity is Polarity.POSITIVE
    # push side: filter's in-port receives the pump's push (negative)
    assert b.in_port.polarity is Polarity.NEGATIVE
    assert b.out_port.polarity is Polarity.POSITIVE
    assert c.out_port.polarity is Polarity.POSITIVE


def test_one_thread_calls_all_stages_between_boundaries():
    a, b, c = (MapFilter(lambda x: x) for _ in range(3))
    pump = GreedyPump()
    pipe = pipeline(IterSource(range(4)), a, pump, b, c, CollectSink())
    plan = allocate(pipe)
    section = plan.sections[0]
    # all function-style filters share the pump's thread
    assert section.coroutine_count == 1
    assert set(section.direct_members) == {a, b, c}


def test_activity_stops_at_buffers():
    a = MapFilter(lambda x: x)
    b = MapFilter(lambda x: x)
    p1, p2 = GreedyPump(), GreedyPump()
    buf = Buffer()
    pipe = pipeline(IterSource(range(4)), a, p1, buf, p2, b, CollectSink())
    plan = allocate(pipe)
    assert len(plan.sections) == 2
    by_origin = {s.origin: s for s in plan.sections}
    assert by_origin[p1].direct_members == [a]
    assert by_origin[p2].direct_members == [b]


def test_pump_thread_interleaving_order():
    """Within one cycle the pump pulls upstream first, then pushes
    downstream — 'the thread calls the pull functions of all components
    upstream of the pump, then calls push with the returned item'."""
    trace = []
    up = MapFilter(lambda x: trace.append(("pull-side", x)) or x)
    down = MapFilter(lambda x: trace.append(("push-side", x)) or x)
    pipe = pipeline(
        IterSource(range(3)), up, GreedyPump(), down, CollectSink()
    )
    api.Pipeline.from_pipeline(pipe).run()
    assert trace == [
        ("pull-side", 0), ("push-side", 0),
        ("pull-side", 1), ("push-side", 1),
        ("pull-side", 2), ("push-side", 2),
    ]
