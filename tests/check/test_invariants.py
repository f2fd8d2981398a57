"""Unit tests for the flow-invariant checker."""

import pytest

from repro import (
    Buffer,
    CollectSink,
    GreedyPump,
    IterSource,
    MapFilter,
    api,
    pipeline,
)
from repro.check import (
    assert_fifo,
    assert_flow,
    assert_no_duplicates,
    check_conservation,
    check_network,
    declare_lossy,
    record_tap,
)
from repro.components.batch import PushBatcher, PushUnbatcher
from repro.components.buffers import OnFull
from repro.components.filters import PredicateFilter
from repro.core.styles import Consumer
from repro.errors import InvariantViolation
from repro.runtime.engine import Engine


class SilentlyLossy(Consumer):
    """Bug-shaped component: swallows every third item without counting
    a drop — exactly the undeclared loss the checker must flag."""

    def __init__(self, name=None):
        super().__init__(name)
        self._n = 0

    def push(self, item):
        self._n += 1
        if self._n % 3:
            self.put(item)


class Duplicator(Consumer):
    """Bug-shaped component: emits every item twice while claiming 1:1."""

    def push(self, item):
        self.put(item)
        self.put(item)


def run_and_check(*stages):
    engine = api.Pipeline.from_pipeline(pipeline(*stages)).run().engine
    return engine, check_conservation(engine)


def test_clean_pipeline_conserves():
    engine, report = run_and_check(
        IterSource(range(20)), MapFilter(lambda x: x + 1), GreedyPump(),
        Buffer(capacity=8), GreedyPump(), CollectSink(),
    )
    assert report.ok, report.format()
    assert report.checked  # something two-sided was actually examined
    assert_flow(engine)  # umbrella check passes too


def test_undeclared_loss_is_flagged():
    _, report = run_and_check(
        IterSource(range(21)), SilentlyLossy(), GreedyPump(), CollectSink(),
    )
    assert not report.ok
    assert any(issue.kind == "loss" for issue in report.issues)
    with pytest.raises(InvariantViolation):
        report.raise_if_failed()


def test_declared_lossy_component_is_exempt_from_loss():
    _, report = run_and_check(
        IterSource(range(21)),
        declare_lossy(SilentlyLossy(), "drops every third item"),
        GreedyPump(),
        CollectSink(),
    )
    assert report.ok, report.format()


def test_duplication_is_flagged_even_when_declared_lossy():
    _, report = run_and_check(
        IterSource(range(10)),
        declare_lossy(Duplicator(), "it is not, actually"),
        GreedyPump(),
        CollectSink(),
    )
    assert not report.ok
    assert any(issue.kind == "duplication" for issue in report.issues)


def test_counted_drops_are_accepted():
    # A dropping filter counts its drops; a drop-policy buffer too.
    engine, report = run_and_check(
        IterSource(range(40)),
        PredicateFilter(lambda x: x % 2 == 0),
        GreedyPump(),
        Buffer(capacity=2, on_full=OnFull.DROP_NEW),
        GreedyPump(),
        CollectSink(),
    )
    assert report.ok, report.format()


def test_retained_items_balance_a_stopped_pipeline():
    # One pump fills a buffer nobody drains: items retained, not lost.
    source = IterSource(range(10))
    buffer = Buffer(capacity=32)
    pipe = pipeline(source, GreedyPump(), buffer, GreedyPump(), CollectSink())
    engine = Engine(pipe)
    engine.run_to_completion(max_steps=200_000)
    # Sanity for the scenario below: completed run retains nothing.
    assert check_conservation(engine).ok

    # Now a partial run: stop the consumer early by bounding virtual work.
    source2 = IterSource(range(10))
    buffer2 = Buffer(capacity=32)
    sink2 = CollectSink()
    pipe2 = pipeline(source2, GreedyPump(), buffer2, GreedyPump(), sink2)
    engine2 = Engine(pipe2)
    engine2.start()
    engine2.scheduler.run(max_steps=40)  # cut off mid-flight
    report = check_conservation(engine2)
    # Whatever the cut point, nothing may have been duplicated.
    assert not any(i.kind == "duplication" for i in report.issues), (
        report.format()
    )


def test_non_one_to_one_components_are_exempt():
    _, report = run_and_check(
        IterSource(range(12)), PushBatcher(3), GreedyPump(), CollectSink(),
    )
    assert report.ok, report.format()
    assert any("batcher" in name for name in report.skipped)

    _, report = run_and_check(
        IterSource(range(4)),
        PushBatcher(2),
        PushUnbatcher(),
        GreedyPump(),
        CollectSink(),
    )
    assert report.ok, report.format()


def test_record_tap_and_fifo_assertions():
    records = []
    engine = api.Pipeline.from_pipeline(pipeline(
            IterSource(range(15)), record_tap(records), GreedyPump(),
            CollectSink(),
        )).run().engine
    assert records == list(range(15))
    assert_fifo(records)
    assert_no_duplicates(records)
    assert check_conservation(engine).ok


def test_assert_fifo_rejects_reordering():
    with pytest.raises(InvariantViolation) as excinfo:
        assert_fifo([1, 2, 4, 3], pipe="video")
    assert "video" in str(excinfo.value)
    assert_fifo([(0, "a"), (1, "b")], key=lambda item: item[0])


def test_assert_no_duplicates_rejects_copies():
    with pytest.raises(InvariantViolation):
        assert_no_duplicates([1, 2, 1])
    assert_no_duplicates([1, 2, 3])


def test_undeclared_loss_message_explains_how_to_declare():
    _, report = run_and_check(
        IterSource(range(21)), SilentlyLossy(name="leaky"), GreedyPump(),
        CollectSink(),
    )
    with pytest.raises(InvariantViolation) as excinfo:
        report.raise_if_failed()
    message = str(excinfo.value)
    assert "leaky" in message
    assert "undeclared loss" in message
    assert "declare_lossy" in message


def test_violation_message_surfaces_declared_lossy_reasons():
    # Satellite fix: a failing report names every declared-lossy component
    # and its reason, so refinement failures are diagnosable.
    _, report = run_and_check(
        IterSource(range(10)),
        declare_lossy(Duplicator(name="dup"), "decimates on overload"),
        GreedyPump(),
        CollectSink(),
    )
    with pytest.raises(InvariantViolation) as excinfo:
        report.raise_if_failed()
    message = str(excinfo.value)
    assert "dup" in message
    assert "decimates on overload" in message
    assert "duplication never is" in message
    assert report.lossy == {"dup": "decimates on overload"}


def test_ok_report_counts_declared_lossy_components():
    _, report = run_and_check(
        IterSource(range(21)),
        declare_lossy(SilentlyLossy(), "drops every third item"),
        GreedyPump(),
        CollectSink(),
    )
    assert report.ok
    assert "1 declared lossy" in report.format()


# ---------------------------------------------------------------------------
# Sink taps
# ---------------------------------------------------------------------------


def test_install_sink_taps_records_streams_without_changing_the_run():
    from repro.check import install_sink_taps, trace_hash

    def build():
        return Engine(
            pipeline(
                IterSource(range(12)), GreedyPump(), CollectSink(),
            ),
            trace=True,
        )

    untapped = build()
    untapped.run_to_completion(max_steps=100_000)

    tapped = build()
    taps = install_sink_taps(tapped)
    tapped.run_to_completion(max_steps=100_000)

    assert taps.channels() == ["collect-sink#0"]
    assert taps.streams["collect-sink#0"] == list(range(12))
    # The tap wraps the entry in place — no rewiring, no new components —
    # so the schedule (hence the trace) is exactly the untapped one's.
    assert trace_hash(tapped.scheduler._trace) == trace_hash(
        untapped.scheduler._trace
    )


def test_sink_taps_normalize_auto_numbered_names_across_builds():
    from repro.check import install_sink_taps

    def channels():
        engine = Engine(
            pipeline(IterSource(range(3)), GreedyPump(), CollectSink())
        )
        return install_sink_taps(engine).channels()

    # Two independent builds draw different absolute auto-numbers but
    # must yield identical channel names.
    assert channels() == channels()


def test_sink_taps_after_setup_recompile_walkers():
    from repro.check import install_sink_taps

    engine = Engine(
        pipeline(IterSource(range(5)), GreedyPump(), CollectSink())
    )
    engine.setup()  # walkers already bound the un-tapped push
    taps = install_sink_taps(engine)
    engine.run_to_completion(max_steps=100_000)
    assert taps.streams["collect-sink#0"] == list(range(5))


def test_check_network_link_accounting():
    from repro.mbt.clock import VirtualClock
    from repro.mbt.scheduler import Scheduler
    from repro.net.network import Network
    from repro.net.packets import Packet

    scheduler = Scheduler(clock=VirtualClock())
    network = Network(scheduler, seed=5)
    network.add_link("a", "b", loss_rate=0.3, queue_packets=4)
    network.register_receiver("f", lambda p: None)
    for seq in range(50):
        network.transmit("a", "b", Packet(flow="f", seq=seq, payload=b"x"))
    scheduler.run()
    report = check_network(network)
    assert report.ok, report.format()
    link = network.link("a", "b")
    assert link.stats.dropped > 0  # the check was not vacuous
