"""Exporters: Prometheus golden text, Chrome trace schema, flow arrows,
JSONL — including the batched data plane and both media array backends."""

import json

import pytest

from tests.integration.test_trace_stability import run_fig1

from repro import CollectSink, Engine, GreedyPump, IterSource, pipeline
from repro.mbt.scheduler import Scheduler
from repro.media import MpegFileSource, arrays
from repro.obs import (
    FlowTracer,
    MetricsRegistry,
    Telemetry,
    chrome_trace,
    export_chrome_trace,
    export_flow_traces,
    export_jsonl,
    jsonl_events,
    jsonl_flow_traces,
    prometheus_text,
)

#: Keys the Chrome trace-event viewer requires on every event.
CHROME_KEYS = {"ph", "ts", "pid", "tid", "name"}


def _reference_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter(
        "repro_sched_dispatches_total", help="Thread dispatches",
        thread="pump:a",
    ).inc(3)
    registry.gauge(
        "repro_buffer_fill_fraction", help="Buffer fill fraction (0..1)",
        component="jitter",
    ).set(0.5)
    hist = registry.histogram(
        "repro_buffer_wait_seconds", help="Waits", component="jitter"
    )
    hist.observe(0.004)
    hist.observe(0.004)
    hist.observe(0.012)
    return registry


#: The histogram exposition emits the FULL cumulative bucket ladder —
#: every configured bound plus ``+Inf`` — which is what makes it a valid
#: Prometheus histogram (``histogram_quantile`` needs a stable, complete
#: le-series per scrape, empty buckets included).
PROMETHEUS_GOLDEN = """\
# HELP repro_buffer_fill_fraction Buffer fill fraction (0..1)
# TYPE repro_buffer_fill_fraction gauge
repro_buffer_fill_fraction{component="jitter"} 0.5
# HELP repro_buffer_wait_seconds Waits
# TYPE repro_buffer_wait_seconds histogram
repro_buffer_wait_seconds_bucket{component="jitter",le="9.53674316e-07"} 0
repro_buffer_wait_seconds_bucket{component="jitter",le="1.90734863e-06"} 0
repro_buffer_wait_seconds_bucket{component="jitter",le="3.81469727e-06"} 0
repro_buffer_wait_seconds_bucket{component="jitter",le="7.62939453e-06"} 0
repro_buffer_wait_seconds_bucket{component="jitter",le="1.52587891e-05"} 0
repro_buffer_wait_seconds_bucket{component="jitter",le="3.05175781e-05"} 0
repro_buffer_wait_seconds_bucket{component="jitter",le="6.10351562e-05"} 0
repro_buffer_wait_seconds_bucket{component="jitter",le="0.000122070312"} 0
repro_buffer_wait_seconds_bucket{component="jitter",le="0.000244140625"} 0
repro_buffer_wait_seconds_bucket{component="jitter",le="0.00048828125"} 0
repro_buffer_wait_seconds_bucket{component="jitter",le="0.0009765625"} 0
repro_buffer_wait_seconds_bucket{component="jitter",le="0.001953125"} 0
repro_buffer_wait_seconds_bucket{component="jitter",le="0.00390625"} 0
repro_buffer_wait_seconds_bucket{component="jitter",le="0.0078125"} 2
repro_buffer_wait_seconds_bucket{component="jitter",le="0.015625"} 3
repro_buffer_wait_seconds_bucket{component="jitter",le="0.03125"} 3
repro_buffer_wait_seconds_bucket{component="jitter",le="0.0625"} 3
repro_buffer_wait_seconds_bucket{component="jitter",le="0.125"} 3
repro_buffer_wait_seconds_bucket{component="jitter",le="0.25"} 3
repro_buffer_wait_seconds_bucket{component="jitter",le="0.5"} 3
repro_buffer_wait_seconds_bucket{component="jitter",le="1"} 3
repro_buffer_wait_seconds_bucket{component="jitter",le="2"} 3
repro_buffer_wait_seconds_bucket{component="jitter",le="4"} 3
repro_buffer_wait_seconds_bucket{component="jitter",le="8"} 3
repro_buffer_wait_seconds_bucket{component="jitter",le="16"} 3
repro_buffer_wait_seconds_bucket{component="jitter",le="32"} 3
repro_buffer_wait_seconds_bucket{component="jitter",le="64"} 3
repro_buffer_wait_seconds_bucket{component="jitter",le="+Inf"} 3
repro_buffer_wait_seconds_sum{component="jitter"} 0.02
repro_buffer_wait_seconds_count{component="jitter"} 3
# HELP repro_sched_dispatches_total Thread dispatches
# TYPE repro_sched_dispatches_total counter
repro_sched_dispatches_total{thread="pump:a"} 3
"""


class TestPrometheus:
    def test_golden_exposition(self):
        assert prometheus_text(_reference_registry()) == PROMETHEUS_GOLDEN

    def test_deterministic_across_insertion_order(self):
        a = _reference_registry()
        b = MetricsRegistry()
        hist = b.histogram(
            "repro_buffer_wait_seconds", help="Waits", component="jitter"
        )
        for value in (0.012, 0.004, 0.004):
            hist.observe(value)
        b.gauge(
            "repro_buffer_fill_fraction",
            help="Buffer fill fraction (0..1)", component="jitter",
        ).set(0.5)
        b.counter(
            "repro_sched_dispatches_total", help="Thread dispatches",
            thread="pump:a",
        ).inc(3)
        assert prometheus_text(a) == prometheus_text(b)

    def test_empty_registry(self):
        assert prometheus_text(MetricsRegistry()) == ""


class TestChromeTrace:
    def test_fig1_trace_validates_schema(self, tmp_path):
        """Acceptance: the Figure-1 pipeline run exports a Chrome trace
        whose every event carries the required keys."""
        engine = run_fig1(frames=10)
        path = tmp_path / "trace.json"
        document = export_chrome_trace(engine.scheduler, path)
        loaded = json.loads(path.read_text())
        assert loaded == document
        events = document["traceEvents"]
        assert events, "fig1 run produced no trace events"
        for event in events:
            assert CHROME_KEYS <= set(event), f"missing keys in {event}"
        # One metadata (thread_name) event per thread track.
        metadata = [e for e in events if e["ph"] == "M"]
        tids = {e["tid"] for e in events}
        assert {e["tid"] for e in metadata} == {
            e["tid"] for e in events if e["ph"] != "M"
        } == tids
        # Complete slices cover the run; durations are non-negative µs.
        slices = [e for e in events if e["ph"] == "X"]
        assert slices
        assert all(e["dur"] >= 0 for e in slices)
        assert all(e["name"] == "run" for e in slices)

    def test_slices_follow_switch_events(self):
        trace = [
            (0.0, "switch", None, "a"),
            (1.0, "switch", "a", "b"),
            (3.0, "switch", "b", "a"),
        ]
        document = chrome_trace(trace, end=4.0)
        slices = [e for e in document["traceEvents"] if e["ph"] == "X"]
        assert [(s["ts"], s["dur"]) for s in slices] == [
            (0.0, 1e6), (1e6, 2e6), (3e6, 1e6),
        ]
        # a and b get distinct tracks; a's two slices share one.
        assert slices[0]["tid"] == slices[2]["tid"] != slices[1]["tid"]

    def test_instants_for_dispatch_and_block(self):
        trace = [
            (0.0, "switch", None, "a"),
            (0.0, "dispatch", "a", "tick"),
            (0.5, "block", "a", "receive"),
        ]
        names = {
            e["name"]
            for e in chrome_trace(trace, end=1.0)["traceEvents"]
            if e["ph"] == "i"
        }
        assert names == {"dispatch tick", "block receive"}

    def test_empty_trace(self):
        document = chrome_trace([], end=0.0)
        assert document["traceEvents"] == []


class TestJsonl:
    def test_round_trips_event_stream(self, tmp_path):
        trace = [
            (0.0, "switch", None, "a"),
            (0.25, "deliver", "tick", "timer", "a"),
        ]
        path = tmp_path / "events.jsonl"
        count = export_jsonl(trace, path)
        assert count == 2
        lines = path.read_text().splitlines()
        first = json.loads(lines[0])
        assert first == {"ts": 0.0, "kind": "switch", "args": [None, "a"]}
        second = json.loads(lines[1])
        assert second["kind"] == "deliver"
        assert second["args"] == ["tick", "timer", "a"]

    def test_non_json_details_are_repred(self):
        class Odd:
            def __repr__(self):
                return "<odd>"

        rows = list(jsonl_events([(0.0, "crash", Odd())]))
        assert json.loads(rows[0])["args"] == ["<odd>"]


# ---------------------------------------------------------------------------
# flow arrows and the flow trace log
# ---------------------------------------------------------------------------


def _traced_engine(source=None, batch_max=None, metrics=False):
    engine = Engine(
        pipeline(
            source or IterSource(range(20)), GreedyPump(), CollectSink()
        ),
        batch_max=batch_max,
        scheduler=Scheduler(trace=True),
    )
    registry = Telemetry().attach(engine).registry if metrics else None
    tracer = FlowTracer(sample_every=1, registry=registry).attach(engine)
    engine.start()
    engine.run()
    tracer.finalize_inflight()
    return engine, tracer


class TestFlowArrows:
    def test_flow_tracks_and_arrows_share_trace_ids(self):
        from repro import Buffer, ClockedPump

        engine = Engine(
            pipeline(
                IterSource(range(20)), GreedyPump(), Buffer(capacity=32),
                ClockedPump(50.0), CollectSink(),
            ),
            scheduler=Scheduler(trace=True),
        )
        tracer = FlowTracer(sample_every=1).attach(engine)
        engine.start()
        engine.run()
        tracer.finalize_inflight()
        document = chrome_trace(
            engine.scheduler.trace, end=engine.scheduler.now(),
            flows=tracer,
        )
        events = document["traceEvents"]
        slices = [e for e in events if e.get("cat") == "flow"
                  and e["ph"] == "X"]
        assert slices, "no flow segment slices emitted"
        assert {e["name"] for e in slices} >= {"flow:service"}
        for event in slices:
            assert CHROME_KEYS <= set(event)
        arrows = [e for e in events if e["ph"] in ("s", "t", "f")]
        assert arrows
        # Every arrow chain is keyed by its trace id and terminates with
        # a binding-point "f" event (enclosing slice semantics).
        by_id = {}
        for event in arrows:
            by_id.setdefault(event["id"], []).append(event)
        for chain in by_id.values():
            assert chain[0]["ph"] == "s"
            assert chain[-1]["ph"] == "f"
            assert chain[-1]["bp"] == "e"

    def test_without_flows_output_is_unchanged(self):
        engine, tracer = _traced_engine()
        trace, end = engine.scheduler.trace, engine.scheduler.now()
        assert chrome_trace(trace, end=end) == chrome_trace(
            trace, end=end, flows=None
        )
        assert not any(
            e.get("cat") == "flow"
            for e in chrome_trace(trace, end=end)["traceEvents"]
        )

    def test_jsonl_flow_traces_round_trip(self, tmp_path):
        _, tracer = _traced_engine()
        path = tmp_path / "flows.jsonl"
        count = export_flow_traces(tracer, path)
        lines = path.read_text().splitlines()
        assert count == len(lines) == 20
        docs = [json.loads(line) for line in lines]
        assert all(doc["status"] == "delivered" for doc in docs)
        assert all(doc["segments"] for doc in docs)
        assert [json.loads(r) for r in jsonl_flow_traces(tracer)] == docs


# ---------------------------------------------------------------------------
# the batched plane and both media array backends (satellite)
# ---------------------------------------------------------------------------


@pytest.fixture(params=["numpy", "pure"])
def backend(request, monkeypatch):
    if request.param == "numpy":
        if arrays._numpy is None:
            pytest.skip("numpy not installed")
        monkeypatch.setattr(arrays, "np", arrays._numpy)
    else:
        monkeypatch.setattr(arrays, "np", None)
    return request.param


class TestBatchedMediaExport:
    """Exporters must not care whether items flowed one at a time or as
    columnar FrameBatches, nor which array backend built the columns."""

    FRAMES = 48

    def _run(self, batch_max):
        source = MpegFileSource(
            "export.mpg", frames=self.FRAMES, payloads=True
        )
        engine, tracer = _traced_engine(
            source=source, batch_max=batch_max, metrics=True
        )
        return engine, tracer, tracer.registry

    @pytest.mark.parametrize("batch_max", [None, 16])
    def test_prometheus_and_chrome_agree_across_planes(
        self, backend, batch_max, tmp_path
    ):
        engine, tracer, registry = self._run(batch_max)
        assert len(tracer.delivered()) == self.FRAMES
        text = prometheus_text(registry)
        assert (
            f"repro_flow_traces_total{{status=\"delivered\"}} "
            f"{self.FRAMES}" in text
        )
        assert "_bucket{" in text and 'le="+Inf"' in text
        document = export_chrome_trace(
            engine.scheduler, tmp_path / "trace.json", flows=tracer
        )
        slices = [
            e for e in document["traceEvents"]
            if e.get("cat") == "flow" and e["ph"] == "X"
        ]
        # One service slice per delivered frame at minimum; the batched
        # plane must not collapse per-item lineage.
        assert len({e["args"]["trace"] for e in slices}) == self.FRAMES

    def test_wait_decoration_counts_items_not_runs(self, backend):
        """At batch_max=16 a buffered batch is ONE pop but 16 items; the
        wait histogram's count must reflect items (satellite 2)."""
        from repro import Buffer, ClockedPump

        engine = Engine(
            pipeline(
                MpegFileSource("w.mpg", frames=32, payloads=False),
                GreedyPump(),
                Buffer(capacity=64),
                ClockedPump(64.0),
                CollectSink(),
            ),
            batch_max=16,
        )
        registry = Telemetry().attach(engine).registry
        engine.start()
        engine.run()
        waits = registry.family("repro_buffer_wait_seconds")
        assert len(waits) == 1
        assert waits[0].count == 32
