"""The fluent facade: one surface for run / trace / deploy / certify."""

import pytest

from repro import ActiveComponent, ClockedPump, CollectSink, pipeline
from repro.api import Pipeline
from repro.components.sources import CountingSource
from repro.errors import DeployError
from repro.lang.parser import LangError

SRC = "counting(limit=24) >> greedy_pump >> buffer(4) >> greedy_pump >> collect"


class TestConstruction:
    def test_from_source_fails_fast_on_syntax(self):
        with pytest.raises(LangError):
            Pipeline.from_source("counting(limit=24) >>")

    def test_with_steps_return_new_frozen_values(self):
        base = Pipeline.from_source(SRC)
        batched = base.with_batching(8)
        assert base.batch_max is None
        assert batched.batch_max == 8
        with pytest.raises(dataclasses_error()):
            base.batch_max = 8

    def test_engine_options_merge(self):
        app = (
            Pipeline.from_source(SRC)
            .with_engine_options(on_thread_error="raise")
            .with_engine_options(trace=False)
        )
        assert app.engine_kwargs == {
            "on_thread_error": "raise",
            "trace": False,
        }


def dataclasses_error():
    import dataclasses

    return dataclasses.FrozenInstanceError


class SlowEcho(ActiveComponent):
    """Active stage with per-item CPU cost — runs as a coroutine."""

    def run(self):
        while True:
            item = yield self.pull()
            self.charge(0.05)
            yield self.push(item)


class TestRun:
    def test_run_delivers_and_exposes_stats(self):
        built = Pipeline.from_source(SRC).run()
        sink = built.engine.pipeline.component("collect-sink-1")
        assert sink.items == list(range(24))
        assert built.stats.items_in("collect-sink-1") == 24

    def test_prometheus_requires_metrics(self):
        built = Pipeline.from_source(SRC).run()
        with pytest.raises(DeployError):
            built.prometheus()

    def test_metrics_and_tracing_attach(self):
        built = (
            Pipeline.from_source(SRC)
            .with_metrics()
            .with_tracing(sample_every=1)
            .run()
        )
        assert built.telemetry is not None
        assert built.tracer is not None
        assert "repro_" in built.prometheus()

    def test_slo_implies_metrics_and_tracing(self):
        built = Pipeline.from_source(SRC).with_slo(latency=10.0).run()
        assert built.telemetry is not None
        assert built.tracer is not None
        assert built.slo is not None

    def test_until_drain_ignores_steps_already_executed(self):
        # The tick at t=0.4 pushes into the coroutine, whose 0.05 s of
        # work overruns the horizon: its reply and the STOP events are
        # still undelivered when run(until=...) starts draining.  The
        # drain used to be capped at a million *cumulative* scheduler
        # steps, so a long-lived scheduler drained nothing.
        pump, sink = ClockedPump(10), CollectSink()
        built = Pipeline.from_pipeline(
            pipeline(CountingSource(), pump, SlowEcho(), sink)
        ).build()
        scheduler = built.engine.scheduler
        scheduler.steps = 2_000_000
        built.run(until=0.42)
        assert sink.items == [0, 1, 2, 3, 4]
        assert not pump.running
        for thread in scheduler.threads.values():
            assert len(thread.mailbox) == 0, thread

    def test_builder_yields_fresh_engines(self):
        build = Pipeline.from_source(SRC).with_trace().builder()
        first, second = build(), build()
        assert first is not second
        assert first.scheduler._trace is not None


class TestDeploymentBridge:
    def test_deploy_runs_two_shards(self):
        result = Pipeline.from_source(SRC).deploy(shards=2, timeout=60)
        assert result.completed
        assert result.sinks["collect-sink-1"] == list(range(24))

    def test_certify_two_shards(self):
        cert = Pipeline.from_source(SRC).certify(shards=2, seeds=4)
        assert cert.verdict == "refines"

    def test_deployment_carries_facade_policy(self):
        d = Pipeline.from_source(SRC).with_batching(8).with_metrics() \
            .deployment(shards=2)
        assert d.batch_max == 8
        assert d.telemetry is True
