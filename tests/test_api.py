"""The fluent facade: one surface for run / trace / deploy / certify."""

import pytest

from repro import ActiveComponent, ClockedPump, CollectSink, Engine, pipeline
from repro.__main__ import main
from repro.api import Pipeline
from repro.components.sources import CountingSource
from repro.errors import DeployError
from repro.lang import builder as lang_builder
from repro.lang.parser import LangError
from repro.lang.registry import default_registry
from repro.obs import prometheus_text

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


SLOW_SRC = "counting >> clocked_pump(10) >> slow_echo >> collect"


@pytest.fixture
def long_lived(monkeypatch):
    """Engines started under this fixture find their scheduler two
    million steps old; ``slow_echo`` is usable in descriptions, so the
    command line can state the same pipeline.  Yields the engines."""
    started = []
    real_start = Engine.start

    def start(engine):
        if engine not in started:
            engine.scheduler.steps = 2_000_000
            started.append(engine)
        return real_start(engine)

    registry = default_registry()
    registry.register("slow_echo", SlowEcho)
    monkeypatch.setattr(Engine, "start", start)
    monkeypatch.setattr(lang_builder, "default_registry", lambda: registry)
    return started


def assert_drained_past_the_horizon(engines):
    # The tick at t=0.4 pushes into the coroutine, whose 0.05 s of work
    # overruns the horizon: its reply and the STOP events are still
    # undelivered when run(until=0.42) starts draining.  The drain used
    # to be capped at a million *cumulative* scheduler steps, so a
    # long-lived scheduler drained nothing.
    (engine,) = engines
    components = engine.pipeline.components
    (sink,) = [c for c in components if isinstance(c, CollectSink)]
    (pump,) = [c for c in components if isinstance(c, ClockedPump)]
    assert sink.items == [0, 1, 2, 3, 4]
    assert not pump.running
    for thread in engine.scheduler.threads.values():
        assert len(thread.mailbox) == 0, thread


class TestRun:
    def test_run_delivers_and_exposes_stats(self):
        built = Pipeline.from_source(SRC).run()
        sink = built.engine.pipeline.component("collect-sink-1")
        assert sink.items == list(range(24))
        assert built.engine.stats.items_in("collect-sink-1") == 24

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

    def test_until_drain_ignores_steps_already_executed(self, long_lived):
        Pipeline.from_pipeline(
            pipeline(CountingSource(), ClockedPump(10), SlowEcho(),
                     CollectSink())
        ).run(until=0.42)
        assert_drained_past_the_horizon(long_lived)

    def test_cli_run_until_drains_a_long_lived_scheduler(self, long_lived):
        assert main(["run", SLOW_SRC, "--until", "0.42"]) == 0
        assert_drained_past_the_horizon(long_lived)

    def test_cli_top_last_frame_drains_a_long_lived_scheduler(
        self, long_lived
    ):
        code = main([
            "top", SLOW_SRC, "--plain", "--frames", "2", "--until", "0.42",
        ])
        assert code == 0
        assert_drained_past_the_horizon(long_lived)

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
        app = Pipeline.from_source(SRC).with_batching(8).with_metrics()
        d = app.deployment(shards=2)
        assert d.app is app
        assert d.placement.shards == 2

    def test_metrics_and_tracing_reach_both_shards(self):
        result = (
            Pipeline.from_source(SRC)
            .with_metrics()
            .with_tracing(1)
            .deploy(shards=2, timeout=60)
        )
        registry = result.merged_metrics()
        shards = {
            dict(counter.labels)["shard"]
            for counter in registry.family("repro_flow_traces_total")
        }
        assert shards == {"0", "1"}
        delivered = sum(
            counter.value
            for counter in registry.family("repro_flow_traces_total")
            if dict(counter.labels)["status"] == "delivered"
        )
        assert delivered == 24

    def test_slo_alone_deploys_with_telemetry(self):
        result = Pipeline.from_source(SRC).with_slo(10.0).deploy(
            shards=2, timeout=60
        )
        text = prometheus_text(result.merged_metrics())
        assert "repro_flow_traces_total" in text
        assert "repro_slo_" in text

    def test_trace_option_reaches_the_single_shard_engine(self):
        result = Pipeline.from_source(SRC).with_trace().deploy(shards=1)
        assert result.engine.scheduler._trace
        assert not Pipeline.from_source(SRC).deploy(
            shards=1
        ).engine.scheduler._trace

    def test_simulated_twin_is_realised_from_the_same_spec(self):
        twin = Pipeline.from_source(SRC).with_batching(8).with_trace() \
            .deployment(shards=2).simulate()
        assert twin.batch_max == 8
        assert twin.scheduler._trace is not None


def library_constructions() -> dict[str, set[str]]:
    """Class name -> library modules that construct it (docstrings are
    strings to the parser, so the examples in them do not count)."""
    import ast
    import pathlib

    import repro

    root = pathlib.Path(repro.__file__).parent
    sites: dict[str, set[str]] = {}
    for path in root.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            name = callee.id if isinstance(callee, ast.Name) else (
                callee.attr if isinstance(callee, ast.Attribute) else None
            )
            if name is not None:
                sites.setdefault(name, set()).add(
                    path.relative_to(root).as_posix()
                )
    return sites


class TestOneRealisationSite:
    def test_engine_and_collectors_are_constructed_only_by_the_spec(self):
        """The run spec's ``build`` is the one place library code turns
        options into an Engine with telemetry attached; a second site is
        a second opinion about what an option means."""
        sites = library_constructions()
        for name in ("Engine", "Telemetry", "FlowTracer", "SloEngine"):
            assert sites[name] == {"api.py"}, (name, sites[name])
