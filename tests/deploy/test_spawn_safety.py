"""Fork/spawn safety: everything a shard process receives must pickle.

Under the ``spawn`` start method the child gets no inherited memory: the
:class:`ShardSpec`, the program (source string or builder), and every
payload sent back over the control pipe cross a pickle boundary.  These
tests pin that contract without paying for a full process launch.
"""

import multiprocessing
import pickle

import pytest

from repro.api import Pipeline
from repro.deploy import DeployError, Placement, plan_placement
from repro.deploy.presets import fig1_drive, fig1_stages, fig9a_chains
from repro.deploy.worker import ShardSpec, build_program
from repro.obs.metrics import MetricsRegistry, dump_registry, merge_dump

SRC = "counting(limit=24) >> greedy_pump >> buffer(4) >> greedy_pump >> collect"


def roundtrip(obj):
    return pickle.loads(pickle.dumps(obj))


def module_level_builder():
    from repro.lang.builder import build

    return build(SRC).pipeline


class TestSpecPickling:
    def test_shard_spec_with_lang_source_roundtrips(self):
        plan = plan_placement(build_program(SRC), Placement.auto(2))
        spec = ShardSpec(
            shard=0, app=Pipeline.from_source(SRC).with_metrics(), plan=plan,
        )
        clone = roundtrip(spec)
        assert clone.plan.assignment == plan.assignment
        assert clone.plan.cuts == plan.cuts
        assert clone.app == spec.app
        assert build_program(clone.app.program) is not None

    def test_run_spec_roundtrips_with_every_option_it_states(self):
        spec = (
            Pipeline.from_source(SRC)
            .with_backend("thread")
            .with_batching(8)
            .with_trace(limit=64)
            .with_metrics()
            .with_tracing(4)
        )
        assert roundtrip(spec) == spec
        by_callable = Pipeline.from_builder(module_level_builder) \
            .with_batching(8)
        clone = roundtrip(by_callable)
        assert clone == by_callable
        assert clone.batch_max == 8
        assert build_program(clone.program).components

    def test_run_spec_crosses_a_spawned_process_boundary(self):
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(1) as pool:
            for spec in (
                Pipeline.from_source(SRC).with_batching(8).with_tracing(2),
                Pipeline.from_builder(module_level_builder).with_metrics(),
            ):
                assert pool.apply(roundtrip, (spec,)) == spec

    def test_live_pipeline_spec_refuses_to_pickle(self):
        live = Pipeline.from_pipeline(build_program(SRC)).with_metrics()
        with pytest.raises(DeployError, match="live Pipeline"):
            pickle.dumps(live)

    def test_preset_builders_are_picklable(self):
        for builder in (fig9a_chains(2, 32), fig1_stages(frames=12)):
            clone = roundtrip(builder)
            pipe = build_program(clone)
            assert pipe.components

    def test_preset_drive_is_picklable(self):
        drive = roundtrip(fig1_drive(frames=12))
        assert callable(drive)

    def test_started_pipeline_does_not_pickle(self):
        """The reason Deployment refuses live Pipelines for shards > 1:
        once set up, components hold generators and scheduler hooks that
        cannot cross the process boundary — workers rebuild from the
        program instead."""
        from repro.runtime.engine import Engine

        live = build_program(SRC)
        Engine(live).setup()
        with pytest.raises(Exception):
            pickle.dumps(live)


class TestNameDeterminism:
    def test_rebuilds_yield_identical_auto_names(self):
        """Each build runs under a private naming scope, so the worker's
        build in a fresh (or polluted) process matches the plan's names."""
        first = [c.name for c in build_program(SRC).components]
        # Pollute the global counters the way an unrelated import would.
        build_program("counting(limit=2) >> greedy_pump >> collect")
        second = [c.name for c in build_program(SRC).components]
        assert first == second

    def test_plan_assignment_names_match_a_rebuild(self):
        plan = plan_placement(build_program(SRC), Placement.auto(2))
        rebuilt = {c.name for c in build_program(SRC).components}
        assert set(plan.assignment) <= rebuilt | {c.via for c in plan.cuts}


class TestMetricsAcrossTheBoundary:
    def make_registry(self):
        registry = MetricsRegistry()
        registry.counter("items_total", "items", stage="pump").inc(7)
        registry.gauge("queue_depth", "depth", stage="pump").set(3)
        registry.histogram("latency_seconds", "latency").observe(0.25)
        return registry

    def test_dump_is_picklable_plain_data(self):
        dump = roundtrip(dump_registry(self.make_registry()))
        names = {entry["name"] for entry in dump["metrics"]}
        assert names == {"items_total", "queue_depth", "latency_seconds"}

    def test_merge_dump_adds_shard_labels_and_sums_counters(self):
        parent = MetricsRegistry()
        for shard in (0, 1):
            merge_dump(
                parent,
                dump_registry(self.make_registry()),
                shard=str(shard),
            )
        from repro.obs import prometheus_text

        text = prometheus_text(parent)
        assert 'shard="0"' in text and 'shard="1"' in text
        # Same-label merges add: a second merge under shard 0 doubles it.
        merge_dump(parent, dump_registry(self.make_registry()), shard="0")
        text = prometheus_text(parent)
        assert 'items_total{shard="0",stage="pump"} 14' in text

    def test_histogram_bucket_geometry_mismatch_is_an_error(self):
        from repro.obs.metrics import MetricError

        parent = MetricsRegistry()
        dump = dump_registry(self.make_registry())
        for entry in dump["metrics"]:
            if entry["kind"] == "histogram":
                entry["counts"] = entry["counts"][:-2]
        with pytest.raises(MetricError):
            merge_dump(parent, dump)
