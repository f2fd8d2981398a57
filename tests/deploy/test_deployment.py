"""Deployment end-to-end: equivalence, golden identity, certification."""

import os

import pytest

from repro.api import Pipeline
from repro.check.explorer import trace_hash
from repro.deploy import Deployment, DeployError, Placement
from repro.deploy.presets import fig1_stages, fig9a_chains
from repro.runtime.engine import Engine

SRC = "counting(limit=24) >> greedy_pump >> buffer(4) >> greedy_pump >> collect"


def netpipe_seam():
    """Two sections joined only by an existing *simulated* netpipe pair
    (no buffer anywhere): the one place this program can be cut."""
    from repro import CollectSink, CountingSource, GreedyPump, pipeline
    from repro.core.composition import Pipeline as Graph
    from repro.mbt import Scheduler, VirtualClock
    from repro.net import Network, make_netpipe
    from repro.net.marshal import MarshalFilter, UnmarshalFilter

    network = Network(Scheduler(clock=VirtualClock()), seed=1)
    network.add_link("a", "b", bandwidth_bps=10_000_000, delay=0.001)
    sender, receiver = make_netpipe(
        network, "seam", "a", "b", protocol="stream"
    )
    upstream = pipeline(
        CountingSource(limit=50), GreedyPump(), MarshalFilter(), sender
    )
    downstream = pipeline(
        receiver, UnmarshalFilter(), GreedyPump(), CollectSink()
    )
    return Graph([*upstream.components, *downstream.components])


class TestSingleShard:
    def test_shards1_matches_plain_engine_bit_for_bit(self):
        """The deployment path with shards=1 IS a plain engine run: the
        scheduler traces hash identically."""
        from repro.deploy.worker import build_program

        plain = Engine(build_program(SRC), trace=True)
        plain.start()
        plain.run()
        deployed = Deployment(
            Pipeline.from_source(SRC).with_trace(), Placement.auto(1)
        ).run()
        assert deployed.completed
        assert trace_hash(list(plain.scheduler._trace)) == \
            trace_hash(list(deployed.engine.scheduler._trace))

    def test_result_surfaces_stats_and_sinks(self):
        result = Deployment(SRC).run()
        assert result.shards == 1
        assert result.sinks["collect-sink-1"] == list(range(24))
        assert result.items_delivered("collect-sink-1") == 24


class TestShardedExecution:
    def test_two_shards_socketpair_delivers_everything(self):
        result = Deployment(SRC, Placement.auto(2)).run(timeout=60)
        assert result.completed
        assert result.sinks["collect-sink-1"] == list(range(24))
        wire = result.wire_stats[0]
        assert wire["delivered"] >= 24

    def test_two_shards_tcp(self):
        result = Deployment(
            SRC, Placement.auto(2), transport="tcp"
        ).run(timeout=60)
        assert result.completed
        assert result.sinks["collect-sink-1"] == list(range(24))

    def test_existing_netpipe_pair_is_the_seam(self):
        """docs/DEPLOY.md's "cuts at existing netpipe pairs": the plan is
        one ``[netpipe]`` cut and each shard re-homes its half of the
        pair onto the real socket (``worker._rehome_netpipe``)."""
        deployment = Deployment(netpipe_seam, Placement.auto(2))
        (cut,) = deployment.plan().cuts
        assert cut.kind == "netpipe"
        assert (cut.upstream, cut.downstream) == (
            "netpipe-send-seam", "netpipe-recv-seam")
        result = deployment.run(timeout=60)
        assert result.completed
        assert result.sinks["collect-sink-1"] == list(range(50))

    def test_disconnected_chains_shard_without_wires(self):
        """At 1, 2 and 4 shards the chains need no cut, and every sink
        gets what the 1-shard run gave it."""
        reference = None
        for shards in (1, 2, 4):
            result = Deployment(
                fig9a_chains(4, 64), Placement.auto(shards)
            ).run(timeout=60)
            assert result.completed
            assert result.plan.cuts == ()
            # 64 items halved twice by the two 2:1 defragmenters.
            assert all(
                len(result.sinks[f"sink-{i}"]) == 16 for i in range(4)
            )
            if reference is None:
                reference = result.sinks
            assert result.sinks == reference, f"{shards} shards diverged"

    def test_clocked_media_pipeline_across_processes(self):
        result = Deployment(
            fig1_stages(frames=30), Placement.auto(2)
        ).run(timeout=90)
        assert result.completed
        assert result.items_delivered("video-display-1") == 30

    def test_spawn_start_method(self):
        result = Deployment(
            SRC, Placement.auto(2), start_method="spawn"
        ).run(timeout=120)
        assert result.completed
        assert result.sinks["collect-sink-1"] == list(range(24))

    def test_live_pipeline_cannot_be_sharded(self):
        from repro.deploy.worker import build_program

        live = build_program(SRC)
        with pytest.raises(DeployError):
            Deployment(live, Placement.auto(2)).run()

    def test_telemetry_dumps_merge_across_shards(self):
        result = Deployment(
            Pipeline.from_source(SRC).with_metrics(), Placement.auto(2)
        ).run(timeout=60)
        registry = result.merged_metrics()
        from repro.obs import prometheus_text

        text = prometheus_text(registry)
        assert 'shard="0"' in text
        assert 'shard="1"' in text


class TestCoSimulationAndCertification:
    def test_simulate_runs_the_cut_topology_in_one_engine(self):
        engine = Deployment(SRC, Placement.auto(2)).simulate()
        engine.start()
        engine.run()
        sink = engine.pipeline.component("collect-sink-1")
        assert sink.items == list(range(24))
        names = {c.name for c in engine.pipeline.components}
        assert "buffer-1-wire-send" in names
        assert "buffer-1-wire-recv" in names
        assert "buffer-1" not in names

    def test_two_shard_plan_refines_single_core(self):
        cert = Deployment(SRC, Placement.auto(2)).certify(seeds=8)
        assert cert.verdict == "refines"

    def test_lossy_wire_still_refines_when_declared(self):
        cert = Deployment(SRC, Placement.auto(2)).certify(
            seeds=6, loss_rate=0.5, loss_seed=3
        )
        assert cert.verdict == "refines"
        assert any(
            c.get("mode") == "subsequence" for c in cert.channels.values()
        ), cert.channels
