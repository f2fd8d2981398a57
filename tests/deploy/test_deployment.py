"""Deployment end-to-end: equivalence, golden identity, certification."""

import functools
import multiprocessing
import os

import pytest

from repro.api import Pipeline
from repro.check.explorer import trace_hash
from repro.check.invariants import check_conservation
from repro.deploy import Deployment, DeployError, Placement
from repro.deploy.presets import fig1_stages, fig9a_chains
from repro.deploy.worker import SEAM_WINDOW
from repro.lang.parser import LangError
from repro.net.mux import MuxStream
from repro.net.netpipe import NetpipeReceiver, NetpipeSender
from repro.net.protocols import Transport
from repro.runtime.engine import Engine

SRC = "counting(limit=24) >> greedy_pump >> buffer(4) >> greedy_pump >> collect"


def netpipe_seam():
    """Two sections joined only by an existing netpipe pair (no buffer
    anywhere): the one place this program can be cut.  Its wire is an
    in-process link, so the uncut program runs in one engine too."""
    from repro import CollectSink, CountingSource, GreedyPump, pipeline
    from repro.core.composition import Pipeline as Graph
    from repro.net import InProcessLink
    from repro.net.marshal import MarshalFilter, UnmarshalFilter
    from repro.net.netpipe import make_netpipe_over

    sender, receiver = make_netpipe_over(InProcessLink("a", "b", "seam"))
    upstream = pipeline(
        CountingSource(limit=50), GreedyPump(), MarshalFilter(), sender
    )
    downstream = pipeline(
        receiver, UnmarshalFilter(), GreedyPump(), CollectSink()
    )
    return Graph([*upstream.components, *downstream.components])


def chains_on_one_network():
    """Three chains, each through its own netpipe pair over ONE simulated
    network.  Placed two chains and one, no pair is cut, and each shard
    process runs its own copy of the network."""
    from repro import CollectSink, CountingSource, GreedyPump, pipeline
    from repro.core.composition import Pipeline as Graph
    from repro.net import Network
    from repro.net.marshal import MarshalFilter, UnmarshalFilter
    from repro.net.netpipe import make_netpipe

    network = Network(seed=3)
    network.add_link("a", "b")
    parts = []
    for tag in "xyz":
        sender, receiver = make_netpipe(
            network, tag, "a", "b", protocol="stream")
        parts += pipeline(
            CountingSource(limit=20, name=f"count-{tag}"), GreedyPump(),
            MarshalFilter(), sender,
        ).components
        parts += pipeline(
            receiver, UnmarshalFilter(), GreedyPump(),
            CollectSink(name=f"sink-{tag}"),
        ).components
    return Graph(parts)


TWO_CHAINS_AND_ONE = Placement.explicit({
    "count-x": 0, "netpipe-recv-x": 0, "count-y": 0, "netpipe-recv-y": 0,
    "count-z": 1, "netpipe-recv-z": 1,
})


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
        # Counted on the cut's stream: a train carries the sender's run
        # of items as one record, and the EOS as another.
        wire = result.wire_stats[0]
        assert wire["delivered"] >= 2
        assert wire["bytes_received"] > 0

    def test_two_shards_tcp(self):
        result = Deployment(
            SRC, Placement.auto(2), transport="tcp"
        ).run(timeout=60)
        assert result.completed
        assert result.sinks["collect-sink-1"] == list(range(24))

    def test_existing_netpipe_pair_is_the_seam(self):
        """docs/DEPLOY.md's "cuts at existing netpipe pairs": the plan is
        one ``[netpipe]`` cut and each shard re-homes its half of the
        pair onto the real socket (``worker.apply_cuts``)."""
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

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_shards_that_share_a_network_each_run_their_own(
            self, start_method):
        """Under fork one build is split into both shards and each is set
        up in the deploying process: each shard's engine binds a copy of
        the network of its own, one copy for both of shard 0's pairs."""
        deployment = Deployment(chains_on_one_network, TWO_CHAINS_AND_ONE,
                                start_method=start_method)
        assert deployment.plan().cuts == ()
        result = deployment.run(timeout=60)
        assert result.completed
        assert result.sinks == {f"sink-{tag}": list(range(20))
                                for tag in "xyz"}

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


def run_simulated(deployment):
    engine = deployment.simulate()
    engine.start()
    engine.run()
    return engine


class TestCoSimulationAndCertification:
    def test_simulate_runs_the_cut_topology_in_one_engine(self):
        engine = run_simulated(Deployment(SRC, Placement.auto(2)))
        sink = engine.pipeline.component("collect-sink-1")
        assert sink.items == list(range(24))
        names = {c.name for c in engine.pipeline.components}
        assert "buffer-1-wire-send" in names
        assert "buffer-1-wire-recv" in names
        assert "buffer-1" not in names
        # Each half rides its own shard's end of the credited stream a
        # shard process opens.
        send, recv = [
            c for c in engine.pipeline.components
            if isinstance(c, (NetpipeSender, NetpipeReceiver))
        ]
        assert send.protocol is not recv.protocol
        for half in (send, recv):
            assert isinstance(half.protocol, MuxStream)
            assert half.protocol.window == SEAM_WINDOW

    def test_a_netpipe_seam_simulates_and_refines(self):
        deployment = Deployment(netpipe_seam, Placement.auto(2))
        (cut,) = deployment.plan().cuts
        assert cut.kind == "netpipe"
        engine = run_simulated(deployment)
        assert engine.completed
        assert engine.pipeline.component("collect-sink-1").items == list(
            range(50))
        assert deployment.certify(seeds=6).verdict == "refines"

    def test_shards_that_share_a_network_simulate_on_it(self):
        engine = run_simulated(
            Deployment(chains_on_one_network, TWO_CHAINS_AND_ONE))
        assert engine.completed
        for tag in "xyz":
            assert engine.pipeline.component(f"sink-{tag}").items == list(
                range(20))

    def test_two_shard_plan_refines_single_core(self):
        cert = Deployment(SRC, Placement.auto(2)).certify(seeds=8)
        assert cert.verdict == "refines"


def check_simulated_conservation():
    engine = run_simulated(Deployment(SRC, Placement.auto(2)))
    report = check_conservation(engine)
    assert report.ok, report.issues
    assert "buffer-1-wire-send ~ buffer-1-wire-recv" in report.checked


class TestTheSeamPairsAcrossItsStream:
    def test_conservation_checks_the_simulated_seam(self):
        check_simulated_conservation()

    def test_pairing_by_identity_loses_the_seam(self, monkeypatch):
        """Mutant twin: each half's stream answers itself (pairing by
        identity), so the seam's two halves never pair and conservation
        silently skips the seam."""
        monkeypatch.setattr(MuxStream, "wire_key", Transport.wire_key)
        with pytest.raises(AssertionError, match="buffer-1-wire-send"):
            check_simulated_conservation()


def recording_builder(log: str, src: str = SRC):
    """``src``, after appending the building process's pid to ``log``."""
    from repro.deploy.worker import build_program

    with open(log, "a") as out:
        out.write(f"{os.getpid()}\n")
    return build_program(src)


def failing_builder():
    raise ValueError("no program for you")


THREE_SHARD_CHAIN = (
    "counting(limit=24) >> greedy_pump >> buffer(4) >> greedy_pump >> "
    "buffer(4) >> greedy_pump >> collect"
)


class TestWhereAShardIsBuilt:
    """A deploy builds its program once, plans on that build and splits
    it: under fork the deploying process sets up every shard from that
    one build before it forks any, and no shard process builds; under
    spawn each shard process builds once more, for its own slice."""

    def build_pids(self, tmp_path, start_method, src=SRC, shards=2):
        log = tmp_path / "builds"
        result = Pipeline.from_builder(
            functools.partial(recording_builder, str(log), src)
        ).deploy(shards=shards, start_method=start_method, timeout=120)
        assert result.completed and result.shards == shards
        assert result.sinks["collect-sink-1"] == list(range(24))
        return [int(pid) for pid in log.read_text().split()]

    def test_under_fork_the_deploying_process_builds_every_shard(
            self, tmp_path):
        assert self.build_pids(tmp_path, "fork") == [os.getpid()]

    def test_under_fork_a_three_shard_chain_builds_once(self, tmp_path):
        assert self.build_pids(
            tmp_path, "fork", THREE_SHARD_CHAIN, shards=3
        ) == [os.getpid()]

    def test_under_spawn_each_shard_builds_itself(self, tmp_path):
        plan, *shards = self.build_pids(tmp_path, "spawn")
        assert plan == os.getpid()
        assert len(set(shards)) == 2 and plan not in shards

    def test_a_one_shard_deploy_builds_once(self, tmp_path):
        assert self.build_pids(tmp_path, None, shards=1) == [os.getpid()]

    def test_each_simulation_builds_once(self, tmp_path):
        log = tmp_path / "builds"
        deployment = Deployment(
            functools.partial(recording_builder, str(log)),
            Placement.auto(2),
        )
        for runs in (1, 2):
            engine = run_simulated(deployment)
            assert engine.pipeline.component("collect-sink-1").items == \
                list(range(24))
            assert log.read_text().split() == [str(os.getpid())] * runs

    def fails_before_any_fork(self, monkeypatch, program) -> str:
        started = []
        monkeypatch.setattr(
            multiprocessing.process.BaseProcess, "start",
            lambda process: started.append(process))
        with pytest.raises(DeployError) as failure:
            Deployment(program, Placement.auto(2),
                       start_method="fork").run(timeout=30)
        assert started == []
        return str(failure.value)

    def test_a_build_that_raises_fails_before_any_fork(self, monkeypatch):
        message = self.fails_before_any_fork(monkeypatch, failing_builder)
        assert message == \
            "the program's build failed: ValueError('no program for you')"

    def test_a_source_that_does_not_parse_raises_its_own_error(self):
        with pytest.raises(LangError, match="expected 'name'"):
            Deployment("counting >> >> collect", Placement.auto(2)).run()

    def test_a_realisation_that_raises_names_its_shard(self, monkeypatch):
        message = self.fails_before_any_fork(
            monkeypatch, Pipeline.from_source(SRC).with_batching(0))
        assert message.startswith("shard 0 failed:\nTraceback")
        assert "batch_max must be at least 1" in message
