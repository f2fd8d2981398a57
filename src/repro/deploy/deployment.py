"""The Deployment API: run one pipeline on N cores, policy-free.

A :class:`Deployment` binds a run spec (:class:`repro.api.Pipeline`: the
program — a microlanguage source string or a picklable builder callable —
plus its execution options, stated once) to a :class:`~repro.deploy
.placement.Placement` policy.  The program says nothing about processes;
the placement says nothing about component internals.  The planner may only
cut the pipeline at ``Buffer`` or netpipe boundaries — exactly the
asynchronous seams the paper's polarity model already treats as
scheduling frontiers — so sharding is a *refinement* of the single-core
pipeline, checkable with :meth:`certify`.

Execution modes:

* ``shards == 1`` — ``repro.api.Pipeline.build()`` run in-process,
  bit-for-bit the scheduler trace of ``repro.api.Pipeline.run`` (the
  golden traces pin this).
* ``shards > 1`` — one OS process per shard; cut edges are bridged with
  PR 4's coalesced netpipe frames over ``socket.socketpair()`` (or TCP)
  via :class:`~repro.net.socketlink.SocketLink`.
* :meth:`simulate` — the sharded topology co-simulated inside ONE engine
  over in-process links: deterministic, seedable, and what
  :meth:`certify` explores.
"""

from __future__ import annotations

import socket
import time
from dataclasses import dataclass
from typing import Any

from repro import api
from repro.core.composition import Pipeline
from repro.errors import DeployError
from repro.deploy.placement import Placement, ShardPlan, plan_placement
from repro.deploy.worker import (
    ShardSpec,
    apply_cuts,
    build_program,
    done_payload,
    shard_main,
)
from repro.net.socketlink import InProcessLink, tcp_socketpair


def _socketpair_for(transport: str):
    if transport == "socketpair":
        return socket.socketpair()
    if transport == "tcp":
        return tcp_socketpair()
    raise DeployError(
        f"unknown transport {transport!r}; use 'socketpair' or 'tcp'"
    )


@dataclass
class DeploymentResult:
    """What came back from a deployment run."""

    plan: ShardPlan
    wall_seconds: float
    #: Per-shard payloads (run_seconds, stats, sinks, wire, metrics).
    shard_payloads: dict[int, dict[str, Any]]
    #: The live engine, for the in-process ``shards == 1`` mode only.
    engine: Any = None
    transport: str = "in-process"

    @property
    def shards(self) -> int:
        return self.plan.shards

    @property
    def completed(self) -> bool:
        return all(
            p.get("completed", False) for p in self.shard_payloads.values()
        )

    @property
    def run_seconds(self) -> float:
        """Longest per-shard engine-run span (excludes spawn/build)."""
        return max(
            (p["run_seconds"] for p in self.shard_payloads.values()),
            default=self.wall_seconds,
        )

    @property
    def sinks(self) -> dict[str, list]:
        """Collected sink items, merged across shards by component name."""
        merged: dict[str, list] = {}
        for shard in sorted(self.shard_payloads):
            merged.update(self.shard_payloads[shard].get("sinks", {}))
        return merged

    @property
    def stats(self) -> dict[int, dict[str, Any]]:
        return {
            shard: payload["stats"]
            for shard, payload in self.shard_payloads.items()
        }

    @property
    def wire_stats(self) -> dict[int, dict[str, Any]]:
        """Per-cut transport counters (bytes, frames, messages)."""
        merged: dict[int, dict[str, Any]] = {}
        for payload in self.shard_payloads.values():
            merged.update(payload.get("wire", {}))
        return merged

    def items_delivered(self, sink_name: str) -> int:
        for payload in self.shard_payloads.values():
            counters = payload["stats"]["components"].get(sink_name)
            if counters is not None:
                return counters.get("items_in", 0)
        return 0

    def merged_metrics(self):
        """One MetricsRegistry aggregating every shard's dump, with a
        ``shard`` label distinguishing their series."""
        from repro.obs.metrics import MetricsRegistry, merge_dump

        registry = MetricsRegistry()
        for shard, payload in sorted(self.shard_payloads.items()):
            dump = payload.get("metrics")
            if dump is not None:
                merge_dump(registry, dump, shard=str(shard))
        return registry

    def summary(self) -> dict[str, Any]:
        return {
            "shards": self.shards,
            "transport": self.transport,
            "wall_seconds": self.wall_seconds,
            "run_seconds": self.run_seconds,
            "completed": self.completed,
            "cuts": [c.describe() for c in self.plan.cuts],
        }


class Deployment:
    """Bind a run spec to a placement and run it on N cores.

    Parameters
    ----------
    program:
        A :class:`repro.api.Pipeline` run spec, or a bare program (source
        string, picklable zero-arg callable returning a composed
        :class:`Pipeline`, or a live Pipeline) run with default options.
        A live Pipeline is accepted for single-shard and :meth:`simulate`
        use, but cannot be shipped to worker processes.
    placement:
        A :class:`Placement`; default ``Placement.auto(shards)``.
    shards:
        Shorthand for ``placement=Placement.auto(shards)``.
    transport:
        ``"socketpair"`` (default) or ``"tcp"`` for cut edges.
    start_method:
        multiprocessing start method (``None`` = platform default,
        ``"fork"``, ``"spawn"``, ``"forkserver"``).
    """

    def __init__(
        self,
        program: Any,
        placement: Placement | None = None,
        *,
        shards: int | None = None,
        transport: str = "socketpair",
        start_method: str | None = None,
    ):
        if placement is not None and shards is not None \
                and placement.shards != shards:
            raise DeployError(
                f"placement wants {placement.shards} shards but "
                f"shards={shards} was also given"
            )
        if placement is None:
            placement = Placement.auto(shards if shards is not None else 1)
        self.app = api.Pipeline.of(program)
        self.placement = placement
        self.transport = transport
        self.start_method = start_method

    # ------------------------------------------------------------ planning

    def plan(self) -> ShardPlan:
        """Plan the placement against a freshly built pipeline."""
        return plan_placement(
            build_program(self.app.program), self.placement
        )

    def describe(self) -> str:
        return self.plan().describe()

    # ------------------------------------------------------------ running

    def run(self, timeout: float | None = None) -> DeploymentResult:
        """Execute the deployment and wait for every shard to finish."""
        plan = self.plan()
        if plan.shards == 1:
            return self._run_local(plan)
        # Spawn pickles the spec and a live Pipeline is refused there;
        # fork would not ask, so ask for it.
        self.app.__getstate__()
        return self._run_sharded(plan, timeout)

    def _run_local(self, plan: ShardPlan) -> DeploymentResult:
        # The single-shard path is a plain in-process run — same
        # scheduler, same instruction stream, bit-for-bit the golden
        # traces.
        built = self.app.build()
        started = time.perf_counter()
        built.run()
        wall = time.perf_counter() - started
        return DeploymentResult(
            plan=plan,
            wall_seconds=wall,
            shard_payloads={0: done_payload(0, built, wall, {})},
            engine=built.engine,
        )

    def _run_sharded(
        self, plan: ShardPlan, timeout: float | None
    ) -> DeploymentResult:
        import multiprocessing as mp

        ctx = mp.get_context(self.start_method)
        pairs = {
            cut.index: _socketpair_for(self.transport) for cut in plan.cuts
        }
        processes: list = []
        conns: dict[Any, int] = {}
        try:
            for shard in range(plan.shards):
                spec = ShardSpec(
                    shard=shard,
                    shards=plan.shards,
                    app=self.app,
                    assignment=dict(plan.assignment),
                    cuts=plan.cuts,
                )
                socks = {}
                for cut in plan.cuts:
                    if cut.src_shard == shard:
                        socks[cut.index] = pairs[cut.index][0]
                    elif cut.dst_shard == shard:
                        socks[cut.index] = pairs[cut.index][1]
                parent_conn, child_conn = ctx.Pipe()
                process = ctx.Process(
                    target=shard_main,
                    args=(spec, child_conn, socks),
                    name=f"repro-shard-{shard}",
                )
                process.start()
                child_conn.close()
                processes.append(process)
                conns[parent_conn] = shard
            # The children hold their own descriptors now (inherited on
            # fork, dup'd through pickling on spawn).
            for sock_a, sock_b in pairs.values():
                sock_a.close()
                sock_b.close()

            self._await_all(conns, "ready", timeout)
            wall_start = time.perf_counter()
            for conn in conns:
                conn.send(("go",))
            payloads = self._await_all(conns, "done", timeout)
            wall = time.perf_counter() - wall_start
            for conn in conns:
                try:
                    conn.send(("exit",))
                except (BrokenPipeError, OSError):
                    pass
            return DeploymentResult(
                plan=plan,
                wall_seconds=wall,
                shard_payloads={
                    p["shard"]: p for p in payloads.values()
                },
                transport=self.transport,
            )
        finally:
            for conn in conns:
                conn.close()
            deadline = time.monotonic() + 10.0
            for process in processes:
                process.join(max(0.0, deadline - time.monotonic()))
                if process.is_alive():
                    process.terminate()
                    process.join(1.0)

    @staticmethod
    def _await_all(conns, kind: str, timeout: float | None):
        from multiprocessing.connection import wait as conn_wait

        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        pending = set(conns)
        results: dict[Any, Any] = {}
        while pending:
            remaining = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    stuck = sorted(conns[c] for c in pending)
                    raise DeployError(
                        f"timed out waiting for {kind!r} from shards "
                        f"{stuck}"
                    )
            for conn in conn_wait(list(pending), remaining):
                try:
                    message = conn.recv()
                except EOFError:
                    raise DeployError(
                        f"shard {conns[conn]} exited before sending "
                        f"{kind!r}"
                    ) from None
                if message[0] == "error":
                    raise DeployError(
                        f"shard {message[1]} failed:\n{message[2]}"
                    )
                if message[0] != kind:
                    raise DeployError(
                        f"shard {conns[conn]} sent {message[0]!r} while "
                        f"waiting for {kind!r}"
                    )
                results[conn] = message[1] if len(message) > 1 else None
                pending.discard(conn)
        return results

    # ------------------------------------------------------- co-simulation

    def simulate(self, loss_rate: float = 0.0, seed: int = 0):
        """The sharded topology inside ONE engine, over in-process links.

        Every buffer cut is bridged exactly as a real deployment bridges
        it (marshal → wire-send | wire-recv → unmarshal), but the wire is
        an :class:`InProcessLink` delivering synchronously — so the whole
        multi-shard dataflow runs under one deterministic, seedable
        scheduler.  This is the *concrete* side of :meth:`certify`.
        """
        pipeline = build_program(self.app.program)
        plan = plan_placement(pipeline, self.placement)
        for cut in plan.cuts:
            if cut.kind == "netpipe":
                raise DeployError(
                    "simulate() cannot rehome simulated netpipes; cut "
                    "only at Buffer seams for co-simulation"
                )

        def transport_for(cut):
            link = InProcessLink(
                src=f"shard-{cut.src_shard}",
                dst=f"shard-{cut.dst_shard}",
                flow=cut.via,
                loss_rate=loss_rate,
                seed=seed + cut.index,
            )
            return link, True, True

        bridges = apply_cuts(pipeline, plan.cuts, transport_for)
        replaced = {c.via for c in plan.cuts if c.kind == "buffer"}
        components = [
            c for c in pipeline.components if c.name not in replaced
        ] + bridges
        twin = Pipeline(components)
        twin.derive_typespecs()
        return self.app.build(twin).engine

    # ------------------------------------------------------- certification

    def certify(
        self,
        *,
        seeds: int = 25,
        loss_rate: float = 0.0,
        loss_seed: int = 0,
        drive=None,
        **check_kwargs: Any,
    ):
        """Certify the sharded topology refines the single-core program.

        Runs :func:`repro.check.refine.check_refinement` with the plain
        single-engine build as the abstract side and :meth:`simulate` as
        the concrete side.  With ``loss_rate > 0`` the in-process wires
        drop items and auto-detection declares those channels lossy.
        """
        from repro.check.refine import PipelineUnderTest, check_refinement

        plan = self.plan()
        abstract = PipelineUnderTest(
            build=self.app.builder(),
            drive=drive,
            name="single-core",
        )
        concrete = PipelineUnderTest(
            build=lambda: self.simulate(
                loss_rate=loss_rate, seed=loss_seed
            ),
            drive=drive,
            name=f"{plan.shards}-shard",
        )
        return check_refinement(
            abstract, concrete, seeds=seeds, **check_kwargs
        )
