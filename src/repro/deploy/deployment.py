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

* ``shards == 1`` — ``repro.api.Pipeline.build()`` over the one build,
  run in-process, bit-for-bit the scheduler trace of
  ``repro.api.Pipeline.run`` (the golden traces pin this).
* ``shards > 1`` — one OS process per shard, each running its slice of
  one build, and one ``socket.socketpair()`` (or TCP pair) per shard
  pair that a cut joins; each cut edge is a credited stream of the
  pair's :class:`~repro.net.mux.StreamMux`, carrying coalesced frames.
* :meth:`simulate` — every shard split out of one build as a deploy
  splits it, all in ONE engine, each shard pair joined by a mux pair
  over in-process links: deterministic, and what :meth:`certify`
  explores.
"""

from __future__ import annotations

import signal
import socket
import time
import traceback
from dataclasses import dataclass
from typing import Any

from repro import api
from repro.core.composition import Pipeline
from repro.errors import DeployError, InfopipeError
from repro.deploy.placement import Placement, ShardPlan, plan_placement
from repro.deploy.worker import (
    ShardSpec,
    build_program,
    done_payload,
    realise,
    shard_main,
    split,
    split_shards,
)
from repro.net.mux import StreamMux
from repro.net.socketlink import InProcessLink, tcp_socketpair


def _stop_shards(processes: list, conns) -> str:
    """Close the control pipes and reap every shard, terminating one
    still alive after 10 s; returns which shards a signal had ended
    first ("shard 1 was killed by SIGKILL"), or ""."""
    for conn in conns:
        conn.close()
    deadline, killed = time.monotonic() + 10.0, []
    for shard, process in enumerate(processes):
        process.join(max(0.0, deadline - time.monotonic()))
        if (process.exitcode or 0) < 0:
            name = signal.Signals(-process.exitcode).name
            killed.append(f"shard {shard} was killed by {name}")
        if process.is_alive():
            process.terminate()
            process.join(1.0)
    return ", ".join(killed)


def _pairs(plan: ShardPlan) -> set[tuple[int, int]]:
    """The ``(low, high)`` shard pairs that a cut joins."""
    return {tuple(sorted((c.src_shard, c.dst_shard))) for c in plan.cuts}


def _close_pairs(pairs) -> None:
    for sock_a, sock_b in pairs.values():
        sock_a.close()
        sock_b.close()


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
        A live Pipeline is accepted for single-shard use only: a shard
        process builds the program, and a split cuts up its build.
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

    def _build(self) -> Pipeline:
        """One build of the program; a builder's own error is a DeployError."""
        try:
            return build_program(self.app.program)
        except InfopipeError:
            raise
        except Exception as error:
            raise DeployError(
                f"the program's build failed: {error!r}") from error

    def plan(self, pipeline: Pipeline | None = None) -> ShardPlan:
        """Plan the placement on ``pipeline`` (default: a fresh build)."""
        if pipeline is None:
            pipeline = self._build()
        return plan_placement(pipeline, self.placement)

    def describe(self) -> str:
        return self.plan().describe()

    # ------------------------------------------------------------ running

    def run(self, timeout: float | None = None) -> DeploymentResult:
        """Build once, plan on that build, and run it to its end."""
        if self.placement.shards > 1:
            # Spawn pickles the spec and a live Pipeline is refused there;
            # fork would not ask, so ask for it.
            self.app.__getstate__()
            return self._run_sharded(timeout)
        # The single-shard path is a plain in-process run — same
        # scheduler, same instruction stream, bit-for-bit the golden
        # traces.
        pipeline = self._build()
        plan = self.plan(pipeline)
        built = self.app.build(pipeline)
        started = time.perf_counter()
        built.run()
        wall = time.perf_counter() - started
        return DeploymentResult(
            plan=plan,
            wall_seconds=wall,
            shard_payloads={0: done_payload(0, built, wall, {})},
            engine=built.engine,
        )

    def _run_sharded(self, timeout: float | None) -> DeploymentResult:
        import multiprocessing as mp

        ctx = mp.get_context(self.start_method)
        pipeline = self._build()
        plan = self.plan(pipeline)
        pairs = {
            pair: _socketpair_for(self.transport) for pair in _pairs(plan)
        }
        processes: list = []
        conns: dict[Any, int] = {}
        try:
            # shard -> {peer shard: its end of their pair}
            socks = {shard: {} for shard in range(plan.shards)}
            for (low, high), (low_end, high_end) in pairs.items():
                socks[low][high], socks[high][low] = low_end, high_end
            # Under fork every shard is split out and set up here, before
            # any is forked (after a fork, a page the parent writes is
            # copied too); a failure reads as that shard's error report
            # would, and a failed split as shard 0's.
            built: dict[int, tuple] = {}
            fork = ctx.get_start_method() == "fork"
            if fork:
                shard = 0
                try:
                    for shard, (muxes, pipe) in split_shards(
                            pipeline, plan, socks).items():
                        built[shard] = muxes, realise(self.app, pipe)
                except Exception as error:
                    raise DeployError(
                        f"shard {shard} failed:\n"
                        f"{traceback.format_exc()}") from error
                del muxes, pipe
            del pipeline  # each shard's engine leaves with its fork
            for shard in range(plan.shards):
                parent_conn, child_conn = ctx.Pipe()
                # A forked shard inherits every end the parent holds and
                # closes the foreign ones, or a dead peer never reads EOF.
                own = socks[shard].values()
                foreign = [*conns, parent_conn, *(
                    end for ends in pairs.values() for end in ends
                    if end not in own)] if fork else []
                process = ctx.Process(
                    target=shard_main,
                    args=(ShardSpec(shard, self.app, plan), child_conn,
                          socks[shard], built.pop(shard, None), foreign),
                    name=f"repro-shard-{shard}",
                )
                process.start()
                child_conn.close()
                processes.append(process)
                conns[parent_conn] = shard
            # The children hold their own descriptors now (inherited on
            # fork, dup'd through pickling on spawn).
            _close_pairs(pairs)

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
        except DeployError as failure:
            # A killed shard is the cause; what its peers reported (an
            # EOF, a broken link) are the consequences.
            killed = _stop_shards(processes, conns)
            if killed:
                raise DeployError(f"{killed}; {failure}") from failure
            raise
        finally:
            _stop_shards(processes, conns)
            _close_pairs(pairs)

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

    def simulate(self):
        """The sharded topology inside ONE engine.

        One build is split into every shard as a deploy splits it
        (:func:`~repro.deploy.worker.split`), each shard pair joined by two
        :class:`StreamMux` es over :class:`InProcessLink` s: each cut is
        the credited stream a deployment ships, trains and grants included,
        and the whole dataflow runs under one deterministic scheduler, the
        *concrete* side of :meth:`certify`."""
        self.app.__getstate__()  # a live Pipeline: the split would consume it
        pipeline = self._build()
        plan = self.plan(pipeline)
        muxes: dict[int, dict[int, StreamMux]] = {
            shard: {} for shard in range(plan.shards)}
        for low, high in _pairs(plan):
            forward = InProcessLink(
                f"shard-{low}", f"shard-{high}", f"shards-{low}-{high}")
            back = InProcessLink(
                f"shard-{high}", f"shard-{low}", f"shards-{high}-{low}")
            muxes[low][high] = StreamMux(forward, inbound=back)
            muxes[high][low] = StreamMux(back, inbound=forward)
        union = Pipeline([
            component
            for shard_pipe in split(pipeline, plan, muxes).values()
            for component in shard_pipe.components
        ])
        union.derive_typespecs()
        return self.app.build(union).engine

    # ------------------------------------------------------- certification

    def certify(self, *, seeds: int = 25, drive=None, **check_kwargs: Any):
        """Certify the sharded topology refines the single-core program.

        Runs :func:`repro.check.refine.check_refinement` with the plain
        single-engine build as the abstract side and :meth:`simulate` as
        the concrete side.
        """
        from repro.check.refine import PipelineUnderTest, check_refinement

        abstract = PipelineUnderTest(
            build=self.app.builder(),
            drive=drive,
            name="single-core",
        )
        concrete = PipelineUnderTest(
            build=self.simulate, drive=drive,
            name=f"{self.placement.shards}-shard",
        )
        return check_refinement(
            abstract, concrete, seeds=seeds, **check_kwargs
        )
