"""The fluent application facade: describe, configure, run, deploy.

One import gives the whole lifecycle, with every policy knob a chainable
``with_*`` step and execution split from description — the same program
value can be run in-process, traced, certified, or sharded over N cores
without touching the program itself::

    from repro.api import Pipeline

    app = (
        Pipeline.from_source("counting(limit=24) >> greedy_pump >> "
                             "buffer(4) >> greedy_pump >> collect")
        .with_batching(8)
        .with_tracing(sample_every=1)
    )
    built = app.run()                    # in-process, telemetry attached
    result = app.deploy(shards=2)        # two OS processes, wire-bridged
    cert = app.certify(shards=2)         # sharded refines single-core

Facade objects are immutable: each ``with_*`` returns a new one, so a
base description can fan out into variants safely.  ``Pipeline`` here is
the *application* facade; the structural composition class of the same
name lives at :class:`repro.core.composition.Pipeline`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.composition import Pipeline as CorePipeline
from repro.core.naming import fresh_scope
from repro.errors import DeployError
from repro.runtime.engine import Engine


def build_program(program: Any) -> CorePipeline:
    """Materialize a program into a composed core Pipeline.

    Source strings and builder callables build under a private naming
    scope (:func:`repro.core.naming.fresh_scope`), so every build of one
    program yields identical names; a live graph is returned as it is."""
    if isinstance(program, CorePipeline):
        return program
    if isinstance(program, str):
        from repro.lang.builder import build

        with fresh_scope():
            return build(program).pipeline
    if callable(program):
        with fresh_scope():
            result = program()
        if isinstance(result, CorePipeline):
            return result
        pipeline = getattr(result, "pipeline", None)
        if isinstance(pipeline, CorePipeline):
            return pipeline
        raise DeployError(
            f"program callable returned {type(result).__name__}, not a "
            "Pipeline"
        )
    raise DeployError(
        f"cannot build a pipeline from {type(program).__name__}; pass a "
        "microlanguage source string or a callable returning a Pipeline"
    )


@dataclass
class BuiltApp:
    """A built, runnable engine plus whatever telemetry was requested."""

    engine: Any
    telemetry: Any = None
    tracer: Any = None
    slo: Any = None

    def run(
        self, until: float | None = None, max_steps: int | None = None
    ) -> "BuiltApp":
        """Start and run: to EOS, or to ``until`` then stop and drain."""
        self.engine.start()
        return self.finish(until=until, max_steps=max_steps)

    def finish(
        self, until: float | None = None, max_steps: int | None = None
    ) -> "BuiltApp":
        """Run the started engine to its end: to EOS, or to ``until``
        then stop and drain whatever the horizon left undelivered."""
        engine = self.engine
        engine.run(until=until, max_steps=max_steps)
        if until is not None:
            engine.stop()
            engine.run(max_steps=max_steps)
        if self.tracer is not None:
            self.tracer.finalize_inflight()
        return self

    def prometheus(self) -> str:
        if self.telemetry is None:
            raise DeployError(
                "no telemetry attached; add .with_metrics() first"
            )
        return self.telemetry.prometheus()


@dataclass(frozen=True)
class Pipeline:
    """Immutable fluent builder over a deployment *program*.

    The program is either a microlanguage source string, a zero-arg
    builder callable returning a composed core Pipeline, or a live core
    Pipeline (single-shard only — live graphs cannot be shipped to
    worker processes).
    """

    program: Any
    backend: str = "generator"
    batch_max: int | None = None
    trace: bool = False
    trace_limit: int | None = None
    metrics: bool = False
    flow_sample: int | None = None
    slo_latency: float | None = None
    engine_kwargs: dict[str, Any] = field(default_factory=dict)

    # ----------------------------------------------------------- sources

    @classmethod
    def of(cls, program: Any) -> "Pipeline":
        """``program`` itself when it already is a run spec; a bare
        program (any form above) is the spec with default options."""
        return program if isinstance(program, cls) else cls(program=program)

    @classmethod
    def from_source(cls, source: str, registry: Any = None) -> "Pipeline":
        """From a microlanguage description (fails fast on syntax)."""
        from repro.lang.parser import parse

        parse(source)
        if registry is not None:
            from repro.lang.builder import build

            return cls(program=lambda: build(source, registry).pipeline)
        return cls(program=source)

    @classmethod
    def from_builder(
        cls, builder: Callable[[], CorePipeline]
    ) -> "Pipeline":
        """From a zero-arg callable returning a fresh core Pipeline.

        Make it a module-level function (or ``functools.partial`` of
        one) to keep spawn-mode deployment available."""
        return cls(program=builder)

    @classmethod
    def from_pipeline(cls, pipe: CorePipeline) -> "Pipeline":
        """From a live composed graph (in-process execution only)."""
        return cls(program=pipe)

    # ------------------------------------------------------ with_* steps

    def _replace(self, **changes: Any) -> "Pipeline":
        return dataclasses.replace(self, **changes)

    def with_batching(self, batch_max: int) -> "Pipeline":
        """Move up to ``batch_max`` items per pump cycle (PR 4 plane)."""
        return self._replace(batch_max=batch_max)

    def with_backend(self, backend: str) -> "Pipeline":
        """``"generator"`` (default) or ``"thread"`` suspension backend."""
        return self._replace(backend=backend)

    def with_trace(self, limit: int | None = None) -> "Pipeline":
        """Record the scheduler event trace (optionally ring-bounded)."""
        return self._replace(trace=True, trace_limit=limit)

    def with_metrics(self) -> "Pipeline":
        """Attach the metrics registry + exporters on build."""
        return self._replace(metrics=True)

    def with_tracing(self, sample_every: int = 1) -> "Pipeline":
        """Attach causal flow tracing, sampling 1-in-N source items."""
        return self._replace(flow_sample=sample_every)

    def with_slo(self, latency: float = 0.1) -> "Pipeline":
        """Attach the built-in burn-rate SLOs (implies metrics+tracing)."""
        return self._replace(slo_latency=latency)

    def with_engine_options(self, **kwargs: Any) -> "Pipeline":
        """Extra keyword arguments forwarded to every Engine built."""
        merged = {**self.engine_kwargs, **kwargs}
        return self._replace(engine_kwargs=merged)

    # ------------------------------------------------------- realization

    def build(
        self, pipeline: CorePipeline | None = None, scheduler: Any = None
    ) -> BuiltApp:
        """Realise the spec: the engine plus the telemetry it asks for.

        Every execution path goes through here — in-process runs, shard
        workers (``pipeline`` is the shard's cut sub-graph), co-simulated
        twins and fabric sessions (``scheduler`` is the shared one) — so
        an option stated on the spec means the same thing in all of them.
        """
        if pipeline is None:
            pipeline = build_program(self.program)
        options = {
            "backend": self.backend,
            "batch_max": self.batch_max,
            "trace": self.trace,
            "trace_limit": self.trace_limit,
            **self.engine_kwargs,
        }
        engine = Engine(pipeline, scheduler=scheduler, **options)
        telemetry = tracer = slo = None
        want_slo = self.slo_latency is not None
        if self.metrics or want_slo:
            from repro.obs import Telemetry

            telemetry = Telemetry().attach(engine)
        registry = telemetry.registry if telemetry is not None else None
        if self.flow_sample is not None or want_slo:
            from repro.obs.flow import FlowTracer

            tracer = FlowTracer(
                sample_every=self.flow_sample or 1, registry=registry
            ).attach(engine)
        if want_slo:
            from repro.obs.slo import Objective, SloEngine

            slo = SloEngine(
                [
                    Objective(
                        "e2e-latency", "latency_p99",
                        target=self.slo_latency,
                    ),
                    Objective(
                        "delivery", "delivered_fraction", target=0.99
                    ),
                ],
                registry=registry,
            ).attach(tracer)
        return BuiltApp(
            engine=engine, telemetry=telemetry, tracer=tracer, slo=slo
        )

    def builder(self) -> Callable[[], Any]:
        """A zero-arg callable building a fresh, un-run Engine — the
        form the refinement checker and schedule explorer consume."""
        return lambda: self.build().engine

    def __getstate__(self) -> dict[str, Any]:
        # Pickling is how the spec reaches a shard process.
        if isinstance(self.program, CorePipeline):
            raise DeployError(
                "a live Pipeline cannot be shipped to shard processes; "
                "pass a microlanguage source string or a picklable "
                "builder callable"
            )
        return self.__dict__

    def run(
        self, until: float | None = None, max_steps: int | None = None
    ) -> BuiltApp:
        """Build and run in-process; returns the :class:`BuiltApp`."""
        return self.build().run(until=until, max_steps=max_steps)

    # -------------------------------------------------------- deployment

    def deployment(
        self,
        placement: Any = None,
        *,
        shards: int | None = None,
        **kwargs: Any,
    ):
        """A configured :class:`~repro.deploy.Deployment` (not yet run)."""
        from repro.deploy import Deployment

        return Deployment(self, placement, shards=shards, **kwargs)

    def deploy(
        self,
        placement: Any = None,
        *,
        shards: int | None = None,
        timeout: float | None = None,
        **kwargs: Any,
    ):
        """Plan, spawn, run and gather: multi-core execution in one call."""
        return self.deployment(
            placement, shards=shards, **kwargs
        ).run(timeout=timeout)

    def certify(
        self,
        placement: Any = None,
        *,
        shards: int | None = None,
        seeds: int = 25,
        **kwargs: Any,
    ):
        """Certify the sharded topology refines this program."""
        return self.deployment(placement, shards=shards).certify(
            seeds=seeds, **kwargs
        )
