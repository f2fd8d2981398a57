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
from repro.errors import DeployError


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
        engine = self.engine
        engine.start()
        engine.run(until=until, max_steps=max_steps)
        if until is not None:
            engine.stop()
            engine.run(max_steps=max_steps)
        if self.tracer is not None:
            self.tracer.finalize_inflight()
        return self

    @property
    def stats(self):
        return self.engine.stats

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

    def builder(self) -> Callable[[], Any]:
        """A zero-arg callable building a fresh, un-run Engine — the
        form the refinement checker and schedule explorer consume."""

        def build_engine():
            from repro.deploy.worker import build_program
            from repro.runtime.engine import Engine

            options = {
                "backend": self.backend,
                "batch_max": self.batch_max,
                "trace": self.trace,
                "trace_limit": self.trace_limit,
                **self.engine_kwargs,
            }
            return Engine(build_program(self.program), **options)

        build_engine.__name__ = "api_pipeline_builder"
        return build_engine

    def build(self) -> BuiltApp:
        """Build the engine and attach the requested telemetry."""
        engine = self.builder()()
        telemetry = tracer = slo = None
        want_metrics = self.metrics or self.slo_latency is not None
        want_tracing = (
            self.flow_sample is not None or self.slo_latency is not None
        )
        if want_metrics:
            from repro.obs import Telemetry

            telemetry = Telemetry().attach(engine)
        if want_tracing:
            from repro.obs.flow import FlowTracer

            tracer = FlowTracer(
                sample_every=self.flow_sample or 1,
                registry=telemetry.registry if telemetry else None,
            ).attach(engine)
        if self.slo_latency is not None:
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
                registry=telemetry.registry if telemetry else None,
            ).attach(tracer)
        return BuiltApp(
            engine=engine, telemetry=telemetry, tracer=tracer, slo=slo
        )

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

        return Deployment(
            self.program,
            placement,
            shards=shards,
            backend=self.backend,
            batch_max=self.batch_max,
            telemetry=self.metrics,
            engine_kwargs=dict(self.engine_kwargs),
            **kwargs,
        )

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
