"""Certify fabric-hosted programs against their dedicated-engine twins.

The fabric's headline transparency claim: opening a program as one
session among many — same scheduler, weighted-fair dispatch, foreign
tenants churning around it — must not change what its sinks observe.
:func:`fabric_hosted` packages that "hosted under load" configuration as
the ``build()`` callable the refinement checker and the explorer take,
so the claim is machine-checked instead of asserted::

    from repro.api import Pipeline
    from repro.check import check_refinement
    from repro.fabric.certify import fabric_hosted

    cert = check_refinement(
        Pipeline.from_source(SRC).with_trace().builder(),  # specification
        fabric_hosted(SRC, tenants=3),  # same program, multiplexed
    )

The program under certification opens with ``namespace=False`` so its
component (and hence channel) names match the dedicated twin exactly;
the background tenants are namespaced and invisible to the comparison —
they only perturb scheduling.
"""

from __future__ import annotations

from typing import Any, Callable


class HostedSession:
    """A fabric-hosted session shaped like an Engine for the harnesses.

    Exposes the certified session's ``pipeline`` plus the *shared*
    ``scheduler``, so seeded exploration perturbs the interleaving of
    every tenant, not just the session under test.
    """

    def __init__(self, fabric: Any, session: Any):
        self.fabric = fabric
        self.session = session
        self.pipeline = session.pipeline
        self.scheduler = fabric.scheduler

    @property
    def stats(self):
        return self.session.engine.stats

    @property
    def _setup_done(self) -> bool:
        # Sessions open set-up and started; sink taps installed after
        # build() must recompile this session's flow walkers to be seen.
        return getattr(self.session.engine, "_setup_done", False)

    def _compile_walkers(self) -> None:
        self.session.engine._compile_walkers()

    def run_to_completion(self, max_steps: int | None = None):
        self.fabric.run_to_completion(max_steps=max_steps)
        return self


def fabric_hosted(
    program: Any,
    tenants: int = 3,
    quantum: int = 8,
) -> Callable[[], HostedSession]:
    """A zero-arg builder: ``program`` multiplexed among busy tenants.

    ``program`` is anything ``open_session`` takes (microlanguage
    source, builder callable, composed pipeline); the background tenants
    run ``program`` too, so the foreign load exercises the same code
    paths.  ``tenants`` background sessions open
    *around* the certified one (half before, half after — it must not
    matter).  The fabric's dispatch ``quantum`` is part of the certified
    configuration: bursts may only reorder *between* tenants, never
    within the certified session's streams.
    """
    from repro.fabric.session import SessionFabric

    def build() -> HostedSession:
        fabric = SessionFabric(quantum=quantum)
        before = tenants // 2
        for index in range(before):
            fabric.open_session(program, name=f"bg{index}")
        session = fabric.open_session(
            program, name="cert", namespace=False
        )
        for index in range(before, tenants):
            fabric.open_session(program, name=f"bg{index}")
        return HostedSession(fabric, session)

    return build
