"""Certify fabric-hosted programs against their dedicated-engine twins.

Opening a program as one session among many — same scheduler,
weighted-fair dispatch, foreign tenants around it — must not change what
its sinks observe.  :func:`fabric_hosted` is that configuration as a
refinement-checker side::

    check_refinement(
        Pipeline.from_source(SRC).with_trace().builder(),  # specification
        fabric_hosted(SRC, tenants=3),  # same program, multiplexed
    )
"""

from __future__ import annotations

from typing import Any

from repro.check.explorer import DEFAULT_MAX_STEPS
from repro.check.refine import PipelineUnderTest
from repro.fabric.session import SessionFabric
from repro.runtime.engine import Engine


def fabric_hosted(
    program: Any, tenants: int = 3, quantum: int = 8
) -> PipelineUnderTest:
    """``program`` (anything ``open_session`` takes) among ``tenants``
    sessions running it too.  The build is the certified session's own
    Engine, opened un-namespaced (the twin's channel names) and started,
    so the drive runs the shared scheduler: exploration perturbs every
    tenant.  The dispatch ``quantum`` is part of what is certified: its
    bursts and Reposts run under the explorer as they ship."""

    def build() -> Engine:
        fabric = SessionFabric(quantum=quantum)
        for index in range(tenants // 2):
            fabric.open_session(program, name=f"bg{index}")
        session = fabric.open_session(program, name="cert", namespace=False)
        for index in range(tenants // 2, tenants):
            fabric.open_session(program, name=f"bg{index}")
        return session.engine

    return PipelineUnderTest(
        build=build,
        drive=lambda engine: engine.run(max_steps=DEFAULT_MAX_STEPS),
    )
