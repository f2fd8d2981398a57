"""Multi-tenant session fabric: thousands of pipelines, one scheduler.

Front door::

    from repro.fabric import SessionFabric

    fabric = SessionFabric()
    a = fabric.open_session(build_video, name="alice", weight=4.0)
    b = fabric.open_session(build_video, name="bob")
    fabric.run_to_completion()
    print(a.stats.summary())

See :mod:`repro.fabric.session` for the mechanism and
:mod:`repro.fabric.admission` for overload policies; docs/FABRIC.md for
the narrative.
"""

from repro.fabric.admission import (
    ACCEPT,
    DEGRADE,
    QUEUE,
    REJECT,
    AdmissionController,
    Decision,
    SessionRequest,
    degrade_over_capacity,
    queue_over_capacity,
    reject_over_capacity,
)
from repro.fabric.session import (
    Session,
    SessionFabric,
    SessionRejected,
)

__all__ = [
    "ACCEPT",
    "DEGRADE",
    "QUEUE",
    "REJECT",
    "AdmissionController",
    "Decision",
    "SessionRequest",
    "degrade_over_capacity",
    "queue_over_capacity",
    "reject_over_capacity",
    "Session",
    "SessionFabric",
    "SessionRejected",
]
