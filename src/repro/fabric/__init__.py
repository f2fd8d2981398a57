"""Multi-tenant session fabric: thousands of pipelines, one scheduler.

Front door::

    from repro.fabric import SessionFabric

    fabric = SessionFabric()
    a = fabric.open_session(build_video, name="alice", weight=4.0)
    b = fabric.open_session(build_video, name="bob")
    fabric.run_to_completion()
    print(a.stats.summary())

See :mod:`repro.fabric.session` for the mechanism and docs/FABRIC.md for
the narrative.
"""

from repro.fabric.session import Session, SessionFabric, SessionState

__all__ = ["Session", "SessionFabric", "SessionState"]
