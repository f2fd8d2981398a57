"""Clocks for the scheduler.

The default :class:`VirtualClock` advances only when the scheduler tells it
to, giving fully deterministic discrete-event execution: a one-hour media
session simulates in milliseconds and every test run is reproducible.  The
:class:`RealClock` wraps ``time.monotonic`` for interactive demos.
"""

from __future__ import annotations

import time


class Clock:
    """Abstract clock interface used by the scheduler."""

    def now(self) -> float:
        raise NotImplementedError

    def advance_to(self, when: float) -> None:
        """Move time forward to ``when`` (no-op for real clocks)."""
        raise NotImplementedError

    @property
    def is_virtual(self) -> bool:
        return False


class VirtualClock(Clock):
    """Discrete-event simulated time, starting at 0 seconds."""

    def __init__(self):
        self._now = 0.0

    def now(self) -> float:
        return self._now

    _BACKWARD_TOLERANCE = 1e-9

    def advance_to(self, when: float) -> None:
        if when < self._now:
            # Tolerate float rounding from accumulated advances; anything
            # larger is a real scheduling bug.
            if self._now - when > self._BACKWARD_TOLERANCE:
                raise ValueError(
                    f"virtual time cannot move backwards: "
                    f"{when} < {self._now}"
                )
            return
        self._now = when

    @property
    def is_virtual(self) -> bool:
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<VirtualClock t={self._now:.6f}>"


class RealClock(Clock):
    """Wall-clock time based on ``time.monotonic``.

    ``advance_to`` sleeps until the requested time, so pipelines drive real
    devices at their nominal rates.
    """

    def __init__(self):
        self._origin = time.monotonic()

    def now(self) -> float:
        return time.monotonic() - self._origin

    def advance_to(self, when: float) -> None:
        delay = when - self.now()
        if delay > 0:
            time.sleep(delay)
