"""Scheduling constraints attached to messages.

The paper's thread package supports "scheduling control by attaching
priorities to threads as well as by attaching constraints to messages.  In
the latter case, the effective priority of a thread is derived by the
scheduler from the constraint of the message that the thread is currently
processing or, if the thread is waiting for the CPU, on the constraint of the
first message in its incoming queue."

A :class:`Constraint` carries a priority (larger is more urgent) and an
optional deadline in scheduler time.  Deadlines break priority ties: an
earlier deadline wins.  Constraints are compared through :meth:`sort_key`
only.  One is inherited along messages: a coroutine crossing's request
carries the constraint of the message its sender is processing
(:mod:`repro.runtime.section`), and the reply carries the request's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass(frozen=True, slots=True)
class Constraint:
    """Urgency attached to a message.

    Parameters
    ----------
    priority:
        Larger values are more urgent.  The framework reserves nothing; the
        Infopipe layer conventionally uses 0 for data, 10 for control events.
    deadline:
        Optional absolute scheduler time by which the message should be
        processed.  Used only to order messages/threads of equal priority.
    """

    priority: int = 0
    deadline: float | None = None
    #: Cached sort key — computed once at construction; ``sort_key()`` runs
    #: on every mailbox put and thread re-key, and constraints are
    #: immutable.
    _key: tuple[float, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        deadline = self.deadline if self.deadline is not None else math.inf
        object.__setattr__(self, "_key", (-self.priority, deadline))

    def sort_key(self) -> tuple[float, float]:
        """Key such that smaller sorts first for more-urgent constraints."""
        return self._key
