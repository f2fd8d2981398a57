"""Syscalls yielded by thread code functions.

A code function that needs to suspend — to wait for another message or to
model CPU consumption — is written as a generator and *yields* one of the
request objects below to the scheduler.  The scheduler performs the request
and resumes the generator with the result (``gen.send(result)``).  This is
the Python rendering of the paper's suspendable code functions: "code
functions resemble event handlers, but may be suspended waiting for other
messages or may be preempted".

These are exactly the requests the middleware yields: ``Send`` and
``Reply`` (a coroutine crossing's request and its answer), ``Receive``
(every blocked push, pull, lock, crossing and credit wait, through
``ThreadCtx.wait``), ``Repost`` (a pump's next cycle) and ``Work``
(simulated CPU cost).  ``Yield`` is the one explicit preemption point.
Waiting for time is a timer that posts a message
(:meth:`~repro.mbt.scheduler.Scheduler.at`,
:class:`~repro.mbt.timers.PeriodicTimer`).

Code functions finish a message by returning :data:`CONTINUE` (thread stays
alive, awaiting its next message) or :data:`TERMINATE` (thread exits) —
mirroring "the thread is only terminated when indicated by the return code".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.mbt.constraints import Constraint
from repro.mbt.message import Message


class _ReturnCode:
    def __init__(self, name: str):
        self._name = name

    def __repr__(self) -> str:
        return self._name


#: Return code: keep the thread alive for further messages.
CONTINUE = _ReturnCode("CONTINUE")
#: Return code: terminate the thread.
TERMINATE = _ReturnCode("TERMINATE")


class Syscall:
    """Base class for everything a code function may yield."""

    __slots__ = ()


@dataclass(slots=True)
class Send(Syscall):
    """Asynchronous send; the sender continues immediately."""

    message: Message


@dataclass(slots=True)
class Repost(Syscall):
    """Send oneself the next message, or carry on as if it had arrived.

    Yielded where a code function would end with ``Send`` of a
    ``Message(kind, constraint=constraint)`` to its own thread.  When
    that message would be the very next thing the thread dispatches —
    it holds a fair-quantum burst, or, untenanted, no ready rival would
    run first, and nothing could be dispatched in between — the
    scheduler counts a dispatch and resumes the thread with ``True``:
    the code function runs its next message's work in place.  Otherwise
    the message is built and delivered as ``Send`` delivers it, the
    thread resumes with a false value, and its code function should
    return.  The schedule is the same either way — every step, fair-share
    charge and dispatch in the same order, and the trace's ``deliver``,
    ``done`` and ``dispatch`` events at the same instants; a taken
    Repost only skips the message, so ``messages_delivered`` is what
    differs.
    """

    kind: str
    constraint: Constraint | None = None


@dataclass(slots=True)
class Reply(Syscall):
    """Answer a request message (``needs_reply``); the reply is addressed
    to its sender and carries the request's constraint."""

    to: Message
    payload: Any = None


@dataclass(slots=True)
class Receive(Syscall):
    """Wait for the next message, optionally matching a predicate.

    Without a predicate, the most urgent queued message is delivered.  With
    one, the first queued message satisfying it is delivered; other messages
    stay queued.
    """

    match: Callable[[Message], bool] | None = None


@dataclass(slots=True)
class Work(Syscall):
    """Consume ``duration`` seconds of CPU.

    Working occupies the (single, simulated) CPU: no lower-priority thread
    runs meanwhile, and a higher-priority thread that becomes ready mid-work
    *preempts* the worker, which finishes the remainder later.  This models
    the paper's preemptible data-processing functions ("running data
    processing functions such as video decoders non-preemptively can
    introduce unacceptable delay in more time-critical components").
    """

    duration: float


@dataclass(slots=True)
class Yield(Syscall):
    """Voluntary preemption point; resumes once no more-urgent thread is ready."""

