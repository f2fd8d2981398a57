"""Syscalls yielded by thread code functions.

A code function that needs to suspend — to wait for another message, to
sleep, or to model CPU consumption — is written as a generator and *yields*
one of the request objects below to the scheduler.  The scheduler performs
the request and resumes the generator with the result (``gen.send(result)``).
This is the Python rendering of the paper's suspendable code functions:
"code functions resemble event handlers, but may be suspended waiting for
other messages or may be preempted".

Code functions finish a message by returning :data:`CONTINUE` (thread stays
alive, awaiting its next message) or :data:`TERMINATE` (thread exits) —
mirroring "the thread is only terminated when indicated by the return code".
"""

from __future__ import annotations

from dataclasses import dataclass, field
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

#: Sentinel resumed into a ``Receive`` whose timeout expired.
TIMED_OUT = _ReturnCode("TIMED_OUT")


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
    the scheduler keeps handing it the CPU within a fair-quantum burst
    and nothing could be dispatched in between — the scheduler counts a
    dispatch and resumes the thread with ``True``: the code function
    runs its next message's work in place.  Otherwise the message is
    built and delivered as ``Send`` delivers it, the thread resumes with
    a false value, and its code function should return.  The schedule
    is the same either way — every step, fair-share charge and dispatch
    in the same order; a taken Repost only skips the message, so
    ``messages_delivered`` and the trace's ``deliver`` / ``done`` events
    for it are what differ.
    """

    kind: str
    constraint: Constraint | None = None


@dataclass(slots=True)
class Reply(Syscall):
    """Reply to a synchronous request message."""

    to: Message
    payload: Any = None


@dataclass(slots=True)
class Receive(Syscall):
    """Wait for the next message, optionally matching a predicate.

    Without a predicate, the most urgent queued message is delivered.  With
    one, the first queued message satisfying it is delivered; other messages
    stay queued.  ``timeout`` (in scheduler seconds) resumes the thread with
    :data:`TIMED_OUT` if nothing matched in time.
    """

    match: Callable[[Message], bool] | None = None
    timeout: float | None = None


@dataclass(slots=True)
class Call(Syscall):
    """Synchronous send: post a message and wait for its reply.

    While waiting, the caller's effective scheduling constraint is donated
    to the callee (priority inheritance), so a low-priority thread serving a
    high-priority caller cannot be starved by mid-priority threads.
    """

    target: str
    kind: str
    payload: Any = None
    constraint: Constraint | None = None
    timeout: float | None = None


@dataclass(slots=True)
class Sleep(Syscall):
    """Suspend for ``duration`` scheduler seconds."""

    duration: float


@dataclass(slots=True)
class WaitUntil(Syscall):
    """Suspend until the absolute scheduler time ``when``."""

    when: float


@dataclass(slots=True)
class Work(Syscall):
    """Consume ``duration`` seconds of CPU.

    Unlike :class:`Sleep`, working occupies the (single, simulated) CPU: no
    lower-priority thread runs meanwhile, and a higher-priority thread that
    becomes ready mid-work *preempts* the worker, which finishes the
    remainder later.  This models the paper's preemptible data-processing
    functions ("running data processing functions such as video decoders
    non-preemptively can introduce unacceptable delay in more time-critical
    components").
    """

    duration: float


@dataclass(slots=True)
class Yield(Syscall):
    """Voluntary preemption point; resumes once no more-urgent thread is ready."""


@dataclass(slots=True)
class Exit(Syscall):
    """Terminate the thread immediately."""

    code: Any = field(default_factory=lambda: TERMINATE)
