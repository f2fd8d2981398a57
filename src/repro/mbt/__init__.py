"""Message-based user-level thread package (the paper's section 4 substrate).

The Infopipe platform of the paper is built on a message-based threading
package [refs 11, 12, 14 in the paper]: each user-level thread consists of a
*code function* and a queue of incoming messages.  The code function is not
called when the thread is created, but each time a message is received; after
processing a message it returns, and the thread terminates only when the
return code says so.  Threads therefore behave like extended finite state
machines.  Scheduling combines static thread priorities with per-message
*constraints* and priority inheritance.

This package reproduces that substrate in Python:

* :mod:`repro.mbt.message` / :mod:`repro.mbt.constraints` -- messages and
  scheduling constraints.
* :mod:`repro.mbt.thread` -- :class:`MThread`, the code-function-per-message
  thread model.  Code functions may be plain callables or generators that
  yield *syscalls* (:mod:`repro.mbt.syscalls`) to suspend.
* :mod:`repro.mbt.scheduler` -- a deterministic discrete-event scheduler with
  a virtual clock (a real-time clock is available for demos), priority
  scheduling, preemption at yield points, and priority inheritance.
* :mod:`repro.mbt.coroutine` -- suspendable control flows used by the glue
  layer to run "active" pipeline components; a generator backend (default)
  and an OS-thread backend (paper-faithful blocking calls) share one API.
"""

from repro.mbt.clock import Clock, RealClock, VirtualClock
from repro.mbt.constraints import Constraint
from repro.mbt.coroutine import (
    Done,
    GeneratorSuspendable,
    OSThreadSuspendable,
    Suspendable,
)
from repro.mbt.mailbox import Mailbox
from repro.mbt.message import Message
from repro.mbt.scheduler import Scheduler
from repro.mbt.syscalls import (
    CONTINUE,
    TERMINATE,
    Call,
    Exit,
    Receive,
    Reply,
    Send,
    Sleep,
    WaitUntil,
    Work,
    Yield,
)
from repro.mbt.thread import MThread
from repro.mbt.timers import PeriodicTimer
from repro.mbt.tracing import format_trace, summarize, switch_counts, timeline

__all__ = [
    "CONTINUE",
    "Call",
    "Clock",
    "Constraint",
    "Done",
    "Exit",
    "GeneratorSuspendable",
    "MThread",
    "Mailbox",
    "Message",
    "OSThreadSuspendable",
    "PeriodicTimer",
    "RealClock",
    "Receive",
    "Reply",
    "Scheduler",
    "Send",
    "Sleep",
    "Suspendable",
    "TERMINATE",
    "VirtualClock",
    "WaitUntil",
    "Work",
    "Yield",
    "format_trace",
    "summarize",
    "switch_counts",
    "timeline",
]
