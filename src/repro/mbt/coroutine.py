"""Suspendable control flows — the coroutines of section 3.3.

The glue layer runs "active" pipeline components (and wrapper loops for
passive components used against their natural mode) as coroutines: control
flows that suspend whenever they need data moved across a boundary.  The
paper's coroutines "merely provide a suspendable control flow, but are not a
unit of scheduling"; scheduling stays with the pump's thread.

Two interchangeable backends implement one small protocol
(:class:`Suspendable`):

* :class:`GeneratorSuspendable` (default) — the component's body is a Python
  generator; it suspends by ``yield``-ing a request object.  Deterministic,
  allocation-free switching, no OS threads.
* :class:`OSThreadSuspendable` — the component's body is a plain function
  making *blocking* calls, exactly like the paper's C++ components; it runs
  on a real OS thread with strict hand-off, so at most one control flow in a
  set is ever runnable ("All but one coroutines in a given set are blocked
  at any time").

The request objects transported between a coroutine and its driver are
opaque to this module; the Infopipe runtime defines them (pull, push, ...).
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Generator

from repro.errors import RuntimeFault


class Done:
    """Marks completion of a suspendable; carries its return value."""

    __slots__ = ("result",)

    def __init__(self, result: Any = None):
        self.result = result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Done({self.result!r})"


class CoroutineKilled(BaseException):
    """Raised inside a coroutine body to unwind it during shutdown.

    Derives from ``BaseException`` so ordinary ``except Exception`` handlers
    in component code do not swallow it.
    """


class Suspendable:
    """A control flow that runs until it emits a request, then suspends."""

    def resume(self, value: Any = None) -> Any:
        """Continue execution, delivering ``value`` as the answer to the
        previous request.  Returns the next request, or :class:`Done`."""
        raise NotImplementedError

    def throw(self, exc: BaseException) -> Any:
        """Raise ``exc`` at the suspension point; returns like resume."""
        raise NotImplementedError

    def close(self) -> None:
        """Unwind the control flow (idempotent)."""
        raise NotImplementedError

    @property
    def finished(self) -> bool:
        raise NotImplementedError


class GeneratorSuspendable(Suspendable):
    """Backend running a generator; ``yield`` is the suspension point."""

    def __init__(self, gen: Generator):
        self._gen = gen
        self._started = False
        self._finished = False

    def resume(self, value: Any = None) -> Any:
        if self._finished:
            raise RuntimeFault("resume() after completion")
        try:
            if not self._started:
                self._started = True
                return next(self._gen)
            return self._gen.send(value)
        except StopIteration as stop:
            self._finished = True
            return Done(stop.value)

    def throw(self, exc: BaseException) -> Any:
        if self._finished:
            raise RuntimeFault("throw() after completion")
        if not self._started:
            self._started = True
            self._finished = True
            raise exc
        try:
            return self._gen.throw(exc)
        except StopIteration as stop:
            self._finished = True
            return Done(stop.value)

    def close(self) -> None:
        self._finished = True
        self._gen.close()

    @property
    def finished(self) -> bool:
        return self._finished


class SwitchChannel:
    """The blocking-call API handed to an :class:`OSThreadSuspendable` body.

    ``channel.call(request)`` publishes ``request`` to the driving thread
    and blocks until the driver resumes with an answer — a genuine blocking
    call, as in the paper's C++ components.
    """

    def __init__(self, owner: "OSThreadSuspendable"):
        self._owner = owner

    def call(self, request: Any) -> Any:
        return self._owner._thread_side_call(request)


_NOTHING = object()


class OSThreadSuspendable(Suspendable):
    """Backend running a plain blocking function on a real OS thread.

    Hand-off is strict: the controller and the body thread alternate, with
    exactly one of them runnable at any moment, synchronized through a
    single condition variable.
    """

    def __init__(self, func: Callable[[SwitchChannel], Any],
                 name: str = "coroutine"):
        self._func = func
        self._name = name
        self._cond = threading.Condition()
        self._to_body: Any = _NOTHING      # value or exception for the body
        self._to_body_exc: BaseException | None = None
        self._to_controller: Any = _NOTHING  # request, Done, or _Raise
        self._thread: threading.Thread | None = None
        self._finished = False

    class _Raise:
        __slots__ = ("exc",)

        def __init__(self, exc: BaseException):
            self.exc = exc

    # -- body side ----------------------------------------------------------

    def _bootstrap(self) -> None:
        channel = SwitchChannel(self)
        try:
            result = self._func(channel)
            outcome: Any = Done(result)
        except CoroutineKilled:
            outcome = Done(None)
        except BaseException as exc:  # delivered to the controller
            outcome = OSThreadSuspendable._Raise(exc)
        with self._cond:
            self._to_controller = outcome
            self._cond.notify_all()

    def _thread_side_call(self, request: Any) -> Any:
        with self._cond:
            self._to_controller = request
            self._cond.notify_all()
            while self._to_body is _NOTHING and self._to_body_exc is None:
                self._cond.wait()
            exc = self._to_body_exc
            value = self._to_body
            self._to_body = _NOTHING
            self._to_body_exc = None
        if exc is not None:
            raise exc
        return value

    # -- controller side ----------------------------------------------------

    def _exchange(self, value: Any, exc: BaseException | None) -> Any:
        with self._cond:
            if self._thread is None:
                if exc is not None:
                    self._finished = True
                    raise exc
                self._thread = threading.Thread(
                    target=self._bootstrap,
                    name=f"infopipe-{self._name}",
                    daemon=True,
                )
                self._thread.start()
            else:
                self._to_body = value if exc is None else _NOTHING
                self._to_body_exc = exc
                self._cond.notify_all()
            while self._to_controller is _NOTHING:
                self._cond.wait()
            outcome = self._to_controller
            self._to_controller = _NOTHING
        if isinstance(outcome, OSThreadSuspendable._Raise):
            self._finished = True
            raise outcome.exc
        if isinstance(outcome, Done):
            self._finished = True
        return outcome

    def resume(self, value: Any = None) -> Any:
        if self._finished:
            raise RuntimeFault("resume() after completion")
        return self._exchange(value, None)

    def throw(self, exc: BaseException) -> Any:
        if self._finished:
            raise RuntimeFault("throw() after completion")
        return self._exchange(None, exc)

    def close(self) -> None:
        if self._finished or self._thread is None:
            self._finished = True
            return
        try:
            self._exchange(None, CoroutineKilled())
        except CoroutineKilled:
            pass
        finally:
            self._finished = True
            if self._thread is not None:
                self._thread.join(timeout=2.0)

    @property
    def finished(self) -> bool:
        return self._finished
