"""Generated glue: adapting activity styles to usage modes (Figures 7/8).

"Our Infopipe middleware generates glue code for this purpose and converts
the functions into coroutines."  This module builds, for a component that
cannot be called directly in its assigned mode, a
:class:`~repro.mbt.coroutine.Suspendable` body whose requests are
:class:`~repro.core.styles.PullOp` / :class:`~repro.core.styles.PushOp`:

* active components — their own ``run()`` generator (or ``run_blocking``
  on an OS thread) is the body;
* consumers used in pull mode — the wrapper loop of Figure 7b:
  ``while running: x = prev.pull(); this.push(x)``;
* producers used in push mode — the wrapper loop of Figure 7a:
  ``while running: x = this.pull(); next.push(x)``.

A *direct-called* producer's ``get()`` is its port's :class:`ReplayIntake`
reader: a plain call into upstream where that is code of the same thread
section (paper sections 3.2 and 4), deterministic **replay** where a gate,
a lock or a coroutine crossing lies between — a plain function call cannot
suspend under the generator backend.  The OS-thread backend suspends for
real and needs no replay.
"""

from __future__ import annotations

from collections import deque
from types import SimpleNamespace
from typing import Any

from repro.core.component import Component
from repro.core.events import EOS, is_eos
from repro.core.items import NIL
from repro.core.styles import (
    ActiveComponent,
    EndOfStream,
    PullOp,
    PushOp,
    Style,
    intake_fault,
)
from repro.mbt.coroutine import (
    GeneratorSuspendable,
    OSThreadSuspendable,
    Suspendable,
)
from repro.errors import RuntimeFault


class NeedMoreInput(Exception):
    """Raised by a replay intake when a ``get()`` cannot be satisfied yet:
    the port has no bound fetcher, or the fetcher answered NIL.

    Deliberately has no ``__init__``: it is raised for every upstream fetch
    of every replayed port, and the default C-level constructor keeps that
    hot path frameless.
    """

    @property
    def port(self) -> str:
        return self.args[0]


class ReplayIntake:
    """Input buffers for direct-called producers: one reader per port.

    A ``get()`` first re-reads what the port's buffer already holds.  On
    a miss it either calls the *fetcher* bound to the port (:meth:`bind`
    — the port's in-section upstream, which can never suspend) and
    buffers what that returns, or raises :class:`NeedMoreInput`: the
    ``pull()`` is aborted, the driver feeds one more upstream item
    (possibly parking the thread) and re-runs it from the top.  Reads are
    only *committed* (removed from the buffers) when ``pull()`` completes,
    so a re-run sees identical inputs, whichever way they arrived.  Each
    port is one closure family built once (:meth:`_port_glue`): its read
    cursor is a cell of that family, zero whenever no attempt runs, shared
    by every walker compiled over the producer however often it re-binds.
    """

    def __init__(self, ports: list[str]):
        self.buffers: dict[str, deque] = {p: deque() for p in ports}
        self.eos: set[str] = set()
        self._glue = {p: self._port_glue(p) for p in ports}
        if len(ports) == 1:  # the port's own closures shadow the loops
            (glue,) = self._glue.values()
            self.begin, self.commit = glue.begin, glue.commit

    def begin(self) -> None:
        for glue in self._glue.values():
            glue.begin()

    def commit(self) -> None:
        for glue in self._glue.values():
            glue.commit()

    def intake(self, port: str = "in") -> Any:
        return self._glue[port].get()

    def feed(self, port: str, item: Any) -> None:
        if is_eos(item):
            self.eos.add(port)
        self.buffers[port].append(item)

    def held(self) -> int:
        """Data items (never EOS) fetched and not committed."""
        return sum(i is not EOS for b in self.buffers.values() for i in b)

    def bind(self, port: str, fetch, served: dict | None = None) -> None:
        """Let a miss on ``port`` call ``fetch() -> item | NIL | EOS``
        instead of aborting the pull; ``None`` restores abort-and-replay.
        ``served``: upstream's stats when ``fetch`` is its raw entry, for
        ``get()`` to count ``items_out`` in.  Decided per (re)compilation."""
        self._glue[port].bind(fetch, served)

    def install(self, component: Component) -> None:
        for glue in self._glue.values():
            glue.install(component, len(self._glue) == 1)

    def _port_glue(self, port: str):
        """One port's closure family: ``get()`` and the cursor it shares."""
        buffer, eos = self.buffers[port], self.eos
        index = 0  # how much of ``buffer`` the running attempt has read
        fetch = served = owner = None
        stats = {"items_in": 0}  # the producer's, once installed

        def get(asked: str = port) -> Any:
            nonlocal index
            if asked != port:
                raise intake_fault(owner, asked)
            if index < len(buffer):
                item = buffer[index]
            elif port in eos:
                raise EndOfStream(port)
            else:
                item = NIL if fetch is None else fetch()
                if item is NIL:
                    # A replayed port, or no data now: the pull is aborted,
                    # what it read stays buffered for the next attempt.
                    raise NeedMoreInput(port)
                buffer.append(item)
                if item is EOS:
                    eos.add(port)
                elif served is not None:
                    served["items_out"] += 1
            index += 1
            if item is EOS:
                raise EndOfStream(port)
            return item

        def begin() -> None:
            nonlocal index
            index = 0

        def commit() -> None:
            nonlocal index
            if index:
                if index == len(buffer):
                    buffer.clear()
                else:
                    for _ in range(index):
                        buffer.popleft()
                stats["items_in"] += index
                index = 0

        def bind(new_fetch, new_served) -> None:
            nonlocal fetch, served
            fetch, served = new_fetch, new_served

        def install(component: Component, only_port: bool) -> None:
            nonlocal owner, stats
            owner, stats = component, component.stats
            component._intakes[port] = get
            if only_port:  # the common case: ``get()`` *is* this reader
                component.get = get

        return SimpleNamespace(
            get=get, begin=begin, commit=commit, bind=bind, install=install
        )


class PendingEmits:
    """Collects a direct-called consumer's ``put()`` emissions so the
    driver can deliver them (possibly suspending) after ``push`` returns.

    The external activity is unchanged — every ``push`` triggers the same
    downstream pushes in the same order; only the suspension point moves
    from inside ``put()`` to just after ``push()`` returns (exact in-call
    suspension is available via the OS-thread backend).
    """

    def __init__(self):
        self.queue: deque[tuple[str, Any]] = deque()

    def install(self, component: Component) -> None:
        for port in component.out_ports():
            component._emitters[port.name] = (
                lambda item, p=port.name: self.queue.append((p, item))
            )

    def drain(self):
        while self.queue:
            yield self.queue.popleft()

    def __len__(self) -> int:
        return len(self.queue)


# ---------------------------------------------------------------------------
# Coroutine bodies
# ---------------------------------------------------------------------------


def build_suspendable(component: Component, backend: str) -> Suspendable:
    """Build the coroutine body for a component that needs one.

    ``backend`` is ``"generator"`` or ``"thread"``; a component only
    providing the other kind of body is accommodated (the two Suspendable
    backends are interchangeable from the driver's viewpoint).
    """
    if backend not in ("generator", "thread"):
        raise RuntimeFault(f"unknown coroutine backend {backend!r}")
    style = component.style
    if style is Style.ACTIVE:
        return _build_active(component, backend)
    if style is Style.CONSUMER:
        if backend == "thread":
            return OSThreadSuspendable(
                _consumer_thread_body(component), name=component.name
            )
        return GeneratorSuspendable(_consumer_pull_wrapper(component))
    if style is Style.PRODUCER:
        if backend == "thread":
            return OSThreadSuspendable(
                _producer_thread_body(component), name=component.name
            )
        return GeneratorSuspendable(_producer_push_wrapper(component))
    raise RuntimeFault(
        f"{component.name!r} (style {style}) never needs a coroutine"
    )


def _build_active(component: ActiveComponent, backend: str) -> Suspendable:
    has_gen = component.has_generator_body()
    has_blocking = component.has_blocking_body()
    if has_gen and not (backend == "thread" and has_blocking):
        return GeneratorSuspendable(component.run())
    if has_blocking:
        def body(channel):
            component.run_blocking(BlockingApi(channel))

        return OSThreadSuspendable(body, name=component.name)
    raise RuntimeFault(
        f"{component.name!r} defines neither run() nor run_blocking()"
    )


class BlockingApi:
    """The pull/push API handed to ``run_blocking`` bodies."""

    def __init__(self, channel):
        self._channel = channel

    def pull(self, port: str = "in") -> Any:
        return self._channel.call(PullOp(port))

    def push(self, item: Any, port: str = "out") -> None:
        self._channel.call(PushOp(item, port))


def _consumer_pull_wrapper(component: Component):
    """Figure 7b as a generator: pull upstream, feed this.push, emit the
    results as they become available."""
    pending = PendingEmits()
    pending.install(component)
    while True:
        item = yield PullOp("in")
        if is_eos(item):
            break
        component.receive_push(item)
        for port, out in pending.drain():
            yield PushOp(out, port)
    # Trailing emissions (a flush on EOS would land here).
    for port, out in pending.drain():
        yield PushOp(out, port)


def _consumer_thread_body(component: Component):
    """Figure 7b on an OS thread: ``put()`` suspends genuinely inside
    ``push()``."""

    def body(channel):
        for port in component.out_ports():
            component._emitters[port.name] = (
                lambda item, p=port.name: channel.call(PushOp(item, p))
            )
        while True:
            item = channel.call(PullOp("in"))
            if is_eos(item):
                return
            component.receive_push(item)

    return body


def _producer_push_wrapper(component: Component):
    """Figure 7a as a generator: run this.pull() under replay, pushing each
    completed result downstream."""
    replay = ReplayIntake([p.name for p in component.in_ports()])
    replay.install(component)
    while True:
        replay.begin()
        try:
            out = component.serve_pull()
        except NeedMoreInput as need:
            item = yield PullOp(need.port)
            replay.feed(need.port, item)
            continue
        except EndOfStream:
            return
        replay.commit()
        yield PushOp(out, "out")


def _producer_thread_body(component: Component):
    """Figure 7a on an OS thread: ``get()`` blocks genuinely inside
    ``pull()`` — no replay restriction."""

    def body(channel):
        for port in component.in_ports():
            component._intakes[port.name] = (
                lambda p=port.name: _checked_pull(channel, p)
            )
        while True:
            try:
                out = component.serve_pull()
            except EndOfStream:
                return
            channel.call(PushOp(out, "out"))

    def _checked_pull(channel, port: str) -> Any:
        item = channel.call(PullOp(port))
        if is_eos(item):
            raise EndOfStream(port)
        component.stats["items_in"] += 1
        return item

    return body
