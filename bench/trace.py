"""Outside-in span tracing: wrappers the benchmark installs around the
library's entry points, before the program under test is built.

Nothing in ``repro`` knows about this module.  A :class:`Tracer` replaces
named attributes (methods on classes, functions on modules) with wrappers
that record a span — group, start, end, parent — and keeps per-group
aggregates per phase:

* **self time** of a span is its duration minus the part its child spans
  cover, so summing self times over groups never counts a nanosecond
  twice;
* every target belongs to one *group* (``"mbt.run"``, ``"net.link_send"``
  …); a layer metric is a sum of group self times over a count or over
  the phase's wall time (:mod:`bench.layers`);
* a target that no longer resolves is listed in :attr:`Tracer.missing`
  and skipped — the library may rename its internals without breaking the
  benchmark; the metrics fed by that group then read ``null``.

Three wrapper kinds cover what the runtime does behind an entry point:
``call`` (a plain function), ``generator`` (a function returning the
generator a scheduler thread runs: every resumption is one span, so the
driver's share separates from the dispatch loop's) and ``timer`` (a
function taking a callback to fire later: the callback runs in a span).
"""

from __future__ import annotations

import importlib
import json
import time
from inspect import isgenerator
from pathlib import Path
from typing import Any, Callable, NamedTuple

_now = time.perf_counter_ns

PHASES = ("setup", "run", "teardown")
_MISSING = object()


class Target(NamedTuple):
    group: str
    #: ``"package.module:Owner.attr"`` or ``"package.module:function"``.
    path: str
    kind: str = "call"
    #: Optional ``tally(args, result) -> int`` summed per group (blocked
    #: outcomes, items moved in columnar runs …).
    tally: Callable[[tuple, Any], int] | None = None


def _blocked_push(args, result):
    return 1 if result == "full" else 0


def _blocked_pull(args, result):
    return 1 if result[0] == "empty" else 0


def _short_push_many(args, result):
    return 1 if result < len(args[1]) else 0


def _columnar_items(args, result):
    return len(args[1]) if result is not None else 0


#: Every span target, on every workload.  Data-plane entries name the
#: concrete classes the six workloads are built from.
TARGETS: list[Target] = [
    # lang / core / runtime set-up stages
    Target("lang.parse", "repro.lang.parser:parse"),
    Target("lang.parse", "repro.lang.builder:parse"),
    Target("lang.build", "repro.lang.builder:build"),
    Target("core.compose", "repro.core.composition:Pipeline.join"),
    Target("core.compose", "repro.core.composition:connect"),
    Target("core.compose", "repro.core.composition:Pipeline.derive_typespecs"),
    Target("core.allocate", "repro.runtime.engine:allocate"),
    Target("runtime.setup", "repro.runtime.engine:Engine.setup"),
    Target("runtime.start", "repro.runtime.engine:Engine.start"),
    Target("runtime.stop", "repro.runtime.engine:Engine.stop"),
    # runtime data plane: the bodies of pump and coroutine threads
    Target("runtime.driver", "repro.runtime.engine:PumpDriver.code", "generator"),
    Target(
        "runtime.driver", "repro.runtime.engine:CoroutineDriver.code",
        "generator",
    ),
    # mbt
    Target("mbt.run", "repro.mbt.scheduler:Scheduler.run"),
    Target("mbt.mailbox", "repro.mbt.mailbox:Mailbox.put"),
    Target("mbt.mailbox", "repro.mbt.mailbox:Mailbox.put_many"),
    Target("mbt.mailbox", "repro.mbt.mailbox:Mailbox.get"),
    Target("mbt.timer_callback", "repro.mbt.scheduler:Scheduler.at", "timer"),
    # components
    Target("components.stage", "repro.components.sources:IterSource.pull"),
    Target("components.stage", "repro.components.sources:CountingSource.pull"),
    Target("components.stage", "repro.components.frag:PullDefragmenter.pull"),
    Target("components.stage", "repro.components.frag:PushDefragmenter.push"),
    Target("components.stage", "repro.components.sinks:CollectSink.push"),
    Target(
        "components.buffer", "repro.components.buffers:Buffer.try_push",
        tally=_blocked_push,
    ),
    Target(
        "components.buffer", "repro.components.buffers:Buffer.try_pull",
        tally=_blocked_pull,
    ),
    Target(
        "components.buffer", "repro.components.buffers:Buffer.try_push_many",
        tally=_short_push_many,
    ),
    Target(
        "components.buffer", "repro.components.buffers:Buffer.try_pull_many",
        tally=_blocked_pull,
    ),
    # net: marshalling, netpipes, real links, mux, simulator
    Target("net.marshal_encode", "repro.net.marshal:MarshalFilter.convert"),
    Target("net.marshal_encode", "repro.net.marshal:MarshalFilter.convert_many"),
    Target("net.marshal_decode", "repro.net.marshal:UnmarshalFilter.convert"),
    Target(
        "net.marshal_decode", "repro.net.marshal:UnmarshalFilter.convert_many"
    ),
    Target("net.netpipe", "repro.net.netpipe:NetpipeSender.push"),
    Target("net.netpipe", "repro.net.netpipe:NetpipeSender.push_many"),
    Target("net.link_send", "repro.net.socketlink:SocketLink.send"),
    Target("net.link_send", "repro.net.socketlink:SocketLink.send_frame"),
    Target("net.link_send", "repro.net.socketlink:SocketLink.send_eos"),
    Target("net.link_pump", "repro.net.socketlink:SocketLink.pump"),
    Target("net.mux_send", "repro.net.mux:MuxStream.send"),
    Target("net.mux_send", "repro.net.mux:MuxStream.send_frame"),
    Target("net.mux_send", "repro.net.mux:MuxStream.send_eos"),
    Target("net.mux_pump", "repro.net.mux:StreamMux.pump"),
    # The mux's inbound half runs as the link's delivery callback; only
    # this internal name separates it from the socket read around it.
    Target("net.mux_pump", "repro.net.mux:StreamMux._rx_frame"),
    Target("net.sim", "repro.net.network:Network.transmit"),
    Target("net.sim", "repro.net.protocols:StreamProtocol.send"),
    Target("net.sim", "repro.net.protocols:StreamProtocol.send_frame"),
    Target("net.sim", "repro.net.protocols:StreamProtocol.send_eos"),
    # media
    Target("media.source", "repro.media.source:MpegFileSource.pull"),
    Target("media.source", "repro.media.source:MpegFileSource.pull_many"),
    Target("media.decode", "repro.media.codec:MpegDecoder.push"),
    Target(
        "media.decode", "repro.media.codec:MpegDecoder.process_run",
        tally=_columnar_items,
    ),
    Target("media.resize", "repro.media.resize:Resizer.convert"),
    Target("media.resize", "repro.media.resize:Resizer.convert_many"),
    Target("media.display", "repro.media.display:VideoDisplay.push"),
    # fabric / deploy / obs
    Target("fabric.open", "repro.fabric.session:SessionFabric.open_session"),
    Target("fabric.close", "repro.fabric.session:SessionFabric.close_session"),
    Target("deploy.plan", "repro.deploy.deployment:Deployment.plan"),
    Target("obs.attach", "repro.obs.spans:Telemetry.attach"),
    Target("obs.attach", "repro.obs.flow:FlowTracer.attach"),
]


def resolve(path: str) -> tuple[Any, str, Any]:
    """``(owner, attribute name, raw attribute)`` for a target path; the
    raw attribute is what the owner's ``__dict__`` holds (a staticmethod
    stays wrapped), or ``_MISSING`` when the owner only inherits it.
    Raises ``ImportError``/``AttributeError`` when the path is stale."""
    module_name, _, dotted = path.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, name = dotted.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    getattr(owner, name)  # stale paths fail here
    return owner, name, vars(owner).get(name, _MISSING)


class Tracer:
    """Installs the wrappers and holds what they record."""

    def __init__(self, span_cap: int = 50_000):
        self.groups: list[str] = []
        self._index: dict[str, int] = {}
        #: Paths that did not resolve at install time.
        self.missing: list[str] = []
        self._installed: list[tuple[Any, str, Any]] = []
        #: Child-time accumulators of the spans currently open.
        self._stack: list[int] = []
        #: Record slots of the recorded spans currently open.
        self._open: list[int] = []
        #: Per-group ``[self_ns, total_ns, calls, tally]`` of the current
        #: phase; ``None`` outside the timed phases, which turns every
        #: wrapper into a plain call.
        self._acc: list[list[int]] | None = None
        self._by_phase: dict[str, list[list[int]]] = {}
        self.span_cap = span_cap
        #: Spans of the most recent repeat: ``[group, start, end, parent]``.
        self.spans: list[list[int] | None] = []
        self._recording = False

    # -- install ---------------------------------------------------------------

    def install(self, targets: list[Target] = TARGETS) -> "Tracer":
        for target in targets:
            try:
                owner, name, raw = resolve(target.path)
            except (ImportError, AttributeError):
                self.missing.append(target.path)
                continue
            index = self._index.setdefault(target.group, len(self.groups))
            if index == len(self.groups):
                self.groups.append(target.group)
            static = isinstance(raw, staticmethod)
            function = raw.__func__ if static else getattr(owner, name)
            wrapper = getattr(self, f"_wrap_{target.kind}")(
                function, index, target.tally
            )
            setattr(owner, name, staticmethod(wrapper) if static else wrapper)
            self._installed.append((owner, name, raw))
        return self

    def uninstall(self) -> None:
        for owner, name, raw in reversed(self._installed):
            if raw is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, raw)
        self._installed.clear()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- wrappers --------------------------------------------------------------

    def _wrap_call(self, function, index: int, tally=None):
        tracer, stack, opened = self, self._stack, self._open

        def span(*args, **kwargs):
            if tracer._acc is None:
                return function(*args, **kwargs)
            stack.append(0)
            slot = -1
            if tracer._recording:
                spans = tracer.spans
                if len(spans) < tracer.span_cap:
                    slot = len(spans)
                    spans.append(None)
                    opened.append(slot)
            result = None
            start = _now()
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                end = _now()
                duration = end - start
                children = stack.pop()
                acc = tracer._acc
                if acc is not None:
                    cell = acc[index]
                    cell[0] += duration - children
                    cell[1] += duration
                    cell[2] += 1
                    if tally is not None and result is not None:
                        cell[3] += tally(args, result)
                if stack:
                    stack[-1] += duration
                if slot >= 0:
                    opened.pop()
                    tracer.spans[slot] = [
                        index, start, end, opened[-1] if opened else -1,
                    ]

        span.__wrapped__ = function
        return span

    def _wrap_generator(self, function, index: int, tally=None):
        wrap = self._wrap_call

        def trampoline(gen):
            send, throw = wrap(gen.send, index), wrap(gen.throw, index)
            resume, value = send, None
            while True:
                try:
                    request = resume(value)
                except StopIteration as stop:
                    return stop.value
                try:
                    value = yield request
                    resume = send
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as exc:  # forwarded into the body
                    resume, value = throw, exc

        def spanned(*args, **kwargs):
            result = function(*args, **kwargs)
            return trampoline(result) if isgenerator(result) else result

        spanned.__wrapped__ = function
        return spanned

    def _wrap_timer(self, function, index: int, tally=None):
        wrap = self._wrap_call

        def at(scheduler, when, callback):
            return function(scheduler, when, wrap(callback, index))

        at.__wrapped__ = function
        return at

    # -- phases and repeats ------------------------------------------------------

    def begin_repeat(self) -> None:
        self._by_phase = {
            phase: [[0, 0, 0, 0] for _ in self.groups] for phase in PHASES
        }
        self._stack.clear()
        self._open.clear()
        self.spans = []
        self._recording = self.span_cap > 0
        self._acc = None

    def set_phase(self, phase: str | None) -> None:
        self._acc = None if phase is None else self._by_phase[phase]

    def end_repeat(self) -> dict[str, dict[str, list[int]]]:
        """Aggregates of the repeat: phase → group → ``[self_ns, total_ns,
        calls, tally]`` (groups that never ran are left out)."""
        self._acc = None
        self._recording = False
        return {
            phase: {
                group: cell
                for group, cell in zip(self.groups, cells)
                if cell[2]
            }
            for phase, cells in self._by_phase.items()
        }

    def write(self, path: Path) -> None:
        """The most recent repeat's spans, for inspection."""
        path.parent.mkdir(exist_ok=True)
        spans = [s for s in self.spans if s is not None]
        path.write_text(json.dumps({
            "groups": self.groups,
            "columns": ["group", "start_ns", "end_ns", "parent"],
            "spans": spans,
            "truncated": len(spans) >= self.span_cap,
            "missing": self.missing,
        }))
