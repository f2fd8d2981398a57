"""Component registry for the microlanguage."""

from __future__ import annotations

from typing import Any, Callable

from repro.lang.parser import LangError


class Registry:
    """Maps factory names usable in pipeline descriptions to callables."""

    def __init__(self, parent: "Registry | None" = None):
        self._factories: dict[str, Callable[..., Any]] = {}
        self._deferred: dict[str, Callable[[], Callable[..., Any]]] = {}
        self._parent = parent

    def register(self, name: str, factory: Callable[..., Any]) -> None:
        self._factories[name] = factory

    def defer(self, name: str, load: Callable[[], Callable[..., Any]]) -> None:
        """Register ``name`` as the factory ``load()`` returns when a
        program first resolves it: known at once, imported on demand."""
        self._deferred[name] = load

    def resolve(self, name: str) -> Callable[..., Any]:
        factory = self._factories.get(name)
        if factory is None and name in self._deferred:
            factory = self._factories[name] = self._deferred.pop(name)()
        if factory is not None:
            return factory
        if self._parent is not None:
            return self._parent.resolve(name)
        known = ", ".join(sorted(self.names())) or "none"
        raise LangError(f"unknown component type {name!r} (known: {known})")

    def knows(self, name: str) -> bool:
        return name in self.names()

    def names(self) -> set[str]:
        names = set(self._factories) | set(self._deferred)
        if self._parent is not None:
            names |= self._parent.names()
        return names

    def child(self) -> "Registry":
        """A scope layering extra factories over this registry."""
        return Registry(parent=self)


def default_registry() -> Registry:
    """Registry with every built-in component type registered.

    Names follow the paper's C++ quickstart where it has them
    (``mpeg_file``, ``decoder``, ``clocked_pump``, ``display``) and
    kebab-free snake case elsewhere.  The media family is deferred: a
    program naming none of it never imports :mod:`repro.media`, nor the
    numpy its arrays use when installed.
    """
    from importlib import import_module

    from repro import components as comp

    registry = Registry()
    for name, factory in {
        "iter": comp.IterSource, "counting": comp.CountingSource,
        "clocked_pump": comp.ClockedPump, "greedy_pump": comp.GreedyPump,
        "feedback_pump": comp.FeedbackPump, "buffer": comp.Buffer,
        "gate": comp.Gate, "stamp": comp.SequenceStamp,
        "keep_kind": lambda kind: comp.PredicateFilter(
            lambda frame: getattr(frame, "kind", None) == kind
        ),
        "tee": comp.MulticastTee, "merge": comp.MergeTee,
        "router": comp.ActivityRouter,
        "collect": comp.CollectSink, "null": comp.NullSink,
    }.items():
        registry.register(name, factory)
    for name, load in {
        "mpeg_file": lambda: import_module("repro.media").MpegFileSource,
        "camera": lambda: import_module("repro.media").CameraSource,
        "audio_source": lambda: import_module("repro.media").AudioSource,
        "midi": lambda: import_module("repro.media").MidiSource,
        "decoder": lambda: import_module("repro.media").MpegDecoder,
        "encoder": lambda: import_module("repro.media").MpegEncoder,
        "resizer": lambda: import_module("repro.media").Resizer,
        "dropper": lambda: import_module("repro.media").PriorityDropFilter,
        "display": lambda: import_module("repro.media").VideoDisplay,
        "audio_device": lambda: import_module("repro.media").AudioDevice,
    }.items():
        registry.defer(name, load)
    return registry
