"""Component registry for the microlanguage."""

from __future__ import annotations

from typing import Any, Callable

from repro.lang.parser import LangError


class Registry:
    """Maps factory names usable in pipeline descriptions to callables."""

    def __init__(self, parent: "Registry | None" = None):
        self._factories: dict[str, Callable[..., Any]] = {}
        self._parent = parent

    def register(self, name: str, factory: Callable[..., Any]) -> None:
        self._factories[name] = factory

    def resolve(self, name: str) -> Callable[..., Any]:
        factory = self._factories.get(name)
        if factory is not None:
            return factory
        if self._parent is not None:
            return self._parent.resolve(name)
        known = ", ".join(sorted(self.names())) or "none"
        raise LangError(f"unknown component type {name!r} (known: {known})")

    def knows(self, name: str) -> bool:
        if name in self._factories:
            return True
        return self._parent.knows(name) if self._parent else False

    def names(self) -> set[str]:
        names = set(self._factories)
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
    kebab-free snake case elsewhere.
    """
    from repro import components as comp
    from repro import media

    registry = Registry()

    # sources
    registry.register("iter", comp.IterSource)
    registry.register("counting", comp.CountingSource)
    registry.register("mpeg_file", media.MpegFileSource)
    registry.register("camera", media.CameraSource)
    registry.register("audio_source", media.AudioSource)
    registry.register("midi", media.MidiSource)

    # pumps
    registry.register("clocked_pump", comp.ClockedPump)
    registry.register("greedy_pump", comp.GreedyPump)
    registry.register("feedback_pump", comp.FeedbackPump)

    # buffers
    registry.register("buffer", comp.Buffer)

    # transforms
    registry.register("decoder", media.MpegDecoder)
    registry.register("encoder", media.MpegEncoder)
    registry.register("resizer", media.Resizer)
    registry.register("dropper", media.PriorityDropFilter)
    registry.register("gate", comp.Gate)
    registry.register("stamp", comp.SequenceStamp)
    registry.register(
        "keep_kind",
        lambda kind: comp.PredicateFilter(
            lambda frame: getattr(frame, "kind", None) == kind
        ),
    )

    # tees
    registry.register("tee", comp.MulticastTee)
    registry.register("merge", comp.MergeTee)
    registry.register("router", comp.ActivityRouter)

    # sinks
    registry.register("collect", comp.CollectSink)
    registry.register("null", comp.NullSink)
    registry.register("display", media.VideoDisplay)
    registry.register("audio_device", media.AudioDevice)

    return registry
