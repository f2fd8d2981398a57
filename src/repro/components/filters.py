"""Generic filters and transformers.

Filters "can transport information, filter certain information items, or
transform the information" (section 2.1).  They are polymorphic in polarity
(α → α): usable in push or pull mode, acquiring an induced polarity when
composed.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.core.styles import Consumer, FunctionComponent
from repro.core.typespec import Typespec


class MapFilter(FunctionComponent):
    """One-to-one transformer applying ``fn`` to every item.

    Being function-style, it is called directly in both push and pull mode
    with the paper's trivial glue.  ``cost`` charges simulated CPU seconds
    per item, and ``output_props`` lets the filter stamp flow properties
    (e.g. a decoder marking ``format="raw"``).
    """

    def __init__(
        self,
        fn: Callable[[Any], Any],
        name: str | None = None,
        cost: float = 0.0,
        input_spec: Typespec | None = None,
        output_props: dict | None = None,
    ):
        super().__init__(name)
        self._fn = fn
        self._cost = float(cost)
        if input_spec is not None:
            self.input_spec = input_spec
        if output_props is not None:
            self.output_props = dict(output_props)

    def convert(self, item: Any) -> Any:
        if self._cost:
            self.charge(self._cost)
        return self._fn(item)


class CostFilter(MapFilter):
    """Identity filter that only charges CPU time — used to model stages
    with significant processing cost (decoders) in experiments."""

    def __init__(self, cost: float, name: str | None = None):
        super().__init__(lambda item: item, name=name, cost=cost)


class PredicateFilter(Consumer):
    """Keeps only items satisfying ``predicate`` (a dropping filter).

    Not one-to-one, so it is consumer-style: ``push`` emits zero or one
    item.  Used in pull mode the middleware wraps it in a coroutine
    automatically (Figure 7).
    """

    def __init__(
        self,
        predicate: Callable[[Any], bool],
        name: str | None = None,
    ):
        super().__init__(name)
        self._predicate = predicate
        self.stats["dropped"] = 0

    def push(self, item: Any) -> None:
        if self._predicate(item):
            self.put(item)
        else:
            self.stats["dropped"] += 1


class Gate(Consumer):
    """A filter that can be opened and closed by control events.

    Demonstrates control interaction with data flow: while closed, items
    are dropped (handlers run even while the section is mid-stream).
    """

    events_handled = frozenset({"gate-open", "gate-close"})

    def __init__(self, name: str | None = None, open_: bool = True):
        super().__init__(name)
        self.open = open_
        self.stats["dropped"] = 0

    def push(self, item: Any) -> None:
        if self.open:
            self.put(item)
        else:
            self.stats["dropped"] += 1

    def on_gate_open(self, event) -> None:
        self.open = True

    def on_gate_close(self, event) -> None:
        self.open = False


class SequenceStamp(MapFilter):
    """Wraps each item as ``(seq, item)`` — handy for loss measurement."""

    def __init__(self, name: str | None = None):
        super().__init__(self._stamp, name=name)
        self._seq = 0

    def _stamp(self, item: Any) -> Any:
        stamped = (self._seq, item)
        self._seq += 1
        return stamped
