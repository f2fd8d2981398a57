"""A wait has a budget.

Every blocked push, pull, lock, crossing and credit wait is one
:meth:`~repro.runtime.section.ThreadCtx.wait` on a ``Receive`` its site
built once (at compile time, or at the site's first park), so a wait
builds no match function and no ``Receive`` of its own.  This pins what
two waiting runs cost, counted in Python-level call events
(``sys.setprofile``, C calls excluded) and in the objects the profiler
sees built: a ``Message`` / ``Send`` / ``Receive`` by its ``__init__``,
a generator by its first resume, a match function as a ``Receive``'s
argument not seen before.  The counts are deterministic.

* **Crossings** — Figure 9 configuration d, 400 items: the pump pulls
  across into the defragmenter's coroutine once per output and once for
  EOS, 201 crossings.  Per crossing a ``Message`` and a ``Send`` for the
  request, the crossing's generator and the wait's.  Before, each also
  built a ``Receive`` and a match lambda and had no wait frame: 21 405
  calls then, 21 606 with one wait (+1 a crossing: the wait's two frames
  less the ``Receive``'s ``__init__``), and 5 objects a crossing then, 4
  now.  21 204 since the scheduler blocks a receive inline and a
  ``Reply`` revokes no priority donation (-2 a crossing), and 21 003
  since a blocked thread holds the very ``Receive`` it yielded instead
  of a ``WaitState`` built around it (-1 a crossing).
* **Gate parks** — a producer pump that runs ahead parks on a full
  ``Buffer(1)`` once per item but the first, 399 parks.  Per park the
  wait's generator; the gate's labelled wait for space is built once, at
  its first park, and its wait for an item never (no puller parks).
  Before, each park built a ``receive_data`` generator, a ``Receive`` and
  a match lambda (and a set and a cell, which no Python call makes):
  28 509 calls then, 28 118 with one wait (-1 a park, +8 once for the
  gate's two waits), and 3 objects a park then, 1 now.  27 719 since the
  scheduler blocks a receive inline (-1 a park), and 27 317 since the
  blocked thread holds the ``Receive`` it yielded (-1 a park) and the gate
  builds only the parking direction's wait (-3 once: one ``awaiting``,
  ``labelled`` and ``Receive`` less).
"""

import dis
import gc
import sys
from collections import Counter

from repro import (
    ActiveDefragmenter,
    Buffer,
    CollectSink,
    Engine,
    GreedyPump,
    IterSource,
    MapFilter,
    pipeline,
)

ITEMS = 400
#: Every Python-level call event of each run, at the achieved count.
CROSSING_RUN_CALLS = 21_003
GATE_RUN_CALLS = 27_317

_CO_GENERATOR = 0x20
_BUILT = {"Message", "Send", "Receive"}


def _first_resume(code) -> int:
    """The offset a generator's first resume reports (its first RESUME)."""
    return next(
        op.offset for op in dis.get_instructions(code) if op.opname == "RESUME"
    )


def profile(engine) -> tuple[int, Counter]:
    """``(calls, built)`` of ``engine.run()``: every call event, and the
    objects built by kind (generators by their function's name)."""
    calls, built, matches, starts = 0, Counter(), {}, {}

    def profiler(frame, event, arg):
        nonlocal calls
        if event != "call":
            return
        calls += 1
        code = frame.f_code
        if code.co_name == "__init__":
            kind = type(frame.f_locals["self"]).__name__
            if kind in _BUILT:
                built[kind] += 1
            match = frame.f_locals.get("match")
            if kind == "Receive" and id(match) not in matches:
                matches[id(match)] = match  # held: its id is not reused
                built["match"] += 1
        elif code.co_flags & _CO_GENERATOR:
            start = starts.get(code)
            if start is None:
                start = starts[code] = _first_resume(code)
            if frame.f_lasti == start:
                built[code.co_name] += 1

    gc.collect()
    gc.disable()
    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        engine.run()
    finally:
        sys.setprofile(previous)
        gc.enable()
    return calls, built


def started(*components) -> tuple[Engine, CollectSink]:
    sink = CollectSink()
    engine = Engine(pipeline(*components, sink))
    engine.start()
    return engine, sink


def test_a_crossing_stays_in_budget():
    engine, sink = started(
        IterSource(range(ITEMS)), ActiveDefragmenter(), GreedyPump(),
        MapFilter(lambda item: item),
    )
    calls, built = profile(engine)
    assert len(sink.items) == ITEMS // 2
    crossings = ITEMS // 2 + 1
    assert built["crossing"] == built["wait"] == crossings
    assert built["Send"] == crossings
    assert built["Message"] == 2 * crossings + 1  # + a reply each, + EOS
    assert built["Receive"] == built["match"] == 0  # built at compile time
    assert calls == CROSSING_RUN_CALLS


def test_a_gate_park_stays_in_budget():
    engine, sink = started(
        IterSource(range(ITEMS)), GreedyPump(priority=3), Buffer(1),
        GreedyPump(),
    )
    calls, built = profile(engine)
    assert sink.items == list(range(ITEMS))
    parks = ITEMS - 1
    assert built["wait"] == parks
    assert built["Send"] == parks  # the wake of each parked pusher
    assert built["Receive"] == built["match"] == 1  # at the first park
    assert calls == GATE_RUN_CALLS
