"""A direct ``get()`` has a budget.

Thread transparency promises that a passive producer's straight-line
``pull()`` may call ``get()`` as an ordinary call and the middleware
supplies the glue; this pins what the glue costs on the paper's running
example (Figure 9 configuration a), counted in Python-level call events
(``sys.setprofile``, C calls excluded) — the counts are deterministic.

Per output of the pull-mode defragmenter, the frames of
``repro.runtime`` / ``repro.core`` entered at or beneath its walker, the
cost takers apart (the per-item walker drains two per output, the batch
tier drains per run): the walker, the producer's ``serve``, one ``get``
per fragment and one ``commit`` — and the per-item walker's ``begin``.
Before a port was one closure family that read ten on both walker
families: ``begin``, two ``fast_get`` → ``intake_port`` → the source's
``serve`` chains, ``commit``, the producer's ``serve`` and the walker.
"""

import sys
from collections import Counter

import pytest

from repro import (
    CollectSink,
    Engine,
    GreedyPump,
    IterSource,
    PullDefragmenter,
    PushDefragmenter,
    pipeline,
)

#: Glue frames per defragmenter output on the pull side, by ``batch_max``:
#: the achieved count (6 and 5; 10 and 10 before) + 1.
PULL_GLUE_BUDGET = {1: 7, 32: 6}
#: Every Python-level call of the run per defragmenter output — scheduler,
#: walkers, glue, cost takers and the five components — at the achieved
#: count (42.3 and 13.9; 51.4 and 19.1 before) + 1, rounded down.
RUN_CALL_BUDGET = {1: 43, 32: 14}

WALKERS = {"producer_pull", "producer_plain"}
OUTPUTS = 400


def profile_run(batch_max):
    """``(glue, user, total)`` call events of one fig9-a run: ``glue`` and
    ``user`` are what ran at or beneath the defragmenter's walker, split
    by whether the code is the middleware's or a component's."""
    defrag = PullDefragmenter()
    engine = Engine(
        pipeline(
            IterSource(range(2 * OUTPUTS)), defrag, GreedyPump(),
            PushDefragmenter(), CollectSink(),
        ),
        batch_max=batch_max,
    )
    engine.start()
    calls = Counter()
    depth = 0  # walker frames on the stack (a generator re-enters)

    def profiler(frame, event, arg):
        nonlocal depth
        code = frame.f_code
        if event == "call":
            calls["total"] += 1
            depth += code.co_name in WALKERS
            if depth and code.co_name != "take":  # a cost taker
                user = "/repro/components/" in code.co_filename
                calls["user" if user else "glue"] += 1
        elif event == "return":
            depth -= code.co_name in WALKERS

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        engine.run()
    finally:
        sys.setprofile(previous)
    assert defrag.stats["items_out"] == OUTPUTS
    return calls["glue"], calls["user"], calls["total"]


@pytest.mark.parametrize("batch_max", [1, 32])
def test_a_direct_get_stays_in_budget(batch_max):
    glue, user, total = profile_run(batch_max)
    # Figure 4b itself: pull(), two source pulls and the assembly.  (The
    # attempt that meets EOS is the remainder of each division.)
    assert user // OUTPUTS == 4
    assert glue // OUTPUTS < PULL_GLUE_BUDGET[batch_max]
    assert total / OUTPUTS <= RUN_CALL_BUDGET[batch_max]
