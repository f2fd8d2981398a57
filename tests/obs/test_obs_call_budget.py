"""Observability is priced per sample, not per item.

An observed run calls into :mod:`repro.obs` only for what it samples: a
traced birth (1 in ``sample_every``), a timed pump cycle and a timed
dispatch (every ``sample_every``-th), and a delivery or cycle end while
the hand carries a sampled context.  Everything else — the birth of an
unsampled item, its delivery, the dispatch and cycle that move it — is
a few integer operations inline in the runtime.  The budget is exact
(Python-level ``call`` events), so it needs no wall clock.
"""

import gc
import os
import sys

import repro.obs
from tests.obs.test_counter_golden import fig9a_app, fig9a_inputs

OBS_DIR = os.path.dirname(repro.obs.__file__) + os.sep

#: Calls into repro.obs per 1 000 items of the fig9a program traced at
#: ``sample_every=64`` with metrics attached (3 642 when every item,
#: cycle and dispatch made its own calls; 228 at this budget's writing).
CALLS_PER_KITEM = 250


def obs_calls(items: int, sample_every: int = 64) -> int:
    """Python-level calls into repro.obs during ``engine.run()`` of the
    fig9a program over ``items`` seed-1 inputs."""
    built = fig9a_app(fig9a_inputs(1, items)).with_tracing(
        sample_every
    ).build()
    engine = built.engine
    engine.setup()
    engine.start()
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(OBS_DIR):
            calls += 1

    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        engine.run()
    finally:
        sys.setprofile(previous)
        if enabled:
            gc.enable()
    assert len(engine.pipeline.components[-1].items) == len(
        fig9a_inputs(1, items)
    ) // 4
    return calls


def test_fig9a_traced_at_64_stays_in_budget():
    items = len(fig9a_inputs(1, 8_000))
    calls = obs_calls(8_000)
    assert calls * 1000 <= CALLS_PER_KITEM * items, calls


def test_the_rate_does_not_grow_with_run_length():
    short, long = obs_calls(2_000), obs_calls(16_000)
    short_items = len(fig9a_inputs(1, 2_000))
    long_items = len(fig9a_inputs(1, 16_000))
    assert long * short_items <= short * long_items, (short, long)


def test_an_unsampled_item_costs_no_call():
    # A stride longer than any run: only the first cycle and dispatch are
    # timed and no item is sampled, so every further item is free.
    assert obs_calls(1_000, 10**9) == obs_calls(8_000, 10**9)
