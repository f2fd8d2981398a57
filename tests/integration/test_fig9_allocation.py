"""Figure 9 end-to-end: the eight pipelines between a passive source and a
passive sink, with automatically detected thread/coroutine needs.

Allocation counts are asserted in tests/core/test_glue.py; here every
configuration also *runs*, produces identical results at ``batch_max``
1, 8 and 32, and the runtime creates exactly the predicted number of
user-level threads — the thread-transparency claim made concrete.
"""

import pytest

from repro import (
    ActiveDefragmenter,
    CollectSink,
    Engine,
    GreedyPump,
    IterSource,
    MapFilter,
    PushDefragmenter,
    PullDefragmenter,
    allocate,
    pipeline,
)

CONFIGS = {
    "a": ("producer", "consumer", "mid", 1),
    "b": ("function", "function", "mid", 1),
    "c": ("consumer", "consumer", "head", 1),
    "d": ("main", "function", "mid", 2),
    "e": ("consumer", "producer", "mid", 3),
    "f": ("main", "main", "mid", 3),
    "g": ("consumer", "main", "head", 2),
    "h": ("consumer", "producer", "head", 2),
}


def stage(style):
    if style == "function":
        # keep item count unchanged relative to defrag stages? No: the
        # defrag stages halve; a function passes through.  Results differ
        # by config, so per-config expectations are computed below.
        return MapFilter(lambda x: x)
    return {
        "producer": PullDefragmenter,
        "consumer": PushDefragmenter,
        "main": ActiveDefragmenter,
    }[style]()


def defrag_stages(key):
    return sum(
        1 for s in CONFIGS[key][:2] if s in ("producer", "consumer", "main")
    )


def build(key):
    first_style, second_style, position, expected = CONFIGS[key]
    src, sink, pump = IterSource(range(8)), CollectSink(), GreedyPump()
    first, second = stage(first_style), stage(second_style)
    if position == "mid":
        chain = [src, first, pump, second, sink]
    elif position == "head":
        chain = [src, pump, first, second, sink]
    else:
        chain = [src, first, second, pump, sink]
    return pipeline(*chain), sink, expected


def run(key, batch_max=1):
    """Run configuration ``key``; returns (threads created, sink items)."""
    pipe, sink, _ = build(key)
    engine = Engine(pipe, batch_max=batch_max)
    engine.setup()
    threads = len(engine.scheduler.threads)
    engine.start()
    engine.run()
    return threads, sink.items


@pytest.mark.parametrize("key,batch_max", [
    pytest.param(key, bm, id=key if bm == 1 else f"{key}-b{bm}")
    for bm in (1, 8, 32)
    for key in sorted(CONFIGS)
])
def test_configuration_runs_with_predicted_threads(key, batch_max):
    """Every configuration runs with the planned number of user-level
    threads, and batching moves the same stream as the per-item run."""
    pipe, _, expected = build(key)
    assert allocate(pipe).sections[0].coroutine_count == expected

    threads, items = run(key, batch_max)
    assert threads == expected
    assert len(items) == 8 // (2 ** defrag_stages(key))
    assert items == run(key)[1]


def test_total_expected_coroutines_across_all_configs():
    totals = [build(key)[2] for key in sorted(CONFIGS)]
    # a,b,c -> 1; d,g,h -> 2; e,f -> 3 (paper's enumeration)
    assert totals == [1, 1, 1, 2, 3, 3, 2, 2]


def test_context_switch_counts_scale_with_coroutines():
    """More coroutines in the set => more thread switches for the same
    workload — the cost Figure 9's allocation minimizes."""
    switches = {}
    for key in ("b", "d", "f"):  # 1, 2 and 3 coroutines
        pipe, sink, expected = build(key)
        engine = Engine(pipe)
        engine.start()
        engine.run()
        switches[key] = engine.scheduler.context_switches
    assert switches["b"] < switches["d"] < switches["f"]
