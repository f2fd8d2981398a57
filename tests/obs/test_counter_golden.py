"""Every counter and gauge of an observed fig9a run, pinned.

Sampling moves what a histogram's ``count`` and ``sum`` cover, never
what a counter says: the runtime counts steps, items and messages
exactly, and the exposition reads them.  The golden is the counter and
gauge lines of the Prometheus text of seed 1's ``fig9a-obs`` program —
``IterSource → PullDefragmenter → GreedyPump → PushDefragmenter →
CollectSink`` with metrics and 1-in-64 flow tracing attached — minus the
histogram families and the ``mode="wall"`` CPU lines (real time).

Regenerate (only when a counter is meant to change)::

    PYTHONPATH=src python tests/obs/test_counter_golden.py > \\
        tests/obs/golden/fig9a_obs_counters.txt
"""

import random
from pathlib import Path

GOLDEN = Path(__file__).parent / "golden" / "fig9a_obs_counters.txt"


def fig9a_inputs(seed: int = 1, size: int = 30_000) -> list[int]:
    """The benchmark's fig9a inputs for ``seed``: ``size`` plus a
    multiple of four ints."""
    rng = random.Random(seed)
    n = size + 4 * rng.randrange(64)
    return [rng.randrange(1 << 30) for _ in range(n)]


def fig9a_app(inputs):
    from repro import (
        CollectSink,
        GreedyPump,
        IterSource,
        PullDefragmenter,
        PushDefragmenter,
        pipeline,
    )
    from repro.api import Pipeline

    def graph():
        return pipeline(
            IterSource(inputs),
            PullDefragmenter(),
            GreedyPump(),
            PushDefragmenter(),
            CollectSink(name="sink"),
        )

    return Pipeline.from_builder(graph).with_metrics().with_tracing(64)


def counter_lines(text: str) -> list[str]:
    """The counter and gauge samples of a Prometheus exposition, without
    the ``mode="wall"`` ones."""
    kinds: dict[str, str] = {}
    lines = []
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            _, _, family, kind = line.split()
            kinds[family] = kind
        elif line and not line.startswith("#"):
            family = line.split("{", 1)[0].split(" ", 1)[0]
            if kinds.get(family) in ("counter", "gauge") \
                    and 'mode="wall"' not in line:
                lines.append(line)
    return lines


def observed_counters(seed: int = 1) -> list[str]:
    built = fig9a_app(fig9a_inputs(seed)).build()
    engine = built.engine
    engine.setup()
    engine.start()
    engine.run()
    built.tracer.finalize_inflight()
    return counter_lines(built.telemetry.prometheus())


def test_fig9a_obs_counters_match_the_golden():
    assert observed_counters() == GOLDEN.read_text().splitlines()


def test_the_dispatch_counter_is_exact_at_any_run_length():
    # 540 and 539 dispatches: neither a multiple of the 1-in-64 stride.
    for size in (1_000, 999):
        built = fig9a_app(fig9a_inputs(1, size)).build()
        engine = built.engine
        engine.setup()
        engine.start()
        engine.run()
        counts = built.telemetry.scheduler_probe.dispatch_counts()
        assert sum(counts.values()) == engine.scheduler.steps


if __name__ == "__main__":
    print("\n".join(observed_counters()))
