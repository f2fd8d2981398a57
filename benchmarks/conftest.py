"""Shared helpers for the benchmark harness.

Every module regenerates one of the paper's figures or section-4 claims:
the ``test_bench_*`` name states which.  Benchmarks print the series the
paper reports (who wins, by what factor) in addition to timing one
representative configuration with pytest-benchmark.  Speed claims belong
to ``python3 -m bench`` (see ``bench/README.md``).
"""


def make_fig9_pipeline(key: str, items: int = 64):
    """Build one of Figure 9's eight configurations (fresh components)."""
    from repro import (
        ActiveDefragmenter,
        CollectSink,
        GreedyPump,
        IterSource,
        MapFilter,
        PushDefragmenter,
        PullDefragmenter,
        pipeline,
    )

    configs = {
        "a": ("producer", "consumer", "mid"),
        "b": ("function", "function", "mid"),
        "c": ("consumer", "consumer", "head"),
        "d": ("main", "function", "mid"),
        "e": ("consumer", "producer", "mid"),
        "f": ("main", "main", "mid"),
        "g": ("consumer", "main", "head"),
        "h": ("consumer", "producer", "head"),
    }

    def stage(style):
        if style == "function":
            return MapFilter(lambda x: x)
        return {
            "producer": PullDefragmenter,
            "consumer": PushDefragmenter,
            "main": ActiveDefragmenter,
        }[style]()

    first_style, second_style, position = configs[key]
    src, sink, pump = IterSource(range(items)), CollectSink(), GreedyPump()
    first, second = stage(first_style), stage(second_style)
    if position == "mid":
        chain = [src, first, pump, second, sink]
    elif position == "head":
        chain = [src, pump, first, second, sink]
    else:
        chain = [src, first, second, pump, sink]
    return pipeline(*chain), sink


def run_engine(pipe):
    from repro import Engine

    engine = Engine(pipe)
    engine.start()
    engine.run()
    return engine
