#!/usr/bin/env python3
"""Thread transparency in action (section 3.3, Figures 4-9).

The same defragmenter logic, written three ways — passive push, passive
pull, and as an active object — is dropped into pipelines that use it in
push mode and in pull mode.  All six combinations produce identical
results; the middleware decides where threads and coroutines are needed
("the most appropriate programming model can be chosen for a given task and
existing code can be reused regardless of its activity model").
"""

from repro import (
    ActiveDefragmenter,
    CollectSink,
    GreedyPump,
    IterSource,
    PushDefragmenter,
    PullDefragmenter,
    allocate,
    api,
    pipeline,
)

STYLES = {
    "passive push (Figure 4a)": PushDefragmenter,
    "passive pull (Figure 4b)": PullDefragmenter,
    "active object (Figure 6)": ActiveDefragmenter,
}


def run_one(style_name, style_cls, mode):
    source = IterSource(range(8))
    pump, sink = GreedyPump(), CollectSink()
    stage = style_cls()
    if mode == "push":
        pipe = pipeline(source, pump, stage, sink)
    else:
        pipe = pipeline(source, stage, pump, sink)
    plan = allocate(pipe)
    coroutines = plan.sections[0].coroutine_count
    placement = (
        "direct call" if stage in plan.sections[0].direct_members
        else "coroutine"
    )
    engine = api.Pipeline.from_pipeline(pipe).run().engine
    return {
        "style": style_name,
        "mode": mode,
        "coroutines": coroutines,
        "placement": placement,
        "output": sink.items,
        "switches": engine.stats.coroutine_switches,
    }


def main() -> None:
    results = [
        run_one(name, cls, mode)
        for name, cls in STYLES.items()
        for mode in ("push", "pull")
    ]

    print(f"{'implementation style':28} {'used in':6} {'placement':12} "
          f"{'set size':8} {'boundary crossings':19}")
    print("-" * 78)
    for r in results:
        print(f"{r['style']:28} {r['mode']:6} {r['placement']:12} "
              f"{r['coroutines']:<8} {r['switches']:<19}")

    outputs = {tuple(map(tuple, r["output"])) for r in results}
    assert len(outputs) == 1, "styles diverged!"
    print()
    print("identical output from every combination:", results[0]["output"])


if __name__ == "__main__":
    main()
