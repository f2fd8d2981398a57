"""Both coroutine backends must produce identical pipeline results.

The generator backend is deterministic and fast; the OS-thread backend is
paper-faithful (genuinely blocking calls in component bodies).  Every
combination of style and mode must deliver the same items in the same
order on both.
"""

import pytest

from repro import (
    ActiveDefragmenter,
    ActiveFragmenter,
    CollectSink,
    GreedyPump,
    IterSource,
    PullDefragmenter,
    PushDefragmenter,
    PullFragmenter,
    PushFragmenter,
    api,
    pipeline,
)

BACKENDS = ["generator", "thread"]
EXPECT_DEFRAG = [(0, 1), (2, 3), (4, 5), (6, 7)]
EXPECT_FRAG = [0, 1, 2, 3]


def run_chain(stage, backend, position):
    src = IterSource(range(8)) if "Defrag" in type(stage).__name__ \
        else IterSource([(0, 1), (2, 3)])
    pump, sink = GreedyPump(), CollectSink()
    if position == "push":
        pipe = pipeline(src, pump, stage, sink)
    else:
        pipe = pipeline(src, stage, pump, sink)
    api.Pipeline.from_pipeline(pipe).with_backend(backend).run()
    return sink.items


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("position", ["push", "pull"])
@pytest.mark.parametrize(
    "stage_cls", [PushDefragmenter, PullDefragmenter, ActiveDefragmenter]
)
def test_defragmenters_equivalent(backend, position, stage_cls):
    assert run_chain(stage_cls(), backend, position) == EXPECT_DEFRAG


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("position", ["push", "pull"])
@pytest.mark.parametrize(
    "stage_cls", [PushFragmenter, PullFragmenter, ActiveFragmenter]
)
def test_fragmenters_equivalent(backend, position, stage_cls):
    assert run_chain(stage_cls(), backend, position) == EXPECT_FRAG


@pytest.mark.parametrize("backend", BACKENDS)
def test_fragment_defragment_roundtrip(backend):
    """fragment ∘ defragment == identity on pairs, any backend."""
    src = IterSource([(i, i + 1) for i in range(0, 10, 2)])
    sink = CollectSink()
    pipe = pipeline(
        src, GreedyPump(), PushFragmenter(), PushDefragmenter(), sink
    )
    api.Pipeline.from_pipeline(pipe).with_backend(backend).run()
    assert sink.items == [(i, i + 1) for i in range(0, 10, 2)]


@pytest.mark.parametrize("backend", BACKENDS)
def test_chained_coroutines(backend):
    """Two coroutine stages in one section (a 3-coroutine set, Fig 9 e/f)."""
    src = IterSource(range(16))
    sink = CollectSink()
    pipe = pipeline(
        src, GreedyPump(), ActiveDefragmenter(), ActiveDefragmenter(), sink
    )
    api.Pipeline.from_pipeline(pipe).with_backend(backend).run()
    # default_assemble concatenates tuple fragments, so two defrag stages
    # turn groups of four scalars into one 4-tuple.
    assert sink.items == [(0, 1, 2, 3), (4, 5, 6, 7),
                          (8, 9, 10, 11), (12, 13, 14, 15)]


@pytest.mark.parametrize("backend", BACKENDS)
def test_active_component_flush_on_eos(backend):
    """An active body may catch EndOfStream and flush state."""
    from repro.core.styles import ActiveComponent, EndOfStream

    class Summer(ActiveComponent):
        def run(self):
            total = 0
            while True:
                try:
                    total += yield self.pull()
                except EndOfStream:
                    yield self.push(total)
                    return

        def run_blocking(self, api):
            total = 0
            while True:
                try:
                    total += api.pull()
                except EndOfStream:
                    api.push(total)
                    return

    # Thread backend pull raises EndOfStream out of channel.call? The
    # BlockingApi surfaces EOS as the exception for actives.
    sink = CollectSink()
    pipe = pipeline(IterSource([1, 2, 3, 4]), GreedyPump(), Summer(), sink)
    api.Pipeline.from_pipeline(pipe).with_backend(backend).run()
    assert sink.items == [10]
