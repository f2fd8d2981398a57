"""Picklable workload builders for deployment benchmarks and tests.

Everything here is a *top-level function* (or a ``functools.partial`` of
one), so it pickles under both fork and spawn start methods and can be
handed to :class:`~repro.deploy.deployment.Deployment` as the program.

Two families:

* :func:`fig9a_chains` — N independent copies of Figure 9's config *a*
  chain (source → pull-defrag → greedy pump → push-defrag → sink).  The
  chains are disconnected, so the auto planner places one (or more) per
  shard with ZERO wire edges: the pure multi-core scaling series.
* :func:`fig1_stages` — the paper's Figure 1 video pipeline with its two
  ``Buffer(16)`` seams, the cut points the 2-shard refinement
  certificate exercises (drop filter and decoder stages land on
  different cores, bridged by marshalled wire frames).
"""

from __future__ import annotations

import functools

from repro.core.composition import Pipeline


def _build_fig9a_chains(chains: int, items: int) -> Pipeline:
    from repro.components.frag import PullDefragmenter, PushDefragmenter
    from repro.components.pumps import GreedyPump
    from repro.components.sinks import CollectSink
    from repro.components.sources import IterSource
    from repro.core.composition import pipeline as compose

    all_components = []
    for chain in range(chains):
        chained = compose(
            IterSource(range(items), name=f"src-{chain}"),
            PullDefragmenter(name=f"pull-defrag-{chain}"),
            GreedyPump(name=f"pump-{chain}"),
            PushDefragmenter(name=f"push-defrag-{chain}"),
            CollectSink(name=f"sink-{chain}"),
        )
        all_components.extend(chained.components)
    merged = Pipeline(all_components)
    merged.derive_typespecs()
    return merged


def fig9a_chains(chains: int = 2, items: int = 256):
    """A picklable builder for ``chains`` disconnected fig9-a chains."""
    return functools.partial(_build_fig9a_chains, chains, items)


#: Figure 1 plays at this frame rate.
FIG1_FPS = 30.0


def _build_fig1_stages(frames: int) -> Pipeline:
    from repro.components.buffers import Buffer
    from repro.components.pumps import ClockedPump, GreedyPump
    from repro.media import (
        MpegDecoder,
        MpegFileSource,
        PriorityDropFilter,
        VideoDisplay,
    )
    from repro.core.composition import pipeline as compose
    from repro.core.typespec import Typespec

    return compose(
        MpegFileSource(frames=frames),
        ClockedPump(FIG1_FPS),
        PriorityDropFilter(),
        Buffer(16, name="net-buffer"),
        GreedyPump(),
        MpegDecoder(share_references=False),
        Buffer(16, name="display-buffer"),
        ClockedPump(FIG1_FPS),
        VideoDisplay(input_spec=Typespec()),
    )


def fig1_stages(frames: int = 90):
    """A picklable builder for the Figure 1 pipeline with named seams."""
    return functools.partial(_build_fig1_stages, frames)


def fig1_drive(frames: int = 90):
    """The standard drive for :func:`fig1_stages` engines: run to three
    seconds past the clocked playout horizon, stop, and drain."""
    return functools.partial(_drive_until, frames / FIG1_FPS + 3.0)


def _drive_until(until: float, engine) -> None:
    engine.start()
    engine.run(until=until)
    engine.stop()
    engine.run(max_steps=200_000)
