"""Scheduler-trace stability on seeded reference runs.

The ready-queue scheduler overhaul must preserve all observable scheduling
semantics bit-for-bit: pick order, priority inheritance, constraint
overtaking and preemption points.  These tests pin the *entire* scheduler
trace (every switch/deliver/dispatch/block/preempt/done event, with its
virtual timestamp) of three seeded reference runs — Figure 1's video
pipeline, Figure 5's coroutine hand-off and the section-4 MIDI mixer —
against golden digests captured before the overhaul.

Regenerate the goldens (only when a semantic change is intended) with::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/integration/test_trace_stability.py -q
"""

import hashlib
import json
import os
import re
from collections import Counter
from pathlib import Path

import pytest

from repro import (
    Buffer,
    ClockedPump,
    Engine,
    GreedyPump,
    Pipeline,
    connect,
)
from repro.core.typespec import Typespec
from repro.mbt.scheduler import Scheduler
from repro.media import (
    MpegDecoder,
    MpegFileSource,
    PriorityDropFilter,
    VideoDisplay,
)
from repro.net import Network, Node, RemoteBinder

GOLDEN_DIR = Path(__file__).parent / "golden"


_NUMBERED = re.compile(r"^(.*)-(\d+)$")


def _normalizer():
    """Canonical renaming of auto-numbered component names.

    Components draw names like ``pump-7`` from process-global counters, so
    the absolute numbers depend on what ran earlier in the pytest process.
    Map every such name to ``base#k`` where ``k`` is the order of first
    appearance — stable across runs, while still distinguishing instances
    and preserving the event structure bit-for-bit.
    """
    mapping: dict[str, str] = {}
    per_base: Counter = Counter()

    def normalize(value):
        if not isinstance(value, str):
            return value
        hit = _NUMBERED.match(value)
        if hit is None:
            return value
        renamed = mapping.get(value)
        if renamed is None:
            prefix, base = "", value
            for marker in ("pump:", "coro:"):
                if value.startswith(marker):
                    prefix, base = marker, value[len(marker):]
                    break
            stem = _NUMBERED.match(base).group(1)
            renamed = f"{prefix}{stem}#{per_base[stem]}"
            per_base[stem] += 1
            mapping[value] = renamed
        return renamed

    return normalize


def trace_summary(trace) -> dict:
    """Exact, compact fingerprint of a scheduler trace."""
    normalize = _normalizer()
    blob = "\n".join(
        repr(tuple(normalize(part) for part in event)) for event in trace
    )
    kinds = Counter(event[1] for event in trace)
    return {
        "events": len(trace),
        "sha256": hashlib.sha256(blob.encode()).hexdigest(),
        "kinds": dict(sorted(kinds.items())),
    }


def check_golden(name: str, trace) -> None:
    summary = trace_summary(trace)
    path = GOLDEN_DIR / f"{name}.json"
    if os.environ.get("REGEN_GOLDEN"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(summary, indent=2) + "\n")
    expected = json.loads(path.read_text())
    assert summary == expected, (
        f"scheduler trace for {name!r} changed: {summary} != {expected}"
    )


# ------------------------------------------------------------ reference runs


def run_fig1(frames: int = 40, fps: float = 30.0, seed: int = 5):
    """A reduced, seeded Figure-1 run (producer -> network -> consumer)."""
    network = Network(seed=seed)
    network.add_link(
        "producer", "consumer",
        bandwidth_bps=600_000, delay=0.02, jitter=0.002,
        loss_rate=0.01, queue_packets=16,
    )
    producer_node = Node("producer", network)
    consumer_node = Node("consumer", network)

    source = producer_node.place(MpegFileSource(frames=frames))
    pump1 = ClockedPump(fps)
    drop_filter = PriorityDropFilter()
    producer_side = source >> pump1 >> drop_filter

    feeder = GreedyPump()
    decoder = MpegDecoder(share_references=False)
    jitter_buffer = Buffer(capacity=16)
    pump2 = ClockedPump(fps)
    display = consumer_node.place(VideoDisplay(input_spec=Typespec()))
    consumer_side = Pipeline([feeder, decoder, jitter_buffer, pump2, display])
    connect(feeder.out_port, decoder.in_port)
    connect(decoder.out_port, jitter_buffer.in_port)
    connect(jitter_buffer.out_port, pump2.in_port)
    connect(pump2.out_port, display.in_port)

    pipe = RemoteBinder(network).bind(
        producer_side, consumer_side, "producer", "consumer",
        flow="video", protocol="datagram",
    )
    engine = Engine(pipe, scheduler=Scheduler(trace=True))
    engine.start()
    engine.run(until=frames / fps + 2.0)
    engine.stop()
    engine.run(max_steps=100_000)
    return engine


def run_fig5():
    """Figure 5's three-coroutine synchronous hand-off, 3 items."""
    from repro import ActiveComponent, CallbackSink, IterSource, pipeline

    class Stage(ActiveComponent):
        def run(self):
            while True:
                item = yield self.pull()
                yield self.push(item)

    pipe = pipeline(
        IterSource(range(3)), GreedyPump(), Stage(), Stage(),
        CallbackSink(lambda item: None),
    )
    engine = Engine(pipe, scheduler=Scheduler(trace=True))
    engine.start()
    engine.run()
    return engine


def run_midi(per_component: bool, events: int):
    """The section-4 MIDI mixer (seeded sources)."""
    from benchmarks.test_bench_sec4_midi_mixer import build

    pipe, _sink = build(per_component, events)
    engine = Engine(pipe, scheduler=Scheduler(trace=True))
    engine.start()
    engine.run()
    return engine


# ------------------------------------------------------------ the pins


def test_fig1_trace_stable():
    engine = run_fig1()
    check_golden("trace_fig1", engine.scheduler.trace)


def test_fig5_trace_stable():
    engine = run_fig5()
    check_golden("trace_fig5", engine.scheduler.trace)


@pytest.mark.parametrize(
    "per_component, events, name",
    [
        (False, 100, "trace_midi_auto"),
        (True, 50, "trace_midi_percomp"),
    ],
)
def test_midi_trace_stable(per_component, events, name):
    engine = run_midi(per_component, events)
    check_golden(name, engine.scheduler.trace)
