"""Regenerate CERT_refinement_retrofit.json — the PR 4/5 claims, certified.

PRs 4 and 5 claimed their optimizations leave sink streams observably
identical; this script retrofits machine-checked refinement certificates
for each claim (see docs/CHECKING.md §refinement):

* ``batch_max`` 1 / 8 / 32 transmission policies vs the per-item
  original, on the Figure-2 control pipeline and the media pipeline;
* the netpipe split of the Figure-1 video pipeline (lossy link) vs its
  local, single-address-space variant;
* the pure-python media array backend vs the numpy column backend.

Run from the repository root (same convention as the other generators)::

    PYTHONPATH=src:. python benchmarks/make_refinement_certs.py

Pinned seeds make the output stable; the file is committed next to the
other ``CERT_*.json`` certificates.
"""

import json
from pathlib import Path

from repro import Buffer, ClockedPump, Engine, GreedyPump, connect, pipeline
from repro.api import Pipeline
from repro.check import PipelineUnderTest, Projection, check_refinement
from repro.core.composition import Pipeline as CorePipeline
from repro.core.typespec import Typespec
from repro.mbt import Scheduler, VirtualClock
from repro.media import (
    MpegDecoder,
    MpegFileSource,
    PriorityDropFilter,
    VideoDisplay,
    arrays,
)
from repro.net import Network, Node, RemoteBinder

REPO_ROOT = Path(__file__).resolve().parent.parent
REPORT = REPO_ROOT / "CERT_refinement_retrofit.json"

SEEDS = 25

FIG2_SRC = (
    "counting(limit=24) >> greedy_pump >> buffer(4) >> greedy_pump >> collect"
)
MEDIA_SRC = (
    "mpeg_file(frames=40) >> greedy_pump >> decoder >> "
    "buffer(8) >> clocked_pump(30) >> collect"
)
SEQ = Projection.by_attr("seq")
FIG2 = Pipeline.from_source(FIG2_SRC).with_trace()
MEDIA = Pipeline.from_source(MEDIA_SRC).with_trace()


def batch_certs():
    for batch_max in (1, 8, 32):
        yield (
            f"fig2-batch{batch_max}",
            check_refinement(
                FIG2.builder(),
                FIG2.with_batching(batch_max).builder(),
                seeds=SEEDS,
            ),
        )
        yield (
            f"media-batch{batch_max}",
            check_refinement(
                MEDIA.builder(),
                MEDIA.with_batching(batch_max).builder(),
                seeds=SEEDS,
                projection=SEQ,
            ),
        )


class Figure1Variant:
    """The Figure-1 media pipeline, buildable local (one address space,
    buffer hand-off) or split over a simulated lossy link (netpipe)."""

    FRAMES = 90
    FPS = 30.0

    def __init__(self, netpipe: bool):
        self.netpipe = netpipe

    def _producer_stages(self):
        return MpegFileSource(frames=self.FRAMES), ClockedPump(self.FPS), \
            PriorityDropFilter()

    def _consumer_stages(self):
        return GreedyPump(), MpegDecoder(share_references=False), \
            Buffer(capacity=16), ClockedPump(self.FPS), \
            VideoDisplay(input_spec=Typespec())

    def __call__(self):
        if not self.netpipe:
            producer = self._producer_stages()
            consumer = self._consumer_stages()
            return Engine(pipeline(*producer, Buffer(capacity=16), *consumer))
        scheduler = Scheduler(clock=VirtualClock())
        network = Network(scheduler, seed=5)
        network.add_link(
            "producer", "consumer",
            bandwidth_bps=2_000_000, delay=0.02, jitter=0.002,
            loss_rate=0.01, queue_packets=16,
        )
        producer_node = Node("producer", network)
        consumer_node = Node("consumer", network)
        source, pump1, dropper = self._producer_stages()
        producer_node.place(source)
        producer_side = source >> pump1 >> dropper
        feeder, decoder, jitter_buffer, pump2, display = \
            self._consumer_stages()
        consumer_node.place(display)
        consumer_side = CorePipeline(
            [feeder, decoder, jitter_buffer, pump2, display]
        )
        connect(feeder.out_port, decoder.in_port)
        connect(decoder.out_port, jitter_buffer.in_port)
        connect(jitter_buffer.out_port, pump2.in_port)
        connect(pump2.out_port, display.in_port)
        pipe = RemoteBinder(network).bind(
            producer_side, consumer_side, "producer", "consumer",
            flow="video", protocol="datagram",
        )
        return Engine(pipe, scheduler=scheduler).attach_network(network)

    @classmethod
    def drive(cls, engine):
        engine.start()
        engine.run(until=cls.FRAMES / cls.FPS + 3.0)
        engine.stop()
        engine.run(max_steps=100_000)


def netpipe_cert():
    yield (
        "fig1-local-vs-netpipe",
        check_refinement(
            PipelineUnderTest(
                build=Figure1Variant(netpipe=False),
                drive=Figure1Variant.drive, name="figure1-local",
            ),
            PipelineUnderTest(
                build=Figure1Variant(netpipe=True),
                drive=Figure1Variant.drive, name="figure1-netpipe",
            ),
            seeds=SEEDS,
            projection=SEQ,
        ),
    )


def backend_cert():
    """Pure-python media columns vs numpy columns, same pipeline.

    The array backend is a module global read at call time; flipping it
    inside each side's build() pins every run of that side to one
    backend.  Skipped (no certificate) when numpy is not installed —
    there is nothing to compare against.
    """
    if arrays.np is None:
        return
    numpy_backend = arrays.np

    def with_backend(backend):
        build = MEDIA.builder()

        def build_with_backend():
            arrays.np = backend
            return build()

        return build_with_backend

    try:
        yield (
            "media-pure-vs-numpy",
            check_refinement(
                with_backend(numpy_backend),
                with_backend(None),
                seeds=SEEDS,
                projection=SEQ,
            ),
        )
    finally:
        arrays.np = numpy_backend


def main() -> int:
    certificates = {}
    failed = []
    for name, cert in (*batch_certs(), *netpipe_cert(), *backend_cert()):
        certificates[name] = cert.to_dict()
        status = cert.verdict
        print(f"{name}: {status}")
        if not cert.ok:
            failed.append(name)
            print(cert.summary())
    document = {
        "format": "repro-refinement-retrofit/1",
        "seeds_per_certificate": SEEDS,
        "certificates": certificates,
    }
    REPORT.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"wrote {REPORT} ({len(certificates)} certificates)")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
