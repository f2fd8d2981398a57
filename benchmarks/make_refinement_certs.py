"""Regenerate CERT_refinement_retrofit.json — the PR 4/5 claims, certified.

PRs 4 and 5 claimed their optimizations leave sink streams observably
identical; this script retrofits machine-checked refinement certificates
for each claim (see docs/CHECKING.md §refinement):

* ``batch_max`` 1 / 8 / 32 transmission policies vs the per-item
  original, on the Figure-2 control pipeline and the media pipeline;
* the netpipe split of the Figure-1 video pipeline (lossy link) vs its
  local, single-address-space variant;
* the pure-python media array backend vs the numpy column backend.

Run from the repository root (same convention as the BENCH reports)::

    PYTHONPATH=src:. python benchmarks/make_refinement_certs.py

Pinned seeds make the output stable; the file is committed next to the
``BENCH_*.json`` reports it certifies.
"""

import json
from pathlib import Path

from repro.api import Pipeline
from repro.check import Projection, check_refinement
from repro.media import arrays

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


def netpipe_cert():
    from tests.check.test_refinement import Figure1Variant
    from repro.check import PipelineUnderTest

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
