"""Regenerate CERT_fabric_fig2.json — thread transparency under multiplexing.

PR 10's claim: a program opened as one session of a thousand-tenant
fabric behaves observably identically to the same program on a dedicated
engine.  This script certifies the claim for the Figure-2 control
pipeline with the mechanized refinement checker (docs/CHECKING.md
§refinement):

* ``fig2-fabric-hosted`` — fig 2 opened (un-namespaced) in a fabric next
  to 3 busy background tenants, exact per-item equality against the
  dedicated-engine twin across pinned-seed interleavings;
* ``fig2-fabric-hosted-q1`` — the same at ``quantum=1`` (strict
  per-dispatch fairness), so the burst optimization is certified
  separately from the multiplexing itself.

Run from the repository root (same convention as the BENCH reports)::

    PYTHONPATH=src:. python benchmarks/make_fabric_certs.py

Pinned seeds make the output stable; the file is committed at the repo
root and replayed by ``tests/fabric/test_cert_replay.py``.
"""

import json
from pathlib import Path

from repro.api import Pipeline
from repro.check import check_refinement
from repro.fabric.certify import fabric_hosted

REPO_ROOT = Path(__file__).resolve().parent.parent
REPORT = REPO_ROOT / "CERT_fabric_fig2.json"

SEEDS = 25
TENANTS = 3
FIG2_SRC = (
    "counting(limit=24) >> greedy_pump >> buffer(4) >> greedy_pump >> collect"
)


def certify_all():
    yield (
        "fig2-fabric-hosted",
        check_refinement(
            Pipeline.from_source(FIG2_SRC).with_trace().builder(),
            fabric_hosted(FIG2_SRC, tenants=TENANTS),
            seeds=SEEDS,
        ),
    )
    yield (
        "fig2-fabric-hosted-q1",
        check_refinement(
            Pipeline.from_source(FIG2_SRC).with_trace().builder(),
            fabric_hosted(FIG2_SRC, tenants=TENANTS, quantum=1),
            seeds=SEEDS,
        ),
    )


def main() -> int:
    certificates = {}
    failed = []
    for name, cert in certify_all():
        certificates[name] = cert.to_dict()
        print(f"{name}: {cert.verdict}")
        if not cert.ok:
            failed.append(name)
            print(cert.summary())
    document = {
        "format": "repro-fabric-certs/1",
        "seeds_per_certificate": SEEDS,
        "background_tenants": TENANTS,
        "fig2_source": FIG2_SRC,
        "certificates": certificates,
    }
    REPORT.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"wrote {REPORT} ({len(certificates)} certificates)")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
