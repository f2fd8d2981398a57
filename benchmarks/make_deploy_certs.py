"""Regenerate CERT_deploy_fig1_2shard.json — sharding, certified.

The claim: cutting a program at its ``Buffer`` seams and bridging the
cuts with netpipe wire frames is a *refinement*, not a rewrite.  This
script certifies the claim for the two headline deployments with the
mechanized checker (docs/CHECKING.md §refinement); the concrete side is
``Deployment.simulate()``, one build split into every shard as a deploy
splits it, each cut a credited stream of an in-process mux pair:

* the paper's Figure 1 video pipeline split across 2 shards at the
  ``net-buffer`` seam (drop filter and decoder on different cores),
  projected by frame ``seq`` — the decoder legitimately skips frames
  whose GOP references were dropped upstream;
* the Figure 2 control pipeline split at its ``buffer-1`` seam, exact
  per-item equality.

Wire-loss attribution is certified over the paper's lossy datagram
network instead (``CERT_refinement_retrofit.json``,
``fig1-local-vs-netpipe``): no deployment ships a lossy seam.

Run from the repository root (same convention as the BENCH reports)::

    PYTHONPATH=src:. python benchmarks/make_deploy_certs.py

Pinned seeds make the output stable; the file is committed at the repo
root and replayed by ``tests/deploy/test_cert_replay.py``.
"""

import json
from pathlib import Path

from repro.check import Projection
from repro.deploy import Deployment, Placement
from repro.deploy.presets import fig1_drive, fig1_stages

REPO_ROOT = Path(__file__).resolve().parent.parent
REPORT = REPO_ROOT / "CERT_deploy_fig1_2shard.json"

SEEDS = 25
FIG1_FRAMES = 60
FIG2_SRC = (
    "counting(limit=24) >> greedy_pump >> buffer(4) >> greedy_pump >> collect"
)


def certify_all():
    yield (
        "fig1-2shard",
        Deployment(fig1_stages(frames=FIG1_FRAMES), Placement.auto(2)).certify(
            seeds=SEEDS,
            drive=fig1_drive(frames=FIG1_FRAMES),
            projection=Projection.by_attr("seq"),
        ),
    )
    yield (
        "fig2-2shard",
        Deployment(FIG2_SRC, Placement.auto(2)).certify(seeds=SEEDS),
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
        "format": "repro-deploy-certs/1",
        "seeds_per_certificate": SEEDS,
        "fig1_frames": FIG1_FRAMES,
        "fig2_source": FIG2_SRC,
        "certificates": certificates,
    }
    REPORT.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"wrote {REPORT} ({len(certificates)} certificates)")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
