"""Replay the committed fabric transparency certificate.

``CERT_fabric_fig2.json`` (regenerated by
``benchmarks/make_fabric_certs.py``) is the repo's standing claim that a
program opened as one session of a busy multi-tenant fabric behaves
observably identically to the same program on a dedicated engine.  This
test keeps the artifact honest: the document must parse, both
certificates must carry the ``refines`` verdict, and re-running the
pinned-seed check must reproduce the committed verdicts.
"""

import json
from pathlib import Path

import pytest

from repro.api import Pipeline
from repro.check import check_refinement
from repro.check.refine import RefinementCertificate
from repro.fabric.certify import fabric_hosted

CERT_PATH = (
    Path(__file__).resolve().parent.parent.parent / "CERT_fabric_fig2.json"
)


@pytest.fixture(scope="module")
def document():
    assert CERT_PATH.exists(), "committed certificate missing"
    return json.loads(CERT_PATH.read_text())


def test_document_shape(document):
    assert document["format"] == "repro-fabric-certs/1"
    assert set(document["certificates"]) == {
        "fig2-fabric-hosted",
        "fig2-fabric-hosted-q1",
    }


def test_every_committed_certificate_refines(document):
    for name, data in document["certificates"].items():
        cert = RefinementCertificate.from_dict(data)
        assert cert.ok, f"{name}: {cert.verdict}"
        assert cert.counterexample is None


def test_replay_reproduces_the_hosted_certificate(document):
    """Same program, same pinned seeds => same verdict and channel modes."""
    seeds = document["seeds_per_certificate"]
    tenants = document["background_tenants"]
    src = document["fig2_source"]

    replay = check_refinement(
        Pipeline.from_source(src).with_trace().builder(),
        fabric_hosted(src, tenants=tenants),
        seeds=seeds,
    )
    committed = document["certificates"]["fig2-fabric-hosted"]
    assert replay.verdict == committed["verdict"] == "refines"
    assert {
        name: channel["mode"] for name, channel in replay.channels.items()
    } == {
        name: channel["mode"]
        for name, channel in committed["channels"].items()
    }


def test_quantum_one_variant_refines_on_replay(document):
    """Strict per-dispatch fairness (no bursting) is certified too."""
    seeds = document["seeds_per_certificate"]
    tenants = document["background_tenants"]
    src = document["fig2_source"]

    replay = check_refinement(
        Pipeline.from_source(src).with_trace().builder(),
        fabric_hosted(src, tenants=tenants, quantum=1),
        seeds=seeds,
    )
    committed = document["certificates"]["fig2-fabric-hosted-q1"]
    assert replay.verdict == committed["verdict"] == "refines"
