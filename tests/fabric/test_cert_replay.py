"""Read the committed fabric transparency certificate.

``CERT_fabric_fig2.json`` (regenerated by
``benchmarks/make_fabric_certs.py``) is the repo's standing claim that a
program opened as one session of a busy multi-tenant fabric behaves
observably identically to the same program on a dedicated engine.  These
tests keep the artifact honest: the document must parse and both
certificates must carry the ``refines`` verdict.  That the pinned-seed
checks still reproduce it, byte for byte, is
``tests/check/test_certificates.py::test_generator_reproduces_its_committed_certificate``.
"""

import json
from pathlib import Path

import pytest

from repro import Engine
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


def test_the_quantum_is_part_of_what_is_certified(document):
    """The explorer runs bursts and Reposts as production does, so the
    quantum-8 and quantum-1 certificates hold different schedules: no
    run trace hash in common, and fewer ties per run at quantum 8,
    where a burst is no choice point."""
    certificates = document["certificates"]
    q8, q1 = (
        certificates[name]["concrete"]["runs"]
        for name in ("fig2-fabric-hosted", "fig2-fabric-hosted-q1")
    )
    assert not {run["trace_hash"] for run in q8} & {
        run["trace_hash"] for run in q1
    }

    def choices_per_run(runs):
        return sum(run["n_choices"] for run in runs) / len(runs)

    assert choices_per_run(q8) < choices_per_run(q1)


def test_the_hosted_side_is_the_certified_sessions_own_engine(document):
    """``fabric_hosted``'s build is the session's Engine on the fabric's
    shared scheduler, opened started; its drive runs every tenant."""
    side = fabric_hosted(document["fig2_source"], tenants=2)
    engine = side.build()
    assert isinstance(engine, Engine)
    assert set(engine.scheduler.tenants) == {"bg0", "cert", "bg1"}
    sink = engine.pipeline.sinks()[0]
    assert "/" not in sink.name  # un-namespaced: the twin's channel names
    side.drive(engine)
    assert engine.completed
    assert sink.items == list(range(24))
