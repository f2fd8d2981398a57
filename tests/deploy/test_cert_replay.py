"""Read the committed deployment certificate.

``CERT_deploy_fig1_2shard.json`` (regenerated by
``benchmarks/make_deploy_certs.py``) is the repo's standing claim that
the 2-shard cuts refine their single-core programs.  These tests keep
the artifact honest: the document must parse and every certificate must
carry the ``refines`` verdict.  That the pinned-seed checks still
reproduce it, byte for byte, is
``tests/check/test_certificates.py::test_generator_reproduces_its_committed_certificate``.
"""

import json
from pathlib import Path

import pytest

from repro.check.refine import RefinementCertificate

CERT_PATH = (
    Path(__file__).resolve().parent.parent.parent
    / "CERT_deploy_fig1_2shard.json"
)


@pytest.fixture(scope="module")
def document():
    assert CERT_PATH.exists(), "committed certificate missing"
    return json.loads(CERT_PATH.read_text())


def test_document_shape(document):
    assert document["format"] == "repro-deploy-certs/1"
    assert set(document["certificates"]) == {
        "fig1-2shard",
        "fig2-2shard",
    }


def test_every_committed_certificate_refines(document):
    for name, data in document["certificates"].items():
        cert = RefinementCertificate.from_dict(data)
        assert cert.ok, f"{name}: {cert.verdict}"
        assert cert.counterexample is None


def test_fig1_channel_is_seq_projected_subsequence(document):
    cert = document["certificates"]["fig1-2shard"]
    (channel,) = cert["channels"].values()
    assert channel["mode"] == "subsequence"
