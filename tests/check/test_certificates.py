"""Replay determinism regression for refinement certificates.

A certificate archived by CI must stay a complete repro: its stored seeds
and choice lists must reproduce the identical ``trace_hash`` when
re-run — across every transmission policy it certified (``batch_max``
1/8/32) and under both media array backends (numpy columns and the pure
``array``/list fallback), which must not influence scheduling at all.
"""

import pytest

from repro.api import Pipeline
from repro.check import (
    PipelineUnderTest,
    Projection,
    RefinementCertificate,
    check_refinement,
    replay_certificate,
)
from repro.check.explorer import SeededChooser, run_once
from repro.media import arrays

MEDIA_SRC = (
    "mpeg_file(frames=40) >> greedy_pump >> decoder >> "
    "buffer(8) >> clocked_pump(30) >> collect"
)

MEDIA = Pipeline.from_source(MEDIA_SRC).with_trace()

BATCH_MAXES = [1, 8, 32]


def certify(batch_max: int, seeds: int = 4) -> RefinementCertificate:
    cert = check_refinement(
        MEDIA.builder(),
        MEDIA.with_batching(batch_max).builder(),
        seeds=seeds, witness_seeds=2,
        # Frames carry the decoder's auto-numbered name in ``owner``,
        # which differs between independent builds; the stream identity
        # under comparison is the frame sequence number.
        projection=Projection.by_attr("seq"),
    )
    assert cert.ok, cert.summary()
    return cert


@pytest.mark.parametrize("batch_max", BATCH_MAXES)
def test_certificate_replays_to_identical_trace_hash(batch_max):
    cert = certify(batch_max)
    report = replay_certificate(cert, MEDIA.with_batching(batch_max).builder())
    assert report["ok"], report
    assert report["matched"] == len(cert.concrete["runs"])


@pytest.mark.parametrize("batch_max", BATCH_MAXES)
def test_certificate_replays_identically_on_pure_backend(
    batch_max, monkeypatch
):
    # Certify under the current (numpy, when installed) backend ...
    cert = certify(batch_max)
    # ... then replay every stored schedule with the numpy column path
    # disabled: frame payloads change representation, the schedule and
    # hence every trace hash must not.
    monkeypatch.setattr(arrays, "np", None)
    report = replay_certificate(cert, MEDIA.with_batching(batch_max).builder())
    assert report["ok"], report


def test_seeded_chooser_is_deterministic_per_seed():
    # The determinism the certificates lean on, stated directly: one seed,
    # one schedule, one trace hash — run twice.
    build = MEDIA.with_batching(8).builder()
    hashes = [
        run_once(build, SeededChooser(13), seed=13)[0].trace_hash
        for _ in range(2)
    ]
    assert hashes[0] == hashes[1]


def test_batch_maxes_yield_distinct_but_certified_schedules():
    # The three policies genuinely change the schedule (different trace
    # hashes for the same seed) while every one of them is certified
    # against the same per-item original — the PR 4 claim, mechanized.
    per_seed_hashes = set()
    for batch_max in BATCH_MAXES:
        cert = certify(batch_max)
        per_seed_hashes.add(cert.concrete["runs"][0]["trace_hash"])
    assert len(per_seed_hashes) > 1


# ---------------------------------------------------------------------------
# the committed certificate files are what their generators write
# ---------------------------------------------------------------------------

GENERATORS = {
    "make_refinement_certs": "CERT_refinement_retrofit.json",
    "make_deploy_certs": "CERT_deploy_fig1_2shard.json",
    "make_fabric_certs": "CERT_fabric_fig2.json",
}


@pytest.mark.parametrize("generator", sorted(GENERATORS))
def test_generator_reproduces_its_committed_certificate(generator, tmp_path):
    """Each ``benchmarks/make_*_certs.py`` rewrites its committed file
    byte for byte.  The generator runs the way its docstring says — a
    fresh interpreter from the repository root, so auto-numbered
    component names start from the same counters — but writes into
    ``tmp_path``, never into the repository."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    if generator == "make_refinement_certs" and arrays._numpy is None:
        pytest.skip("the pure-vs-numpy certificate needs numpy")
    root = Path(__file__).resolve().parents[2]
    out = tmp_path / GENERATORS[generator]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), str(root)]
    ))
    env.pop("REPRO_MEDIA_PURE", None)
    done = subprocess.run(
        [
            sys.executable, "-c",
            "import sys; from pathlib import Path; "
            f"import benchmarks.{generator} as g; "
            "g.REPORT = Path(sys.argv[1]); raise SystemExit(g.main())",
            str(out),
        ],
        cwd=root, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert out.read_bytes() == (root / GENERATORS[generator]).read_bytes()


def test_wire_loss_attribution_stays_certified():
    """The committed Figure 1 certificate runs over the paper's lossy
    datagram network, so the checker's attribution of wire loss to the
    netpipe bridge that lost it is certified there (no deployment seam
    is lossy)."""
    import json
    from pathlib import Path

    root = Path(__file__).resolve().parents[2]
    document = json.loads(
        (root / "CERT_refinement_retrofit.json").read_text())
    cert = document["certificates"]["fig1-local-vs-netpipe"]
    (channel,) = cert["channels"].values()
    assert channel["mode"] == "subsequence"
    assert "netpipe-send-video ~ netpipe-recv-video: network lost" in \
        channel["reason"]


# ---------------------------------------------------------------------------
# a certified run proves it ran
# ---------------------------------------------------------------------------


def certified_sides(generator, monkeypatch):
    """``{name: (abstract, concrete)}``: the sides each certificate of a
    ``benchmarks/make_*_certs.py`` generator compares, captured where the
    generator hands them to the checker (``Deployment.certify`` included)
    instead of checked."""
    import importlib

    from repro.check import refine

    module = importlib.import_module(f"benchmarks.{generator}")

    def capture(abstract, concrete, **_kwargs):
        return (PipelineUnderTest.of(abstract, "abstract"),
                PipelineUnderTest.of(concrete, "concrete"))

    monkeypatch.setattr(refine, "check_refinement", capture)
    monkeypatch.setattr(module, "check_refinement", capture, raising=False)
    # The pure-vs-numpy sides flip the array backend as they build.
    monkeypatch.setattr(arrays, "np", arrays.np)
    return dict(module.certify_all())


def delivered_channels(side, record) -> set:
    """Replay one recorded run (its seed, or its choice list) and name
    the channels it delivered at least one item on."""
    from repro.check.explorer import ReplayChooser
    from repro.check.invariants import install_sink_taps

    taps = []

    def build():
        program = side.build()
        taps.append(install_sink_taps(program))
        return program

    chooser = (SeededChooser(record["seed"]) if record["seed"] is not None
               else ReplayChooser(record.get("choices") or []))
    run, _ = run_once(build, chooser, drive=side.drive, trace_tail=0)
    assert not run.failed, run.error
    return {channel for channel, items in taps[-1].streams.items() if items}


def assert_every_run_delivered(cert: dict, abstract, concrete) -> None:
    """Each concrete run delivered on every channel some abstract witness
    delivered on: a certified schedule that moved nothing certifies
    nothing, whatever its streams embed into."""
    expected = set()
    for record in cert["abstract"]["witnesses"]:
        expected |= delivered_channels(abstract, record)
    assert expected, "no witness delivered anything"
    for record in cert["concrete"]["runs"]:
        silent = expected - delivered_channels(concrete, record)
        assert not silent, (
            f"concrete run (seed {record['seed']}) delivered nothing on "
            f"{sorted(silent)}"
        )


@pytest.mark.parametrize("generator", sorted(GENERATORS))
def test_every_certified_concrete_run_delivered(generator, monkeypatch):
    import json
    from pathlib import Path

    root = Path(__file__).resolve().parents[2]
    document = json.loads((root / GENERATORS[generator]).read_text())
    sides = certified_sides(generator, monkeypatch)
    assert sides and set(sides) <= set(document["certificates"])
    for name, (abstract, concrete) in sides.items():
        assert_every_run_delivered(
            document["certificates"][name], abstract, concrete)


def test_a_wire_that_never_ran_fails_the_guard(monkeypatch):
    """The network on a scheduler of its own, under the old inferred
    attribution (both mutants of ``test_refinement.py``): the checker
    certifies the empty stream, and the guard refuses the certificate."""
    from tests.check.test_refinement import (
        foreign_wire_program,
        ignore_the_engines_scheduler,
        infer_wire_loss,
        uncut_program,
    )

    ignore_the_engines_scheduler(monkeypatch)
    infer_wire_loss(monkeypatch)
    cert = check_refinement(uncut_program, foreign_wire_program, seeds=3)
    assert cert.verdict == "refines"
    abstract, concrete = (PipelineUnderTest.of(side, "side")
                          for side in (uncut_program, foreign_wire_program))
    with pytest.raises(AssertionError, match="delivered nothing"):
        assert_every_run_delivered(cert.to_dict(), abstract, concrete)
