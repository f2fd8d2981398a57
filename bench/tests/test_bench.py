import re
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from bench import harness, probes
from bench.__main__ import parse_result
from bench.trace import Target, Tracer
from bench.workloads import WORKLOADS, Observation, Phases, Workload

ROOT = harness.REPO_ROOT
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def run_bench(workload, trace, seed=3, seconds=0.2):
    done = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", workload, "--smoke",
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return parse_result(done.stdout)


@pytest.fixture(scope="module")
def spec():
    return harness.load_spec()


@pytest.fixture(scope="module")
def smoke_results():
    """Every workload, both modes, at smoke size; also the time it took.
    Two children at a time: each is one process on a 2-core box."""
    started = time.perf_counter()
    jobs = [(name, trace) for name in WORKLOADS for trace in (0, 1)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        done = list(pool.map(lambda job: run_bench(*job), jobs))
    results = {name: {} for name in WORKLOADS}
    for (name, trace), result in zip(jobs, done):
        results[name][trace] = result
    return results, time.perf_counter() - started


def test_spec_names_are_well_formed_and_unique(spec):
    names = [
        m["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for m in spec[section]
    ]
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert any(
        m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
        for m in spec["end_to_end"]
    )
    assert set(Workload.exact_counts) <= {m["name"] for m in spec["per_layer"]}


def test_emitted_names_match_the_spec(spec, smoke_results):
    results, _ = smoke_results
    for modes in results.values():
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in spec[section]}
            emitted = modes[trace]["metrics"]
            assert set(emitted) == set(expected)
            assert {n: m["unit"] for n, m in emitted.items()} == expected
            assert set(modes[trace]) == {
                "correct", "attempted", "failed", "metrics",
            }


def test_smoke_suite_is_correct_and_fast(smoke_results):
    results, elapsed = smoke_results
    for name, modes in results.items():
        for result in modes.values():
            assert result["correct"] and result["failed"] == 0, name
            assert result["attempted"] >= 1
        assert all(
            m["value"] > 0 for m in modes[0]["metrics"].values()
        ), name
    assert elapsed < 15.0  # all six workloads, both modes


def test_no_target_or_probe_is_missing_today(smoke_results):
    results, _ = smoke_results
    for name, modes in results.items():
        assert modes[1]["metrics"]["harness.missing_probes"]["value"] == 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_same_inputs(name):
    first, again = WORKLOADS[name](7, smoke=True), WORKLOADS[name](7, smoke=True)
    other = WORKLOADS[name](8, smoke=True)
    assert first.inputs == again.inputs
    assert first.reference == again.reference
    assert first.inputs_digest() == again.inputs_digest()
    assert first.inputs != other.inputs


def test_same_seed_same_exact_counts(smoke_results):
    results, _ = smoke_results
    for name in ("fig9a-item", "fabric-mux"):
        again = run_bench(name, 1)["metrics"]
        for metric in WORKLOADS[name].exact_counts:
            assert (
                again[metric]["value"]
                == results[name][1]["metrics"][metric]["value"]
            ), (name, metric)


def test_unresolvable_target_and_probe_yield_null_not_a_crash():
    def gone():
        from repro.mbt.mailbox import NoSuchThing  # noqa: F401

    values, missing = probes.run_probes({"mbt.gone_ns": (gone, 10, 1e9)})
    assert values == {"mbt.gone_ns": None} and missing == ["mbt.gone_ns"]

    with Tracer().install([
        Target("mbt.run", "repro.mbt.scheduler:Scheduler.run"),
        Target("mbt.gone", "repro.mbt.scheduler:Scheduler.no_such_entry"),
        Target("gone.module", "repro.no_such_module:thing"),
    ]) as tracer:
        assert tracer.groups == ["mbt.run"]
        assert len(tracer.missing) == 2

    from bench import layers

    sums = layers.SpanSums([], tracer.groups)
    assert sums.share("mbt.gone", "run") is None
    assert sums.share("mbt.run", "run") == 0.0


def test_wrappers_come_off_again():
    from repro.mbt.scheduler import Scheduler

    original = Scheduler.__dict__["run"]
    with Tracer().install():
        assert Scheduler.__dict__["run"] is not original
    assert Scheduler.__dict__["run"] is original


def test_spans_nest_and_self_time_excludes_children():
    workload = WORKLOADS["fig9a-item"](5, smoke=True)
    with Tracer(span_cap=2_000).install() as tracer:
        repeat = harness.one_repeat(workload, (40.0, 40.0), tracer)
    assert repeat.error is None and repeat.failed == 0
    run = repeat.spans["run"]
    assert run["mbt.run"][2] == 1  # one Scheduler.run call in the run phase
    for own, total, calls, _ in run.values():
        assert 0 <= own <= total and calls > 0
    assert sum(cell[0] for cell in run.values()) <= repeat.run_s * 1e9
    parents = [s[3] for s in tracer.spans if s is not None]
    assert parents[0] == -1 and max(parents) >= 0
    assert len(tracer.spans) <= 2_000


def test_corrupted_sink_raises_failed_share():
    workload = WORKLOADS["fig9a-item"](5, smoke=True)
    honest = harness.one_repeat(workload, (40.0, 40.0))
    assert honest.failed == 0

    execute = workload.execute

    def corrupted(phases: Phases) -> Observation:
        observation = execute(phases)
        observation.outputs["sink"][3] = ("not", "what", "was", "sent")
        del observation.outputs["sink"][-1]
        return observation

    workload.execute = corrupted
    repeat = harness.one_repeat(workload, (40.0, 40.0))
    assert repeat.failed == 2 * workload.items_per_output
    assert 0 < repeat.failed / repeat.items < 1


def test_raising_repeat_counts_all_its_items():
    workload = WORKLOADS["fig9a-item"](5, smoke=True)

    def boom(phases):
        raise RuntimeError("boom")

    workload.execute = boom
    repeat = harness.one_repeat(workload, (40.0, 40.0))
    assert repeat.failed == repeat.items and "boom" in repeat.error


def test_exits_nonzero_without_the_library(tmp_path):
    """The driver also runs the command where only BENCHMARK.json and
    the benchmark's own directory exist."""
    import shutil

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "bench", tmp_path / "bench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", "fig9a-item",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
