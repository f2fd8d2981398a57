"""Repeat loop, normalisation, end-to-end metrics and the run record.

One invocation measures one workload in this process (the caller gives
every workload a fresh process, so peak RSS and collector heaps do not
bleed between workloads): one discarded warm-up repeat, then timed
repeats until the time budget is spent.  Every timed repeat is bracketed
by the calibration kernel (:mod:`bench.calibrate`); time-based metrics
are the median of the normalised repeats and the raw values stay visible
under ``harness.*``.
"""

from __future__ import annotations

import gc
import importlib.metadata
import json
import multiprocessing
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from bench import calibrate
from bench.workloads import Observation, Phases, Workload

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

#: Fewest timed repeats a run reports on, however short its budget.
MIN_REPEATS = 3
#: Consecutive raising repeats after which a run gives up.
MAX_CONSECUTIVE_ERRORS = 3


def load_spec() -> dict:
    """``BENCHMARK.json``: the names, units and bounds of every metric."""
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


@dataclass
class Repeat:
    """One timed repeat: raw phase times plus its normalisation factors."""

    items: int
    failed: int
    setup_s: float = 0.0
    run_s: float = 0.0
    teardown_s: float = 0.0
    #: The collector pass after tear-down (not part of any timed phase).
    reclaim_s: float = 0.0
    cpu_s: float = 0.0
    throughput_s: float = 0.0
    cal_before: tuple[float, float] = (0.0, 0.0)
    cal_after: tuple[float, float] = (0.0, 0.0)
    wall_factor: float = 1.0
    cpu_factor: float = 1.0
    counters: dict[str, float] = field(default_factory=dict)
    samples: dict[str, list[float]] = field(default_factory=dict)
    #: Span aggregates of a traced repeat (see :mod:`bench.trace`).
    spans: dict[str, Any] | None = None
    error: str | None = None

    @property
    def items_per_s(self) -> float:
        return self.items / (self.throughput_s * self.wall_factor)

    @property
    def items_per_s_raw(self) -> float:
        return self.items / self.throughput_s


def one_repeat(
    workload: Workload, cal_before: tuple[float, float], tracer: Any = None
) -> Repeat:
    """Run and verify one repeat; never raises on a workload failure."""
    # Leftover garbage from the previous engine must not be collected on
    # this repeat's clock; the collector itself stays enabled throughout.
    gc.collect()
    phases = Phases(tracer)
    if tracer is not None:
        tracer.begin_repeat()
    try:
        observation: Observation = workload.execute(phases)
    except Exception:  # noqa: BLE001 - a failed repeat is a counted result
        if tracer is not None:
            tracer.end_repeat()
        return Repeat(
            items=workload.items,
            failed=workload.items,
            cal_before=cal_before,
            cal_after=calibrate.kernel(),
            error=traceback.format_exc(),
        )
    cal_after = calibrate.kernel()
    wall_factor, cpu_factor = calibrate.factors(cal_before, cal_after)
    whole = phases.wall["done"] - phases.wall["begin"]
    return Repeat(
        items=workload.items,
        failed=workload.failed_items(observation),
        setup_s=phases.setup_s,
        run_s=phases.run_s,
        teardown_s=phases.teardown_s,
        reclaim_s=phases.reclaim_s,
        cpu_s=phases.cpu_s,
        throughput_s=whole if workload.whole_call else phases.run_s,
        cal_before=cal_before,
        cal_after=cal_after,
        wall_factor=wall_factor,
        cpu_factor=cpu_factor,
        counters=observation.counters,
        samples=phases.samples,
        spans=tracer.end_repeat() if tracer is not None else None,
    )


def run_repeats(
    workloads: list[Workload],
    budget_s: float,
    tracer: Any = None,
) -> list[list[Repeat]]:
    """One discarded warm-up repeat of each workload, then timed repeats,
    interleaved round-robin, until the budget (warm-ups included) is
    spent; one list of repeats per workload.  Interleaving puts a host
    load swing on every workload alike."""
    results: list[list[Repeat]] = [[] for _ in workloads]
    deadline = time.perf_counter() + budget_s
    for workload in workloads:
        one_repeat(workload, calibrate.kernel(), tracer)
    cal = calibrate.kernel()
    errors = 0
    while (
        len(results[-1]) < MIN_REPEATS or time.perf_counter() < deadline
    ):
        for workload, repeats in zip(workloads, results):
            repeat = one_repeat(workload, cal, tracer)
            repeats.append(repeat)
            cal = repeat.cal_after
            errors = errors + 1 if repeat.error else 0
        if errors >= MAX_CONSECUTIVE_ERRORS:
            break
    return results


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def iqr_pct(values: list[float]) -> float:
    """Inter-quartile range as a percentage of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return 100.0 * (q3 - q1) / statistics.median(values)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def end_to_end(repeats: list[Repeat]) -> dict[str, float]:
    """The end-to-end metrics: medians over the repeats that completed."""
    good = [r for r in repeats if r.error is None]
    return {
        "items_per_s": median(r.items_per_s for r in good),
        "cpu_us_per_item": median(
            1e6 * r.cpu_s * r.cpu_factor / r.items for r in good
        ),
        "setup_s": median(r.setup_s * r.wall_factor for r in good),
        "teardown_s": median(r.teardown_s * r.wall_factor for r in good),
        "peak_rss_mb": peak_rss_mb(),
    }


def harness_metrics(repeats: list[Repeat]) -> dict[str, float]:
    """Raw (un-normalised) values and the noise the normalisation saw."""
    good = [r for r in repeats if r.error is None]
    cal = [c for r in repeats for c in (r.cal_before[0], r.cal_after[0])]
    return {
        "harness.cal_ms": median(cal),
        "harness.cal_drift_pct": median(
            200.0 * abs(r.cal_after[0] - r.cal_before[0])
            / (r.cal_after[0] + r.cal_before[0])
            for r in good
        ),
        "harness.items_per_s_raw": median(r.items_per_s_raw for r in good),
        "harness.repeats": float(len(repeats)),
        "harness.repeat_iqr_pct": iqr_pct([r.items_per_s for r in good]),
    }


def totals(repeats: list[Repeat]) -> tuple[int, int]:
    """``(attempted, failed)`` in source items over the timed repeats."""
    return sum(r.items for r in repeats), sum(r.failed for r in repeats)


# ---------------------------------------------------------------------------
# the record
# ---------------------------------------------------------------------------


def _git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` directly: a ``git``
    child process would count towards ``peak_rss_mb``."""
    git = REPO_ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head  # detached
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass  # not a git checkout (the driver's copy is not)
    return None


def environment(seed: int) -> dict[str, Any]:
    try:  # the version only: importing numpy here would pad peak RSS
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "media_pure": os.environ.get("REPRO_MEDIA_PURE") == "1",
        "nproc": os.cpu_count(),
        "start_method": multiprocessing.get_start_method(),
        "seed": seed,
        "cal_ref_ms": calibrate.CAL_REF_MS,
        "argv": sys.argv[1:],
    }


def write_record(name: str, record: dict[str, Any]) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{name}.json").write_text(
        json.dumps(record, indent=1, default=repr) + "\n"
    )


def repeat_rows(repeats: list[Repeat]) -> list[dict[str, Any]]:
    """Per-repeat detail for the record (sample lists summarised)."""
    return [
        {
            "items": r.items,
            "failed": r.failed,
            "setup_s": r.setup_s,
            "run_s": r.run_s,
            "teardown_s": r.teardown_s,
            "reclaim_s": r.reclaim_s,
            "cpu_s": r.cpu_s,
            "cal_ms": [r.cal_before[0], r.cal_after[0]],
            "cal_cpu_ms": [r.cal_before[1], r.cal_after[1]],
            "wall_factor": r.wall_factor,
            "cpu_factor": r.cpu_factor,
            "items_per_s": None if r.error else r.items_per_s,
            "error": r.error,
        }
        for r in repeats
    ]
