"""The per-layer ledger: from spans, counters and probes to named metrics.

Inputs (all gathered by :mod:`bench.__main__` in one ``--trace 1`` run):

* ``plain`` — repeats measured *before* any wrapper was installed: the
  same numbers the end-to-end run reports, plus the counters the program
  publishes about itself (exact: same seed ⇒ same count);
* ``traced`` — repeats measured with the span wrappers live; only their
  span aggregates and their slowdown are used;
* a *companion* workload interleaved with the main one where a metric is
  a ratio between two programs (``fig9a-obs`` against its plain twin;
  the 2-shard deployment against the same program on one shard, whose
  in-process spans also supply the deployment's data-plane shares);
* the micro-probes' unit costs.

A metric whose span group or probe did not resolve is ``None``; a metric
of a layer the workload never enters is ``0``.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Any

from bench.harness import Repeat, harness_metrics, median
from bench.trace import PHASES


def _ratio(numerator: float | None, denominator: float) -> float | None:
    """``numerator / denominator``; 0 over nothing, ``None`` of ``None``
    (a span group that was never installed has no value to divide)."""
    if numerator is None:
        return None
    return numerator / denominator if denominator else 0.0


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[index]


class SpanSums:
    """Span aggregates summed over traced repeats, each repeat's times
    scaled by its own normalisation factor."""

    SELF, TOTAL, CALLS, TALLY = range(4)

    def __init__(self, repeats: list[Repeat], installed: list[str]):
        self.installed = set(installed)
        self.repeats = [r for r in repeats if r.error is None and r.spans]
        self.cells: dict[tuple[str, str], list[float]] = {}
        self.phase_ns = dict.fromkeys(PHASES, 0.0)
        for repeat in self.repeats:
            scale = repeat.wall_factor
            for phase, seconds in (
                ("setup", repeat.setup_s),
                ("run", repeat.run_s),
                ("teardown", repeat.teardown_s),
            ):
                self.phase_ns[phase] += 1e9 * seconds * scale
            for phase, groups in repeat.spans.items():
                for group, cell in groups.items():
                    into = self.cells.setdefault((phase, group), [0.0] * 4)
                    into[self.SELF] += cell[0] * scale
                    into[self.TOTAL] += cell[1] * scale
                    into[self.CALLS] += cell[2]
                    into[self.TALLY] += cell[3]

    @property
    def count(self) -> int:
        return len(self.repeats)

    def _sum(self, group: str, phase: str | None, column: int):
        if group not in self.installed:
            return None
        phases = PHASES if phase is None else (phase,)
        return sum(
            self.cells.get((p, group), (0.0,) * 4)[column] for p in phases
        )

    def self_ns(self, group, phase=None):
        return self._sum(group, phase, self.SELF)

    def total_ns(self, group, phase=None):
        return self._sum(group, phase, self.TOTAL)

    def calls(self, group, phase=None):
        return self._sum(group, phase, self.CALLS)

    def tally(self, group, phase=None):
        return self._sum(group, phase, self.TALLY)

    def wall_ns(self, phase: str | None) -> float:
        if phase is None:
            return sum(self.phase_ns.values())
        return self.phase_ns[phase]

    def share(self, group: str, phase: str | None):
        """Self time of ``group`` as a share of the phase's wall time."""
        return _ratio(self.self_ns(group, phase), self.wall_ns(phase))

    def per(self, group: str, phase: str | None, count: float, unit_ns=1.0):
        """Self time of ``group`` per ``count`` units, in ``unit_ns``."""
        return _ratio(self.self_ns(group, phase), count * unit_ns)

    def accounted(self, phase: str | None) -> float:
        covered = sum(
            self.self_ns(group, phase) or 0.0 for group in self.installed
        )
        return _ratio(covered, self.wall_ns(phase))


def _pooled(repeats: list[Repeat], key: str) -> list[float]:
    """Normalised samples of ``key`` pooled over repeats, sorted."""
    return sorted(
        value * r.wall_factor
        for r in repeats
        for value in r.samples.get(key, ())
    )


def _growth(samples: list[float]) -> float:
    """Median of the last decile over median of the first decile."""
    decile = max(1, len(samples) // 10)
    if len(samples) < 2 * decile:
        return 0.0
    return _ratio(
        statistics.median(samples[-decile:]),
        statistics.median(samples[:decile]),
    )


def derive(
    workload: Any,
    plain: list[Repeat],
    traced: list[Repeat],
    companion_plain: list[Repeat],
    companion_traced: list[Repeat],
    installed: list[str],
    probes: dict[str, float | None],
    missing: list[str],
) -> dict[str, float | None]:
    good = [r for r in plain if r.error is None]
    if not good:
        return {}
    last = good[-1]
    counters = defaultdict(float, last.counters)
    items = last.items
    spans = SpanSums(traced, installed)
    # The sharded deployment runs in other processes; its data-plane
    # spans come from the same program on one shard, in this process,
    # where the whole call is one phase.
    data = (
        SpanSums(companion_traced, installed)
        if workload.whole_call else spans
    )
    run = None if workload.whole_call else "run"
    traced_items = sum(r.items for r in data.repeats)
    traced_steps = sum(r.counters.get("steps", 0) for r in data.repeats)
    if not counters["steps"] and data.repeats:
        counters["steps"] = data.repeats[-1].counters.get("steps", 0)
    programs = data.count * last.counters.get("opens", 1)
    c = counters.__getitem__

    ips = median(r.items_per_s for r in good)
    companion_ips = median(
        r.items_per_s for r in companion_plain if r.error is None
    )
    traced_ips = median(
        r.items_per_s for r in traced if r.error is None
    )
    opens = _pooled(good, "open_s")
    done = _pooled(good, "tenant_done_s")

    metrics: dict[str, float | None] = {
        # lang / core / runtime: set-up stages
        "lang.parse_us": probes.get("lang.parse_us"),
        "lang.build_us": probes.get("lang.build_us"),
        "core.compose_us": data.per("core.compose", "setup", programs, 1e3),
        "core.allocate_us": data.per("core.allocate", "setup", programs, 1e3),
        "runtime.setup_us": data.per("runtime.setup", "setup", programs, 1e3),
        "runtime.start_us": data.per("runtime.start", "setup", programs, 1e3),
        # runtime: data plane
        "runtime.cycles_per_item": _ratio(c("cycles"), items),
        "runtime.messages_per_item": _ratio(c("messages"), items),
        "runtime.coroutine_switches_per_item": _ratio(
            c("coroutine_switches"), items
        ),
        "runtime.driver_self_share": data.share("runtime.driver", run),
        "runtime.reclaim_ms": 1e3 * median(
            r.reclaim_s * r.wall_factor for r in good
        ),
        # mbt
        "mbt.steps_per_item": _ratio(c("steps"), items),
        "mbt.dispatch_self_us_per_step": data.per(
            "mbt.run", run, traced_steps, 1e3
        ),
        "mbt.run_self_share": data.share("mbt.run", run),
        "mbt.mailbox_ops_per_item": _ratio(
            data.calls("mbt.mailbox", run), traced_items
        ),
        "mbt.mailbox_put_get_ns": probes.get("mbt.mailbox_put_get_ns"),
        "mbt.switch_ns": probes.get("mbt.switch_ns"),
        "mbt.post_dispatch_ns": probes.get("mbt.post_dispatch_ns"),
        "mbt.timer_fires": _ratio(
            data.calls("mbt.timer_callback"), data.count
        ),
        "mbt.tenant_dispatches_per_item": _ratio(
            c("tenant_dispatches"), items
        ),
        # components
        "components.stage_self_share": data.share("components.stage", run),
        "components.buffer_put_get_ns": probes.get(
            "components.buffer_put_get_ns"
        ),
        "components.buffer_blocked_share": _ratio(
            data.tally("components.buffer", run),
            data.calls("components.buffer", run) or 0,
        ),
        # net
        "net.marshal_encode_ns_per_item": data.per(
            "net.marshal_encode", run, traced_items
        ),
        "net.marshal_decode_ns_per_item": data.per(
            "net.marshal_decode", run, traced_items
        ),
        "net.wire_bytes_per_item": _ratio(c("wire_bytes"), items),
        "net.link_send_self_share": spans.share("net.link_send", run),
        "net.link_pump_self_share": spans.share("net.link_pump", run),
        "net.frames_per_kitem": 1e3 * _ratio(c("wire_frames"), items),
        "net.syscall_bytes_per_frame": _ratio(
            c("wire_bytes"), c("wire_frames")
        ),
        "net.mux_pump_self_share": spans.share("net.mux_pump", run),
        "net.mux_stalls_per_stream": _ratio(
            c("mux_stalls"), c("mux_streams")
        ),
        "net.mux_credit_frames_share": _ratio(
            c("mux_credit_frames"), c("mux_frames")
        ),
        "net.mux_unknown_stream_drops": c("mux_unknown_drops"),
        "net.sim_packets_per_frame": _ratio(
            c("sim_packets"), c("netpipe_frames_out")
        ),
        "net.sim_retransmits": c("sim_retransmits"),
        "net.sim_queue_drops": c("sim_queue_drops"),
        "net.netpipe_frames_out": c("netpipe_frames_out"),
        # media
        "media.decode_self_share": spans.share("media.decode", run),
        "media.resize_self_share": spans.share("media.resize", run),
        "media.source_self_share": spans.share("media.source", run),
        "media.columnar_run_share": _ratio(
            spans.tally("media.decode", run), traced_items
        ),
        "media.payload_mb_per_s": median(
            r.counters.get("payload_bytes", 0)
            / (r.run_s * r.wall_factor) / 1e6
            for r in good
        ),
        # fabric
        "fabric.open_ms_p50": 1e3 * _percentile(opens, 0.50),
        "fabric.open_ms_p99": 1e3 * _percentile(opens, 0.99),
        "fabric.open_samples": float(len(opens)),
        "fabric.open_self_us": spans.per(
            "fabric.open", "setup", spans.count * c("opens"), 1e3
        ),
        "fabric.open_growth_ratio": median(
            _growth(r.samples.get("open_s", [])) for r in good
        ),
        "fabric.close_us_per_session": _ratio(
            spans.total_ns("fabric.close", "teardown"),
            1e3 * (spans.calls("fabric.close", "teardown") or 0),
        ),
        "fabric.tenant_done_p50_ms": 1e3 * _percentile(done, 0.50),
        "fabric.tenant_done_p98_ms": 1e3 * _percentile(done, 0.98),
        # obs
        "obs.registry_series": c("obs_series"),
        "obs.sampled_traces": c("obs_traces"),
        "obs.attach_us": spans.per("obs.attach", "setup", spans.count, 1e3),
        "obs.overhead_pct": 0.0,
    }

    # deploy: phases of the sharded call, and the one-shard comparison
    deploy = dict.fromkeys(
        (
            "deploy.plan_ms", "deploy.spawn_to_ready_ms", "deploy.run_s",
            "deploy.gather_ms", "deploy.shard_busy_share",
            "deploy.speedup_vs_1shard",
        ),
        0.0,
    )
    if workload.whole_call:
        plan_ms = spans.per("deploy.plan", None, spans.count, 1e6)
        setup_ms = 1e3 * median(r.setup_s * r.wall_factor for r in good)
        deploy.update({
            "deploy.plan_ms": plan_ms,
            "deploy.spawn_to_ready_ms": (
                None if plan_ms is None else setup_ms - plan_ms
            ),
            "deploy.run_s": median(
                r.counters["deploy_run_s"] * r.wall_factor for r in good
            ),
            "deploy.gather_ms": 1e3 * median(
                r.teardown_s * r.wall_factor for r in good
            ),
            "deploy.shard_busy_share": median(
                _ratio(
                    r.cpu_s,
                    workload.shards * r.counters["deploy_window_s"],
                )
                for r in good
            ),
            "deploy.speedup_vs_1shard": _ratio(ips, companion_ips),
        })
    elif companion_ips:
        # fig9a-obs against its uninstrumented twin, same process,
        # interleaved repeats.
        metrics["obs.overhead_pct"] = 100.0 * (1.0 - ips / companion_ips)
    metrics.update(deploy)

    # harness: what the measurement itself cost and could not name
    accounted = data.accounted(run)
    metrics.update(harness_metrics(plain))
    metrics.update({
        "harness.trace_overhead_pct": (
            100.0 * (ips / traced_ips - 1.0) if traced_ips else 0.0
        ),
        "harness.accounted_share": accounted,
        "harness.unattributed_share": 1.0 - accounted,
        "harness.missing_probes": float(len(missing)),
    })
    return metrics
