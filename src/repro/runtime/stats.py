"""Aggregated pipeline statistics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass
class PipelineStats:
    """A snapshot of everything countable about a pipeline run."""

    #: Per-component counters (items_in, items_out, drops, ...).
    components: dict[str, dict[str, Any]] = field(default_factory=dict)
    #: Thread context switches performed by the scheduler.
    context_switches: int = 0
    #: Coroutine-boundary crossings (ip-push/ip-pull round trips).
    coroutine_switches: int = 0
    #: Messages delivered by the scheduler.
    messages_delivered: int = 0
    #: Pump cycles executed, per section origin.
    cycles: dict[str, int] = field(default_factory=dict)
    #: Cycles that found no data (nil policy upstream), per origin.
    nil_cycles: dict[str, int] = field(default_factory=dict)
    #: Batched-data-plane counters per origin (only origins that moved at
    #: least one batch appear): batches, items, avg_batch and the flush
    #: reasons (full = hit the batch size, dry = upstream ran dry, eos =
    #: the run ended the stream).
    batching: dict[str, dict[str, Any]] = field(default_factory=dict)
    #: Items still held inside stateful components (buffer fill levels,
    #: netpipe receive queues) at snapshot — the flow-invariant checker
    #: needs these to account for in-flight items.
    retained: dict[str, int] = field(default_factory=dict)
    #: Data items (never EOS) a producer's intake fetched and has not
    #: committed; not in ``retained``: ``items_in`` is counted at commit.
    held: dict[str, int] = field(default_factory=dict)
    #: Virtual (or real) time at snapshot.
    time: float = 0.0
    #: User-level threads created for the pipeline.
    threads: int = 0
    #: Undeliverable messages currently retained by the scheduler.
    dead_letters: int = 0
    #: Undeliverable messages discarded past the retention bound.
    dead_letters_dropped: int = 0

    def items_out(self, component_name: str) -> int:
        return self.components.get(component_name, {}).get("items_out", 0)

    def items_in(self, component_name: str) -> int:
        return self.components.get(component_name, {}).get("items_in", 0)

    def total_cycles(self) -> int:
        return sum(self.cycles.values())

    def drops(self, component_name: str) -> int:
        """Items a component *declared* dropping: the sum of its counters
        named ``drops`` or ``dropped*`` (``drops``, ``dropped_B``, ...).

        Declared drops are the only loss the flow-invariant checker
        (:mod:`repro.check.invariants`) accepts from a conserving
        component.
        """
        counters = self.components.get(component_name, {})
        return sum(
            value
            for key, value in counters.items()
            if isinstance(value, int)
            and (key == "drops" or key.startswith("dropped"))
        )

    def retained_in(self, component_name: str) -> int:
        return self.retained.get(component_name, 0)

    def summary(self) -> str:
        header = (
            f"time={self.time:.6f}s threads={self.threads} "
            f"ctx-switches={self.context_switches} "
            f"coroutine-switches={self.coroutine_switches} "
            f"messages={self.messages_delivered}"
        )
        if self.dead_letters or self.dead_letters_dropped:
            header += (
                f" dead-letters={self.dead_letters}"
                f" dead-letters-dropped={self.dead_letters_dropped}"
            )
        lines = [header]
        for name, counters in sorted(self.components.items()):
            interesting = {
                k: v
                for k, v in counters.items()
                if (isinstance(v, int) and v) or isinstance(v, float)
            }
            if interesting:
                pretty = " ".join(
                    f"{k}={v}" if isinstance(v, int) else f"{k}={v:.6g}"
                    for k, v in sorted(interesting.items())
                )
                lines.append(f"  {name}: {pretty}")
        for name, counters in sorted(self.batching.items()):
            lines.append(
                f"  batch {name}: avg={counters['avg_batch']:.2f} "
                f"batches={counters['batches']} "
                f"full={counters['flush_full']} "
                f"dry={counters['flush_dry']} "
                f"eos={counters['flush_eos']}"
            )
        if self.held:
            pretty = " ".join(f"{k}={v}" for k, v in sorted(self.held.items()))
            lines.append(f"  held in intakes: {pretty}")
        return "\n".join(lines)
