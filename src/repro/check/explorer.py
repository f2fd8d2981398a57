"""Schedule exploration: one program, many legal interleavings.

The paper's thread-transparency claim — push/pull/control interfaces hide
all threading and synchronization — only holds if it holds under *every*
schedule the priority semantics allow, not just the default one.  The
scheduler's dispatch order is fully determined except at one point: when
several ready threads share the most urgent ``(priority, deadline)`` key,
the tie is broken by fairness bookkeeping (``last_ran``, creation index).
:func:`explore` re-runs a program N times, each time perturbing exactly
those tie-breaks with a seeded RNG injected through
:attr:`repro.mbt.scheduler.Scheduler.choice_hook`.  Every produced
schedule is therefore *legal* — constraints and priorities are never
violated — so any user-visible invariant (flow conservation, FIFO order,
absence of deadlock) must survive all of them.

When a seed fails, the recorded choice sequence is a complete,
deterministic repro: replaying it (:class:`ReplayChooser`) reproduces the
failure bit-for-bit.  :func:`explore` then shrinks the sequence
(ddmin-style prefix truncation plus per-choice zeroing) to a minimized
repro and formats a trace excerpt of the failing run.
"""

from __future__ import annotations

import hashlib
import random
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.mbt.thread import MThread
from repro.mbt.tracing import format_tail

#: Safety bound for the default drive: no explored program should need
#: more dispatches than this to quiesce.
DEFAULT_MAX_STEPS = 2_000_000


class SeededChooser:
    """Tie-break hook that picks uniformly among tied candidates.

    Records the index of every choice it makes, so a failing run can be
    replayed exactly with :class:`ReplayChooser`.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self._rng = random.Random(seed)
        self.choices: list[int] = []

    def __call__(self, candidates: list[MThread]) -> MThread:
        index = self._rng.randrange(len(candidates))
        self.choices.append(index)
        return candidates[index]


class ReplayChooser:
    """Tie-break hook replaying a recorded choice sequence.

    Once the sequence is exhausted (or an index exceeds the candidate
    count, which can happen after shrinking), the default pick — index 0,
    exactly what the unhooked scheduler would do — applies.
    """

    def __init__(self, choices: Sequence[int]):
        self._choices = list(choices)
        self._at = 0
        self.choices: list[int] = []

    def __call__(self, candidates: list[MThread]) -> MThread:
        index = 0
        if self._at < len(self._choices):
            index = min(self._choices[self._at], len(candidates) - 1)
        self._at += 1
        self.choices.append(index)
        return candidates[index]


# ---------------------------------------------------------------------------
# Trace fingerprints
# ---------------------------------------------------------------------------

_NUMBERED = re.compile(r"^(.*)-(\d+)$")


def _normalizer():
    """Rename auto-numbered component names by order of first appearance.

    Components draw names like ``pump-7`` from process-global counters, so
    absolute numbers differ between two builds of the *same* program in
    one process.  Mapping each to ``base#k`` makes trace hashes comparable
    across seeds while preserving the event structure exactly.
    """
    mapping: dict[str, str] = {}
    per_base: Counter = Counter()

    def normalize(value):
        if not isinstance(value, str):
            return value
        if _NUMBERED.match(value) is None:
            return value
        renamed = mapping.get(value)
        if renamed is None:
            prefix, base = "", value
            for marker in ("pump:", "coro:"):
                if value.startswith(marker):
                    prefix, base = marker, value[len(marker):]
                    break
            hit = _NUMBERED.match(base)
            stem = hit.group(1) if hit is not None else base
            renamed = f"{prefix}{stem}#{per_base[stem]}"
            per_base[stem] += 1
            mapping[value] = renamed
        return renamed

    return normalize


def trace_hash(trace: Sequence[tuple]) -> str:
    """SHA-256 over the normalized event stream of a scheduler trace."""
    normalize = _normalizer()
    blob = "\n".join(
        repr(tuple(normalize(part) for part in event)) for event in trace
    )
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Exploration
# ---------------------------------------------------------------------------


@dataclass
class SeedRun:
    """Outcome of one explored schedule."""

    seed: int | None
    trace_hash: str
    events: int
    choices: list[int]
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None


@dataclass
class ExplorationResult:
    """What :func:`explore` found across all seeds."""

    runs: list[SeedRun] = field(default_factory=list)
    failures: list[SeedRun] = field(default_factory=list)
    #: Shrunk choice sequence reproducing the first failure, if any.
    minimized_choices: list[int] | None = None
    #: Error message and trace excerpt of the minimized failing replay.
    repro: str = ""

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def distinct_interleavings(self) -> int:
        return len({run.trace_hash for run in self.runs})

    def summary(self) -> str:
        lines = [
            f"explored {len(self.runs)} schedules, "
            f"{self.distinct_interleavings} distinct interleavings, "
            f"{len(self.failures)} failing"
        ]
        if self.failures:
            first = self.failures[0]
            lines.append(f"first failing seed: {first.seed} — {first.error}")
            if self.minimized_choices is not None:
                lines.append(
                    f"minimized repro: {len(self.minimized_choices)} choices "
                    f"{self.minimized_choices!r}"
                )
            if self.repro:
                lines.append(self.repro)
        return "\n".join(lines)

    def raise_if_failed(self) -> None:
        if not self.ok:
            raise AssertionError(self.summary())


def _default_drive(program: Any) -> None:
    run_to_completion = getattr(program, "run_to_completion", None)
    if run_to_completion is not None:
        run_to_completion(max_steps=DEFAULT_MAX_STEPS)
        return
    program.run(max_steps=DEFAULT_MAX_STEPS)


def _scheduler_of(program: Any):
    return getattr(program, "scheduler", program)


def _run_once(
    build: Callable[[], Any],
    chooser,
    drive,
    check,
    seed: int | None,
    trace_tail: int,
) -> tuple[SeedRun, str]:
    program = build()
    scheduler = _scheduler_of(program)
    if scheduler._trace is None:
        scheduler._trace = []
    scheduler.choice_hook = chooser
    error = None
    try:
        (drive or _default_drive)(program)
        if check is not None:
            check(program)
    except Exception as exc:  # noqa: BLE001 - any failure is a finding
        error = f"{type(exc).__name__}: {exc}"
    trace = scheduler._trace
    run = SeedRun(
        seed=seed,
        trace_hash=trace_hash(trace),
        events=len(trace),
        choices=list(chooser.choices),
        error=error,
    )
    excerpt = format_tail(scheduler._trace, trace_tail) if error else ""
    return run, excerpt


def explore(
    build: Callable[[], Any],
    *,
    seeds: int = 50,
    base_seed: int = 0,
    drive: Callable[[Any], None] | None = None,
    check: Callable[[Any], None] | None = None,
    stop_on_failure: bool = False,
    minimize: bool = True,
    minimize_budget: int = 64,
    trace_tail: int = 40,
) -> ExplorationResult:
    """Run ``build()``'s program under ``seeds`` perturbed schedules.

    Parameters
    ----------
    build:
        Zero-arg callable returning a fresh, fully wired but not yet run
        program — an :class:`~repro.runtime.engine.Engine` or anything
        with a ``.scheduler`` (a bare :class:`Scheduler` also works).
        It is called once per seed; programs must not share state.
    drive:
        Runs the program (default: ``run_to_completion`` / ``run`` with a
        step bound).  Exceptions — scheduler errors, deadlocks, assertion
        failures — count as failures of that seed.
    check:
        Called with the program after a successful drive; raise (e.g.
        :class:`~repro.check.invariants.InvariantViolation`) to fail the
        seed.  This is where flow invariants plug in.
    minimize:
        On the first failure, shrink the recorded choice sequence to a
        minimized deterministic repro (costs up to ``minimize_budget``
        replays).

    Any test can wrap its pipeline in this and assert ``result.ok`` plus
    ``result.distinct_interleavings > 1``.
    """
    result = ExplorationResult()
    for offset in range(seeds):
        seed = base_seed + offset
        run, excerpt = _run_once(
            build, SeededChooser(seed), drive, check, seed, trace_tail
        )
        result.runs.append(run)
        if run.failed:
            result.failures.append(run)
            if not result.repro:
                result.repro = f"{run.error}\n{excerpt}"
            if stop_on_failure:
                break

    if result.failures and minimize:
        first = result.failures[0]
        minimized, repro = _minimize(
            build, drive, check, first.choices, minimize_budget, trace_tail
        )
        result.minimized_choices = minimized
        if repro:
            result.repro = repro
    return result


def replay(
    build: Callable[[], Any],
    choices: Sequence[int],
    *,
    drive: Callable[[Any], None] | None = None,
    check: Callable[[Any], None] | None = None,
    trace_tail: int = 40,
) -> tuple[SeedRun, str]:
    """Deterministically replay a recorded/minimized choice sequence.

    Returns the run outcome and (when it failed) a trace excerpt — the
    entry point for debugging a repro out of a CI failure message.
    """
    return _run_once(
        build, ReplayChooser(choices), drive, check, None, trace_tail
    )


def run_once(
    build: Callable[[], Any],
    chooser,
    *,
    drive: Callable[[Any], None] | None = None,
    check: Callable[[Any], None] | None = None,
    seed: int | None = None,
    trace_tail: int = 40,
) -> tuple[SeedRun, str]:
    """Run ``build()``'s program once under an explicit tie-break chooser.

    The single-run primitive behind :func:`explore` / :func:`replay`,
    public so higher-level drivers (the refinement checker) can run their
    own seed loops while sharing the choice recording, trace hashing and
    failure formatting.  ``chooser`` is any ``choice_hook`` callable with
    a ``choices`` list attribute (:class:`SeededChooser`,
    :class:`ReplayChooser`, or a custom hook).
    """
    return _run_once(build, chooser, drive, check, seed, trace_tail)


def minimize_failure(
    build: Callable[[], Any],
    choices: Sequence[int],
    *,
    drive: Callable[[Any], None] | None = None,
    check: Callable[[Any], None] | None = None,
    budget: int = 64,
    trace_tail: int = 40,
) -> tuple[list[int], str]:
    """Shrink a failing choice sequence to a minimized deterministic repro.

    Public wrapper over the ddmin machinery :func:`explore` uses: binary-
    search the shortest failing prefix, zero residual non-default choices,
    drop trailing defaults.  Returns the minimized sequence and the
    formatted error + trace excerpt of the minimized failing replay (empty
    if the given sequence did not reproduce a failure).
    """
    return _minimize(build, drive, check, list(choices), budget, trace_tail)


def _minimize(
    build,
    drive,
    check,
    choices: list[int],
    budget: int,
    trace_tail: int,
) -> tuple[list[int], str]:
    """Shrink a failing choice sequence: truncate the tail, zero entries.

    Prefix truncation relies on the replay default (choice 0 = unhooked
    scheduler behaviour) for everything past the prefix.  Failure under
    *any* error counts — standard delta-debugging practice.
    """
    attempts = 0
    best = list(choices)
    best_repro = ""

    def fails(candidate: list[int]) -> tuple[bool, str]:
        nonlocal attempts
        attempts += 1
        run, excerpt = _run_once(
            build, ReplayChooser(candidate), drive, check, None, trace_tail
        )
        return run.failed, (f"{run.error}\n{excerpt}" if run.failed else "")

    # Confirm determinism of the repro before shrinking.
    failed, repro = fails(best)
    if not failed:
        return best, ""
    best_repro = repro

    # Binary-search the shortest failing prefix (monotone heuristic).
    lo, hi = 0, len(best)
    while lo < hi and attempts < budget:
        mid = (lo + hi) // 2
        failed, repro = fails(best[:mid])
        if failed:
            hi = mid
            best, best_repro = best[:mid], repro
        else:
            lo = mid + 1

    # Zero out residual non-default choices where possible.
    index = 0
    while index < len(best) and attempts < budget:
        if best[index] != 0:
            candidate = list(best)
            candidate[index] = 0
            failed, repro = fails(candidate)
            if failed:
                best, best_repro = candidate, repro
        index += 1

    # Drop trailing defaults — they are implied by the replay default.
    while best and best[-1] == 0:
        best.pop()
    return best, best_repro
