"""Mechanized refinement checking: certify "observably identical streams".

Every optimization this repository ships — batching, vectorizing,
zero-copy marshalling, netpipe splitting, live restructuring — claims the
transformed pipeline is *observably identical* to the original.  Philipps
& Rumpe's refinement rules for pipe-and-filter / information-flow
architectures give that claim a checkable form: pipeline **B refines
pipeline A** iff every behaviour of B is a behaviour of A — concretely,
every explored schedule of B yields sink sequences some witness schedule
of A reproduces, modulo declared-lossy components.

:func:`check_refinement` mechanizes exactly that over the existing
deterministic-simulation toolkit:

* both pipelines are instrumented with **sink taps**
  (:func:`repro.check.invariants.install_sink_taps` — no rewiring, the
  schedule is untouched);
* a **witness set** of A's schedules and ``>= seeds`` seeded schedules of
  B are explored through the scheduler's tie-break hook
  (:class:`~repro.check.explorer.SeededChooser`);
* per sink channel, B's **projected** stream must equal some witness
  stream exactly (conserving channels) or embed into one as an
  order-preserving **subsequence** (channels behind declared-lossy
  components, drop-counting filters, or lossy network links);
* the outcome is a machine-readable :class:`RefinementCertificate`
  (seeds, trace hashes, channel modes, projection spec, verdict) that CI
  archives next to the ``CERT_*.json`` certificates;
* on failure the violating schedule is shrunk with the explorer's ddmin
  machinery into a **replayable counterexample**: seed, minimized choice
  list, and the first divergent sink index.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.check.explorer import (
    ReplayChooser,
    SeededChooser,
    SeedRun,
    minimize_failure,
    run_once,
)
from repro.check.invariants import (
    SinkTaps,
    install_sink_taps,
    is_lossy,
    loss_reason,
)
from repro.errors import RefinementViolation
from repro.net.netpipe import NetpipeReceiver, netpipe_pairs
from repro.runtime.engine import Engine

CERTIFICATE_FORMAT = "repro-refinement-certificate/1"

#: Choice lists longer than this are elided from certificates (the seed
#: alone deterministically regenerates them).
MAX_STORED_CHOICES = 4096


# ---------------------------------------------------------------------------
# What is being compared: pipelines under test and projections
# ---------------------------------------------------------------------------


@dataclass
class PipelineUnderTest:
    """One side of a refinement check: how to build and drive it.

    ``build`` returns a fresh, fully wired but un-run
    :class:`~repro.runtime.engine.Engine` — called once per explored
    schedule; its sinks are the observed channels.  ``drive`` runs it
    (default: ``run_to_completion`` with a step bound, like the
    explorer).  The run spec states every engine option:
    ``Pipeline.from_source(SRC).with_batching(32).builder()`` is a build.
    """

    build: Callable[[], Engine]
    drive: Callable[[Engine], None] | None = None
    name: str = ""

    @classmethod
    def of(cls, target, default_name: str) -> "PipelineUnderTest":
        """``target`` when it is a :class:`PipelineUnderTest`, else the
        side whose build it is; ``default_name`` names an unnamed side."""
        if not isinstance(target, PipelineUnderTest):
            target = cls(build=target)
        if target.name:
            return target
        return dataclasses.replace(target, name=default_name)


@dataclass
class Projection:
    """What part of each sink item refinement compares.

    ``default`` maps every observed item to its comparable projection
    (identity when None); ``channels`` overrides per channel — keys may be
    full channel names (``display#0``) or stems (``display``).  Channels
    in ``ignore`` are not compared at all (timing probes, debug sinks).
    """

    default: Callable[[Any], Any] | None = None
    channels: dict[str, Callable[[Any], Any]] = field(default_factory=dict)
    ignore: frozenset = frozenset()

    @classmethod
    def by_attr(cls, attr: str, **kwargs: Any) -> "Projection":
        """Project every item to one attribute (``Projection.by_attr("seq")``)."""
        def get(item, _attr=attr):
            return getattr(item, _attr)

        get.__name__ = f"attr:{attr}"
        return cls(default=get, **kwargs)

    def fn_for(self, channel: str) -> Callable[[Any], Any] | None:
        fn = self.channels.get(channel)
        if fn is None:
            fn = self.channels.get(_stem(channel))
        if fn is None:
            fn = self.default
        return fn

    def ignores(self, channel: str) -> bool:
        return channel in self.ignore or _stem(channel) in self.ignore

    def apply(self, channel: str, items: Sequence[Any]) -> list:
        fn = self.fn_for(channel)
        if fn is None:
            return list(items)
        return [fn(item) for item in items]

    def describe(self) -> dict:
        return {
            "default": _describe_fn(self.default),
            "channels": {
                channel: _describe_fn(fn)
                for channel, fn in sorted(self.channels.items())
            },
            "ignore": sorted(self.ignore),
        }


def _stem(channel: str) -> str:
    return channel.split("#", 1)[0]


def _describe_fn(fn) -> str:
    if fn is None:
        return "identity"
    return getattr(fn, "__name__", None) or repr(fn)


def _as_projection(projection) -> Projection:
    if projection is None:
        return Projection()
    if isinstance(projection, Projection):
        return projection
    if isinstance(projection, Mapping):
        return Projection(channels=dict(projection))
    if callable(projection):
        return Projection(default=projection)
    raise TypeError(f"cannot interpret projection {projection!r}")


# ---------------------------------------------------------------------------
# Witnesses and lossy-channel discovery
# ---------------------------------------------------------------------------


@dataclass
class WitnessRun:
    """One explored schedule of the abstract pipeline."""

    seed: int | None
    trace_hash: str
    events: int
    streams: dict[str, list]
    lossy: dict[str, str]
    error: str | None = None


def lossy_channels(program: Engine, taps: SinkTaps) -> dict[str, str]:
    """Channels whose streams may legally lose items, with the reasons.

    A channel is lossy when its upstream path (walked through ports, and
    across :func:`~repro.net.netpipe.netpipe_pairs` bridges) contains a
    component marked with :func:`~repro.check.invariants.declare_lossy`,
    a component that counted declared drops this run, or a network hop
    that actually lost payloads.  Reasons are joined per channel so a
    refinement failure message names every sanctioned loss on the path.
    """
    stats = program.stats
    senders = {
        id(receiver): sender
        for sender, receiver in netpipe_pairs(program.pipeline.components)
    }
    out: dict[str, str] = {}
    for channel, sink in taps.sinks.items():
        reasons: list[str] = []
        visited: set[int] = set()
        stack = [sink]
        while stack:
            component = stack.pop()
            if id(component) in visited:
                continue
            visited.add(id(component))
            name = component.name
            if component is not sink:
                if is_lossy(component):
                    reasons.append(f"{name}: {loss_reason(component)}")
                else:
                    drops = stats.drops(name)
                    if drops:
                        reasons.append(
                            f"{name}: "
                            f"{component.loss_reason or 'counted declared drops'}"
                            f" ({drops} dropped)"
                        )
            if isinstance(component, NetpipeReceiver):
                # Hop the bridge to the sender side.
                sender = senders.get(id(component))
                if sender is not None:
                    sent = stats.items_in(sender.name)
                    arrived = stats.items_in(name)
                    if arrived < sent:
                        reasons.append(
                            f"{sender.name} ~ {name}: network lost "
                            f"{sent - arrived} payload(s)"
                        )
                    stack.append(sender)
                continue
            for port in component.in_ports():
                if port.peer is not None:
                    stack.append(port.peer.component)
        if reasons:
            out[channel] = "; ".join(sorted(set(reasons)))
    return out


# ---------------------------------------------------------------------------
# Stream comparison
# ---------------------------------------------------------------------------


@dataclass
class Divergence:
    """Where a concrete stream escapes every witness."""

    channel: str
    mode: str  # "exact" | "subsequence"
    index: int  # first divergent sink index in the concrete stream
    got: list
    expected: list
    reason: str = ""

    def message(self) -> str:
        lines = [
            f"channel {self.channel!r} ({self.mode} mode"
            + (f"; lossy: {self.reason}" if self.reason else "")
            + f") diverges from every witness at sink index {self.index}",
            f"  concrete[{self.index}:]: {_excerpt(self.got, self.index)}",
            f"  closest witness[{self.index}:]: "
            f"{_excerpt(self.expected, self.index)}",
        ]
        return "\n".join(lines)


def _excerpt(items: Sequence[Any], start: int, width: int = 8) -> str:
    lo = max(0, start)
    window = list(items[lo:lo + width])
    suffix = " ..." if len(items) > lo + width else ""
    return f"{window!r}{suffix} (len {len(items)})"


def first_divergence(got: Sequence, ref: Sequence) -> int | None:
    """First index where two sequences differ; None when identical."""
    for index, (g, r) in enumerate(zip(got, ref)):
        if g != r:
            return index
    if len(got) != len(ref):
        return min(len(got), len(ref))
    return None


def subsequence_gap(got: Sequence, ref: Sequence) -> int | None:
    """Index in ``got`` where greedy subsequence embedding into ``ref``
    gets stuck; None when ``got`` embeds completely."""
    at = 0
    for index, item in enumerate(got):
        while at < len(ref) and ref[at] != item:
            at += 1
        if at >= len(ref):
            return index
        at += 1
    return None


def _sorted_union(references: list[list]) -> list | None:
    """Order-consistent union of witness streams, for lossy channels.

    Independent witness runs may each lose *different* items (a lossy
    network drops whatever was in flight under that schedule); a concrete
    run is still reproducible by A if every item it delivered is one A
    could deliver, in A-consistent order.  When every witness stream is
    sorted under the projection, that union is simply the sorted set
    union; otherwise (unorderable or unsorted projections) returns None
    and only per-witness embedding applies.
    """
    try:
        union: set = set()
        for ref in references:
            if any(b < a for a, b in zip(ref, ref[1:])):
                return None
            union.update(ref)
        return sorted(union)
    except TypeError:
        return None


def compare_streams(
    streams: dict[str, list],
    witnesses: Sequence[WitnessRun],
    modes: Mapping[str, tuple[str, str]],
    projection: Projection,
) -> Divergence | None:
    """Match a concrete run's projected streams against the witness set.

    Per channel: exact equality with some witness, or — in subsequence
    mode — embedding into some witness or into the order-consistent union
    of all witnesses.  Returns the deepest divergence of the first
    channel that matches no witness, or None when every channel matches.
    """
    channels = set(streams)
    for witness in witnesses:
        channels.update(witness.streams)
    for channel in sorted(channels):
        if projection.ignores(channel):
            continue
        mode, reason = modes.get(channel, ("exact", ""))
        got = projection.apply(channel, streams.get(channel, []))
        references = [
            projection.apply(channel, witness.streams.get(channel, []))
            for witness in witnesses
        ]
        deepest: int | None = None
        deepest_ref: list = []
        matched = False
        for ref in references:
            gap = (
                first_divergence(got, ref)
                if mode == "exact"
                else subsequence_gap(got, ref)
            )
            if gap is None:
                matched = True
                break
            if deepest is None or gap > deepest:
                deepest, deepest_ref = gap, ref
        if matched:
            continue
        if mode == "subsequence":
            union = _sorted_union(references)
            if union is not None and subsequence_gap(got, union) is None:
                continue
        return Divergence(
            channel=channel,
            mode=mode,
            index=deepest if deepest is not None else 0,
            got=got,
            expected=deepest_ref,
            reason=reason,
        )
    return None


def _channel_modes(
    lossy_param,
    auto_lossy: Mapping[str, str],
) -> dict[str, tuple[str, str]]:
    """Resolve per-channel comparison modes.

    ``lossy_param`` None means auto-detection (the union of declared-lossy
    paths seen in the witness runs and the current concrete run); an
    explicit mapping/set freezes exactly those channels as lossy (by name
    or stem) and everything else as exact.
    """
    if lossy_param is None:
        return {
            channel: ("subsequence", reason)
            for channel, reason in auto_lossy.items()
        }
    if isinstance(lossy_param, Mapping):
        declared = dict(lossy_param)
    else:
        declared = {channel: "declared lossy" for channel in lossy_param}
    modes: dict[str, tuple[str, str]] = {}
    for channel, reason in declared.items():
        modes[channel] = ("subsequence", reason)
    return modes


def _mode_for(
    channel: str, modes: Mapping[str, tuple[str, str]]
) -> tuple[str, str]:
    direct = modes.get(channel)
    if direct is not None:
        return direct
    return modes.get(_stem(channel), ("exact", ""))


# ---------------------------------------------------------------------------
# The certificate
# ---------------------------------------------------------------------------


@dataclass
class RefinementCertificate:
    """Machine-readable outcome of one refinement check.

    Archive it next to the ``CERT_*.json`` certificates: the seeds, choice
    lists and trace hashes make the entire check reproducible, and a
    failed certificate *is* its own minimized, replayable repro.
    """

    verdict: str  # "refines" | "violated" | "abstract-failed"
    abstract: dict
    concrete: dict
    channels: dict
    projection: dict
    counterexample: dict | None = None
    info: dict = field(default_factory=dict)
    format: str = CERTIFICATE_FORMAT

    @property
    def ok(self) -> bool:
        return self.verdict == "refines"

    def summary(self) -> str:
        lines = [
            f"refinement {self.verdict}: {self.concrete.get('name')} "
            f"vs {self.abstract.get('name')} — "
            f"{len(self.concrete.get('runs', []))} concrete schedules "
            f"({self.concrete.get('distinct_interleavings', 0)} distinct) "
            f"against {len(self.abstract.get('witnesses', []))} witnesses"
        ]
        for channel, spec in sorted(self.channels.items()):
            reason = spec.get("reason")
            lines.append(
                f"  channel {channel}: {spec['mode']}"
                + (f" ({reason})" if reason else "")
            )
        if self.counterexample is not None:
            ce = self.counterexample
            lines.append(
                f"counterexample: seed {ce.get('seed')}, "
                f"{len(ce.get('minimized_choices') or [])} minimized "
                f"choices {ce.get('minimized_choices')!r}, "
                f"first divergent sink index {ce.get('divergence_index')}"
                f" on channel {ce.get('channel')!r}"
            )
            if ce.get("error"):
                lines.append(ce["error"])
        return "\n".join(lines)

    def raise_if_failed(self) -> None:
        if not self.ok:
            raise RefinementViolation(self.summary())

    def to_dict(self) -> dict:
        return {
            "format": self.format,
            "verdict": self.verdict,
            "abstract": self.abstract,
            "concrete": self.concrete,
            "channels": self.channels,
            "projection": self.projection,
            "counterexample": self.counterexample,
            "info": self.info,
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())
            handle.write("\n")

    @classmethod
    def from_dict(cls, data: Mapping) -> "RefinementCertificate":
        return cls(
            verdict=data["verdict"],
            abstract=dict(data["abstract"]),
            concrete=dict(data["concrete"]),
            channels=dict(data["channels"]),
            projection=dict(data.get("projection") or {}),
            counterexample=data.get("counterexample"),
            info=dict(data.get("info") or {}),
            format=data.get("format", CERTIFICATE_FORMAT),
        )

    @classmethod
    def load(cls, path) -> "RefinementCertificate":
        with open(path, encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))


_archive_counter = itertools.count()


def _archive_failure(certificate: "RefinementCertificate") -> None:
    """Save a failed certificate into ``$REPRO_CERT_DIR`` (when set).

    CI points this at a workflow-artifact directory, so every refinement
    failure ships its minimized, replayable counterexample with the run.
    """
    directory = os.environ.get("REPRO_CERT_DIR")
    if not directory or certificate.ok:
        return
    os.makedirs(directory, exist_ok=True)
    stem = re.sub(
        r"[^A-Za-z0-9._-]",
        "_",
        f"{certificate.concrete.get('name') or 'concrete'}"
        f"_vs_{certificate.abstract.get('name') or 'abstract'}",
    )
    path = os.path.join(
        directory, f"CERT_{stem}.{next(_archive_counter)}.json"
    )
    certificate.save(path)
    certificate.info["archived_to"] = path


def _run_record(run: SeedRun) -> dict:
    record = {
        "seed": run.seed,
        "trace_hash": run.trace_hash,
        "events": run.events,
        "n_choices": len(run.choices),
    }
    if len(run.choices) <= MAX_STORED_CHOICES:
        record["choices"] = list(run.choices)
    return record


def _json_items(items: Sequence[Any], limit: int = 32) -> list:
    out = []
    for item in items[:limit]:
        if isinstance(item, (int, float, str, bool)) or item is None:
            out.append(item)
        else:
            out.append(repr(item))
    return out


# ---------------------------------------------------------------------------
# The driver
# ---------------------------------------------------------------------------


def check_refinement(
    abstract,
    concrete,
    *,
    seeds: int = 25,
    witness_seeds: int = 5,
    base_seed: int = 0,
    lossy=None,
    projection=None,
    minimize: bool = True,
    minimize_budget: int = 64,
    trace_tail: int = 40,
    stop_on_failure: bool = True,
) -> RefinementCertificate:
    """Certify that ``concrete`` refines ``abstract``.

    Parameters
    ----------
    abstract, concrete:
        Zero-arg Engine builders (``Pipeline....builder()``) or
        :class:`PipelineUnderTest` instances.  ``abstract`` is the
        original pipeline (the specification); ``concrete`` the
        transformed one under certification.
    seeds:
        Seeded schedules of the concrete pipeline to explore, *in
        addition to* its default (unperturbed) schedule.
    witness_seeds:
        Seeded schedules of the abstract pipeline collected as witnesses,
        in addition to its default schedule.
    lossy:
        None (default): auto-detect lossy channels from declared-lossy
        components, drop counters and network loss on each sink's
        upstream path.  A mapping/set of channel names or stems freezes
        exactly those as lossy.
    projection:
        A :class:`Projection`, a callable (applied to every channel), or
        a mapping of channel name/stem to callables.
    minimize:
        Shrink the first violating schedule to a minimized, replayable
        counterexample (ddmin over the recorded tie-break choices).
    stop_on_failure:
        Stop exploring concrete schedules at the first violation (the
        certificate is already "violated"; further seeds add nothing).
    """
    a = PipelineUnderTest.of(abstract, "abstract")
    b = PipelineUnderTest.of(concrete, "concrete")
    projection = _as_projection(projection)

    # -- witness phase: explore the abstract pipeline ----------------------
    current: list = [None]

    def a_build():
        program = a.build()
        current[0] = (program, install_sink_taps(program))
        return program

    witnesses: list[WitnessRun] = []
    a_records: list[dict] = []
    for chooser, seed in _choosers(witness_seeds, base_seed):
        run, excerpt = _run_guarded(
            a_build, chooser, a.drive, None, seed, trace_tail
        )
        a_records.append(_run_record(run))
        if run.failed:
            certificate = RefinementCertificate(
                verdict="abstract-failed",
                abstract={"name": a.name, "witnesses": a_records},
                concrete={"name": b.name, "runs": []},
                channels={},
                projection=projection.describe(),
                counterexample={
                    "seed": run.seed,
                    "choices": run.choices,
                    "error": f"{run.error}\n{excerpt}",
                },
                info={"seeds": seeds, "witness_seeds": witness_seeds,
                      "base_seed": base_seed},
            )
            _archive_failure(certificate)
            return certificate
        program, taps = current[0]
        witnesses.append(
            WitnessRun(
                seed=run.seed,
                trace_hash=run.trace_hash,
                events=run.events,
                streams={k: list(v) for k, v in taps.streams.items()},
                lossy=lossy_channels(program, taps),
            )
        )

    auto_lossy: dict[str, str] = {}
    for witness in witnesses:
        for channel, reason in witness.lossy.items():
            auto_lossy.setdefault(channel, reason)

    # -- concrete phase: explore the transformed pipeline ------------------
    last_divergence: list[Divergence | None] = [None]
    seen_modes: dict[str, tuple[str, str]] = {}

    def b_build():
        program = b.build()
        current[0] = (program, install_sink_taps(program))
        return program

    def b_check(program):
        _program, taps = current[0]
        combined = dict(auto_lossy)
        combined.update(lossy_channels(program, taps))
        declared = _channel_modes(lossy, combined)
        channels = set(taps.streams)
        for witness in witnesses:
            channels.update(witness.streams)
        modes = {
            channel: _mode_for(channel, declared) for channel in channels
        }
        seen_modes.update(modes)
        divergence = compare_streams(
            taps.streams, witnesses, modes, projection
        )
        if divergence is not None:
            last_divergence[0] = divergence
            raise RefinementViolation(divergence.message())

    b_records: list[dict] = []
    b_hashes: set[str] = set()
    first_failure: SeedRun | None = None
    failure_excerpt = ""
    for chooser, seed in _choosers(seeds, base_seed):
        run, excerpt = _run_guarded(
            b_build, chooser, b.drive, b_check, seed, trace_tail
        )
        b_records.append(_run_record(run))
        b_hashes.add(run.trace_hash)
        if run.failed and first_failure is None:
            first_failure = run
            failure_excerpt = excerpt
            if stop_on_failure:
                break

    channels_spec = {
        channel: (
            {"mode": mode, "reason": reason} if reason else {"mode": mode}
        )
        for channel, (mode, reason) in sorted(seen_modes.items())
    }
    certificate = RefinementCertificate(
        verdict="refines" if first_failure is None else "violated",
        abstract={"name": a.name, "witnesses": a_records},
        concrete={
            "name": b.name,
            "runs": b_records,
            "distinct_interleavings": len(b_hashes),
        },
        channels=channels_spec,
        projection=projection.describe(),
        info={
            "seeds": seeds,
            "witness_seeds": witness_seeds,
            "base_seed": base_seed,
        },
    )
    if first_failure is None:
        return certificate

    # -- counterexample: minimize and structure the divergence -------------
    minimized = list(first_failure.choices)
    repro = f"{first_failure.error}\n{failure_excerpt}"
    if minimize and first_failure.trace_hash:
        minimized, shrunk_repro = minimize_failure(
            b_build, first_failure.choices, drive=b.drive, check=b_check,
            budget=minimize_budget, trace_tail=trace_tail,
        )
        if shrunk_repro:
            repro = shrunk_repro
    # One deterministic replay of the minimized repro refreshes
    # last_divergence with the *minimized* schedule's divergence and
    # yields the counterexample's replayable trace hash.
    replay_run, _ = _run_guarded(
        b_build, ReplayChooser(minimized), b.drive, b_check, None, trace_tail
    )
    divergence = last_divergence[0]
    certificate.counterexample = {
        "seed": first_failure.seed,
        "choices": list(first_failure.choices),
        "minimized_choices": list(minimized),
        "replay_trace_hash": replay_run.trace_hash,
        "error": repro,
    }
    if divergence is not None:
        certificate.counterexample.update(
            channel=divergence.channel,
            mode=divergence.mode,
            divergence_index=divergence.index,
            got=_json_items(divergence.got[divergence.index:]),
            expected=_json_items(divergence.expected[divergence.index:]),
        )
    _archive_failure(certificate)
    return certificate


def _choosers(count: int, base_seed: int):
    """The default (unperturbed) schedule, then ``count`` seeded ones."""
    yield ReplayChooser([]), None
    for offset in range(count):
        seed = base_seed + offset
        yield SeededChooser(seed), seed


def _run_guarded(build, chooser, drive, check, seed, trace_tail):
    """:func:`~repro.check.explorer.run_once`, but a failing ``build()``
    is a failed run (with an empty trace) instead of a crashed check."""
    try:
        return run_once(
            build, chooser, drive=drive, check=check, seed=seed,
            trace_tail=trace_tail,
        )
    except Exception as exc:  # noqa: BLE001 - build failures are findings
        run = SeedRun(
            seed=seed,
            trace_hash="",
            events=0,
            choices=list(chooser.choices),
            error=f"{type(exc).__name__}: {exc}",
        )
        return run, ""


# ---------------------------------------------------------------------------
# One-call fronts: restructuring and certificate replay
# ---------------------------------------------------------------------------


def certify_restructure(
    build: Callable[[], Engine],
    transform: Callable[[Engine], Any],
    *,
    name: str = "restructured",
    drive: Callable[[Engine], None] | None = None,
    **kwargs: Any,
) -> RefinementCertificate:
    """Certify that a restructuring transformation refines the original.

    ``transform(engine)`` applies the structural change — typically
    :func:`repro.runtime.restructure.replace_component` calls — to a
    freshly built engine before it runs.  The engine's
    ``restructure_log`` is recorded in the certificate.
    """
    log: list = []

    def b_build():
        engine = build()
        transform(engine)
        log[:] = [str(r) for r in engine.restructure_log]
        return engine

    certificate = check_refinement(
        PipelineUnderTest(build=build, drive=drive, name="original"),
        PipelineUnderTest(build=b_build, drive=drive, name=name),
        **kwargs,
    )
    certificate.info["restructurings"] = list(log)
    return certificate


def replay_certificate(
    certificate: RefinementCertificate,
    concrete,
    *,
    runs: str = "all",
) -> dict:
    """Deterministically re-run a certificate's recorded schedules.

    For every recorded concrete run (or only the counterexample, with
    ``runs="counterexample"``), rebuilds the pipeline, replays the stored
    seed / choice list, and compares the trace hash bit-for-bit.  The
    regression this guards: a certificate archived by CI must stay a
    complete repro of the schedules it certified.
    """
    b = PipelineUnderTest.of(concrete, "concrete")
    report: dict = {"matched": 0, "mismatched": [], "replayed": 0}

    def replay_one(chooser, expected_hash):
        run, _ = run_once(b.build, chooser, drive=b.drive, trace_tail=0)
        report["replayed"] += 1
        if expected_hash is None or run.trace_hash == expected_hash:
            report["matched"] += 1
        else:
            report["mismatched"].append(
                {"expected": expected_hash, "got": run.trace_hash}
            )
        return run

    if runs != "counterexample":
        for record in certificate.concrete.get("runs", []):
            if record["seed"] is not None:
                chooser = SeededChooser(record["seed"])
            elif record.get("choices") is not None:
                chooser = ReplayChooser(record["choices"])
            else:
                continue
            replay_one(chooser, record.get("trace_hash"))
    ce = certificate.counterexample
    if ce is not None and ce.get("minimized_choices") is not None:
        replay_one(
            ReplayChooser(ce["minimized_choices"]),
            ce.get("replay_trace_hash"),
        )
    report["ok"] = not report["mismatched"] and report["replayed"] > 0
    return report
