"""Metrics primitives: counters, gauges, log-bucket histograms, registry.

The observability layer's contract with the hot path is *no per-item
allocation*: every instrument here is a fixed-size object that absorbs an
unbounded stream of observations.  :class:`Histogram` in particular uses
fixed power-of-two buckets (``math.frexp`` gives the bucket index in a
single C call), so recording a latency costs a handful of integer adds —
cheap enough to leave on under load, precise enough for p50/p95/p99 within
one octave, interpolated.

Metrics are owned by a :class:`MetricsRegistry` and addressed by a family
name plus label pairs (Prometheus style)::

    registry = MetricsRegistry()
    waits = registry.histogram("repro_buffer_wait_seconds", component="jitter")
    waits.observe(0.004)
    registry.counter("repro_sched_dispatches_total", thread="pump:video").inc()

The registry is the single source the feedback sensors read from
(:class:`repro.feedback.sensors.MetricSensor`) and the exporters serialize
(:mod:`repro.obs.exporters`).
"""

from __future__ import annotations

import math
from typing import Any, Callable, Iterable

from repro.errors import InfopipeError


class MetricError(InfopipeError):
    """Registry misuse: type conflict or malformed metric name."""


#: Histogram bucket geometry: upper bounds 2**EXP_LO .. 2**EXP_HI (powers
#: of two), one underflow bucket below and one overflow bucket above.
#: 2**-20 ~ 0.95 microseconds, 2**6 = 64 seconds — the useful latency range
#: for both virtual and wall clocks here.
_EXP_LO = -20
_EXP_HI = 6
_N_BOUNDS = _EXP_HI - _EXP_LO + 1
#: Upper bucket bounds, ascending; bucket i holds values <= _BOUNDS[i]
#: (and > _BOUNDS[i-1]); one extra bucket past the end holds the overflow.
_BOUNDS = tuple(2.0 ** (_EXP_LO + i) for i in range(_N_BOUNDS))

_frexp = math.frexp


class _Scalar:
    """One sample: stored, or a callback read only when somebody reads
    the metric — how the runtime publishes state it already tracks (fill
    fractions, stats dicts, a meter's dispatches) at no hot-path cost."""

    __slots__ = ("name", "labels", "_value", "_fn")

    def __init__(self, name: str, labels: tuple = ()):
        self.name = name
        self.labels = labels
        self._value = self._zero
        self._fn: Callable[[], float] | None = None

    def set_function(self, fn: Callable[[], float]) -> None:
        self._fn = fn

    @property
    def value(self) -> float:
        fn = self._fn
        return self._value if fn is None else fn()

    def samples(self) -> Iterable[tuple[str, tuple, float]]:
        yield self.name, self.labels, self.value


class Counter(_Scalar):
    """A monotonically increasing count (int or float increments), or the
    view of one the runtime keeps exactly itself (``set_function``)."""

    kind = "counter"
    __slots__ = ()
    _zero = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise MetricError(f"counter {self.name!r} cannot decrease")
        self._value += amount


class Gauge(_Scalar):
    """A point-in-time value: set directly or backed by a callback."""

    kind = "gauge"
    __slots__ = ()
    _zero = 0.0

    def set(self, value: float) -> None:
        self._fn = None
        self._value = value


class Histogram:
    """Streaming latency distribution over fixed power-of-two buckets.

    ``observe`` is the hot-path entry: one ``frexp``, one list index, four
    scalar updates — no allocation, no sorting, no reservoir.  Quantiles
    are answered by walking the (at most 29) buckets and interpolating
    linearly inside the winning one, clamped to the observed min/max.
    """

    kind = "histogram"
    __slots__ = ("name", "labels", "counts", "count", "sum", "min", "max")

    def __init__(self, name: str, labels: tuple = ()):
        self.name = name
        self.labels = labels
        self.counts = [0] * (_N_BOUNDS + 1)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = 0.0

    def observe(self, value: float, n: int = 1) -> None:
        """Record ``value``, with multiplicity ``n`` in one bucket update.

        The batch walkers weight a run-level measurement by the items
        inside the run, so percentile decorations count items rather than
        runs at batch_max > 1 — at the same hot-path cost as a single
        observation.  ``observe_count`` is the same method.
        """
        if n <= 0:
            return
        if value <= _BOUNDS[0]:
            index = 0
        elif value > _BOUNDS[-1]:
            index = _N_BOUNDS
        else:
            mantissa, exponent = _frexp(value)
            # value = mantissa * 2**exponent with mantissa in [0.5, 1), so
            # value <= 2**exponent = _BOUNDS[exponent - _EXP_LO]; an exact
            # power of two (mantissa == 0.5) belongs one bucket lower.
            index = exponent - _EXP_LO
            if mantissa == 0.5:
                index -= 1
        self.counts[index] += n
        self.count += n
        self.sum += value * n
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    observe_count = observe

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Interpolated q-quantile (0 < q <= 1) of the observed stream."""
        if self.count == 0:
            return 0.0
        target = q * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= target:
                lower = _BOUNDS[index - 1] if index >= 1 else 0.0
                upper = _BOUNDS[index] if index < _N_BOUNDS else self.max
                fraction = (target - cumulative) / bucket_count
                value = lower + (upper - lower) * fraction
                return min(max(value, self.min), self.max)
            cumulative += bucket_count
        return self.max  # pragma: no cover - unreachable (count > 0)

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p95(self) -> float:
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    def bucket_bounds(self) -> tuple[float, ...]:
        return _BOUNDS

    def samples(self) -> Iterable[tuple[str, tuple, float]]:
        """Prometheus-shaped samples: the FULL cumulative ``_bucket``
        ladder — every bound, empty or not, plus ``+Inf`` — then ``_sum``
        and ``_count``.

        Emitting every bound (not just non-empty ones) is what makes the
        exposition a valid Prometheus histogram: ``histogram_quantile``
        and rate() need a stable, complete le-series per scrape.
        """
        cumulative = 0
        for index, bucket_count in enumerate(self.counts[:_N_BOUNDS]):
            cumulative += bucket_count
            le = ("le", f"{_BOUNDS[index]:.9g}")
            yield self.name + "_bucket", self.labels + (le,), cumulative
        yield (
            self.name + "_bucket",
            self.labels + (("le", "+Inf"),),
            self.count,
        )
        yield self.name + "_sum", self.labels, self.sum
        yield self.name + "_count", self.labels, self.count


def _canonical_labels(labels: dict[str, Any]) -> tuple:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


#: Label tuple of a family's overflow bucket (see MetricsRegistry).
OVERFLOW_LABELS = (("overflow", "true"),)

#: Default per-family label-set cap.  100k tenants must not mean 100k
#: live series per family: past the cap, new label sets collapse into
#: one ``overflow="true"`` bucket and are counted as dropped.
DEFAULT_SERIES_LIMIT = 1024


class MetricsRegistry:
    """Owns metric families; get-or-create by (family name, labels).

    ``max_series_per_family`` bounds label cardinality: once a family
    holds that many distinct label sets, any NEW label set is routed to
    the family's single ``overflow="true"`` bucket instead of minting a
    fresh series (aggregate signal survives, memory stays bounded), and
    the drop is counted (:meth:`dropped_series`).  Existing series keep
    working — the cap only gates creation.  ``None`` removes the bound.
    """

    def __init__(self, max_series_per_family: int | None = DEFAULT_SERIES_LIMIT):
        self._metrics: dict[tuple[str, tuple], Any] = {}
        self._families: dict[str, str] = {}
        self._help: dict[str, str] = {}
        self.max_series_per_family = max_series_per_family
        self._family_counts: dict[str, int] = {}
        self._dropped: dict[str, int] = {}

    # ------------------------------------------------------------ creation

    def _get_or_create(self, cls, name: str, help: str, labels: dict):
        kind = self._families.get(name)
        if kind is None:
            self._families[name] = cls.kind
            if help:
                self._help[name] = help
        elif kind != cls.kind:
            raise MetricError(
                f"metric {name!r} is registered as a {kind}, not a {cls.kind}"
            )
        elif help and name not in self._help:
            self._help[name] = help
        key = (name, _canonical_labels(labels))
        metric = self._metrics.get(key)
        if metric is None:
            limit = self.max_series_per_family
            if (
                limit is not None
                and self._family_counts.get(name, 0) >= limit
            ):
                # Cardinality cap hit: collapse into the overflow bucket.
                self._dropped[name] = self._dropped.get(name, 0) + 1
                key = (name, OVERFLOW_LABELS)
                metric = self._metrics.get(key)
                if metric is None:
                    metric = cls(name, OVERFLOW_LABELS)
                    self._metrics[key] = metric
                return metric
            metric = cls(name, key[1])
            self._metrics[key] = metric
            self._family_counts[name] = self._family_counts.get(name, 0) + 1
        return metric

    def counter(self, name: str, help: str = "", fn=None, **labels) -> Counter:
        return self._scalar(Counter, name, help, fn, labels)

    def gauge(self, name: str, help: str = "", fn=None, **labels) -> Gauge:
        return self._scalar(Gauge, name, help, fn, labels)

    def _scalar(self, cls, name: str, help: str, fn, labels: dict):
        """Get or create; a callback ``fn`` makes the metric its view."""
        metric = self._get_or_create(cls, name, help, labels)
        if fn is not None:
            metric.set_function(fn)
        return metric

    def histogram(self, name: str, help: str = "", **labels: Any) -> Histogram:
        return self._get_or_create(Histogram, name, help, labels)

    # ------------------------------------------------------------ lookup

    def get(self, name: str, **labels: Any):
        """The metric registered under (name, labels), or None."""
        return self._metrics.get((name, _canonical_labels(labels)))

    def family(self, name: str) -> list:
        """All metrics of one family, sorted by label tuple."""
        return [
            metric
            for (family, _), metric in sorted(self._metrics.items())
            if family == name
        ]

    def families(self) -> dict[str, str]:
        """Family name -> kind, for exporters."""
        return dict(self._families)

    def help_text(self, name: str) -> str:
        return self._help.get(name, "")

    def dropped_series(self, name: str | None = None) -> int:
        """Label sets refused past the cardinality cap — for one family,
        or the registry-wide total."""
        if name is not None:
            return self._dropped.get(name, 0)
        return sum(self._dropped.values())

    def collect(self) -> Iterable[tuple[str, str, list]]:
        """Yield ``(family, kind, metrics)`` in deterministic order."""
        for family in sorted(self._families):
            yield family, self._families[family], self.family(family)

    def __len__(self) -> int:
        return len(self._metrics)


# ---------------------------------------------------------------------------
# Cross-process aggregation (repro.deploy): dump in a shard child, merge in
# the parent with an extra ``shard`` label.
# ---------------------------------------------------------------------------


def dump_registry(registry: MetricsRegistry) -> dict:
    """A plain-data (picklable/JSON-able) snapshot of every metric.

    Callback gauges are evaluated at dump time: the child's live state
    becomes a frozen value in the parent.
    """
    metrics = []
    for (name, labels), metric in sorted(registry._metrics.items()):
        entry: dict[str, Any] = {
            "name": name,
            "kind": metric.kind,
            "labels": [list(pair) for pair in labels],
            "help": registry.help_text(name),
        }
        if metric.kind == "histogram":
            entry.update(
                counts=list(metric.counts),
                count=metric.count,
                sum=metric.sum,
                min=metric.min if metric.count else None,
                max=metric.max,
            )
        else:
            entry["value"] = metric.value
        metrics.append(entry)
    return {"metrics": metrics}


def merge_dump(
    registry: MetricsRegistry, dump: dict, **extra_labels: Any
) -> None:
    """Merge a :func:`dump_registry` snapshot into ``registry``.

    ``extra_labels`` (typically ``shard=i``) are added to every metric so
    per-shard series stay distinguishable in one aggregate registry.
    Counters and histogram buckets add; gauges overwrite (last write
    wins, which is right for one-shot post-run merges).
    """
    for entry in dump.get("metrics", ()):
        labels = {k: v for k, v in entry["labels"]}
        labels.update(extra_labels)
        name, kind, help = entry["name"], entry["kind"], entry["help"]
        if kind == "counter":
            registry.counter(name, help, **labels).inc(entry["value"])
        elif kind == "gauge":
            registry.gauge(name, help, **labels).set(entry["value"])
        elif kind == "histogram":
            histogram = registry.histogram(name, help, **labels)
            counts = entry["counts"]
            if len(counts) != len(histogram.counts):
                raise MetricError(
                    f"histogram {name!r}: bucket geometry mismatch "
                    f"({len(counts)} vs {len(histogram.counts)})"
                )
            for index, bucket_count in enumerate(counts):
                histogram.counts[index] += bucket_count
            histogram.count += entry["count"]
            histogram.sum += entry["sum"]
            if entry["min"] is not None and entry["min"] < histogram.min:
                histogram.min = entry["min"]
            if entry["max"] > histogram.max:
                histogram.max = entry["max"]
        else:
            raise MetricError(f"unknown metric kind {kind!r} in dump")
