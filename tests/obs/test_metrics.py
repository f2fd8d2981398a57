"""Metrics primitives: counters, gauges, log-bucket histograms, registry."""

import math

import pytest

from repro.obs.metrics import (
    DEFAULT_SERIES_LIMIT,
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
)


class TestCounter:
    def test_increments(self):
        counter = Counter("c_total")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == pytest.approx(3.5)

    def test_rejects_decrease(self):
        counter = Counter("c_total")
        with pytest.raises(MetricError):
            counter.inc(-1)


class TestGauge:
    def test_set_and_read(self):
        gauge = Gauge("g")
        gauge.set(4.2)
        assert gauge.value == pytest.approx(4.2)

    def test_callback_gauge_reads_live_state(self):
        state = {"fill": 0.25}
        gauge = Gauge("g")
        gauge.set_function(lambda: state["fill"])
        assert gauge.value == 0.25
        state["fill"] = 0.75
        assert gauge.value == 0.75

    def test_set_clears_callback(self):
        gauge = Gauge("g")
        gauge.set_function(lambda: 9.0)
        gauge.set(1.0)
        assert gauge.value == 1.0


class TestHistogram:
    def test_bucketing_is_power_of_two(self):
        hist = Histogram("h")
        bounds = hist.bucket_bounds()
        assert bounds[0] == pytest.approx(2.0 ** -20)
        assert bounds[-1] == 64.0
        # Every bound is exactly double the previous one.
        for lo, hi in zip(bounds, bounds[1:]):
            assert hi == 2 * lo

    def test_exact_power_of_two_lands_in_its_own_bucket(self):
        # frexp(1.0) == (0.5, 1): an exact power of two must count as
        # "<= 1.0", not spill into the (1, 2] bucket.
        hist = Histogram("h")
        hist.observe(1.0)
        bounds = hist.bucket_bounds()
        index = bounds.index(1.0)
        assert hist.counts[index] == 1

    def test_underflow_and_overflow(self):
        hist = Histogram("h")
        hist.observe(1e-9)   # below the smallest bound
        hist.observe(1000.0)  # above the largest
        assert hist.counts[0] == 1
        assert hist.counts[-1] == 1
        assert hist.count == 2

    def test_mean_sum_min_max(self):
        hist = Histogram("h")
        for value in (0.001, 0.002, 0.003):
            hist.observe(value)
        assert hist.count == 3
        assert hist.sum == pytest.approx(0.006)
        assert hist.mean == pytest.approx(0.002)
        assert hist.min == pytest.approx(0.001)
        assert hist.max == pytest.approx(0.003)

    def test_quantiles_bracket_the_stream(self):
        hist = Histogram("h")
        values = [0.001 * (i + 1) for i in range(100)]  # 1ms .. 100ms
        for value in values:
            hist.observe(value)
        # Log-bucket quantiles are approximate (one octave) but must be
        # ordered and clamped within the observed range.
        assert hist.min <= hist.p50 <= hist.p95 <= hist.p99 <= hist.max
        assert hist.p50 == pytest.approx(0.05, rel=1.0)
        assert hist.p99 >= 0.05

    def test_quantile_of_empty_histogram(self):
        assert Histogram("h").p95 == 0.0

    def test_single_value_quantiles_are_exact(self):
        hist = Histogram("h")
        hist.observe(0.004)
        # Clamping to [min, max] collapses the bucket interpolation.
        assert hist.p50 == pytest.approx(0.004)
        assert hist.p99 == pytest.approx(0.004)

    def test_observe_does_not_allocate_per_item(self):
        hist = Histogram("h")
        for i in range(1000):
            hist.observe(0.001 * (1 + (i % 7)))
        # Fixed-size state regardless of stream length.
        assert len(hist.counts) == len(hist.bucket_bounds()) + 1

    def test_samples_emit_full_cumulative_ladder(self):
        hist = Histogram("h")
        hist.observe(0.004)
        hist.observe(0.004)
        rows = list(hist.samples())
        bucket_rows = [r for r in rows if r[0] == "h_bucket"]
        # Every configured bound (empty or not) plus +Inf: the stable
        # le-series a Prometheus histogram_quantile needs.
        assert len(bucket_rows) == len(hist.bucket_bounds()) + 1
        assert bucket_rows[-1][1][-1] == ("le", "+Inf")
        assert bucket_rows[-1][2] == 2
        # Cumulative and monotonic across the ladder.
        counts = [r[2] for r in bucket_rows]
        assert counts == sorted(counts)
        assert rows[-2][0] == "h_sum"
        assert rows[-1] == ("h_count", (), 2)

    def test_observe_count_weights_by_items(self):
        hist = Histogram("h")
        hist.observe(0.004, 5)
        hist.observe(0.012, 3)
        hist.observe(0.5, 0)  # no-op
        assert hist.count == 8
        assert hist.sum == pytest.approx(0.004 * 5 + 0.012 * 3)
        assert hist.min == pytest.approx(0.004)
        assert hist.max == pytest.approx(0.012)
        # Equivalent to n plain observes, bucket for bucket.
        plain = Histogram("p")
        for _ in range(5):
            plain.observe(0.004)
        for _ in range(3):
            plain.observe(0.012)
        assert hist.counts == plain.counts


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("x_total", thread="a")
        second = registry.counter("x_total", thread="a")
        assert first is second
        assert len(registry) == 1

    def test_labels_distinguish_metrics(self):
        registry = MetricsRegistry()
        a = registry.counter("x_total", thread="a")
        b = registry.counter("x_total", thread="b")
        assert a is not b
        assert len(registry.family("x_total")) == 2

    def test_label_order_is_canonical(self):
        registry = MetricsRegistry()
        a = registry.gauge("g", x="1", y="2")
        b = registry.gauge("g", y="2", x="1")
        assert a is b

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(MetricError):
            registry.histogram("m")

    def test_get_returns_none_for_unknown(self):
        registry = MetricsRegistry()
        assert registry.get("nope") is None

    def test_collect_is_sorted_and_complete(self):
        registry = MetricsRegistry()
        registry.histogram("z_seconds")
        registry.counter("a_total")
        families = [family for family, _, _ in registry.collect()]
        assert families == ["a_total", "z_seconds"]
        assert registry.families() == {
            "a_total": "counter", "z_seconds": "histogram",
        }

    def test_help_text_kept_from_first_registration(self):
        registry = MetricsRegistry()
        registry.counter("a_total", help="first")
        registry.counter("a_total", help="second")
        assert registry.help_text("a_total") == "first"


class TestCardinalityCap:
    """Per-family label-set cap: the million-tenant fabric exports
    tenant-labeled series; past ``DEFAULT_SERIES_LIMIT`` new label sets
    collapse into one ``overflow="true"`` bucket and are counted."""

    @staticmethod
    def fill(registry, family, kind="counter"):
        """Create the family's last series below the cap."""
        make = getattr(registry, kind)
        return [make(family, tenant=f"t{i}")
                for i in range(DEFAULT_SERIES_LIMIT)]

    def test_cap_routes_new_label_sets_to_overflow(self):
        from repro.obs.metrics import OVERFLOW_LABELS

        registry = MetricsRegistry()
        self.fill(registry, "items_total")
        extra = registry.counter("items_total", tenant="d")
        assert extra.labels == OVERFLOW_LABELS
        # Every further new label set shares the SAME bucket.
        assert registry.counter("items_total", tenant="e") is extra
        extra.inc(2)
        overflow = registry.get("items_total", overflow="true")
        assert overflow.value == 2

    def test_dropped_series_counted_per_family_and_total(self):
        registry = MetricsRegistry()
        self.fill(registry, "items_total")
        self.fill(registry, "depth", kind="gauge")
        for tenant in ("c", "d"):
            registry.counter("items_total", tenant=tenant)
            registry.gauge("depth", tenant=tenant)
        assert registry.dropped_series("items_total") == 2
        assert registry.dropped_series("depth") == 2
        assert registry.dropped_series() == 4
        assert registry.dropped_series("never_seen") == 0

    def test_existing_series_keep_working_at_cap(self):
        registry = MetricsRegistry()
        a = self.fill(registry, "items_total")[0]
        registry.counter("items_total", tenant="c")  # overflow
        # The cap gates CREATION only: 't0' still resolves to its own
        # series, not the overflow bucket.
        assert registry.counter("items_total", tenant="t0") is a
        a.inc()
        assert registry.get("items_total", tenant="t0").value == 1
        assert registry.dropped_series("items_total") == 1

    def test_cap_is_per_family(self):
        registry = MetricsRegistry()
        self.fill(registry, "fam_one_total")
        # fam_two has its own budget.
        two = registry.counter("fam_two_total", tenant="a")
        assert two.labels != (("overflow", "true"),)
        assert registry.dropped_series() == 0

    def test_default_limit_bounds_fabric_scale(self):
        registry = MetricsRegistry()
        for i in range(DEFAULT_SERIES_LIMIT + 500):
            registry.gauge("repro_fabric_tenant_vtime", tenant=f"s{i}")
        # Families stay bounded: limit series + 1 overflow bucket.
        assert len(registry.family("repro_fabric_tenant_vtime")) == (
            DEFAULT_SERIES_LIMIT + 1
        )
        assert registry.dropped_series() == 500
