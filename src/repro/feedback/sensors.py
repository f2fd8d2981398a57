"""Sensors: periodic measurements of pipeline state."""

from __future__ import annotations

from typing import Callable

from repro.components.buffers import Buffer
from repro.core.component import Component


class Sensor:
    """Base class: ``sample()`` returns the current measurement."""

    def sample(self) -> float:
        raise NotImplementedError

    def bind(self, engine) -> None:
        """Late-bind the sensor to the engine it ends up attached to.

        Called by :meth:`repro.feedback.loop.FeedbackLoop.attach`; the
        default is a no-op.  Sensors that need a clock (``RateSensor``)
        use it to default to the pipeline's virtual clock.
        """


class BufferFillSensor(Sensor):
    """Fill fraction (0..1) of a buffer — the classic real-rate signal
    (Steere et al. [27]: "adjust CPU allocations among pipeline stages
    according to feedback from buffer fill levels")."""

    def __init__(self, buffer: Buffer):
        self.buffer = buffer

    def sample(self) -> float:
        return self.buffer.fill_fraction


class RateSensor(Sensor):
    """Items/second through a component since the previous sample.

    Without an explicit ``now`` clock the sensor reports raw per-sample
    deltas *until* it is attached to an engine through a feedback loop, at
    which point it binds the pipeline's own (virtual) clock and reports
    true items/second — the natural default, since the loop's sampling
    period runs on that same clock.
    """

    def __init__(self, component: Component, counter: str = "items_out",
                 now: Callable[[], float] | None = None):
        self.component = component
        self.counter = counter
        self._now = now
        self._last_count = 0
        self._last_time: float | None = None

    def bind(self, engine) -> None:
        if self._now is None:
            self._now = engine.scheduler.now

    def sample(self) -> float:
        count = self.component.stats.get(self.counter, 0)
        if self._now is None:
            # Without a clock, report the raw delta per sample period.
            delta = count - self._last_count
            self._last_count = count
            return float(delta)
        now = self._now()
        if self._last_time is None or now <= self._last_time:
            rate = 0.0
        else:
            rate = (count - self._last_count) / (now - self._last_time)
        self._last_count = count
        self._last_time = now
        return rate


class LossSensor(Sensor):
    """Observed loss fraction from sequence-number gaps.

    Feed it arriving sequence numbers (e.g. from a consumer-side component
    via ``observe``); each ``sample()`` reports the loss fraction since the
    previous sample.  This is the Figure-1 consumer-side sensor.
    """

    def __init__(self):
        self._highest = -1
        self._received = 0
        self._window_expected = 0
        self._window_received = 0

    def observe(self, seq: int) -> None:
        if seq > self._highest:
            self._window_expected += seq - self._highest
            self._highest = seq
        self._received += 1
        self._window_received += 1

    def sample(self) -> float:
        expected = self._window_expected
        received = self._window_received
        self._window_expected = 0
        self._window_received = 0
        if expected <= 0:
            return 0.0
        return max(0.0, 1.0 - received / expected)


class CallbackSensor(Sensor):
    """Wraps any zero-argument callable as a sensor."""

    def __init__(self, fn: Callable[[], float]):
        self._fn = fn

    def sample(self) -> float:
        return float(self._fn())


class MetricSensor(Sensor):
    """Reads a metric from an observability registry (duck-typed against
    :class:`repro.obs.metrics.MetricsRegistry`).

    This closes the loop the observability layer opens: the runtime
    publishes buffer fill, stage latency and loss into one registry, and
    controllers consume the *same* numbers the operator sees::

        telemetry = Telemetry().attach(engine)
        latency = MetricSensor(
            telemetry.registry, "repro_stage_latency_seconds",
            stat="p95", labels={"stage": "pump-1"},
        )
        FeedbackLoop(sensor=latency, controller=..., actuator=...)

    ``stat`` selects what to read: ``"value"`` (counters/gauges),
    ``"rate"`` (value delta per second since the previous sample), or a
    histogram aggregate (``"p50"``, ``"p95"``, ``"p99"``, ``"mean"``).
    A metric that does not exist yet samples as 0.0 — registries
    create histograms lazily, often after the loop starts sampling.
    """

    _HIST_STATS = frozenset({"p50", "p95", "p99", "mean"})

    def __init__(
        self,
        registry,
        name: str,
        stat: str = "value",
        labels: dict | None = None,
        now: Callable[[], float] | None = None,
    ):
        if stat not in self._HIST_STATS and stat not in ("value", "rate"):
            raise ValueError(f"unknown metric stat {stat!r}")
        self.registry = registry
        self.name = name
        self.stat = stat
        self.labels = dict(labels or {})
        self._now = now
        self._last_value: float | None = None
        self._last_time: float | None = None

    def bind(self, engine) -> None:
        if self._now is None:
            self._now = engine.scheduler.now

    def _metric(self):
        return self.registry.get(self.name, **self.labels)

    def sample(self) -> float:
        metric = self._metric()
        if metric is None:
            return 0.0
        if self.stat in self._HIST_STATS:
            return float(getattr(metric, self.stat))
        value = float(metric.value)
        if self.stat == "value":
            return value
        # rate: delta per second (per sample period without a clock).
        last_value, self._last_value = self._last_value, value
        if self._now is None:
            return value - last_value if last_value is not None else 0.0
        now = self._now()
        last_time, self._last_time = self._last_time, now
        if last_value is None or last_time is None or now <= last_time:
            return 0.0
        return (value - last_value) / (now - last_time)
