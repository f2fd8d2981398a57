"""Controllers: turning measurements into actuation signals."""

from __future__ import annotations


class Controller:
    """Base class: ``update(measurement, dt)`` returns the control output."""

    def update(self, measurement: float, dt: float) -> float:
        raise NotImplementedError


class EwmaSmoother(Controller):
    """Exponentially-weighted moving average — a smoothing pre-stage.

    ``update`` returns the smoothed measurement; compose it in front of a
    decision controller to de-noise jittery signals.
    """

    def __init__(self, alpha: float = 0.3, initial: float = 0.0):
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = alpha
        self.value = initial
        self._primed = False

    def update(self, measurement: float, dt: float) -> float:
        if not self._primed:
            self.value = measurement
            self._primed = True
        else:
            self.value += self.alpha * (measurement - self.value)
        return self.value


class StepController(Controller):
    """Hysteresis step controller over a discrete level (0..max_level).

    Starts at level 0, raises it while the measurement exceeds ``high``
    and lowers it once the measurement falls below ``low``.  The gap
    between the thresholds prevents oscillation.  This drives the
    Figure-1 dropping filter: level up when loss is observed, level down
    when the path is clean.
    """

    def __init__(
        self,
        high: float,
        low: float,
        max_level: int = 3,
    ):
        if low > high:
            raise ValueError("low threshold must not exceed high threshold")
        self.high = high
        self.low = low
        self.max_level = max_level
        self.level = 0

    def update(self, measurement: float, dt: float) -> float:
        if measurement > self.high and self.level < self.max_level:
            self.level += 1
        elif measurement < self.low and self.level > 0:
            self.level -= 1
        return float(self.level)


class PidController(Controller):
    """Classic PID around a setpoint (used e.g. to hold a buffer half full
    by adjusting the producer pump's rate)."""

    def __init__(
        self,
        setpoint: float,
        kp: float = 1.0,
        ki: float = 0.0,
        kd: float = 0.0,
        output_min: float | None = None,
        output_max: float | None = None,
        bias: float = 0.0,
    ):
        self.setpoint = setpoint
        self.kp = kp
        self.ki = ki
        self.kd = kd
        self.output_min = output_min
        self.output_max = output_max
        self.bias = bias
        self._integral = 0.0
        self._previous_error: float | None = None

    def update(self, measurement: float, dt: float) -> float:
        error = self.setpoint - measurement
        self._integral += error * dt
        derivative = 0.0
        if self._previous_error is not None and dt > 0:
            derivative = (error - self._previous_error) / dt
        self._previous_error = error
        output = (
            self.bias
            + self.kp * error
            + self.ki * self._integral
            + self.kd * derivative
        )
        if self.output_max is not None and output > self.output_max:
            output = self.output_max
            self._integral -= error * dt  # anti-windup
        if self.output_min is not None and output < self.output_min:
            output = self.output_min
            self._integral -= error * dt
        return output
