"""The feedback loop: sensor → controller → actuator on a period."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import FeedbackError
from repro.feedback.actuators import Actuator
from repro.feedback.controllers import Controller
from repro.feedback.sensors import Sensor

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.engine import Engine


class FeedbackLoop:
    """Samples a sensor every ``period`` seconds, runs the controller, and
    actuates through the event service.

    Attach it to an engine before the run::

        loop = FeedbackLoop(sensor, controller, actuator, period=0.5)
        loop.attach(engine)
    """

    def __init__(
        self,
        sensor: Sensor,
        controller: Controller,
        actuator: Actuator,
        period: float = 0.5,
    ):
        if period <= 0:
            raise FeedbackError("feedback period must be positive")
        self.sensor = sensor
        self.controller = controller
        self.actuator = actuator
        self.period = period
        self.running = False
        #: (time, measurement, output) per sample, for analysis.
        self.history: list[tuple[float, float, float]] = []
        self._engine: "Engine | None" = None

    def attach(self, engine: "Engine") -> "FeedbackLoop":
        self._engine = engine
        engine.setup()
        engine.add_service(self)  # engine.stop() also stops this loop
        self.sensor.bind(engine)
        self.actuator.bind(engine.events)
        self.running = True
        engine.scheduler.after(self.period, self._tick)
        return self

    def stop(self) -> None:
        self.running = False

    def _tick(self) -> None:
        if not self.running or self._engine is None:
            return
        scheduler = self._engine.scheduler
        measurement = self.sensor.sample()
        output = self.controller.update(measurement, self.period)
        self.actuator.apply(output)
        self.history.append((scheduler.now(), measurement, output))
        scheduler.after(self.period, self._tick)
