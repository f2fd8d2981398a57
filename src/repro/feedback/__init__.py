"""Feedback toolkit (paper sections 2.1 and 3.1, refs [7, 27]).

"The framework provides ... a feedback toolkit for adaptation control."  A
feedback loop samples a *sensor*, feeds the measurement to a *controller*,
and applies the controller's output through an *actuator*.  Actuation
travels as control events through the middleware, so a loop spanning nodes
(the Figure-1 consumer-side sensor driving the producer-side dropping
filter) automatically pays the network's control latency.
"""

from repro.feedback.actuators import (
    Actuator,
    DropLevelActuator,
    EventActuator,
    PumpRateActuator,
)
from repro.feedback.controllers import (
    Controller,
    EwmaSmoother,
    PidController,
    StepController,
)
from repro.feedback.loop import FeedbackLoop
from repro.feedback.sensors import (
    BufferFillSensor,
    CallbackSensor,
    LossSensor,
    MetricSensor,
    RateSensor,
    Sensor,
)

__all__ = [
    "Actuator",
    "BufferFillSensor",
    "CallbackSensor",
    "Controller",
    "DropLevelActuator",
    "EventActuator",
    "EwmaSmoother",
    "FeedbackLoop",
    "LossSensor",
    "MetricSensor",
    "PidController",
    "PumpRateActuator",
    "RateSensor",
    "Sensor",
    "StepController",
]
