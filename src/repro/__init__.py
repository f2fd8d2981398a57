"""Infopipes — thread-transparent information-flow middleware.

A from-scratch Python reproduction of *Thread Transparency in Information
Flow Middleware* (Koster, Black, Huang, Walpole, Pu; Middleware 2001).

Quickstart (the paper's video player, section 4)::

    from repro import ClockedPump
    from repro.api import Pipeline
    from repro.media import MpegFileSource, MpegDecoder, VideoDisplay

    source = MpegFileSource("test.mpg", frames=300)
    decode = MpegDecoder()
    pump = ClockedPump(30)  # 30 Hz
    sink = VideoDisplay()
    player = source >> decode >> pump >> sink
    Pipeline.from_pipeline(player).run()

Composition is checked dynamically: incompatible components make ``>>``
raise :class:`~repro.errors.CompositionError`.  Threads, coroutines and all
synchronization are allocated and managed by the middleware
(:mod:`repro.core.glue`, :mod:`repro.runtime`); components may be written
as active objects, passive consumers, passive producers or conversion
functions and are reusable in any position.
"""

from repro.components import (
    ActiveDefragmenter,
    ActiveFragmenter,
    ActiveSink,
    ActiveSource,
    ActivityRouter,
    Buffer,
    CallbackSink,
    CallbackSource,
    ClockedPump,
    CollectSink,
    CostFilter,
    CountingSource,
    FeedbackPump,
    Gate,
    GreedyPump,
    IterSource,
    MapFilter,
    MergeTee,
    MulticastTee,
    NullSink,
    OnEmpty,
    OnFull,
    PredicateFilter,
    PullBatcher,
    PullUnbatcher,
    Pump,
    PushBatcher,
    PushUnbatcher,
    PushDefragmenter,
    PushFragmenter,
    PullDefragmenter,
    PullFragmenter,
    RoutingSwitch,
    SequenceStamp,
    Sink,
    Source,
)
from repro.core import (
    ANY,
    ActiveComponent,
    Choices,
    Component,
    Consumer,
    EOS,
    EndOfStream,
    Event,
    EventScope,
    FunctionComponent,
    Interval,
    Mode,
    NIL,
    Pipeline,
    Polarity,
    Producer,
    Typespec,
    allocate,
    connect,
    is_eos,
    is_nil,
    pipeline,
    props,
)
from repro.errors import (
    AllocationError,
    CompositionError,
    InfopipeError,
    PolarityError,
    RuntimeFault,
    TypespecMismatch,
)
from repro.runtime import Engine, PipelineStats
from repro import api
from repro.deploy import Deployment, DeploymentResult, Placement

__version__ = "0.2.0"

__all__ = [
    "ANY",
    "ActiveComponent",
    "ActiveDefragmenter",
    "ActiveFragmenter",
    "ActiveSink",
    "ActiveSource",
    "ActivityRouter",
    "AllocationError",
    "Buffer",
    "CallbackSink",
    "CallbackSource",
    "Choices",
    "ClockedPump",
    "CollectSink",
    "Component",
    "CompositionError",
    "Consumer",
    "CostFilter",
    "CountingSource",
    "EOS",
    "EndOfStream",
    "Engine",
    "Event",
    "EventScope",
    "FeedbackPump",
    "FunctionComponent",
    "Gate",
    "GreedyPump",
    "InfopipeError",
    "Interval",
    "IterSource",
    "MapFilter",
    "MergeTee",
    "Mode",
    "MulticastTee",
    "NIL",
    "NullSink",
    "OnEmpty",
    "OnFull",
    "Pipeline",
    "PipelineStats",
    "Polarity",
    "PolarityError",
    "PredicateFilter",
    "Producer",
    "PullBatcher",
    "PullUnbatcher",
    "Pump",
    "PushBatcher",
    "PushUnbatcher",
    "PushDefragmenter",
    "PushFragmenter",
    "PullDefragmenter",
    "PullFragmenter",
    "RoutingSwitch",
    "RuntimeFault",
    "SequenceStamp",
    "Sink",
    "Source",
    "Typespec",
    "TypespecMismatch",
    "Deployment",
    "DeploymentResult",
    "Placement",
    "allocate",
    "api",
    "connect",
    "is_eos",
    "is_nil",
    "pipeline",
    "props",
]
