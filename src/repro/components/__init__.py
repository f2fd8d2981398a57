"""The standard Infopipe component library (paper section 2.1).

"To facilitate this task, our framework provides a set of basic components
including pumps and buffers to control the timing."  This package provides:

* :mod:`pumps <repro.components.pumps>` — clocked, greedy and
  feedback-driven pumps (the activity origins of section 3.1);
* :mod:`buffers <repro.components.buffers>` — bounded buffers with the
  blocking/dropping/nil policies of section 2.3;
* :mod:`sources <repro.components.sources>` and
  :mod:`sinks <repro.components.sinks>` — passive and active endpoints;
* :mod:`filters <repro.components.filters>` — generic transforms;
* :mod:`frag <repro.components.frag>` — the paper's running example, a
  defragmenter (and its fragmenter mirror) in every activity style;
* :mod:`tees <repro.components.tees>` — splitting/merging components with
  the activity rules of section 3.3.
"""

from repro.components.batch import (
    PullBatcher,
    PullUnbatcher,
    PushBatcher,
    PushUnbatcher,
)
from repro.components.buffers import Buffer, OnEmpty, OnFull
from repro.components.filters import (
    CostFilter,
    Gate,
    MapFilter,
    PredicateFilter,
    SequenceStamp,
)
from repro.components.frag import (
    ActiveDefragmenter,
    ActiveFragmenter,
    PushDefragmenter,
    PushFragmenter,
    PullDefragmenter,
    PullFragmenter,
)
from repro.components.pumps import ClockedPump, FeedbackPump, GreedyPump, Pump
from repro.components.sinks import (
    ActiveSink,
    CallbackSink,
    CollectSink,
    NullSink,
    Sink,
)
from repro.components.sources import (
    ActiveSource,
    CallbackSource,
    CountingSource,
    IterSource,
    Source,
)
from repro.components.tees import (
    ActivityRouter,
    MergeTee,
    MulticastTee,
    RoutingSwitch,
)

__all__ = [
    "ActiveDefragmenter",
    "ActiveFragmenter",
    "ActiveSink",
    "ActiveSource",
    "ActivityRouter",
    "Buffer",
    "CallbackSink",
    "CallbackSource",
    "ClockedPump",
    "CollectSink",
    "CostFilter",
    "CountingSource",
    "FeedbackPump",
    "Gate",
    "GreedyPump",
    "IterSource",
    "MapFilter",
    "MergeTee",
    "MulticastTee",
    "NullSink",
    "OnEmpty",
    "OnFull",
    "PredicateFilter",
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
    "SequenceStamp",
    "Sink",
    "Source",
]
