"""Pipeline execution on the message-based thread substrate (section 4).

The :class:`~repro.runtime.engine.Engine` takes a composed pipeline,
computes its :class:`~repro.core.glue.AllocationPlan`, and realizes it on a
:class:`~repro.mbt.scheduler.Scheduler`:

* one user-level thread per pump (or active endpoint);
* one additional thread per coroutine, with Infopipe push/pull between
  coroutines "mapped to asynchronous inter-thread messages" — the blocked
  thread stays responsive to control events;
* direct function calls for every component whose style matches its mode;
* buffer gates implementing the block/drop/nil policies;
* event delivery with synchronized-object semantics (section 3.2).
"""

from repro.runtime.engine import Engine
from repro.runtime.stats import PipelineStats

__all__ = [
    "Engine",
    "PipelineStats",
]
