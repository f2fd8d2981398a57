"""Multi-core sharded execution behind a policy-free Deployment API.

The paper's middleware keeps threads transparent *within* one address
space; this package extends the same stance across address spaces.  A
program describes only information flow; a :class:`Placement` says how
many cores to use (and optionally which component goes where); the
planner may cut ONLY at ``Buffer``/netpipe boundaries — the seams whose
asynchronous semantics the polarity model already guarantees — and
bridges each cut with the coalesced netpipe wire format over real
sockets.  Sharding is therefore a checkable refinement, not a rewrite::

    from repro.deploy import Deployment, Placement

    d = Deployment(SRC, Placement.auto(4))
    print(d.describe())            # which component runs on which core
    result = d.run()               # 4 processes, socketpair-bridged cuts
    cert = d.certify(seeds=25)     # sharded == single-core, mechanized

See ``docs/DEPLOY.md`` for the full tour.
"""

from repro.deploy.deployment import Deployment, DeploymentResult
from repro.deploy.placement import (
    Cut,
    Placement,
    ShardPlan,
    plan_placement,
)
from repro.deploy.worker import ShardSpec, build_program, split
from repro.errors import DeployError

__all__ = [
    "Cut",
    "DeployError",
    "Deployment",
    "DeploymentResult",
    "Placement",
    "ShardPlan",
    "ShardSpec",
    "build_program",
    "plan_placement",
    "split",
]
