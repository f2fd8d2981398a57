"""A shard killed mid-run: the parent names it, and leaks nothing.

Each shard pair shares one link, and each shard one control pipe, so a
shard that dies by ``SIGKILL`` is seen on exactly those: the parent reads
EOF on the dead shard's pipe, its peer reads EOF (or a broken link) on
their pair's socket.  ``Deployment.run`` must raise a ``DeployError``
that names the killed shard within its timeout, with no shard process
left alive and the parent's descriptors back at their baseline.
"""

import functools
import gc
import multiprocessing
import os
import signal
import time

import pytest

from repro import CollectSink, GreedyPump, IterSource, pipeline
from repro.api import Pipeline
from repro.components.buffers import Buffer
from repro.components.filters import MapFilter
from repro.deploy import Deployment, Placement
from repro.errors import DeployError

ITEMS = 20_000
KILL_AFTER = 5_000


class KillAfter:
    """An item function that sends its own process ``SIGKILL`` when the
    ``after``-th item passes."""

    def __init__(self, after):
        self.after = after
        self.seen = 0

    def __call__(self, item):
        self.seen += 1
        if self.seen == self.after:
            os.kill(os.getpid(), signal.SIGKILL)
        return item


def seam(side):
    """``source >> pump >> buffer >> pump >> sink`` with the killer on
    ``side`` ("upstream" or "downstream") of the buffer the planner cuts."""
    kill = MapFilter(KillAfter(KILL_AFTER), name="kill")
    return pipeline(
        IterSource(range(ITEMS), name="src"),
        *([kill] if side == "upstream" else []),
        GreedyPump(name="pump-a"),
        Buffer(64, name="seam"),
        GreedyPump(name="pump-b"),
        *([kill] if side == "downstream" else []),
        CollectSink(name="sink"),
    )


def open_fds():
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.parametrize("side", ["upstream", "downstream"])
def test_a_killed_shard_is_named_and_nothing_leaks(side):
    app = Pipeline.of(functools.partial(seam, side)).with_batching(32)
    deployment = Deployment(app, Placement.auto(2))
    (cut,) = deployment.plan().cuts
    shard = cut.src_shard if side == "upstream" else cut.dst_shard
    gc.collect()
    baseline = open_fds()
    started = time.monotonic()
    with pytest.raises(DeployError) as failure:
        deployment.run(timeout=30)
    assert time.monotonic() - started < 30
    assert str(failure.value).startswith(
        f"shard {shard} was killed by SIGKILL"
    )
    assert multiprocessing.active_children() == []
    del failure
    gc.collect()
    assert open_fds() == baseline


def test_the_mutant_that_forgets_the_signal_names_no_one(monkeypatch):
    """The mutant twin: with the exit codes unread, the parent reports
    only what it saw first, which need not be the killed shard."""
    from repro.deploy import deployment as module

    real = module._stop_shards

    def forgetful(processes, conns):
        real(processes, conns)
        return ""

    monkeypatch.setattr(module, "_stop_shards", forgetful)
    app = Pipeline.of(functools.partial(seam, "upstream")).with_batching(32)
    with pytest.raises(DeployError) as failure:
        Deployment(app, Placement.auto(2)).run(timeout=30)
    assert "killed by SIGKILL" not in str(failure.value)
