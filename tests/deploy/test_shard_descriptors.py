"""A shard holds only its own descriptors.

A three-shard chain has two shard pairs, so two socket pairs, and
three control pipes.  Each shard must hold exactly its own: its end of
each pair it belongs to and its end of its control pipe.  A forked shard
inherits everything its parent held when it was forked (the other pair's
ends, the far end of its own pair, the parent ends of the control pipes)
and closes those before it reports ready; a spawned shard is handed its
own ends only.  Otherwise a shard whose peer died would never read EOF
on their link (``test_kill_shard.py``).

Each shard reports, through a probe on its segment, the inodes
(``os.fstat(fd).st_ino``) of every socket and pipe its process holds;
the test records the inodes of every end the deployment made.  The
mutant twin is a forked shard that keeps one foreign end.
"""

import multiprocessing
import multiprocessing.connection
import os
import stat

import pytest

from repro import (
    Buffer,
    CollectSink,
    GreedyPump,
    IterSource,
    MapFilter,
    pipeline,
)
from repro.deploy import Deployment, Placement
from repro.deploy import deployment as deployment_module
from repro.deploy.worker import shard_main

SHARDS = 3
PLACEMENT = {"src": 0, "pump-1": 1, "pump-2": 2}


def held_inodes() -> list[int]:
    """The inodes of the sockets and pipes this process holds."""
    inodes = set()
    for fd in os.listdir("/proc/self/fd"):
        try:
            mode = os.fstat(int(fd))
        except OSError:  # the listing's own descriptor, closed by now
            continue
        if stat.S_ISSOCK(mode.st_mode) or stat.S_ISFIFO(mode.st_mode):
            inodes.add(mode.st_ino)
    return sorted(inodes)


class Probe(MapFilter):
    """Passes items on; at the first it records :func:`held_inodes` as
    its ``items``, which a shard reports as it reports a sink's."""

    def __init__(self, name):
        super().__init__(self.record, name=name)
        self.items = []

    def record(self, item):
        if not self.items:
            self.items.append(held_inodes())
        return item


def chain():
    """Three segments joined by two seam buffers, a probe in each."""
    return pipeline(
        IterSource(range(64), name="src"), Probe("probe-0"),
        GreedyPump(name="pump-0"), Buffer(8, name="seam-a"),
        GreedyPump(name="pump-1"), Probe("probe-1"), Buffer(8, name="seam-b"),
        GreedyPump(name="pump-2"), Probe("probe-2"), CollectSink(name="sink"),
    )


def inode(end) -> int:
    return os.fstat(end.fileno()).st_ino


def run_pinned(monkeypatch, start_method):
    """``(held, owned)``: per shard, the deployment's ends it held while
    running, and the ends that are its own."""
    pairs, pipes = [], []
    real_pair = deployment_module._socketpair_for
    real_pipe = multiprocessing.connection.Pipe

    def socketpair_for(transport):
        ends = real_pair(transport)
        pairs.append([inode(end) for end in ends])
        return ends

    def pipe(duplex=True):
        ends = real_pipe(duplex)
        pipes.append([inode(end) for end in ends])
        return ends

    monkeypatch.setattr(deployment_module, "_socketpair_for", socketpair_for)
    monkeypatch.setattr(multiprocessing.connection, "Pipe", pipe)
    deployment = Deployment(
        chain, Placement.explicit(PLACEMENT, SHARDS),
        start_method=start_method,
    )
    plan = deployment.plan()
    result = deployment.run(timeout=60)
    assert result.completed and result.sinks["sink"] == list(range(64))

    made = {ino for ends in pairs + pipes for ino in ends}
    owned = {shard: {pipes[shard][1]} for shard in range(SHARDS)}
    for pair, ends in zip(deployment_module._pairs(plan), pairs):
        for shard, ino in zip(pair, ends):
            owned[shard].add(ino)
    held = {}
    for shard in range(SHARDS):
        probe = f"probe-{shard}"
        assert plan.assignment[probe] == shard
        held[shard] = made & set(result.sinks[probe][0])
    return held, owned


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_each_shard_holds_only_its_own_ends(monkeypatch, start_method):
    held, owned = run_pinned(monkeypatch, start_method)
    assert [len(owned[shard]) for shard in range(SHARDS)] == [2, 3, 2]
    assert held == owned


def keeps_one_foreign_end(spec, conn, sockets, shard, foreign):
    """Mutant twin of :func:`shard_main`: a forked shard closes every
    foreign end but one."""
    return shard_main(spec, conn, sockets, shard, foreign[1:])


def test_a_shard_that_keeps_a_foreign_end_fails_the_pin(monkeypatch):
    monkeypatch.setattr(deployment_module, "shard_main", keeps_one_foreign_end)
    with pytest.raises(AssertionError):
        test_each_shard_holds_only_its_own_ends(monkeypatch, "fork")
