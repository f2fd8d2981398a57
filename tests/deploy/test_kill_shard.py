"""A shard killed before ready, mid-run or after done: the parent names
it when it matters, and leaks nothing.

Each shard pair shares one link, and each shard one control pipe, so a
shard that dies by ``SIGKILL`` is seen on exactly those: the parent reads
EOF on the dead shard's pipe, its peer reads EOF (or a broken link) on
their pair's socket.  Killed before it reported ``done``, ``Deployment
.run`` must raise a ``DeployError`` that names the killed shard within
its timeout; killed after, every shard had reported and ``run`` returns
the complete result.  Killed before ``ready`` is a forked shard dying on
its ``ready`` send, or a spawned one dying in its builder (under fork the
deploying process runs the builder).  Either way no shard process is
left alive and the parent's descriptors are back at their baseline.
"""

import functools
import gc
import multiprocessing
import os
import signal
import time

from multiprocessing import resource_tracker
from multiprocessing.connection import Connection
from pathlib import Path

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
    ``after``-th item passes, first writing the instant
    (``time.monotonic()``, one clock for every process) to ``noted``."""

    def __init__(self, after, noted):
        self.after = after
        self.noted = noted
        self.seen = 0

    def __call__(self, item):
        self.seen += 1
        if self.seen == self.after:
            Path(self.noted).write_text(repr(time.monotonic()))
            os.kill(os.getpid(), signal.SIGKILL)
        return item


def seam(side, noted):
    """``source >> pump >> buffer >> pump >> sink`` with the killer on
    ``side`` ("upstream" or "downstream") of the buffer the planner cuts."""
    kill = MapFilter(KillAfter(KILL_AFTER, noted), name="kill")
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


def named_within(noted) -> float:
    """Seconds from the kill noted in ``noted`` until now."""
    return time.monotonic() - float(Path(noted).read_text())


@pytest.mark.parametrize("side", ["upstream", "downstream"])
def test_a_killed_shard_is_named_and_nothing_leaks(side, tmp_path):
    noted = tmp_path / "killed"
    app = Pipeline.of(functools.partial(seam, side, str(noted)))
    deployment = Deployment(app.with_batching(32), Placement.auto(2))
    (cut,) = deployment.plan().cuts
    shard = cut.src_shard if side == "upstream" else cut.dst_shard
    gc.collect()
    baseline = open_fds()
    with pytest.raises(DeployError) as failure:
        deployment.run(timeout=30)
    # Its peer reads EOF on their link at once: it holds no other end of
    # it (test_shard_descriptors.py), so no 10 s join deadline is met.
    assert named_within(noted) < 2
    assert str(failure.value).startswith(
        f"shard {shard} was killed by SIGKILL"
    )
    assert multiprocessing.active_children() == []
    del failure
    gc.collect()
    assert open_fds() == baseline


def plain_seam():
    """``seam`` without the killer."""
    return pipeline(
        IterSource(range(ITEMS), name="src"), GreedyPump(name="pump-a"),
        Buffer(64, name="seam"), GreedyPump(name="pump-b"),
        CollectSink(name="sink"),
    )


def dies_in_a_shard():
    """:func:`plain_seam`, but run in a shard process, the builder kills
    that process before the shard can report ready.  Only a spawned shard
    runs its builder: under fork the deploying process builds them all."""
    if multiprocessing.parent_process() is not None:
        os.kill(os.getpid(), signal.SIGKILL)
    return plain_seam()


def assert_both_killed_before_ready(deployment):
    gc.collect()
    baseline = open_fds()
    started = time.monotonic()
    with pytest.raises(DeployError) as failure:
        deployment.run(timeout=30)
    assert time.monotonic() - started < 30
    message = str(failure.value)
    assert message.startswith("shard 0 was killed by SIGKILL")
    assert "shard 1 was killed by SIGKILL" in message
    assert multiprocessing.active_children() == []
    del failure
    gc.collect()
    assert open_fds() == baseline


def test_a_shard_killed_before_ready_is_named_and_nothing_leaks(monkeypatch):
    """Each forked shard kills itself as it sends ``ready``: it runs the
    engine its parent built, so its ``ready`` send is the first thing it
    does."""
    real = Connection.send

    def die_then_send(self, message):
        if multiprocessing.parent_process() is not None \
                and message[0] == "ready":
            os.kill(os.getpid(), signal.SIGKILL)
        real(self, message)

    monkeypatch.setattr(Connection, "send", die_then_send)
    assert_both_killed_before_ready(
        Deployment(plain_seam, Placement.auto(2), start_method="fork"))


def test_a_spawned_shard_killed_in_its_builder_is_named_and_nothing_leaks():
    # Spawning starts multiprocessing's resource tracker once per process,
    # and its pipe stays open: start it before the baseline is taken.
    resource_tracker.ensure_running()
    assert_both_killed_before_ready(
        Deployment(dies_in_a_shard, Placement.auto(2), start_method="spawn"))


def test_a_shard_killed_after_done_still_returns_the_result(monkeypatch):
    """Each shard dies right after its ``done`` left: both had reported,
    so the run is complete."""
    real = Connection.send_bytes

    def send_then_die(self, *args):
        real(self, *args)
        if multiprocessing.parent_process() is not None:
            os.kill(os.getpid(), signal.SIGKILL)

    from repro.deploy import deployment as module

    reaped = []
    real_stop = module._stop_shards

    def stop_shards(processes, conns):
        reaped.append(real_stop(processes, conns))
        return reaped[-1]

    monkeypatch.setattr(Connection, "send_bytes", send_then_die)
    monkeypatch.setattr(module, "_stop_shards", stop_shards)
    deployment = Deployment(
        Pipeline.of(plain_seam).with_batching(32), Placement.auto(2),
        start_method="fork",
    )
    gc.collect()
    baseline = open_fds()
    result = deployment.run(timeout=30)
    assert result.completed
    assert result.sinks["sink"] == list(range(ITEMS))
    # Both shards were killed, after their reports.
    assert reaped == [
        "shard 0 was killed by SIGKILL, shard 1 was killed by SIGKILL"]
    assert multiprocessing.active_children() == []
    del result
    gc.collect()
    assert open_fds() == baseline


def test_the_mutant_that_forgets_the_signal_names_no_one(
    monkeypatch, tmp_path
):
    """The mutant twin: with the exit codes unread, the parent reports
    only what it saw first, which need not be the killed shard."""
    from repro.deploy import deployment as module

    real = module._stop_shards

    def forgetful(processes, conns):
        real(processes, conns)
        return ""

    monkeypatch.setattr(module, "_stop_shards", forgetful)
    noted = tmp_path / "killed"
    app = Pipeline.of(functools.partial(seam, "upstream", str(noted)))
    with pytest.raises(DeployError) as failure:
        Deployment(app.with_batching(32), Placement.auto(2)).run(timeout=30)
    assert named_within(noted) < 2
    assert "killed by SIGKILL" not in str(failure.value)
