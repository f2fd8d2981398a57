"""Shard worker internals: link ownership, the done message, and the
bounded receive-ahead that stands in for a cut buffer's capacity."""

import multiprocessing
import pickle
import socket
import threading

from repro import CollectSink, GreedyPump, IterSource, pipeline
from repro.api import Pipeline
from repro.components.filters import MapFilter
from repro.components.pumps import ClockedPump
from repro.deploy import Deployment, Placement, plan_placement
from repro.deploy import worker
from repro.deploy.worker import (
    ShardIO,
    ShardSpec,
    _done_message,
    build_program,
    build_shard_pipeline,
    shard_main,
)
from repro.net import SocketLink
from repro.net.marshal import MarshalFilter, UnmarshalFilter, encode_batch
from repro.net.netpipe import NetpipeReceiver
from repro.runtime.engine import Engine

SRC = "counting(limit=24) >> greedy_pump >> buffer(4) >> greedy_pump >> collect"


def shard_spec(shard: int, app=Pipeline.from_source(SRC)) -> ShardSpec:
    plan = plan_placement(build_program(SRC), Placement.auto(2))
    return ShardSpec(
        shard=shard, shards=2, app=app,
        assignment=dict(plan.assignment), cuts=plan.cuts,
    )


def run_shard(spec: ShardSpec, sock) -> list:
    """Play the deployment parent for one in-thread ``shard_main``;
    returns the messages the shard sent."""
    parent, child = multiprocessing.Pipe()
    thread = threading.Thread(
        target=shard_main, args=(spec, child, {0: sock}), daemon=True
    )
    thread.start()
    messages = []
    try:
        assert parent.poll(30)
        messages.append(parent.recv())
        if messages[-1][0] == "ready":
            parent.send(("go",))
            assert parent.poll(30)
            messages.append(parent.recv())
            parent.send(("exit",))
    finally:
        thread.join(30)
        parent.close()
    assert not thread.is_alive()
    return messages


class TestLinkOwnership:
    def test_build_hands_back_links_in_both_directions(self):
        a, b = socket.socketpair()
        try:
            for shard, sock in ((0, a), (1, b)):
                _, links = build_shard_pipeline(shard_spec(shard), {0: sock})
                assert list(links) == [0]
                assert isinstance(links[0], SocketLink)
        finally:
            a.close()
            b.close()

    def test_both_shards_close_their_links_after_done_and_exit(self):
        a, b = socket.socketpair()
        # The producer's 24 items fit the socket buffer, so the shards
        # can run one after the other.
        sent = run_shard(shard_spec(0), a)
        assert [m[0] for m in sent] == ["ready", "done"]
        assert a.fileno() == -1
        received = run_shard(shard_spec(1), b)
        assert [m[0] for m in received] == ["ready", "done"]
        assert b.fileno() == -1
        payload = received[1][1]
        assert payload["completed"]
        assert payload["sinks"]["collect-sink-1"] == list(range(24))
        assert payload["wire"][0]["delivered"] >= 1

    def test_error_path_closes_links_too(self):
        a, b = socket.socketpair()
        try:
            # Engine() rejects the option after the links were built.
            spec = shard_spec(
                0,
                Pipeline.from_source(SRC).with_engine_options(
                    no_such_option=True
                ),
            )
            (message,) = run_shard(spec, a)
            assert message[0] == "error" and message[1] == 0
            assert "no_such_option" in message[2]
            assert a.fileno() == -1
        finally:
            b.close()


class TestControlPipe:
    def test_stop_mid_run_ends_the_shard_with_a_done_report(self):
        """The consumer shard of a wire nobody writes to sits in
        ``ShardIO.wait``; a ``("stop",)`` on its control pipe must end
        the run within one wait, and the shard still reports ``done``."""
        import time

        a, b = socket.socketpair()  # ``a`` never sends: shard 1 starves
        parent, child = multiprocessing.Pipe()
        thread = threading.Thread(
            target=shard_main, args=(shard_spec(1), child, {0: b}),
            daemon=True,
        )
        thread.start()
        try:
            assert parent.poll(30)
            assert parent.recv() == ("ready", 1)
            parent.send(("go",))
            assert not parent.poll(0.2)  # running, nothing to report
            asked = time.perf_counter()
            parent.send(("stop",))
            assert parent.poll(5)
            took = time.perf_counter() - asked
            kind, payload = parent.recv()
            assert kind == "done"
            assert payload["completed"] is False
            assert payload["sinks"] == {"collect-sink-1": []}
            assert took < 1.0, took  # one idle wait is 0.05 s
            parent.send(("exit",))
        finally:
            thread.join(30)
            parent.close()
            a.close()
        assert not thread.is_alive()
        assert b.fileno() == -1  # the shard closed its link on the way out


def _unpicklable_tail():
    """``counting -> buffer -> (x -> closure) -> collect``: the sink's
    items are born in the last shard and cannot be pickled."""
    from repro.components.buffers import Buffer

    return pipeline(
        IterSource(range(5), name="src"),
        GreedyPump(name="pump-a"),
        Buffer(4, name="seam"),
        GreedyPump(name="pump-b"),
        MapFilter(lambda x: (lambda: x), name="wrap"),
        CollectSink(name="sink"),
    )


class TestDoneMessage:
    def test_sinks_are_pickled_once(self, monkeypatch):
        calls = []
        real = pickle.dumps

        def counting(obj, *args, **kwargs):
            calls.append(obj)
            return real(obj, *args, **kwargs)

        monkeypatch.setattr(worker.pickle, "dumps", counting)
        payload = {"shard": 1, "sinks": {"sink": list(range(1000))}}
        data = _done_message(payload)
        assert len(calls) == 1
        assert pickle.loads(data) == ("done", payload)

    def test_unpicklable_sink_falls_back_to_repr_per_sink(self):
        closure = lambda: 0  # noqa: E731
        payload = {
            "shard": 1,
            "sinks": {"good": [1, 2, 3], "bad": [closure, 7]},
        }
        kind, back = pickle.loads(_done_message(payload))
        assert kind == "done"
        assert back["sinks"]["good"] == [1, 2, 3]
        assert back["sinks"]["bad"] == [repr(closure), "7"]
        # The shard's own payload is left as it was.
        assert payload["sinks"]["bad"][0] is closure

    def test_unpicklable_sink_items_cross_the_process_boundary_as_repr(self):
        result = Deployment(_unpicklable_tail, Placement.auto(2)).run(
            timeout=60
        )
        assert result.completed
        items = result.sinks["sink"]
        assert len(items) == 5
        assert all(isinstance(i, str) and "lambda" in i for i in items)


# -- bounded receive-ahead -----------------------------------------------------


class SlowSink(CollectSink):
    """Collects, and notes how far ahead the wire receiver was let run."""

    def __init__(self, receiver, name=None):
        super().__init__(name)
        self.receiver = receiver
        self.max_fill = 0

    def push(self, item):
        self.max_fill = max(self.max_fill, self.receiver.fill_level)
        super().push(item)


def consumer_engine(rx, pump, **engine_kwargs):
    receiver = NetpipeReceiver(rx, name="recv")
    sink = SlowSink(receiver, name="sink")
    pipe = pipeline(receiver, UnmarshalFilter(name="unmarshal"), pump, sink)
    return Engine(pipe, **engine_kwargs), receiver, sink


def producer(tx, frames):
    """Send ``frames`` (lists of ints) as fast as the socket takes them."""
    marshal = MarshalFilter()

    def run():
        for items in frames:
            tx.send_frame(marshal.convert_many(items).frame_payload())
        tx.send_eos()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread


def run_to_completion(engine, receiver):
    parent, child = multiprocessing.Pipe()
    try:
        engine.start()
        engine.run_with_io(ShardIO([receiver], child), idle_timeout=0.01)
    finally:
        parent.close()
        child.close()
    assert engine.completed


class TestBoundedReceiveAhead:
    FRAME = 32

    def frames(self, count):
        return [
            list(range(i * self.FRAME, (i + 1) * self.FRAME))
            for i in range(count)
        ]

    def test_fast_producer_never_runs_past_the_bound(self, monkeypatch):
        monkeypatch.setattr(worker, "RECEIVE_AHEAD_ITEMS", 4 * self.FRAME)
        tx, rx = SocketLink.pair()
        # 2 000 frames are ~0.8 MB of wire bytes: more than the socket
        # buffers hold, so the producer blocks until the consumer drains.
        frames = self.frames(2000)
        engine, receiver, sink = consumer_engine(rx, GreedyPump(name="pump"))
        thread = producer(tx, frames)
        run_to_completion(engine, receiver)
        thread.join(30)
        assert not thread.is_alive()
        assert sink.items == [x for frame in frames for x in frame]
        assert 0 < sink.max_fill <= 4 * self.FRAME
        # What was not let in stayed in the kernel, not in the link.
        assert rx.stats["delivered"] == len(frames) + 1
        tx.close()
        rx.close()

    def test_frame_larger_than_the_bound_is_still_delivered(
        self, monkeypatch
    ):
        monkeypatch.setattr(worker, "RECEIVE_AHEAD_ITEMS", 16)
        tx, rx = SocketLink.pair()
        frames = [list(range(500)), list(range(500, 503)), [503, 504]]
        engine, receiver, sink = consumer_engine(
            rx, GreedyPump(name="pump"), batch_max=8
        )
        thread = producer(tx, frames)
        run_to_completion(engine, receiver)
        thread.join(30)
        assert sink.items == list(range(505))
        assert sink.max_fill >= 500 - 8
        tx.close()
        rx.close()

    def test_clocked_consumer_completes_on_the_horizon_path(
        self, monkeypatch
    ):
        monkeypatch.setattr(worker, "RECEIVE_AHEAD_ITEMS", self.FRAME)
        tx, rx = SocketLink.pair()
        frames = self.frames(6)
        # 30 items per virtual second: every run_with_io turn ends at
        # its horizon with the receiver still at its bound.
        engine, receiver, sink = consumer_engine(
            rx, ClockedPump(rate_hz=30, name="pump")
        )
        thread = producer(tx, frames)
        run_to_completion(engine, receiver)
        thread.join(30)
        assert sink.items == list(range(6 * self.FRAME))
        assert sink.max_fill <= 2 * self.FRAME
        tx.close()
        rx.close()

    def test_full_receiver_is_left_out_of_the_wait(self, monkeypatch):
        monkeypatch.setattr(worker, "RECEIVE_AHEAD_ITEMS", 2)
        tx, rx = SocketLink.pair()
        receiver = NetpipeReceiver(rx, name="recv")
        parent, child = multiprocessing.Pipe()
        io = ShardIO([receiver], child)
        tx.send_frame(encode_batch([b"a", b"bb", b"ccc"]))
        tx.send_frame(encode_batch([b"d"]))
        assert io.pump() == 1  # the second frame waits: the bound is met
        assert receiver.fill_level == 3
        assert io.wait(0.01) is False  # readable socket, but no room
        assert receiver.try_pull_many(3)[1] == [b"a", b"bb", b"ccc"]
        assert io.pump() == 1
        assert receiver.try_pull()[1] == b"d"
        for end in (tx, rx, parent, child):
            end.close()
