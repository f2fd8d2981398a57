"""Shard worker internals: link ownership, the done message, and the
seam's credit window that stands in for a cut buffer's capacity."""

import multiprocessing
import pickle
import socket
import threading

from repro import CollectSink, GreedyPump, IterSource, pipeline
from repro.api import Pipeline
from repro.components.filters import MapFilter
from repro.components.pumps import ClockedPump
from repro.core.events import EOS
from repro.deploy import Deployment, Placement, plan_placement
from repro.deploy import worker
from repro.deploy.worker import (
    ShardSpec,
    _done_message,
    build_program,
    shard_main,
    split,
)
from repro.net import SocketLink
from repro.net.marshal import MarshalFilter, UnmarshalFilter
from repro.net.mux import StreamMux
from repro.net.netpipe import NetpipeReceiver, NetpipeSender
from repro.runtime.engine import Engine

SRC = "counting(limit=24) >> greedy_pump >> buffer(4) >> greedy_pump >> collect"


def shard_spec(shard: int, app=Pipeline.from_source(SRC)) -> ShardSpec:
    plan = plan_placement(build_program(SRC), Placement.auto(2))
    return ShardSpec(shard=shard, app=app, plan=plan)


def run_shards(*specs_and_sockets) -> list[list]:
    """Play the deployment parent for in-thread ``shard_main`` s, each
    given its end of the one link to its peer; returns the messages each
    shard sent."""
    pipes, threads = [], []
    for spec, sock in specs_and_sockets:
        parent, child = multiprocessing.Pipe()
        thread = threading.Thread(
            target=shard_main,
            args=(spec, child, {1 - spec.shard: sock}, None, []),
            daemon=True,
        )
        thread.start()
        pipes.append(parent)
        threads.append(thread)
    messages = [[] for _ in pipes]
    try:
        for parent, sent in zip(pipes, messages):
            assert parent.poll(30)
            sent.append(parent.recv())
        if all(sent[-1][0] == "ready" for sent in messages):
            for parent in pipes:
                parent.send(("go",))
            for parent, sent in zip(pipes, messages):
                assert parent.poll(30)
                sent.append(parent.recv())
            for parent in pipes:
                parent.send(("exit",))
    finally:
        for thread, parent in zip(threads, pipes):
            thread.join(30)
            parent.close()
    assert not any(thread.is_alive() for thread in threads)
    return messages


class TestLinkOwnership:
    def test_build_hands_back_links_in_both_directions(self):
        """The split takes one mux per peer shard, whatever its link; the
        cut is that mux's credited stream on both sides, each half of
        the bridge on its own shard's end."""
        a, b = SocketLink.pair()
        try:
            for shard, link in ((0, a), (1, b)):
                peer = 1 - shard
                mux = StreamMux(link)
                pipeline = build_program(SRC)
                plan = plan_placement(pipeline, Placement.auto(2))
                (shard_pipe,) = split(
                    pipeline, plan, {shard: {peer: mux}}
                ).values()
                (stream,) = mux.streams.values()
                assert stream.stream_id == 0
                assert stream.window == worker.SEAM_WINDOW
                (half,) = [
                    c for c in shard_pipe.components
                    if isinstance(c, (NetpipeSender, NetpipeReceiver))
                ]
                assert half.protocol is stream
                assert isinstance(half, NetpipeSender) is (shard == 0)
        finally:
            a.close()
            b.close()

    def test_both_shards_close_their_links_after_done_and_exit(self):
        a, b = socket.socketpair()
        sent, received = run_shards((shard_spec(0), a), (shard_spec(1), b))
        assert [m[0] for m in sent] == ["ready", "done"]
        assert [m[0] for m in received] == ["ready", "done"]
        assert a.fileno() == -1 and b.fileno() == -1
        payload = received[1][1]
        assert payload["completed"]
        assert payload["sinks"]["collect-sink-1"] == list(range(24))
        assert payload["wire"][0]["delivered"] >= 2  # data, then EOS

    def test_error_path_closes_links_too(self):
        a, b = socket.socketpair()
        try:
            # Engine() rejects the batch size after the links were built.
            spec = shard_spec(0, Pipeline.from_source(SRC).with_batching(0))
            ((message,),) = run_shards((spec, a))
            assert message[0] == "error" and message[1] == 0
            assert "batch_max must be at least 1" in message[2]
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
            target=shard_main, args=(shard_spec(1), child, {0: b}, None, []),
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


# -- the seam's window bounds what the receiver holds --------------------------


class SlowSink(CollectSink):
    """Collects, and notes how far ahead the wire receiver was let run."""

    def __init__(self, receiver, name=None):
        super().__init__(name)
        self.receiver = receiver
        self.max_fill = 0

    def push(self, item):
        self.max_fill = max(self.max_fill, self.receiver.fill_level)
        super().push(item)


def consumer_engine(rx_mux, pump, **engine_kwargs):
    stream = rx_mux.open_stream(0, credits=worker.SEAM_WINDOW)
    receiver = NetpipeReceiver(stream, name="recv")
    sink = SlowSink(receiver, name="sink")
    pipe = pipeline(receiver, UnmarshalFilter(name="unmarshal"), pump, sink)
    return Engine(pipe, **engine_kwargs), receiver, sink


def producer_engine(tx_mux, items, batch):
    """A producer shard's engine: a greedy pump sending ``items`` in
    frames of ``batch`` over stream 0 of ``tx_mux``."""
    stream = tx_mux.open_stream(0, credits=worker.SEAM_WINDOW)
    pipe = pipeline(
        IterSource(items), MarshalFilter(), GreedyPump(name="send-pump"),
        NetpipeSender(stream, name="send"),
    )
    return Engine(pipe, batch_max=batch), stream


def run_with_io(engine, mux):
    parent, child = multiprocessing.Pipe()
    try:
        engine.start()
        engine.run_with_io(worker.ShardIO([mux], child), idle_timeout=0.01)
    finally:
        parent.close()
        child.close()
    assert engine.completed


def run_seam(items, batch, pump, **consumer_kwargs):
    """A producer engine in a thread and a consumer engine here, joined
    by one socketpair and a mux on each end: what a two-shard seam runs."""
    tx_link, rx_link = SocketLink.pair()
    tx_mux, rx_mux = StreamMux(tx_link), StreamMux(rx_link)
    producer, tx_stream = producer_engine(tx_mux, items, batch)
    engine, receiver, sink = consumer_engine(rx_mux, pump, **consumer_kwargs)
    thread = threading.Thread(
        target=run_with_io, args=(producer, tx_mux), daemon=True
    )
    thread.start()
    run_with_io(engine, rx_mux)
    thread.join(30)
    assert not thread.is_alive()
    tx_link.close()
    rx_link.close()
    return sink, tx_stream, rx_mux.streams[0]


class TestBoundedReceiveAhead:
    FRAME = 32

    def test_fast_producer_never_runs_past_the_bound(self, monkeypatch):
        monkeypatch.setattr(worker, "SEAM_WINDOW", 4 * self.FRAME)
        items = list(range(2000 * self.FRAME))
        sink, sender, receiver = run_seam(
            items, self.FRAME, GreedyPump(name="pump")
        )
        assert sink.items == items
        # The receiver holds at most the window and one frame's overdraw;
        # the producer's pump parked instead of running ahead.
        assert 0 < sink.max_fill < 5 * self.FRAME
        assert sender.stats["stalled"] > 0 and not sender.waiters
        # One record per frame and the EOS: nothing was held back whole.
        assert receiver.stats["delivered"] == 2000 + 1

    def test_frame_larger_than_the_bound_is_still_delivered(
        self, monkeypatch
    ):
        monkeypatch.setattr(worker, "SEAM_WINDOW", 16)
        sink, sender, _ = run_seam(
            list(range(505)), 500, GreedyPump(name="pump"), batch_max=8
        )
        assert sink.items == list(range(505))
        assert sink.max_fill >= 500 - 8
        assert sender.credits > 0

    def test_clocked_consumer_completes_on_the_horizon_path(
        self, monkeypatch
    ):
        monkeypatch.setattr(worker, "SEAM_WINDOW", self.FRAME)
        # 30 items per virtual second: every run_with_io turn of the
        # consumer ends at its horizon with the window spent.
        sink, _, _ = run_seam(
            list(range(6 * self.FRAME)), self.FRAME,
            ClockedPump(rate_hz=30, name="pump"),
        )
        assert sink.items == list(range(6 * self.FRAME))
        assert sink.max_fill <= 2 * self.FRAME

    def test_a_spent_window_parks_until_the_grant(
        self, monkeypatch
    ):
        """The producer's pump parks on credit (the stream holds no
        send); the grant is what the producer's ``ShardIO`` waits for,
        and pumping it in wakes the pump, which sends on."""
        monkeypatch.setattr(worker, "SEAM_WINDOW", 2)
        tx_link, rx_link = SocketLink.pair()
        tx_mux, rx_mux = StreamMux(tx_link), StreamMux(rx_link)
        producer, sender = producer_engine(tx_mux, [1, 2, 3], 2)
        receiver = NetpipeReceiver(rx_mux.open_stream(0, credits=2))
        parent, child = multiprocessing.Pipe()
        io = worker.ShardIO([tx_mux], child)
        producer.start()
        producer.run()
        (parked,) = sender.waiters
        assert parked.endswith("send-pump")
        assert sender.stats["sent"] == 1 and sender.credits == 0
        assert io.pump() == 0 and io.wait(0.01) is False  # no grant yet
        rx_mux.pump()
        assert len(receiver.try_pull_many(2)[1]) == 2  # grants 2
        assert io.wait(5.0) is True
        assert io.pump() == 1 and not sender.waiters
        producer.run()
        assert producer.completed and sender.stats["sent"] == 2
        rx_mux.pump()
        assert receiver.try_pull_many(2)[1][1:] == [EOS]
        for end in (tx_link, rx_link, parent, child):
            end.close()
