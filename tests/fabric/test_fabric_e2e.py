"""End-to-end fabric: sessions over ONE shared multiplexed link, faults.

The deployment shape under test: a producer fabric and a consumer fabric
in (nominally) different processes, every session's netpipe riding its
own :class:`MuxStream` of ONE shared :class:`SocketLink`.  With both
fabrics in one thread the ``drive`` loop alternates bounded scheduler
runs with link pumps, exactly like ``run_with_io`` — note ``max_steps``
is cumulative, hence the ``scheduler.steps + K`` increments; where the
producers need no grant, the consumer side runs the real
``SessionFabric.run_with_io`` (``test_fifty_sessions_one_socketpair``).
"""

import pytest

from repro import CollectSink, GreedyPump, IterSource, pipeline
from repro.fabric import SessionFabric
from repro.mbt import Scheduler, VirtualClock
from repro.net import InProcessLink, SocketLink
from repro.net.marshal import MarshalFilter, UnmarshalFilter
from repro.net.mux import StreamMux
from repro.net.netpipe import make_netpipe_over


def open_flow(txfab, rxfab, tx_mux, rx_mux, sid, items, sinks,
              credits=8, **tx_kwargs):
    """One tenant's flow: a producer session and a consumer session
    joined by a per-session stream of the shared link."""
    t_stream = tx_mux.open_stream(sid, credits=credits)
    r_stream = rx_mux.open_stream(sid, credits=credits)

    def build_tx(stream=t_stream):
        sender, _ = make_netpipe_over(stream)
        return pipeline(
            IterSource(items), MarshalFilter(), GreedyPump(), sender
        )

    def build_rx(stream=r_stream, sid=sid):
        _, receiver = make_netpipe_over(stream)
        sink = CollectSink(name="sink")
        sinks[sid] = sink
        return pipeline(receiver, UnmarshalFilter(), GreedyPump(), sink)

    txfab.open_session(build_tx, name=f"tx{sid}", **tx_kwargs)
    rxfab.open_session(build_rx, name=f"rx{sid}")


def drive(txfab, rxfab, tx_mux, rx_mux, rounds=2000, steps=2000):
    for _ in range(rounds):
        txfab.run(max_steps=txfab.scheduler.steps + steps)
        tx_mux.pump()  # returning credits
        rx_mux.pump()
        rxfab.run(max_steps=rxfab.scheduler.steps + steps)
        if rxfab.completed:
            return True
    return False


class TestSharedLink:
    def test_fifty_sessions_one_socketpair(self):
        tx_link, rx_link = SocketLink.pair(bufsize=1 << 22)
        tx_mux, rx_mux = StreamMux(tx_link), StreamMux(rx_link)
        txfab, rxfab = SessionFabric(), SessionFabric()
        sinks = {}
        for sid in range(50):
            open_flow(
                txfab, rxfab, tx_mux, rx_mux, sid,
                range(sid, sid + 5), sinks,
            )
        # Five items and the EOS fit each stream's window of 8, so the
        # producers never wait for a grant: they can finish first, and
        # the consumer side is docs/FABRIC.md's main loop as shipped.
        txfab.run_to_completion()
        assert txfab.completed
        rxfab.run_with_io(rx_mux)
        assert rxfab.completed
        for sid in range(50):
            assert sinks[sid].items == list(range(sid, sid + 5))
        assert rx_mux.stats["unknown_stream_drops"] == 0

    def test_thousand_sessions_one_socketpair(self):
        """The acceptance shape: >= 1k concurrent per-session streams on
        one shared SocketLink, per-stream EOS and credit backpressure."""
        tx_link, rx_link = SocketLink.pair(bufsize=1 << 23)
        tx_mux, rx_mux = StreamMux(tx_link), StreamMux(rx_link)
        txfab, rxfab = SessionFabric(), SessionFabric()
        sinks = {}
        n = 1000
        for sid in range(n):
            open_flow(
                txfab, rxfab, tx_mux, rx_mux, sid,
                range(sid, sid + 5), sinks, credits=4,
            )
        assert drive(txfab, rxfab, tx_mux, rx_mux, steps=40_000)
        for sid in range(n):
            assert sinks[sid].items == list(range(sid, sid + 5))
        # Windows of 4 against 5 items + EOS: every stream stalled at
        # least once, i.e. flow control actually engaged.
        stalled = sum(
            s.stats["stalled"] for s in tx_mux.streams.values()
        )
        assert stalled >= n
        assert rx_mux.stats["unknown_stream_drops"] == 0

    def test_slow_consumer_backpressures_only_itself(self):
        tx_link, rx_link = SocketLink.pair(bufsize=1 << 22)
        tx_mux, rx_mux = StreamMux(tx_link), StreamMux(rx_link)
        txfab, rxfab = SessionFabric(), SessionFabric()
        sinks = {}
        for sid in range(5):
            open_flow(
                txfab, rxfab, tx_mux, rx_mux, sid,
                range(20), sinks, credits=4,
            )
        rxfab.park("rx0")  # consumer 0 stops draining entirely
        for _ in range(200):
            txfab.run(max_steps=txfab.scheduler.steps + 2000)
            tx_mux.pump()
            rx_mux.pump()
            rxfab.run(max_steps=rxfab.scheduler.steps + 2000)
            if rxfab.completed:
                break
        assert rxfab.completed  # the four live consumers finished
        for sid in range(1, 5):
            assert sinks[sid].items == list(range(20))
        # Tenant 0's producer is stuck in ITS OWN stream's pending queue,
        # not in the shared link.
        assert len(tx_mux.streams[0].pending) > 0
        assert sinks[0].items == []
        # Wake the slow consumer: the stalled tenant drains too.
        rxfab.unpark("rx0")
        for _ in range(200):
            txfab.run(max_steps=txfab.scheduler.steps + 2000)
            tx_mux.pump()
            rx_mux.pump()
            rxfab.run(max_steps=rxfab.scheduler.steps + 2000)
            if sinks[0].items == list(range(20)):
                break
        assert sinks[0].items == list(range(20))


class TestFaults:
    def test_closed_tenant_frames_dropped_not_poisoning(self):
        """Crash-the-tenant acceptance: close a consumer session while
        its frames are in flight — the shared link counts and drops them;
        every other tenant is unaffected."""
        tx_link, rx_link = SocketLink.pair(bufsize=1 << 22)
        tx_mux, rx_mux = StreamMux(tx_link), StreamMux(rx_link)
        txfab, rxfab = SessionFabric(), SessionFabric()
        sinks = {}
        for sid in range(5):
            open_flow(
                txfab, rxfab, tx_mux, rx_mux, sid, range(10), sinks,
            )
        # Produce everything into the socket, then kill consumer 2
        # before a single frame is pumped: all of its traffic is now
        # in-flight frames for a dead stream.
        for _ in range(50):
            txfab.run(max_steps=txfab.scheduler.steps + 2000)
            if txfab.completed:
                break
        rxfab.close_session("rx2")
        rx_mux.close_stream(2)
        for _ in range(200):
            rx_mux.pump()
            tx_mux.pump()
            rxfab.run(max_steps=rxfab.scheduler.steps + 2000)
            if rxfab.completed:
                break
        assert rxfab.completed
        assert rx_mux.stats["unknown_stream_drops"] > 0
        for sid in (0, 1, 3, 4):
            assert sinks[sid].items == list(range(10))

    def test_producer_thread_crash_leaves_others_running(self):
        """A tenant's pump dying mid-flow (injected fault) must not stall
        the fabric: its session closes dirty, the rest complete."""
        tx_link, rx_link = SocketLink.pair(bufsize=1 << 22)
        tx_mux, rx_mux = StreamMux(tx_link), StreamMux(rx_link)
        scheduler = Scheduler(
            clock=VirtualClock(), on_thread_error="collect"
        )
        txfab = SessionFabric(scheduler=scheduler)
        rxfab = SessionFabric()
        sinks = {}
        for sid in range(4):
            open_flow(
                txfab, rxfab, tx_mux, rx_mux, sid, range(30), sinks,
            )
        victim = txfab.sessions["tx1"]
        txfab.run(max_steps=scheduler.steps + 50)
        pump_thread = next(
            name for name in victim.thread_names if name.startswith("pump:")
        )
        assert scheduler.inject_crash(pump_thread)
        txfab.close_session("tx1")  # a crashed tenant detaches like any
        rxfab.close_session("rx1")
        rx_mux.close_stream(1)
        for _ in range(200):
            txfab.run(max_steps=scheduler.steps + 2000)
            tx_mux.pump()
            rx_mux.pump()
            rxfab.run(max_steps=rxfab.scheduler.steps + 2000)
            if rxfab.completed:
                break
        assert rxfab.completed
        assert scheduler.errors and scheduler.errors[0][0] == pump_thread
        for sid in (0, 2, 3):
            assert sinks[sid].items == list(range(30))

    def test_shared_link_flap_delays_but_loses_nothing(self):
        """Flap the shared link: while 'down' the wrapper buffers wire
        frames (a partitioned stream socket delays, it does not drop);
        on 'up' they replay in order.  Every tenant completes."""

        class FlappyLink:
            def __init__(self, inner):
                self.inner = inner
                self.down = False
                self._held = []

            def send_frame(self, payload):
                if self.down:
                    self._held.append(bytes(payload))
                else:
                    self.inner.send_frame(payload)

            def send_eos(self):
                self.inner.send_eos()

            def bring_up(self):
                self.down = False
                held, self._held = self._held, []
                for payload in held:
                    self.inner.send_frame(payload)

            def __getattr__(self, name):
                return getattr(self.inner, name)

        tx_link, rx_link = SocketLink.pair(bufsize=1 << 22)
        flappy = FlappyLink(tx_link)
        tx_mux, rx_mux = StreamMux(flappy), StreamMux(rx_link)
        txfab, rxfab = SessionFabric(), SessionFabric()
        sinks = {}
        for sid in range(5):
            open_flow(
                txfab, rxfab, tx_mux, rx_mux, sid, range(10), sinks,
            )
        txfab.run(max_steps=txfab.scheduler.steps + 100)
        flappy.down = True
        for _ in range(20):
            txfab.run(max_steps=txfab.scheduler.steps + 2000)
            tx_mux.pump()  # credits still flow back (reverse direction)
            rx_mux.pump()
            rxfab.run(max_steps=rxfab.scheduler.steps + 2000)
        held_while_down = len(flappy._held)
        assert held_while_down > 0  # the flap actually bit
        flappy.bring_up()
        assert drive(txfab, rxfab, tx_mux, rx_mux)
        for sid in range(5):
            assert sinks[sid].items == list(range(10))


class TestExplorer:
    def test_fabric_run_survives_schedule_exploration(self):
        """repro.check's explorer perturbs dispatch choices on a
        fabric-hosted multi-tenant run: every interleaving must deliver
        every tenant's items in order (InProcessLink keeps the whole
        two-fabric flow inside ONE scheduler, so choices cover it all)."""
        from repro.check import explore

        def build():
            forward = InProcessLink("a", "b", "fabric")
            reverse = InProcessLink("b", "a", "fabric-back")
            left = StreamMux(forward, inbound=reverse)
            right = StreamMux(reverse, inbound=forward)
            fabric = SessionFabric()
            fabric.sinks = {}
            for sid in range(3):
                t_stream = left.open_stream(sid, credits=4)
                r_stream = right.open_stream(sid, credits=4)

                def build_tx(stream=t_stream, sid=sid):
                    sender, _ = make_netpipe_over(stream)
                    return pipeline(
                        IterSource(range(sid, sid + 6)),
                        MarshalFilter(), GreedyPump(), sender,
                    )

                def build_rx(stream=r_stream, sid=sid):
                    _, receiver = make_netpipe_over(stream)
                    sink = CollectSink(name="sink")
                    fabric.sinks[sid] = sink
                    return pipeline(
                        receiver, UnmarshalFilter(), GreedyPump(), sink,
                    )

                fabric.open_session(build_tx, name=f"tx{sid}")
                fabric.open_session(build_rx, name=f"rx{sid}")
            return fabric

        def check(fabric):
            for sid, sink in fabric.sinks.items():
                assert sink.items == list(range(sid, sid + 6)), (
                    f"tenant {sid} saw {sink.items}"
                )

        result = explore(build, seeds=12, check=check)
        result.raise_if_failed()
        assert result.distinct_interleavings > 1


class TestCreditWindow:
    @pytest.mark.parametrize("batch", [1, 8])
    def test_traced_session_over_a_credited_stream_completes(self, batch):
        """A traced frame carries a trace-context trailer the receiving
        gate strips before queueing.  The window counts the data items
        the sender states, not the frame's chunks — else every traced
        frame leaks a credit and the stream wedges (60 ints over a window
        of 4: 3 delivered, 58 pending, forever)."""
        from repro.api import Pipeline

        tx_link, rx_link = SocketLink.pair(bufsize=1 << 22)
        tx_mux, rx_mux = StreamMux(tx_link), StreamMux(rx_link)
        txfab, rxfab = SessionFabric(), SessionFabric()
        t_stream = tx_mux.open_stream(1, credits=4)
        r_stream = rx_mux.open_stream(1, credits=4)
        sink = CollectSink(name="sink")

        def build_tx():
            sender, _ = make_netpipe_over(t_stream)
            return pipeline(
                IterSource(range(60)), MarshalFilter(), GreedyPump(), sender
            )

        def build_rx():
            _, receiver = make_netpipe_over(r_stream)
            return pipeline(receiver, UnmarshalFilter(), GreedyPump(), sink)

        def traced(build):
            spec = Pipeline.of(build).with_tracing(sample_every=1)
            return spec.with_batching(batch) if batch > 1 else spec

        txfab.open_session(traced(build_tx), name="tx")
        rxfab.open_session(traced(build_rx), name="rx")
        assert drive(txfab, rxfab, tx_mux, rx_mux, rounds=100)
        assert sink.items == list(range(60))
        tx_mux.pump()  # the grants for the last items
        assert not t_stream.pending
        assert t_stream.credits == 4 and r_stream._to_grant == 0

    @pytest.mark.parametrize("quantum", [1, 8])
    @pytest.mark.parametrize("window", [1, 4, 8])
    def test_liveness_and_conservation_under_exploration_and_flap(
        self, window, quantum
    ):
        """Every explored interleaving of a fabric whose shared link
        flaps mid-flow: each stream completes in order with its EOS last,
        and at quiescence the window is whole again — what the sender
        may still send plus what the receiver has yet to grant."""
        from repro.check import explore

        tenants, count = 4, 11

        class FlappyLink:
            """Down from its second train on: that one and all behind
            it are held, and replay in order when a timer brings it up."""

            def __init__(self, inner, scheduler):
                self.inner, self.scheduler = inner, scheduler
                self.trains, self.down, self.held = 0, False, []
                self.delayed = 0

            def send_frame(self, payload):
                self.trains += 1
                if self.trains == 2:
                    self.down = True
                    self.scheduler.after(0.25, self.bring_up)
                if self.down:
                    self.delayed += 1
                    self.held.append(bytes(payload))
                else:
                    self.inner.send_frame(payload)

            def bring_up(self):
                self.down = False
                held, self.held = self.held, []
                for payload in held:
                    self.inner.send_frame(payload)

            def __getattr__(self, name):
                return getattr(self.inner, name)

        def build():
            fabric = SessionFabric(quantum=quantum)
            forward = InProcessLink("a", "b", "fabric")
            reverse = InProcessLink("b", "a", "fabric-back")
            fabric.flappy = FlappyLink(forward, fabric.scheduler)
            fabric.left = StreamMux(fabric.flappy, inbound=reverse)
            fabric.right = StreamMux(reverse, inbound=forward)
            fabric.sinks = {}
            for sid in range(tenants):
                open_flow(
                    fabric, fabric, fabric.left, fabric.right, sid,
                    range(sid, sid + count), fabric.sinks, credits=window,
                )
            return fabric

        def check(fabric):
            assert fabric.flappy.delayed and not fabric.flappy.held
            for sid, sink in fabric.sinks.items():
                assert sink.items == list(range(sid, sid + count)), (
                    f"tenant {sid} saw {sink.items}"
                )
                sender = fabric.left.streams[sid]
                receiver = fabric.right.streams[sid]
                assert sender.eos_sent and receiver.eos_received
                assert not sender.pending
                assert sender.credits + receiver._to_grant == window
            assert not fabric.left._train and not fabric.right._train

        result = explore(build, seeds=12, check=check)
        result.raise_if_failed()
        assert result.distinct_interleavings > 1
