"""Unit tests for the generated glue (wrappers, replay, pending emits)."""

import pytest

from repro.core.events import EOS
from repro.core.styles import (
    ActiveComponent,
    Consumer,
    EndOfStream,
    Producer,
    PullOp,
    PushOp,
)
from repro.errors import RuntimeFault
from repro.mbt.coroutine import Done
from repro.runtime.bridge import (
    NeedMoreInput,
    PendingEmits,
    ReplayIntake,
    build_suspendable,
)


class Doubler(Consumer):
    def push(self, item):
        self.put(item)
        self.put(item)


class Pairer(Producer):
    def pull(self):
        return (self.get(), self.get())


class ActiveEcho(ActiveComponent):
    def run(self):
        while True:
            item = yield self.pull()
            yield self.push(item)

    def run_blocking(self, api):
        while True:
            api.push(api.pull())


class TestReplayIntake:
    def test_reads_in_order_and_commits(self):
        replay = ReplayIntake(["in"])
        replay.feed("in", "a")
        replay.feed("in", "b")
        replay.begin()
        assert replay.intake("in") == "a"
        assert replay.intake("in") == "b"
        replay.commit()
        replay.begin()
        with pytest.raises(NeedMoreInput):
            replay.intake("in")

    def test_replay_without_commit_reruns_same_items(self):
        replay = ReplayIntake(["in"])
        replay.feed("in", "a")
        replay.begin()
        assert replay.intake("in") == "a"
        with pytest.raises(NeedMoreInput):
            replay.intake("in")
        # abort; retry sees "a" again
        replay.begin()
        assert replay.intake("in") == "a"

    def test_need_more_input_names_the_port(self):
        replay = ReplayIntake(["in0", "in1"])
        replay.feed("in0", 1)
        replay.begin()
        replay.intake("in0")
        with pytest.raises(NeedMoreInput) as exc:
            replay.intake("in1")
        assert exc.value.port == "in1"

    def test_eos_is_sticky(self):
        replay = ReplayIntake(["in"])
        replay.feed("in", EOS)
        replay.begin()
        with pytest.raises(EndOfStream):
            replay.intake("in")
        replay.begin()
        with pytest.raises(EndOfStream):
            replay.intake("in")

    def test_commit_counts_items_in(self):
        p = Pairer()
        replay = ReplayIntake(["in"])
        replay.install(p)
        replay.feed("in", 1)
        replay.feed("in", 2)
        replay.begin()
        p.pull()
        replay.commit()
        assert p.stats["items_in"] == 2


class TestWrongPort:
    """A ``get()`` on a port the component does not have says so; only a
    component no intake is installed on is "outside a running pipeline"."""

    def test_single_port_closure_names_the_ports_it_reads(self):
        p = Pairer(name="pairer")
        ReplayIntake(["in"]).install(p)
        with pytest.raises(RuntimeFault) as exc:
            p.get("in1")
        assert str(exc.value) == "'pairer': get() on port 'in1': it reads 'in'"

    def test_two_input_producer_names_the_ports_it_reads(self):
        class Zip(Producer):
            def pull(self):
                return (self.get("in"), self.get("side"))

        z = Zip(name="zip")
        z.add_in_port("side")
        replay = ReplayIntake(["in", "side"])
        replay.install(z)
        replay.feed("in", 1)
        replay.feed("side", 2)
        assert z.pull() == (1, 2)
        with pytest.raises(RuntimeFault) as exc:
            z.get("in1")
        assert str(exc.value) == (
            "'zip': get() on port 'in1': it reads 'in', 'side'"
        )

    def test_unbound_component_is_outside_a_running_pipeline(self):
        with pytest.raises(RuntimeFault, match="outside a running pipeline"):
            Pairer().get()
        with pytest.raises(RuntimeFault, match="outside a running pipeline"):
            Pairer().get("in1")


class TestPendingEmits:
    def test_collects_puts_per_port(self):
        d = Doubler()
        pending = PendingEmits()
        pending.install(d)
        d.push(7)
        assert list(pending.drain()) == [("out", 7), ("out", 7)]
        assert len(pending) == 0


class TestBuildSuspendable:
    def test_consumer_pull_wrapper_trace(self):
        """Figure 7b: the wrapper pulls, feeds push, emits results."""
        susp = build_suspendable(Doubler(), "generator")
        assert susp.resume() == PullOp("in")
        request = susp.resume("x")          # push("x") emits twice
        assert request == PushOp("x", "out")
        request = susp.resume(None)
        assert request == PushOp("x", "out")
        assert susp.resume(None) == PullOp("in")
        assert isinstance(susp.resume(EOS), Done)

    def test_producer_push_wrapper_trace(self):
        """Figure 7a: the wrapper runs pull() under replay, pushing each
        result."""
        susp = build_suspendable(Pairer(), "generator")
        assert susp.resume() == PullOp("in")
        assert susp.resume(1) == PullOp("in")   # needs a second item
        request = susp.resume(2)
        assert request == PushOp((1, 2), "out")
        assert susp.resume(None) == PullOp("in")
        assert isinstance(susp.resume(EOS), Done)

    def test_active_generator_body(self):
        susp = build_suspendable(ActiveEcho(), "generator")
        assert susp.resume() == PullOp("in")
        assert susp.resume("a") == PushOp("a", "out")
        assert susp.resume(None) == PullOp("in")

    def test_active_thread_body(self):
        susp = build_suspendable(ActiveEcho(), "thread")
        assert susp.resume() == PullOp("in")
        assert susp.resume("a") == PushOp("a", "out")
        susp.close()

    def test_thread_backend_consumer(self):
        susp = build_suspendable(Doubler(), "thread")
        assert susp.resume() == PullOp("in")
        assert susp.resume("x") == PushOp("x", "out")
        assert susp.resume(None) == PushOp("x", "out")
        assert susp.resume(None) == PullOp("in")
        susp.close()

    def test_thread_backend_producer(self):
        susp = build_suspendable(Pairer(), "thread")
        assert susp.resume() == PullOp("in")
        assert susp.resume(1) == PullOp("in")
        assert susp.resume(2) == PushOp((1, 2), "out")
        susp.close()

    def test_generator_backend_falls_back_to_blocking_body(self):
        class BlockingOnly(ActiveComponent):
            def run_blocking(self, api):
                api.push(api.pull())

        susp = build_suspendable(BlockingOnly(), "generator")
        assert susp.resume() == PullOp("in")
        susp.close()

    def test_unknown_backend_rejected(self):
        with pytest.raises(RuntimeFault):
            build_suspendable(ActiveEcho(), "asyncio")

    def test_function_component_never_gets_suspendable(self):
        from repro import MapFilter

        with pytest.raises(RuntimeFault):
            build_suspendable(MapFilter(lambda x: x), "generator")
