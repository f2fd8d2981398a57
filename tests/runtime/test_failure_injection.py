"""Failure injection: errors raised inside components must surface loudly
— a crash raises out of ``run()``, recorded in ``scheduler.errors``, and
the next ``run()`` goes on with the other threads — never silently
corrupt the flow."""

import pytest

from repro import (
    ActiveComponent,
    Buffer,
    CollectSink,
    Consumer,
    Engine,
    GreedyPump,
    IterSource,
    MapFilter,
    Producer,
    pipeline,
)
from repro.errors import SchedulerError


class FailingConvert(MapFilter):
    def __init__(self, fail_at: int):
        self._count = 0
        self._fail_at = fail_at

        def fn(item):
            self._count += 1
            if self._count == self._fail_at:
                raise ValueError("injected convert failure")
            return item

        super().__init__(fn)


class TestDirectStageFailures:
    def test_function_failure_raises_scheduler_error(self):
        pipe = pipeline(
            IterSource(range(10)), GreedyPump(), FailingConvert(3),
            CollectSink(),
        )
        engine = Engine(pipe)
        engine.start()
        with pytest.raises(SchedulerError) as exc:
            engine.run()
        assert isinstance(exc.value.__cause__, ValueError)

    def test_collect_mode_keeps_other_sections_alive(self):
        from repro import Buffer

        sink = CollectSink()
        pipe = pipeline(
            IterSource(range(10)), GreedyPump(), FailingConvert(3),
            Buffer(capacity=4), GreedyPump(), sink,
        )
        engine = Engine(pipe)
        engine.start()
        with pytest.raises(SchedulerError):
            engine.run(max_steps=100_000)
        engine.run(max_steps=100_000)
        # The first section crashed after two good items; the second
        # section still drained what made it into the buffer.
        assert sink.items == [0, 1]
        assert len(engine.scheduler.errors) == 1

    def test_consumer_failure_in_push_mode(self):
        class Fragile(Consumer):
            def push(self, item):
                if item == 2:
                    raise RuntimeError("fragile")
                self.put(item)

        pipe = pipeline(
            IterSource(range(5)), GreedyPump(), Fragile(), CollectSink()
        )
        engine = Engine(pipe)
        engine.start()
        with pytest.raises(SchedulerError):
            engine.run()


class TestGoingOnAfterACrash:
    """``run_to_completion`` starts an engine only if it was not started
    since its last ``stop()``: going on after a crash broadcasts no START
    into the crashed section (4 dead letters when every call did)."""

    def crashing_engine(self):
        return Engine(pipeline(
            IterSource(range(10)), GreedyPump(), FailingConvert(3),
            Buffer(4), GreedyPump(), CollectSink(),
        ))

    @pytest.mark.parametrize("verb", ["run", "run_to_completion"])
    def test_going_on_posts_no_dead_letter(self, verb):
        engine = self.crashing_engine()
        with pytest.raises(SchedulerError):
            engine.run_to_completion()
        {"run": engine.run, "run_to_completion": engine.run_to_completion}[
            verb]()
        assert list(engine.scheduler.dead_letters) == []
        assert engine.pipeline.components[-1].items == [0, 1]

    def test_only_a_stopped_engine_is_started_again(self, monkeypatch):
        engine = self.crashing_engine()
        starts = []
        start = engine.start
        monkeypatch.setattr(
            engine, "start", lambda: starts.append(1) or start())
        with pytest.raises(SchedulerError):
            engine.run_to_completion()
        engine.run_to_completion()
        assert len(starts) == 1
        engine.stop()
        engine.run_to_completion()
        assert len(starts) == 2


class TestCoroutineFailures:
    def test_active_body_failure_crashes_its_thread(self):
        class Exploding(ActiveComponent):
            def run(self):
                item = yield self.pull()
                yield self.push(item)
                raise RuntimeError("boom in coroutine")

        pipe = pipeline(
            IterSource(range(5)), GreedyPump(), Exploding(), CollectSink()
        )
        engine = Engine(pipe)
        engine.start()
        with pytest.raises(SchedulerError):
            engine.run(max_steps=100_000)
        engine.run(max_steps=100_000)
        names = [name for name, _ in engine.scheduler.errors]
        assert any(name.startswith("coro:") for name in names)

    def test_wrapped_producer_failure(self):
        class BadPull(Producer):
            def pull(self):
                value = self.get()
                if value == 1:
                    raise RuntimeError("pull failed")
                return value

        # producer in push mode -> runs under the Figure-7 wrapper
        pipe = pipeline(
            IterSource(range(5)), GreedyPump(), BadPull(), CollectSink()
        )
        engine = Engine(pipe)
        engine.start()
        with pytest.raises(SchedulerError):
            engine.run()

    def test_thread_backend_failure_propagates(self):
        class ExplodingBlocking(ActiveComponent):
            def run_blocking(self, api):
                api.push(api.pull())
                raise RuntimeError("boom on OS thread")

        pipe = pipeline(
            IterSource(range(5)), GreedyPump(), ExplodingBlocking(),
            CollectSink(),
        )
        engine = Engine(pipe, backend="thread")
        engine.start()
        with pytest.raises(SchedulerError):
            engine.run()


class TestSourceSinkFailures:
    def test_source_failure(self):
        def bad_producer():
            raise IOError("disk on fire")

        from repro import CallbackSource

        pipe = pipeline(
            CallbackSource(bad_producer), GreedyPump(), CollectSink()
        )
        engine = Engine(pipe)
        engine.start()
        with pytest.raises(SchedulerError) as exc:
            engine.run()
        assert isinstance(exc.value.__cause__, IOError)

    def test_sink_failure(self):
        from repro import CallbackSink

        def bad_consumer(item):
            raise IOError("display unplugged")

        pipe = pipeline(
            IterSource([1]), GreedyPump(), CallbackSink(bad_consumer)
        )
        engine = Engine(pipe)
        engine.start()
        with pytest.raises(SchedulerError):
            engine.run()

    def test_event_handler_failure(self):
        class BadHandler(MapFilter):
            events_handled = frozenset({"poke"})

            def on_poke(self, event):
                raise RuntimeError("handler blew up")

        pipe = pipeline(
            IterSource([1]), GreedyPump(), BadHandler(lambda x: x),
            CollectSink(),
        )
        engine = Engine(pipe)
        engine.setup()
        engine.send_event("poke")
        with pytest.raises(SchedulerError):
            engine.run()


class TestPartialProgressIsVisible:
    def test_items_before_the_failure_were_delivered(self):
        sink = CollectSink()
        pipe = pipeline(
            IterSource(range(10)), GreedyPump(), FailingConvert(4), sink
        )
        engine = Engine(pipe)
        engine.start()
        with pytest.raises(SchedulerError):
            engine.run(max_steps=100_000)
        engine.run(max_steps=100_000)
        assert sink.items == [0, 1, 2]
