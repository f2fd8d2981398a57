"""Unit tests for the two coroutine backends."""

import pytest

from repro.errors import RuntimeFault
from repro.mbt import (
    Done,
    GeneratorSuspendable,
    OSThreadSuspendable,
)
from repro.mbt.coroutine import CoroutineKilled


# ------------------------------------------------------------ generator


def test_generator_backend_round_trip():
    def body():
        got = yield "first-request"
        got2 = yield ("second", got)
        return got2 + 1

    susp = GeneratorSuspendable(body())
    assert susp.resume() == "first-request"
    assert susp.resume("answer") == ("second", "answer")
    outcome = susp.resume(41)
    assert isinstance(outcome, Done)
    assert outcome.result == 42
    assert susp.finished


def test_generator_backend_resume_after_done_raises():
    def body():
        return 1
        yield  # pragma: no cover

    susp = GeneratorSuspendable(body())
    assert isinstance(susp.resume(), Done)
    with pytest.raises(RuntimeFault):
        susp.resume()


def test_generator_backend_throw_reaches_body():
    caught = []

    def body():
        try:
            yield "req"
        except ValueError as exc:
            caught.append(str(exc))
        return "done"

    susp = GeneratorSuspendable(body())
    susp.resume()
    outcome = susp.throw(ValueError("injected"))
    assert caught == ["injected"]
    assert isinstance(outcome, Done) and outcome.result == "done"


def test_generator_backend_close_is_idempotent():
    unwound = []

    def body():
        try:
            yield "req"
        finally:
            unwound.append("body")

    susp = GeneratorSuspendable(body())
    susp.resume()
    susp.close()
    assert unwound == ["body"]  # close unwinds the suspended body
    susp.close()
    assert susp.finished and unwound == ["body"]


# ------------------------------------------------------------ OS thread


def test_os_thread_backend_round_trip():
    def body(channel):
        got = channel.call("first-request")
        got2 = channel.call(("second", got))
        return got2 + 1

    susp = OSThreadSuspendable(body)
    assert susp.resume() == "first-request"
    assert susp.resume("answer") == ("second", "answer")
    outcome = susp.resume(41)
    assert isinstance(outcome, Done)
    assert outcome.result == 42
    assert susp.finished


def test_os_thread_backend_exception_propagates_to_controller():
    def body(channel):
        channel.call("req")
        raise ValueError("body failed")

    susp = OSThreadSuspendable(body)
    susp.resume()
    with pytest.raises(ValueError, match="body failed"):
        susp.resume(None)
    assert susp.finished


def test_os_thread_backend_throw_reaches_blocking_call():
    caught = []

    def body(channel):
        try:
            channel.call("req")
        except ValueError as exc:
            caught.append(str(exc))
        return "recovered"

    susp = OSThreadSuspendable(body)
    susp.resume()
    outcome = susp.throw(ValueError("injected"))
    assert caught == ["injected"]
    assert isinstance(outcome, Done) and outcome.result == "recovered"


def test_os_thread_backend_close_unwinds_blocked_body():
    progressed = []

    def body(channel):
        channel.call("req")
        progressed.append("past")  # must never run

    susp = OSThreadSuspendable(body)
    susp.resume()
    susp.close()
    assert progressed == []
    assert susp.finished


def test_os_thread_close_before_start_is_safe():
    susp = OSThreadSuspendable(lambda channel: None)
    susp.close()
    assert susp.finished


def test_coroutine_killed_is_not_swallowed_by_except_exception():
    reached = []

    def body(channel):
        try:
            channel.call("req")
        except Exception:  # typical sloppy component code
            reached.append("swallowed")
        reached.append("past")

    susp = OSThreadSuspendable(body)
    susp.resume()
    susp.close()
    assert reached == []


def test_backends_are_interchangeable():
    """The same logical component body yields identical request traces."""

    def gen_body():
        a = yield "pull"
        b = yield "pull"
        yield ("push", a + b)
        return None

    def thread_body(channel):
        a = channel.call("pull")
        b = channel.call("pull")
        channel.call(("push", a + b))

    for susp in (
        GeneratorSuspendable(gen_body()),
        OSThreadSuspendable(thread_body),
    ):
        trace = []
        request = susp.resume()
        inputs = iter([10, 32, None])
        while not isinstance(request, Done):
            trace.append(request)
            request = susp.resume(next(inputs))
        assert trace == ["pull", "pull", ("push", 42)]
