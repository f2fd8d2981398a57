"""Unit tests for the user-level thread scheduler."""

import pytest

from repro.errors import SchedulerError
from repro.mbt import (
    CONTINUE,
    TERMINATE,
    Call,
    Constraint,
    Message,
    Receive,
    Reply,
    Scheduler,
    Send,
    Sleep,
    VirtualClock,
    WaitUntil,
    Work,
    Yield,
)
from repro.mbt.syscalls import TIMED_OUT


def make_scheduler(**kwargs):
    return Scheduler(clock=VirtualClock(), **kwargs)


# ---------------------------------------------------------------- basics


def test_plain_code_function_runs_per_message():
    sched = make_scheduler()
    seen = []

    def code(thread, msg):
        seen.append(msg.payload)
        return CONTINUE

    sched.spawn("t", code)
    for i in range(3):
        sched.post(Message(kind="data", payload=i, target="t"))
    sched.run_until_idle()
    assert seen == [0, 1, 2]


def test_code_function_not_called_at_creation():
    sched = make_scheduler()
    called = []
    sched.spawn("t", lambda th, m: called.append(1) or CONTINUE)
    sched.run_until_idle()
    assert called == []


def test_terminate_return_code_stops_thread():
    sched = make_scheduler()
    seen = []

    def code(thread, msg):
        seen.append(msg.payload)
        return TERMINATE if msg.payload == "stop" else CONTINUE

    sched.spawn("t", code)
    sched.post(Message(kind="d", payload="a", target="t"))
    sched.post(Message(kind="d", payload="stop", target="t"))
    sched.post(Message(kind="d", payload="after", target="t"))
    sched.run_until_idle()
    assert seen == ["a", "stop"]
    assert sched.threads["t"].terminated


def test_thread_local_state_persists_between_messages():
    sched = make_scheduler()

    def code(thread, msg):
        thread.local["count"] = thread.local.get("count", 0) + 1
        return CONTINUE

    sched.spawn("t", code)
    for _ in range(5):
        sched.post(Message(kind="d", target="t"))
    sched.run_until_idle()
    assert sched.threads["t"].local["count"] == 5


def test_message_to_unknown_thread_goes_to_dead_letters():
    sched = make_scheduler()
    sched.post(Message(kind="d", target="ghost"))
    sched.run_until_idle()
    assert len(sched.dead_letters) == 1
    assert sched.dead_letters[0].target == "ghost"


def test_dead_letter_queue_is_bounded_and_counts_drops():
    sched = make_scheduler(dead_letter_limit=3)
    for i in range(5):
        sched.post(Message(kind=f"d{i}", target="ghost"))
    # Oldest letters are evicted; every eviction is counted.
    assert len(sched.dead_letters) == 3
    assert [m.kind for m in sched.dead_letters] == ["d2", "d3", "d4"]
    assert sched.dead_letters_dropped == 2


def test_dead_letter_queue_unbounded_when_limit_none():
    sched = make_scheduler(dead_letter_limit=None)
    for i in range(5):
        sched.post(Message(kind=f"d{i}", target="ghost"))
    assert len(sched.dead_letters) == 5
    assert sched.dead_letters_dropped == 0


def test_duplicate_thread_name_rejected():
    sched = make_scheduler()
    sched.spawn("t", lambda th, m: CONTINUE)
    with pytest.raises(SchedulerError):
        sched.spawn("t", lambda th, m: CONTINUE)


def test_invalid_return_code_crashes_thread():
    sched = make_scheduler()
    sched.spawn("t", lambda th, m: 42)
    sched.post(Message(kind="d", target="t"))
    with pytest.raises(SchedulerError):
        sched.run_until_idle()


# ---------------------------------------------------- generators & syscalls


def test_generator_code_function_send_and_receive():
    sched = make_scheduler()
    log = []

    def producer(thread, msg):
        yield Send(Message(kind="data", payload="x", target="consumer"))
        return CONTINUE

    def consumer(thread, msg):
        log.append(("got", msg.payload))
        return CONTINUE

    sched.spawn("producer", producer)
    sched.spawn("consumer", consumer)
    sched.post(Message(kind="go", target="producer"))
    sched.run_until_idle()
    assert log == [("got", "x")]


def test_receive_suspends_until_second_message():
    sched = make_scheduler()
    log = []

    def pairer(thread, msg):
        second = yield Receive()
        log.append((msg.payload, second.payload))
        return CONTINUE

    sched.spawn("t", pairer)
    sched.post(Message(kind="d", payload=1, target="t"))
    sched.post(Message(kind="d", payload=2, target="t"))
    sched.post(Message(kind="d", payload=3, target="t"))
    sched.post(Message(kind="d", payload=4, target="t"))
    sched.run_until_idle()
    assert log == [(1, 2), (3, 4)]


def test_selective_receive_leaves_other_messages_queued():
    sched = make_scheduler()
    log = []

    def code(thread, msg):
        if msg.kind == "start":
            special = yield Receive(match=lambda m: m.kind == "special")
            log.append(special.payload)
        else:
            log.append(("plain", msg.kind, msg.payload))
        return CONTINUE

    sched.spawn("t", code)
    sched.post(Message(kind="start", target="t"))
    sched.post(Message(kind="noise", payload=1, target="t"))
    sched.post(Message(kind="special", payload="hit", target="t"))
    sched.run_until_idle()
    assert log[0] == "hit"
    assert ("plain", "noise", 1) in log


def test_receive_timeout_resumes_with_sentinel():
    sched = make_scheduler()
    outcome = []

    def code(thread, msg):
        result = yield Receive(match=lambda m: m.kind == "never", timeout=0.5)
        outcome.append(result)
        return CONTINUE

    sched.spawn("t", code)
    sched.post(Message(kind="go", target="t"))
    sched.run_until_idle()
    assert outcome == [TIMED_OUT]
    assert sched.now() == pytest.approx(0.5)


def test_call_and_reply_round_trip():
    sched = make_scheduler()
    result = []

    def server(thread, msg):
        yield Reply(msg, payload=msg.payload * 2)
        return CONTINUE

    def client(thread, msg):
        reply = yield Call("server", "double", payload=21)
        result.append(reply.payload)
        return CONTINUE

    sched.spawn("server", server)
    sched.spawn("client", client)
    sched.post(Message(kind="go", target="client"))
    sched.run_until_idle()
    assert result == [42]


def test_sleep_advances_virtual_time():
    sched = make_scheduler()
    times = []

    def code(thread, msg):
        times.append(sched.now())
        yield Sleep(2.5)
        times.append(sched.now())
        return CONTINUE

    sched.spawn("t", code)
    sched.post(Message(kind="go", target="t"))
    sched.run_until_idle()
    assert times[0] == pytest.approx(0.0)
    assert times[1] == pytest.approx(2.5)


def test_wait_until_in_the_past_continues_immediately():
    sched = make_scheduler()
    done = []

    def code(thread, msg):
        yield WaitUntil(-1.0)
        done.append(sched.now())
        return CONTINUE

    sched.spawn("t", code)
    sched.post(Message(kind="go", target="t"))
    sched.run_until_idle()
    assert done == [0.0]


def test_work_consumes_virtual_cpu_time():
    sched = make_scheduler()

    def code(thread, msg):
        yield Work(0.1)
        yield Work(0.2)
        return CONTINUE

    sched.spawn("t", code)
    sched.post(Message(kind="go", target="t"))
    sched.run_until_idle()
    assert sched.now() == pytest.approx(0.3)


def test_exception_in_code_function_raises_scheduler_error():
    sched = make_scheduler()

    def code(thread, msg):
        raise ValueError("boom")

    sched.spawn("t", code)
    sched.post(Message(kind="go", target="t"))
    with pytest.raises(SchedulerError):
        sched.run_until_idle()
    assert isinstance(sched.threads["t"].crashed, ValueError)


def test_a_crash_raises_and_the_next_run_goes_on():
    sched = make_scheduler()

    def bad(thread, msg):
        raise ValueError("boom")

    sched.spawn("bad", bad)
    ok = []
    sched.spawn("ok", lambda th, m: ok.append(m.payload) or CONTINUE)
    sched.post(Message(kind="go", target="bad"))
    sched.post(Message(kind="go", payload="fine", target="ok"))
    with pytest.raises(SchedulerError):
        sched.run_until_idle()
    sched.run_until_idle()
    assert ok == ["fine"]
    assert len(sched.errors) == 1 and sched.errors[0][0] == "bad"


# ---------------------------------------------------- priorities & preemption


def test_higher_static_priority_runs_first():
    sched = make_scheduler()
    order = []
    sched.spawn("low", lambda th, m: order.append("low") or CONTINUE, priority=1)
    sched.spawn("high", lambda th, m: order.append("high") or CONTINUE, priority=9)
    sched.post(Message(kind="go", target="low"))
    sched.post(Message(kind="go", target="high"))
    sched.run_until_idle()
    assert order == ["high", "low"]


def test_message_constraint_overrides_static_priority():
    sched = make_scheduler()
    order = []
    sched.spawn("a", lambda th, m: order.append("a") or CONTINUE, priority=5)
    sched.spawn("b", lambda th, m: order.append("b") or CONTINUE, priority=1)
    sched.post(Message(kind="go", target="a"))
    sched.post(
        Message(kind="go", target="b", constraint=Constraint(priority=50))
    )
    sched.run_until_idle()
    assert order == ["b", "a"]


def test_work_is_preempted_by_higher_priority_timer_wakeup():
    """A long decode is interrupted when the audio thread's tick arrives."""
    sched = make_scheduler()
    order = []

    def video(thread, msg):
        order.append(("video-start", sched.now()))
        yield Work(1.0)
        order.append(("video-end", sched.now()))
        return CONTINUE

    def audio(thread, msg):
        order.append(("audio", sched.now()))
        return CONTINUE

    sched.spawn("video", video, priority=1)
    sched.spawn("audio", audio, priority=10)
    sched.post(Message(kind="go", target="video"))
    sched.after(
        0.3,
        lambda: sched.post(Message(kind="tick", target="audio")),
    )
    sched.run_until_idle()
    assert order[0] == ("video-start", pytest.approx(0.0))
    assert order[1] == ("audio", pytest.approx(0.3))
    assert order[2][0] == "video-end"
    assert order[2][1] == pytest.approx(1.0)


def test_work_not_preempted_by_lower_priority_thread():
    sched = make_scheduler()
    order = []

    def worker(thread, msg):
        yield Work(1.0)
        order.append(("worker-done", sched.now()))
        return CONTINUE

    sched.spawn("worker", worker, priority=5)
    sched.spawn(
        "bg", lambda th, m: order.append(("bg", sched.now())) or CONTINUE, priority=1
    )
    sched.post(Message(kind="go", target="worker"))
    sched.after(0.2, lambda: sched.post(Message(kind="go", target="bg")))
    sched.run_until_idle()
    assert order == [
        ("worker-done", pytest.approx(1.0)),
        ("bg", pytest.approx(1.0)),
    ]


def test_priority_inheritance_prevents_inversion():
    """High-priority client calls a low-priority server; a mid-priority
    CPU hog must not run in between (classic priority inversion)."""
    sched = make_scheduler()
    order = []

    def server(thread, msg):
        order.append("server")
        yield Work(0.1)
        yield Reply(msg, payload="ok")
        return CONTINUE

    def client(thread, msg):
        order.append("client-call")
        yield Call("server", "req")
        order.append("client-reply")
        return CONTINUE

    def hog(thread, msg):
        order.append("hog")
        yield Work(0.5)
        return CONTINUE

    sched.spawn("server", server, priority=1)
    sched.spawn("client", client, priority=10)
    sched.spawn("hog", hog, priority=5)
    sched.post(Message(kind="go", target="client"))
    sched.post(Message(kind="go", target="hog"))
    sched.run_until_idle()
    # Without inheritance the hog (prio 5) would run before the server
    # (prio 1) finishes the high-priority client's request.
    assert order.index("client-reply") < order.index("hog")


def test_yield_lets_equal_priority_threads_interleave():
    sched = make_scheduler()
    order = []

    def chatty(name):
        def code(thread, msg):
            for i in range(3):
                order.append((name, i))
                yield Yield()
            return CONTINUE

        return code

    sched.spawn("a", chatty("a"))
    sched.spawn("b", chatty("b"))
    sched.post(Message(kind="go", target="a"))
    sched.post(Message(kind="go", target="b"))
    sched.run_until_idle()
    # Both made progress in interleaved fashion rather than a running fully
    # before b started.
    assert order[0][0] == "a"
    assert ("b", 0) in order[:3]


def test_context_switches_are_counted():
    sched = make_scheduler()
    sched.spawn("a", lambda th, m: CONTINUE)
    sched.spawn("b", lambda th, m: CONTINUE)
    sched.post(Message(kind="go", target="a"))
    sched.post(Message(kind="go", target="b"))
    sched.run_until_idle()
    assert sched.context_switches == 2


# ---------------------------------------------------- timers & reservations


def test_run_until_time_bound_stops_timers():
    sched = make_scheduler()
    ticks = []
    sched.spawn("t", lambda th, m: ticks.append(sched.now()) or CONTINUE)

    def tick(n=[0]):
        ticks_target = sched.post(Message(kind="tick", target="t"))
        del ticks_target
        n[0] += 1
        if n[0] < 100:
            sched.after(1.0, tick)

    sched.after(1.0, tick)
    sched.run(until=3.5)
    assert len(ticks) == 3
    assert sched.now() == pytest.approx(3.5)


def test_timer_cancellation():
    sched = make_scheduler()
    fired = []
    handle = sched.after(1.0, lambda: fired.append(1))
    handle.cancel()
    sched.run_until_idle()
    assert fired == []


def test_reservation_admission_control():
    sched = make_scheduler()
    sched.reserve("pump1", 0.5)
    sched.reserve("pump2", 0.4)
    with pytest.raises(SchedulerError):
        sched.reserve("pump3", 0.2)
    # Re-reserving the same pump replaces its old reservation.
    sched.reserve("pump2", 0.3)
    sched.reserve("pump3", 0.2)
    assert sum(sched.reservations.values()) == pytest.approx(1.0)


def test_released_reservation_frees_its_fraction():
    """§3.1: a pump that goes away gives its share back."""
    sched = make_scheduler()
    sched.reserve("pump1", 0.7)
    with pytest.raises(SchedulerError):
        sched.reserve("pump2", 0.6)
    sched.release_reservation("pump1")
    sched.release_reservation("never-reserved")  # a no-op, not an error
    sched.reserve("pump2", 0.6)
    assert sched.reservations == {"pump2": 0.6}


def test_removed_thread_gives_its_reservation_back():
    """A reservation is named after its thread and goes with it."""
    sched = make_scheduler()
    sched.spawn("pump1", lambda thread, message: CONTINUE)
    sched.reserve("pump1", 0.6)
    sched.remove_thread("pump1")
    assert sched.reservations == {}
    sched.reserve("pump2", 0.6)


def test_trace_records_switches_when_enabled():
    sched = Scheduler(clock=VirtualClock(), trace=True)
    sched.spawn("t", lambda th, m: CONTINUE)
    sched.post(Message(kind="go", target="t"))
    sched.run_until_idle()
    switches = sched.trace_events("switch")
    assert len(switches) == 1
    assert switches[0][3] == "t"


# ---------------------------------------------------- before-idle callbacks


def test_before_idle_is_refused_outside_run():
    sched = make_scheduler()
    fired = []
    assert sched.before_idle(lambda: fired.append(1)) is False
    sched.run_until_idle()
    assert fired == []  # refused means not registered: the caller acted


def test_before_idle_fires_once_before_the_scheduler_waits():
    """Registered during a dispatch; fires when nothing is ready, before
    timers are consulted or the clock moves — and only once."""
    sched = make_scheduler()
    log = []

    def code(thread, msg):
        log.append(("step", msg.payload))
        if msg.payload == "a":
            assert sched.before_idle(lambda: log.append(("idle", sched.now())))
        return CONTINUE

    sched.spawn("t", code)
    sched.post(Message(kind="go", target="t", payload="a"))
    sched.post(Message(kind="go", target="t", payload="b"))
    sched.after(5.0, lambda: sched.post(
        Message(kind="go", target="t", payload="late")
    ))
    sched.run_until_idle()
    assert log == [
        ("step", "a"), ("step", "b"), ("idle", 0.0), ("step", "late"),
    ]


def test_before_idle_callback_may_ready_a_thread_and_register_again():
    sched = make_scheduler()
    log = []

    def code(thread, msg):
        log.append(msg.payload)
        return CONTINUE

    sched.spawn("t", code)

    def second():
        log.append("second")

    def first():
        log.append("first")
        sched.post(Message(kind="go", target="t", payload="woken"))
        assert sched.before_idle(second)

    sched.after(0.0, lambda: sched.before_idle(first))
    sched.run_until_idle()
    # The woken thread ran before run() went on to wait (or return), and
    # the callback registered from inside a callback had its own pass.
    assert log == ["first", "woken", "second"]


@pytest.mark.parametrize("exit_by", ["quiescence", "max_steps", "until", "error"])
def test_before_idle_fires_on_every_way_out_of_run(exit_by):
    sched = make_scheduler()
    registered, fired = [], []

    def code(thread, msg):
        registered.append(sched.before_idle(lambda: fired.append(msg.payload)))
        if exit_by == "error":
            raise ValueError("boom")
        if exit_by == "until":
            yield Work(2.0)
        return CONTINUE

    sched.spawn("t", code)
    sched.post(Message(kind="go", target="t", payload=1))
    sched.post(Message(kind="go", target="t", payload=2))
    if exit_by == "error":
        with pytest.raises(SchedulerError):
            sched.run()
    else:
        sched.run(
            max_steps=1 if exit_by == "max_steps" else None,
            until=1.0 if exit_by == "until" else None,
        )
    # Whatever a dispatch registered has fired by the time run() is back.
    assert registered == [True] * len(fired)
    assert fired == ([1, 2] if exit_by == "quiescence" else [1])
    assert sched.before_idle(lambda: None) is False


def test_before_idle_at_a_bounded_exit_cannot_register_again():
    """Leaving by a bound, run() is over when the callbacks fire: one
    that would hold something again is refused and must act at once."""
    sched = make_scheduler()
    answers = []

    def code(thread, msg):
        sched.before_idle(
            lambda: answers.append(sched.before_idle(lambda: None))
        )
        return CONTINUE

    sched.spawn("t", code)
    sched.post(Message(kind="go", target="t"))
    sched.post(Message(kind="go", target="t"))
    sched.run(max_steps=1)
    assert answers == [False]


def test_before_idle_callback_that_raises_does_not_stop_the_others():
    sched = make_scheduler()
    fired = []

    def bad():
        fired.append("bad")
        raise OSError("link closed")

    def code(thread, msg):
        sched.before_idle(bad)
        sched.before_idle(lambda: fired.append("good"))
        return CONTINUE

    sched.spawn("t", code)
    sched.post(Message(kind="go", target="t"))
    with pytest.raises(OSError, match="link closed"):
        sched.run()
    assert fired == ["bad", "good"]
    assert sched.before_idle(bad) is False  # run() is over all the same
