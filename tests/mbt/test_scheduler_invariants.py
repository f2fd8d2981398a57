"""Model-based invariants of the indexed ready queue.

The scheduler keeps a lazily-invalidated heap of ready threads; the
original O(n) linear scan survives as ``_pick_ready_linear`` /
``_exists_more_urgent_ready_linear`` precisely so this test can hold the
two implementations against each other: under randomized workloads mixing
static priorities, constrained messages, selective receives, timer posts
and preemptible simulated work, every dispatch decision and every
preemption check must agree with the reference scan.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mbt import Constraint, Message, Scheduler, VirtualClock
from repro.mbt.syscalls import CONTINUE, Receive, Send, Work

N_WORKERS = 3


class CheckedScheduler(Scheduler):
    """Asserts heap/linear agreement at every scheduling decision."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.pick_checks = 0
        self.preempt_checks = 0

    def _run_thread(self, thread):
        assert self._pick_ready() is self._pick_ready_linear(), (
            "indexed ready queue and linear scan disagree on the next thread"
        )
        self.pick_checks += 1
        super()._run_thread(thread)

    def _exists_more_urgent_ready(self, current):
        # Asked at every syscall's preemption point and whenever a timer
        # fires mid-Work.
        fast = super()._exists_more_urgent_ready(current)
        slow = self._exists_more_urgent_ready_linear(current)
        assert fast == slow, (
            "indexed ready queue and linear scan disagree on preemption"
        )
        self.preempt_checks += 1
        return fast


def _constraint(priority):
    return None if priority is None else Constraint(priority=priority)


def worker(thread, message):
    """A code function whose behaviour is scripted by the message payload."""
    for action in message.payload or ():
        op = action[0]
        if op == "work":
            yield Work(action[1])
        elif op == "send":
            yield Send(
                Message(
                    kind="job",
                    target=f"w{action[1]}",
                    payload=[],
                    constraint=_constraint(action[2]),
                )
            )
        elif op == "recv":
            # Selective: jobs stay queued until a timer's wake arrives (or
            # never does, and the thread stays blocked).
            yield Receive(match=lambda m: m.kind == "wake")
    return CONTINUE


_worker_index = st.integers(min_value=0, max_value=N_WORKERS - 1)
_priority = st.one_of(st.none(), st.integers(min_value=0, max_value=9))

_actions = st.lists(
    st.one_of(
        st.tuples(
            st.just("work"),
            st.floats(min_value=0.001, max_value=0.05, allow_nan=False),
        ),
        st.tuples(st.just("send"), _worker_index, _priority),
        st.tuples(st.just("recv")),
    ),
    max_size=4,
)

_jobs = st.lists(
    st.tuples(_worker_index, _priority, _actions),
    min_size=1,
    max_size=8,
)

#: ``(delay, target, priority)``: a timer that posts a ``wake`` message.
_timers = st.lists(
    st.tuples(
        st.floats(min_value=0.001, max_value=0.2, allow_nan=False),
        _worker_index,
        _priority,
    ),
    max_size=6,
)

_priorities = st.tuples(
    *[st.integers(min_value=0, max_value=9) for _ in range(N_WORKERS)]
)


@settings(max_examples=60, deadline=None)
@given(priorities=_priorities, jobs=_jobs, timers=_timers)
def test_heap_matches_linear_scan_under_random_workloads(
    priorities, jobs, timers
):
    sched = CheckedScheduler(clock=VirtualClock())
    for i in range(N_WORKERS):
        sched.spawn(f"w{i}", worker, priority=priorities[i])
    for target, priority, actions in jobs:
        sched.post(
            Message(
                kind="job",
                target=f"w{target}",
                payload=actions,
                constraint=_constraint(priority),
            )
        )
    for delay, target, priority in timers:
        wake = Message(kind="wake", target=f"w{target}",
                       constraint=_constraint(priority))
        sched.after(delay, lambda wake=wake: sched.post(wake))
    # A receive no wake answers leaves its thread blocked for good; the
    # step bound keeps pathological examples finite, the invariant
    # assertions inside CheckedScheduler are the actual test.
    sched.run(max_steps=2000)
    assert sched.pick_checks > 0
