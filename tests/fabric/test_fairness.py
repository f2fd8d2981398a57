"""Tenant fairness and parked-session cost on one shared scheduler, as
exact step counts rather than wall-clock ratios.

* One hog saturating the fabric next to 999 light tenants: the worst
  light tenant completes within twice its fair share of scheduler steps,
  while the hog keeps being dispatched.
* Parked sessions are free: 50 active sessions take the same number of
  scheduler steps next to 1 000 parked ones as next to none, and the
  ready heap never holds a parked thread's entry.
"""

from repro.fabric import SessionFabric
from tests.fabric.test_session import counting_program

FAIRNESS_BOUND = 2.0


def test_light_tenants_finish_within_twice_their_fair_share():
    """Fair share says a light tenant needing D dispatches completes within
    about ``fleet * D`` scheduler steps; the worst one gets at most
    ``FAIRNESS_BOUND`` times that."""
    fleet = 1000
    fabric = SessionFabric()
    fabric.open_session(counting_program(10_000_000)[0], name="hog")
    light, _ = counting_program(30)
    for index in range(fleet - 1):
        fabric.open_session(light, name=f"light{index}")
    scheduler = fabric.scheduler
    lights = {n: s for n, s in fabric.sessions.items() if n != "hog"}
    completion_steps = {}
    # The fair run finishes within 40 000 steps; a fabric that starves
    # the lights stops at the cap instead of spinning.
    while lights and scheduler.steps < 200_000:
        fabric.run(max_steps=scheduler.steps + 20_000)
        for name in [n for n, s in lights.items() if s.completed]:
            completion_steps[name] = scheduler.steps
            del lights[name]
    assert not lights, f"{len(lights)} light tenants never finished"

    light_dispatches = max(
        scheduler.tenant(name).dispatches for name in completion_steps
    )
    worst = max(completion_steps.values())
    assert worst <= FAIRNESS_BOUND * fleet * light_dispatches
    # The hog saturated the fabric the whole time: it was not starved
    # to make the lights look fair.
    assert scheduler.tenant("hog").dispatches > light_dispatches


def run_active_next_to_parked(parked, active=50, items=200):
    """Scheduler steps for ``active`` sessions to complete next to
    ``parked`` parked ones."""
    fabric = SessionFabric()
    program, _ = counting_program(items)
    for index in range(active):
        fabric.open_session(program, name=f"a{index}")
    sleepers = [
        fabric.open_session(program, name=f"z{index}")
        for index in range(parked)
    ]
    for session in sleepers:
        session.park()
    scheduler = fabric.scheduler

    def assert_no_parked_entry():
        heap = [e[6] for e in scheduler._ready_heap if e[6] is not None]
        assert not any(thread.parked for thread in heap)
        assert all(t._heap_entry is None for s in sleepers for t in s.threads)

    while not fabric.completed and scheduler.steps < 1_000_000:
        assert_no_parked_entry()
        fabric.run(max_steps=scheduler.steps + 500)
    assert fabric.completed
    assert_no_parked_entry()
    return scheduler.steps


def test_parked_sessions_cost_the_dispatcher_no_steps():
    assert run_active_next_to_parked(1000) == run_active_next_to_parked(0)
