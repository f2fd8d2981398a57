"""Fair tenants and thread parking on the scheduler.

The multi-tenant fabric extends the ready-heap sort key with a
per-tenant virtual-time component (start-time fair queueing): each
dispatch charges the dispatched thread's tenant one unit, so over any
window backlogged tenants receive equal shares of the dispatches, and no
backlogged tenant can be starved by a hog.  Untenanted threads carry a
constant 0.0 in that slot, which keeps single-session schedules
bit-for-bit identical to the pre-tenant scheduler.
"""

import pytest

from repro.mbt import CONTINUE, Message, Scheduler, VirtualClock, Yield


def make_scheduler(**kwargs):
    return Scheduler(clock=VirtualClock(), **kwargs)


def spinner(log, rounds):
    """A greedy self-reposting thread body: run, log, repost.

    Posts the repost message directly (no generator continuation), so
    one dispatch == one ``code`` call == one log entry — the log IS the
    dispatch order.
    """

    def code(thread, msg):
        log.append(thread.name)
        n = thread.local.get("n", 0) + 1
        thread.local["n"] = n
        if n < rounds:
            thread._scheduler.post(Message(
                kind="go", target=thread.name, sender=thread.name
            ))
        return CONTINUE

    return code


def kick(sched, *names):
    for name in names:
        sched.post(Message(kind="go", target=name, sender="test"))


# ------------------------------------------------------------- Tenant basics


def test_add_tenant_is_get_or_create_and_retunes_weight():
    """There is no weight to retune: a second
    ``add_tenant`` of a name returns the first tenant, vtime and all."""
    sched = make_scheduler()
    a = sched.add_tenant("a")
    a.vtime = 5.0
    again = sched.add_tenant("a")
    assert again is a
    assert again.vtime == 5.0  # vtime survives


def test_assign_tenant_by_name_creates_it():
    sched = make_scheduler()
    thread = sched.spawn("t", lambda th, m: CONTINUE)
    sched.assign_tenant(thread, "alice")
    assert "alice" in sched.tenants
    assert thread._tenant is sched.tenants["alice"]
    sched.assign_tenant(thread, None)
    assert thread._tenant is None


def test_remove_tenant_detaches_threads():
    sched = make_scheduler()
    thread = sched.spawn("t", lambda th, m: CONTINUE)
    sched.assign_tenant(thread, "alice")
    sched.remove_tenant("alice")
    assert thread._tenant is None
    assert "alice" not in sched.tenants


# ------------------------------------------------------------- fair dispatch


def test_equal_weights_alternate_dispatches():
    sched = make_scheduler()
    log = []
    for name in ("a", "b"):
        thread = sched.spawn(name, spinner(log, 6))
        sched.assign_tenant(thread, name)
    kick(sched, "a", "b")
    sched.run()
    # Strict alternation: each dispatch charges the runner, making the
    # other tenant the minimum-vtime pick.
    assert log[:8] == ["a", "b", "a", "b", "a", "b", "a", "b"]


def test_starvation_bound_one_hog_many_light():
    """The fairness acceptance shape: 1 hog + 9 light tenants, all
    backlogged.  Every light tenant's dispatch share must be within 2x of
    fair share — the hog cannot starve anyone."""
    sched = make_scheduler()
    log = []
    hog = sched.spawn("hog", spinner(log, 10_000))
    sched.assign_tenant(hog, sched.add_tenant("hog"))
    lights = [f"light{i}" for i in range(9)]
    for name in lights:
        thread = sched.spawn(name, spinner(log, 10_000))
        sched.assign_tenant(thread, sched.add_tenant(name))
    kick(sched, "hog", *lights)
    sched.run(max_steps=1000)
    fair = len(log) / 10
    for name in lights:
        share = log.count(name)
        assert share >= fair / 2, f"{name} starved: {share} < {fair}/2"
    assert log.count("hog") <= 2 * fair


def test_dispatch_gap_is_bounded():
    """Between two dispatches of any backlogged equal-weight tenant, at
    most (#tenants - 1) other dispatches run (single-thread tenants have
    no stale-entry slack)."""
    sched = make_scheduler()
    log = []
    names = [f"t{i}" for i in range(5)]
    for name in names:
        thread = sched.spawn(name, spinner(log, 200))
        sched.assign_tenant(thread, name)
    kick(sched, *names)
    sched.run(max_steps=500)
    for name in names:
        hits = [i for i, n in enumerate(log) if n == name]
        gaps = [b - a for a, b in zip(hits, hits[1:])]
        assert max(gaps) <= len(names), f"{name} waited {max(gaps)}"


def test_waking_tenant_gets_no_banked_credit():
    """A tenant idle for a long stretch resumes at the fair clock, not at
    its stale (tiny) vtime — idleness must not bank a monopoly."""
    sched = make_scheduler()
    log = []
    busy = sched.spawn("busy", spinner(log, 10_000))
    sched.assign_tenant(busy, "busy")
    kick(sched, "busy")
    sched.run(max_steps=100)  # busy accrues vtime alone
    idler = sched.spawn("idler", spinner(log, 10_000))
    sched.assign_tenant(idler, "idler")
    kick(sched, "idler")
    log.clear()
    sched.run(max_steps=200)  # max_steps is cumulative: 100 more
    # Strict SFQ: the idler is clamped to the fair clock and thereafter
    # alternates — it does NOT get 100 consecutive catch-up dispatches.
    first_busy = log.index("busy")
    assert first_busy <= 2
    assert log.count("idler") <= 60


def test_untenanted_threads_sort_before_tenanted_vtime():
    """Untenanted threads carry vtime 0.0 — with equal priority they are
    never preempted by a tenant with accrued vtime, preserving the
    pre-tenant total order among themselves."""
    sched = make_scheduler()
    log = []
    plain = sched.spawn("plain", spinner(log, 50))
    tenanted = sched.spawn("tenanted", spinner(log, 50))
    tenant = sched.add_tenant("t")
    tenant.vtime = 100.0  # far behind
    sched.assign_tenant(tenanted, tenant)
    kick(sched, "plain", "tenanted")
    sched.run(max_steps=60)
    assert log[:50].count("plain") == 50


def test_fair_clock_tracks_dispatched_tenant():
    sched = make_scheduler()
    log = []
    thread = sched.spawn("a", spinner(log, 5))
    sched.assign_tenant(thread, "a")
    kick(sched, "a")
    sched.run()
    tenant = sched.tenants["a"]
    assert tenant.dispatches == 5
    assert tenant.vtime == pytest.approx(5.0)
    # fair clock is the last dispatch's pre-charge vtime
    assert sched._fair_clock == pytest.approx(4.0)


# ------------------------------------------------------------- parking


def test_parked_thread_is_not_ready_and_holds_no_heap_entry():
    sched = make_scheduler()
    log = []
    thread = sched.spawn("t", spinner(log, 10))
    kick(sched, "t")
    sched.park_thread(thread)
    assert thread.parked
    assert thread._heap_entry is None
    sched.run()
    assert log == []  # message stayed queued
    sched.unpark_thread(thread)
    sched.run()
    assert log.count("t") == 10


def test_park_is_idempotent_and_unpark_noop_when_not_parked():
    sched = make_scheduler()
    thread = sched.spawn("t", lambda th, m: CONTINUE)
    sched.unpark_thread(thread)  # no-op
    sched.park_thread(thread)
    sched.park_thread(thread)
    assert sched.parked_threads == {thread}
    sched.unpark_thread(thread)
    assert sched.parked_threads == set()


def test_messages_delivered_while_parked_run_on_unpark():
    sched = make_scheduler()
    seen = []

    def code(thread, msg):
        seen.append(msg.payload)
        return CONTINUE

    thread = sched.spawn("t", code)
    sched.park_thread(thread)
    for i in range(3):
        sched.post(Message(kind="d", payload=i, target="t"))
    sched.run()
    assert seen == []
    sched.unpark_thread(thread)
    sched.run()
    assert seen == [0, 1, 2]


def test_parked_threads_do_not_grow_ready_heap():
    sched = make_scheduler()
    for i in range(500):
        thread = sched.spawn(f"idle{i}", lambda th, m: CONTINUE)
        sched.post(Message(kind="d", target=f"idle{i}", sender="test"))
        sched.park_thread(thread)
    live = sched.spawn("live", lambda th, m: CONTINUE)
    sched.post(Message(kind="d", target="live", sender="test"))
    # Only the live thread's entry is in the heap.
    assert sum(1 for e in sched._ready_heap if e[6] is not None) == 1
    sched.run()
    assert not live.mailbox


# ------------------------------------------------------------- determinism


def test_tenanted_run_is_deterministic():
    def run_once():
        sched = make_scheduler()
        log = []
        for i in range(3):
            thread = sched.spawn(f"t{i}", spinner(log, 40))
            sched.assign_tenant(thread, sched.add_tenant(f"t{i}"))
        kick(sched, "t0", "t1", "t2")
        sched.run()
        return log

    assert run_once() == run_once()
