"""SessionFabric lifecycle: open/close, namespacing, parking, stats."""

import gc
import weakref

import pytest

from repro import (
    Buffer,
    CollectSink,
    Engine,
    GreedyPump,
    IterSource,
    pipeline,
)
from repro.api import Pipeline
from repro.core.typespec import Typespec
from repro.errors import (
    AllocationError,
    DeployError,
    SchedulerError,
    TypespecMismatch,
)
from repro.fabric import SessionFabric, SessionState
from repro.mbt import Scheduler, VirtualClock


def counting_program(items=5):
    """Builder factory: each call of the returned builder makes a fresh
    source -> pump -> sink pipeline and remembers its sink."""
    sinks = []

    def build():
        sink = CollectSink(name="sink")
        sinks.append(sink)
        return pipeline(IterSource(range(items)), GreedyPump(), sink)

    return build, sinks


def plain_program():
    """A builder that keeps no reference to what it builds."""
    return pipeline(IterSource(range(9)), GreedyPump(), CollectSink())


def run_rounds(fabric, rounds=50, steps=500):
    """Drive a fabric in bounded increments (max_steps is cumulative)."""
    for _ in range(rounds):
        fabric.run(max_steps=fabric.scheduler.steps + steps)
        if fabric.completed:
            break
    return fabric


class TestOpenClose:
    def test_two_sessions_same_program_run_isolated(self):
        build, sinks = counting_program()
        fabric = SessionFabric()
        alice = fabric.open_session(build, name="alice")
        bob = fabric.open_session(build, name="bob")
        run_rounds(fabric)
        assert fabric.completed
        assert sinks[0].items == list(range(5))
        assert sinks[1].items == list(range(5))
        assert alice.completed and bob.completed

    def test_component_and_thread_names_are_namespaced(self):
        build, _ = counting_program()
        fabric = SessionFabric()
        alice = fabric.open_session(build, name="alice")
        bob = fabric.open_session(build, name="bob")
        for session in (alice, bob):
            for component in session.pipeline.components:
                assert component.name.startswith(f"{session.name}/")
            for thread_name in session.thread_names:
                assert f"{session.name}/" in thread_name
        # A thousand builds of the same program can never collide.
        assert not set(alice.thread_names) & set(bob.thread_names)

    def test_auto_names_are_sequential(self):
        build, _ = counting_program()
        fabric = SessionFabric()
        assert fabric.open_session(build).name == "s0"
        assert fabric.open_session(build).name == "s1"

    def test_duplicate_name_rejected(self):
        build, _ = counting_program()
        fabric = SessionFabric()
        fabric.open_session(build, name="alice")
        with pytest.raises(DeployError):
            fabric.open_session(build, name="alice")

    def test_at_most_one_bare_session(self):
        build, _ = counting_program()
        fabric = SessionFabric()
        fabric.open_session(build, name="cert", namespace=False)
        with pytest.raises(DeployError):
            fabric.open_session(build, name="other", namespace=False)

    def test_bare_scope_freed_on_close(self):
        build, _ = counting_program()
        fabric = SessionFabric()
        fabric.open_session(build, name="cert", namespace=False)
        fabric.close_session("cert")
        assert fabric.open_session(
            build, name="cert2", namespace=False
        ) is not None

    def test_close_removes_threads_and_tenant(self):
        build, _ = counting_program()
        fabric = SessionFabric()
        alice = fabric.open_session(build, name="alice")
        names = alice.thread_names
        fabric.close_session("alice")
        assert alice.state is SessionState.CLOSED
        assert "alice" not in fabric.sessions
        assert "alice" not in fabric.scheduler.tenants
        assert not set(names) & set(fabric.scheduler.threads)

    def test_close_gives_the_cpu_reservation_back(self):
        def build():
            return pipeline(
                IterSource(range(5)), GreedyPump(reservation=0.6),
                CollectSink(),
            )

        fabric = SessionFabric()
        fabric.open_session(build, name="a")
        assert fabric.scheduler.reservations == {"pump:a/greedy-pump-1": 0.6}
        run_rounds(fabric)
        fabric.close_session("a")
        assert fabric.scheduler.reservations == {}
        # ... so the same share can be had again, under any name.
        fabric.open_session(build, name="b")
        assert list(fabric.scheduler.reservations.values()) == [0.6]

    def test_close_unknown_session_is_noop(self):
        SessionFabric().close_session("ghost")

    def test_a_service_that_fails_to_stop_still_detaches(self):
        """An error stopping a service propagates — after the session is
        fully detached, not instead of it."""

        class Stuck:
            def stop(self):
                raise RuntimeError("service would not stop")

        def build():
            return pipeline(
                IterSource(range(5)), GreedyPump(reservation=0.5),
                CollectSink(),
            )

        fabric = SessionFabric()
        session = fabric.open_session(build, name="a")
        neighbour = fabric.open_session(build, name="b")
        session.engine.add_service(Stuck())
        threads = session.threads
        with pytest.raises(RuntimeError, match="would not stop"):
            fabric.close_session("a")
        assert session.state is SessionState.CLOSED
        assert "a" not in fabric.sessions
        assert all(thread.terminated for thread in threads)
        assert not set(session.thread_names) & set(fabric.scheduler.threads)
        assert fabric.scheduler.tenant("a") is None
        assert fabric.scheduler.reservations == {
            "pump:b/greedy-pump-1": 0.5
        }
        # The neighbour runs on, and the name opens again.
        run_rounds(fabric)
        assert neighbour.completed
        fabric.open_session(build, name="a")


class BuilderBroke(Exception):
    pass


def builder_raises():
    raise BuilderBroke("no program today")


def typespec_mismatch():
    class RawSink(CollectSink):
        input_spec = Typespec(format="raw")

    return pipeline(
        IterSource([1], flow_spec=Typespec(format="mpeg")), GreedyPump(),
        RawSink(),
    )


def incomplete_pipeline():
    return pipeline(IterSource([1]), GreedyPump())


class TestFailedOpenLeavesNothing:
    """An open is all-or-nothing: whatever raises after the name checks,
    the bare scope, the threads, their reservations and the tenant are
    given back."""

    @pytest.mark.parametrize("namespace", [True, False])
    @pytest.mark.parametrize(
        "bad_program, error",
        [
            (builder_raises, BuilderBroke),
            (typespec_mismatch, TypespecMismatch),
            (incomplete_pipeline, AllocationError),
        ],
    )
    def test_failed_open_releases_slot_and_scope(
        self, bad_program, error, namespace
    ):
        fabric = SessionFabric()
        with pytest.raises(error):
            fabric.open_session(bad_program, name="y", namespace=namespace)
        assert fabric._bare_session is None
        assert not fabric.sessions
        assert not fabric.scheduler.threads
        assert not fabric.scheduler.tenants
        fabric.close_session("y")  # nothing to close, nothing to break
        # The one bare scope is free for a valid open.
        build, sinks = counting_program()
        fabric.open_session(build, name="ok", namespace=namespace)
        run_rounds(fabric)
        assert sinks[0].items == list(range(5))

    def test_failure_after_set_up_removes_the_spawned_threads(self):
        # The weight is only looked at when the tenant is created — after
        # the engine spawned the session's threads on the shared scheduler.
        build, _ = counting_program()
        fabric = SessionFabric()
        with pytest.raises(SchedulerError, match="weight"):
            fabric.open_session(build, name="y", weight=0.0)
        assert not fabric.scheduler.threads
        assert not fabric.scheduler.tenants
        assert fabric.open_session(build, name="y") is not None

    def test_open_failing_after_a_reserve_leaves_nothing_committed(self):
        # The first pump's share is granted, the second's refused: the
        # open fails with one reservation already made.
        def overcommitted():
            return pipeline(
                IterSource(range(5)), GreedyPump(reservation=0.6), Buffer(),
                GreedyPump(reservation=0.6), CollectSink(),
            )

        fabric = SessionFabric()
        with pytest.raises(SchedulerError, match="already committed"):
            fabric.open_session(overcommitted, name="y")
        assert fabric.scheduler.reservations == {}
        assert not fabric.scheduler.threads

    def test_failed_open_spares_a_namesake_thread_it_collided_with(self):
        def build():
            return pipeline(
                IterSource(range(3)), GreedyPump(name="p"),
                CollectSink(name="sink"),
            )

        scheduler = Scheduler(clock=VirtualClock())
        neighbour = Engine(build(), scheduler=scheduler).setup()
        theirs = scheduler.threads["pump:p"]
        fabric = SessionFabric(scheduler=scheduler)
        with pytest.raises(SchedulerError, match="duplicate thread"):
            fabric.open_session(build, name="bare", namespace=False)
        assert scheduler.threads["pump:p"] is theirs
        assert not theirs.terminated
        assert fabric._bare_session is None
        neighbour.start()
        scheduler.run()
        assert neighbour.pipeline.component("sink").items == [0, 1, 2]

    def test_second_bare_open_is_refused(self):
        build, _ = counting_program()
        fabric = SessionFabric()
        fabric.open_session(build, name="cert", namespace=False)
        with pytest.raises(DeployError, match="bare"):
            fabric.open_session(build, name="other", namespace=False)
        assert fabric._bare_session == "cert"
        assert list(fabric.sessions) == ["cert"]
        assert set(fabric.scheduler.tenants) == {"cert"}


class NoScanDict(dict):
    """A scheduler table that refuses to be walked or copied."""

    def _refuse(self, *args):
        raise AssertionError("walked a fleet-wide scheduler table")

    values = items = keys = __iter__ = copy = _refuse


class TestCloseTouchesNoNeighbour:
    def test_closing_one_of_200_walks_no_fleet_table(self):
        build, sinks = counting_program(items=3)
        fabric = SessionFabric()
        sessions = [
            fabric.open_session(build, name=f"s{i}") for i in range(200)
        ]
        scheduler = fabric.scheduler
        victim = sessions[117]
        victim_threads = victim.threads
        scheduler.threads = NoScanDict(scheduler.threads)
        scheduler._tenants = NoScanDict(scheduler._tenants)
        fabric.close_session(victim.name)
        assert victim.tenant is None
        assert all(t.terminated for t in victim_threads)
        # Reading the survivors' tenants copies no table either.
        assert len(fabric.sessions) == 199
        assert all(s.tenant.name == s.name for s in fabric.sessions.values())
        scheduler.threads = dict(dict.items(scheduler.threads))
        scheduler._tenants = dict(dict.items(scheduler._tenants))
        run_rounds(fabric, steps=5000)
        assert fabric.completed
        assert [s.items for i, s in enumerate(sinks) if i != 117] == [
            [0, 1, 2]
        ] * 199
        assert sinks[117].items == []

    def test_tenant_forgets_a_removed_thread(self):
        build, _ = counting_program()
        fabric = SessionFabric()
        session = fabric.open_session(build, name="s")
        tenant = session.tenant
        assert list(tenant.threads) == session.threads
        fabric.scheduler.remove_thread(session.thread_names[0])
        assert not tenant.threads


class TestLiveAttachDetach:
    def test_attach_mid_run_does_not_pause_others(self):
        build, sinks = counting_program(items=40)
        fabric = SessionFabric()
        fabric.open_session(build, name="early")
        fabric.run(max_steps=fabric.scheduler.steps + 30)
        early_progress = len(sinks[0].items)
        assert 0 < early_progress < 40
        # Attach while 'early' is mid-flight: no stop/start cycle, the
        # scheduler just gains threads between dispatches.
        fabric.open_session(build, name="late")
        run_rounds(fabric)
        assert sinks[0].items == list(range(40))
        assert sinks[1].items == list(range(40))

    def test_detach_mid_run_leaves_others_running(self):
        build, sinks = counting_program(items=40)
        fabric = SessionFabric()
        fabric.open_session(build, name="victim")
        fabric.open_session(build, name="survivor")
        fabric.run(max_steps=fabric.scheduler.steps + 40)
        fabric.close_session("victim")
        run_rounds(fabric)
        assert fabric.completed
        assert sinks[1].items == list(range(40))
        assert len(sinks[0].items) < 40  # stopped where it was


class TestParking:
    def test_parked_session_makes_no_progress(self):
        build, sinks = counting_program(items=20)
        fabric = SessionFabric()
        fabric.open_session(build, name="sleeper")
        fabric.open_session(build, name="worker")
        fabric.park("sleeper")
        run_rounds(fabric)
        assert fabric.completed  # parked sessions don't gate completion
        assert sinks[0].items == []
        assert sinks[1].items == list(range(20))

    def test_unpark_resumes_to_completion(self):
        build, sinks = counting_program(items=20)
        fabric = SessionFabric()
        sleeper = fabric.open_session(build, name="sleeper")
        sleeper.park()  # the handle's own park / unpark / close
        assert sleeper.state is SessionState.PARKED
        run_rounds(fabric)
        assert sinks[0].items == []
        sleeper.unpark()
        run_rounds(fabric)
        assert sinks[0].items == list(range(20))
        sleeper.close()
        assert sleeper.state is SessionState.CLOSED
        assert "sleeper" not in fabric.sessions

    def test_park_unpark_idempotent(self):
        build, _ = counting_program()
        fabric = SessionFabric()
        session = fabric.open_session(build, name="s")
        fabric.park("s")
        fabric.park("s")
        assert session.state is SessionState.PARKED
        fabric.unpark("s")
        fabric.unpark("s")
        assert session.state is SessionState.LIVE

    def test_a_closed_session_is_neither_parked_nor_parkable(self):
        build, _ = counting_program()
        fabric = SessionFabric()
        session = fabric.open_session(build, name="b")
        fabric.park("b")
        fabric.close_session("b")
        assert session.state is SessionState.CLOSED
        for verb in (fabric.park, fabric.unpark):
            with pytest.raises(DeployError, match="'b' is not open"):
                verb("b")
            with pytest.raises(DeployError, match="'ghost' is not open"):
                verb("ghost")
        # The stale handle takes its verb from the CLOSED row: no edge.
        for verb in (session.park, session.unpark):
            with pytest.raises(DeployError, match="'b' is closed: no"):
                verb()

    def test_closing_one_parked_session_touches_only_its_own_threads(self):
        class NoScanSet(set):
            """The scheduler's parked set, refusing to be walked."""

            def __iter__(self):
                raise AssertionError("close_session scanned the parked fleet")

        build, sinks = counting_program(items=20)
        fabric = SessionFabric()
        sessions = [
            fabric.open_session(build, name=f"s{i}") for i in range(6)
        ]
        for session in sessions:
            fabric.park(session.name)
        victim, others = sessions[2], sessions[:2] + sessions[3:]
        victim_threads = victim.threads
        kept_threads = [t for s in others for t in s.threads]
        scheduler = fabric.scheduler
        scheduler._parked = NoScanSet(set.__iter__(scheduler._parked))
        fabric.close_session(victim.name)
        parked = set(set.__iter__(scheduler._parked))
        assert parked == set(kept_threads)
        assert all(s.state is SessionState.PARKED for s in others)
        assert all(t.parked for s in others for t in s.threads)
        assert all(t.terminated for t in victim_threads)
        # The survivors still wake and finish.
        scheduler._parked = parked
        for session in others:
            session.unpark()
        run_rounds(fabric)
        assert [s.items for i, s in enumerate(sinks) if i != 2] == [
            list(range(20))
        ] * 5
        assert sinks[2].items == []


class TestWeights:
    def test_sessions_become_weighted_tenants(self):
        build, _ = counting_program()
        fabric = SessionFabric()
        heavy = fabric.open_session(build, name="heavy", weight=4.0)
        light = fabric.open_session(build, name="light")
        assert heavy.tenant.weight == 4.0
        assert light.tenant.weight == 1.0
        for session in (heavy, light):
            for thread in session.threads:
                assert thread._tenant is session.tenant

    def test_set_weight_live(self):
        build, _ = counting_program()
        fabric = SessionFabric()
        session = fabric.open_session(build, name="s", weight=1.0)
        session.set_weight(8.0)
        assert session.tenant.weight == 8.0
        assert session.weight == 8.0

    def test_a_refused_weight_changes_nothing(self):
        build, _ = counting_program()
        fabric = SessionFabric()
        session = fabric.open_session(build, name="s", weight=2.0)
        with pytest.raises(SchedulerError, match="weight"):
            session.set_weight(-1)
        assert session.weight == 2.0
        assert session.tenant.weight == 2.0

    def test_weighted_vtime_accrual(self):
        build, _ = counting_program(items=200)
        fabric = SessionFabric()
        heavy = fabric.open_session(build, name="heavy", weight=4.0)
        light = fabric.open_session(build, name="light", weight=1.0)
        run_rounds(fabric)
        # Both ran to completion; the heavy tenant paid 1/4 per dispatch.
        assert heavy.tenant.dispatches > 0
        assert heavy.tenant.vtime == pytest.approx(
            heavy.tenant.dispatches / 4.0
        )
        assert light.tenant.vtime == pytest.approx(
            float(light.tenant.dispatches)
        )


class TestStatsAndObs:
    def test_per_session_stats_are_isolated(self):
        build, _ = counting_program(items=7)
        fabric = SessionFabric()
        alice = fabric.open_session(build, name="alice")
        bob = fabric.open_session(build, name="bob")
        run_rounds(fabric)
        for session in (alice, bob):
            stats = session.stats
            assert all(
                name.startswith(f"{session.name}/")
                for name in stats.components
            )
            sink_stats = stats.components[f"{session.name}/sink"]
            assert sink_stats["items_in"] == 7


class TestSharedScheduler:
    def test_session_honours_a_run_spec_on_the_shared_scheduler(self):
        build, sinks = counting_program(items=40)
        fabric = SessionFabric()
        spec = Pipeline.from_builder(build).with_batching(8).with_metrics()
        batched = fabric.open_session(spec, name="batched")
        plain = fabric.open_session(build, name="plain")
        assert batched.engine.scheduler is fabric.scheduler
        assert batched.engine.batch_max == 8
        assert plain.engine.batch_max == 1
        # Only the session whose spec asked for telemetry carries it.
        assert batched.engine._telemetry is not None
        assert plain.engine._telemetry is None
        run_rounds(fabric)
        assert [s.items for s in sinks] == [list(range(40))] * 2
        (driver,) = batched.engine.pump_drivers
        assert driver.batches and driver.batched_items == 40
        assert not plain.engine.pump_drivers[0].batches

    def test_metrics_sessions_each_see_their_own_threads(self):
        """Two with_metrics() sessions share the scheduler's one probe
        slot: each registry gets its own threads' dispatch / CPU /
        run-queue series, and a plain session's threads reach neither."""
        fabric = SessionFabric()
        build, sinks = counting_program(items=30)
        spec = Pipeline.from_builder(build).with_metrics()
        alice = fabric.open_session(spec, name="alice")
        bob = fabric.open_session(spec, name="bob")
        fabric.open_session(build, name="plain")
        run_rounds(fabric)
        assert [s.items for s in sinks] == [list(range(30))] * 3
        for session in (alice, bob):
            probe = session.engine._telemetry.scheduler_probe
            counts = probe.dispatch_counts()
            assert set(counts) == set(session.thread_names)
            assert all(count > 0 for count in counts.values())
            assert set(probe.cpu_seconds("wall")) == set(session.thread_names)
            assert 0 < probe.run_queue_wait.count <= sum(counts.values())
            threads = {
                dict(metric.labels)["thread"]
                for family in (
                    "repro_sched_dispatches_total",
                    "repro_sched_cpu_seconds_total",
                )
                for metric in probe.registry.family(family)
            }
            assert threads == set(session.thread_names)
            # Every dispatch of the tenant's threads, and nobody else's.
            assert sum(counts.values()) == session.tenant.dispatches
        # Same program, same weight: the two tenants ran the same schedule.
        alice_probe = alice.engine._telemetry.scheduler_probe
        bob_probe = bob.engine._telemetry.scheduler_probe
        assert sorted(alice_probe.dispatch_counts().values()) == sorted(
            bob_probe.dispatch_counts().values()
        )

    def test_closed_sessions_free_their_registries(self):
        """A closed session's meters leave with its threads: at the parent
        the first probe routed every later session's threads by name and
        never forgot one, so all 50 registries stayed reachable."""
        fabric = SessionFabric()
        metered = Pipeline.from_builder(plain_program).with_metrics()
        registries = []
        for index in range(50):
            session = fabric.open_session(metered, name=f"m{index}")
            run_rounds(fabric)
            registries.append(
                weakref.ref(session.engine._telemetry.registry)
            )
            session.close()
        del session
        gc.collect()
        assert [ref() for ref in registries] == [None] * 50

    def test_closed_sessions_series_ignore_an_unmetered_namesake(self):
        """At the parent an unmetered session reopened under a closed
        one's name counted its dispatches into the dead series (9 -> 18)."""
        fabric = SessionFabric()
        metered = Pipeline.from_builder(plain_program).with_metrics()
        closed = fabric.open_session(metered, name="a")
        run_rounds(fabric)
        registry = closed.engine._telemetry.registry
        closed.close()

        def reading():
            wait = registry.get("repro_sched_run_queue_wait_seconds")
            return (
                {
                    dict(counter.labels)["thread"]: counter.value
                    for counter in registry.family(
                        "repro_sched_dispatches_total"
                    )
                },
                wait.count, wait.sum,
            )

        before = reading()
        assert sum(before[0].values()) > 0 and before[1] > 0
        namesake = fabric.open_session(plain_program, name="a")
        assert set(namesake.thread_names) == set(before[0])
        run_rounds(fabric)
        assert namesake.completed and namesake.tenant.dispatches > 0
        assert reading() == before

    def test_external_scheduler_is_used(self):
        scheduler = Scheduler(clock=VirtualClock())
        build, _ = counting_program()
        fabric = SessionFabric(scheduler=scheduler)
        session = fabric.open_session(build, name="s")
        assert fabric.scheduler is scheduler
        assert session.engine.scheduler is scheduler

    def test_single_session_schedule_matches_dedicated_engine(self):
        """The no-sharing case is bit-for-bit the plain Engine run: an
        untenanted... rather, a one-tenant fabric produces the same sink
        contents and the same component stats as a dedicated engine."""
        from repro import Engine

        def build():
            return pipeline(
                IterSource(range(9)), GreedyPump(), CollectSink(name="sink")
            )

        dedicated_sink = CollectSink(name="sink")
        dedicated = Engine(
            pipeline(IterSource(range(9)), GreedyPump(), dedicated_sink)
        )
        dedicated.setup()
        dedicated.start()
        dedicated.run()

        build_f, sinks = counting_program(items=9)
        fabric = SessionFabric()
        fabric.open_session(build_f, name="only")
        run_rounds(fabric)
        assert sinks[0].items == dedicated_sink.items
