"""Fault injection: crashes, message faults and link flaps, one plan.

Thread transparency also means *failure* transparency has limits worth
testing: what happens to a pipeline when a pump thread dies mid-flow,
when scheduler messages are dropped, delayed or reordered, or when the
network link under a netpipe flaps?  A :class:`FaultPlan` bundles all
three fault families behind one seeded RNG and arms them onto a
scheduler (and optionally a network) through the hook points that are
inert when unused:

* thread crashes ride :meth:`repro.mbt.scheduler.Scheduler.inject_crash`
  via a timer, raising :class:`~repro.errors.InjectedFault` into the
  victim at a virtual time (like any crash, it raises out of the run);
* message faults ride
  :attr:`~repro.mbt.scheduler.Scheduler.delivery_interceptor` — each
  matching message is independently dropped or delayed (delaying a
  message past its peers reorders delivery);
* link flaps ride :meth:`repro.net.network.Network.take_link_down` /
  ``bring_link_up`` timers — every packet admitted while down is lost.

Plans are plain data: the same plan + the same seed reproduces the same
faults, so a fault schedule that found a bug *is* its regression test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable

from repro.mbt.message import Message
from repro.mbt.scheduler import Scheduler


@dataclass(frozen=True)
class CrashThread:
    """Crash one thread at a virtual time.

    ``thread`` is the scheduler thread name (pump threads are named
    ``pump:<origin>``, coroutines ``coro:<component>``).  A crash against
    an already-terminated or never-spawned thread is a silent no-op — a
    plan outliving its victim is not an error.
    """

    at: float
    thread: str


@dataclass(frozen=True)
class MessageFaults:
    """Random per-message faults applied at delivery time.

    Each message matching the ``kinds``/``targets`` filters (None =
    match all) is independently dropped with probability ``drop_rate``,
    else delayed with probability ``delay_rate`` by a uniform time in
    ``(0, max_delay]``.  Delays reorder: a delayed message is re-posted
    behind anything delivered in the meantime.
    """

    drop_rate: float = 0.0
    delay_rate: float = 0.0
    max_delay: float = 0.01
    kinds: frozenset[str] | None = None
    targets: frozenset[str] | None = None

    def matches(self, message: Message) -> bool:
        if self.kinds is not None and message.kind not in self.kinds:
            return False
        if self.targets is not None and message.target not in self.targets:
            return False
        return True


@dataclass(frozen=True)
class LinkFlap:
    """Take a directed link down at ``down_at``, back up at ``up_at``."""

    src: str
    dst: str
    down_at: float
    up_at: float

    def __post_init__(self):
        if self.up_at <= self.down_at:
            raise ValueError("link must come back up after it goes down")


@dataclass
class FaultPlan:
    """A seeded, replayable bundle of faults for one run.

    Build the program, then ``plan.arm(scheduler, network)`` *before*
    running; timers and the delivery interceptor do the rest.  Counters
    (``crashes_fired``, plus the scheduler's ``messages_dropped``) let
    tests assert the plan actually bit.
    """

    seed: int = 0
    crashes: tuple[CrashThread, ...] = ()
    messages: MessageFaults | None = None
    flaps: tuple[LinkFlap, ...] = ()

    crashes_fired: list[str] = field(default_factory=list, compare=False)
    messages_delayed: int = field(default=0, compare=False)

    def arm(self, scheduler: Scheduler, network=None) -> "FaultPlan":
        rng = random.Random(self.seed)

        for crash in self.crashes:
            def fire(victim=crash.thread):
                thread = scheduler.threads.get(victim)
                if thread is None or thread.terminated:
                    return
                # Record first: the injected crash raises out of
                # inject_crash, and out of the run (docs/CHECKING.md).
                self.crashes_fired.append(victim)
                scheduler.inject_crash(victim)

            scheduler.at(crash.at, fire)

        faults = self.messages
        if faults is not None:
            def intercept(message: Message):
                if not faults.matches(message):
                    return None
                roll = rng.random()
                if roll < faults.drop_rate:
                    return "drop"
                if roll < faults.drop_rate + faults.delay_rate:
                    self.messages_delayed += 1
                    return rng.random() * faults.max_delay or faults.max_delay
                return None

            if scheduler.delivery_interceptor is not None:
                raise RuntimeError(
                    "scheduler already has a delivery interceptor"
                )
            scheduler.delivery_interceptor = intercept

        if self.flaps:
            if network is None:
                raise ValueError("plan has link flaps but no network given")
            for flap in self.flaps:
                def down(f=flap):
                    network.take_link_down(f.src, f.dst)

                def up(f=flap):
                    network.bring_link_up(f.src, f.dst)

                scheduler.at(flap.down_at, down)
                scheduler.at(flap.up_at, up)
        return self


def crash_one_pump(
    engine, at: float, which: int = 0, plan_seed: int = 0
) -> FaultPlan:
    """Convenience: a plan crashing the ``which``-th pump of an engine.

    The engine must be set up (so pump drivers exist); arming happens
    immediately against its scheduler.
    """
    engine.setup()
    drivers = engine.pump_drivers
    if not drivers:
        raise ValueError("engine has no pump drivers to crash")
    victim = drivers[which % len(drivers)].thread_name
    plan = FaultPlan(seed=plan_seed, crashes=(CrashThread(at, victim),))
    return plan.arm(engine.scheduler)


def message_chaos(
    scheduler: Scheduler,
    seed: int = 0,
    drop_rate: float = 0.01,
    delay_rate: float = 0.05,
    max_delay: float = 0.005,
    kinds: Iterable[str] | None = None,
    targets: Iterable[str] | None = None,
) -> FaultPlan:
    """Convenience: arm message drop/delay chaos on a scheduler."""
    plan = FaultPlan(
        seed=seed,
        messages=MessageFaults(
            drop_rate=drop_rate,
            delay_rate=delay_rate,
            max_delay=max_delay,
            kinds=frozenset(kinds) if kinds is not None else None,
            targets=frozenset(targets) if targets is not None else None,
        ),
    )
    return plan.arm(scheduler)
