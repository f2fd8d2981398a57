"""An open has a budget, a close is a detach, and no check went missing.

Set-up is the middleware's own cost, so one ``open_session`` of the
``fabric-mux`` programs may spend at most a fixed number of Python-level
calls — the same number for the 2nd session of a fabric and for the
200th (no O(fleet) term) — and a live session keeps a fixed number of
objects.  A close costs what detaching its threads costs: it posts
nothing into the threads it deletes.  And however cheap it gets,
every derivation still runs on every open: each program the platform
rejects is still rejected, from the fabric and from a dedicated engine,
with the error class and message it always had — including when the bad
edge was added behind composition's back.
"""

import gc
import sys

import pytest

from repro import (
    CollectSink,
    Component,
    GreedyPump,
    IterSource,
    MapFilter,
    MergeTee,
    MulticastTee,
    pipeline,
)
from repro.api import Pipeline
from repro.components.frag import ActiveDefragmenter
from repro.components.tees import ActivityRouter
from repro.core.composition import Pipeline as CorePipeline
from repro.core.composition import connect
from repro.core.styles import Style
from repro.core.typespec import Typespec
from repro.errors import (
    AllocationError,
    CompositionError,
    PolarityError,
    TypespecMismatch,
)
from repro.fabric import SessionFabric
from repro.net import MarshalFilter, SocketLink, UnmarshalFilter
from repro.net.mux import StreamMux
from repro.net.netpipe import make_netpipe_over

#: Python-level ``call`` events one open may spend (667 / 669 before the
#: port index, 337 / 346 before the engine's event table; the count is
#: deterministic).
CALL_BUDGET = 340

#: Python-level ``call`` events one close may spend (39 while a close
#: broadcast STOP into the threads it was about to delete).
CLOSE_CALL_BUDGET = 12

#: GC-tracked objects one live session of each ``fabric-mux`` program
#: keeps alive (158 / 143 while every owned component held a delivery
#: and a sender closure for the event service; 125 / 110 while each
#: event service kept a list of broadcast relays; 124 / 109 while a
#: credited sink walker built its credit wait's match when compiled;
#: 123 / 109 while each driver kept its thread's context as a second
#: object).
OBJECTS_PER_SESSION = {"tx": 122, "rx": 108}


def count_calls(fn) -> int:
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    # The collector runs finalizers (``__del__``, weakref callbacks) of
    # whatever garbage earlier tests left, and a collection that fires
    # inside the window counts their calls against the open: the budget
    # then depends on which tests ran first.  Collect before, not during.
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(previous)
        if enabled:
            gc.enable()
    # The profiler also sees the call of ``fn`` itself.
    return calls - 1


def objects_kept(fn) -> int:
    """GC-tracked objects that ``fn`` leaves alive, after a collection."""
    gc.collect()
    before = len(gc.get_objects())
    fn()
    gc.collect()
    return len(gc.get_objects()) - before


class MuxFabrics:
    """The ``fabric-mux`` programs: a tx and an rx fabric, one session of
    each per stream of one multiplexed socketpair."""

    def __init__(self):
        tx_link, rx_link = SocketLink.pair(bufsize=1 << 20)
        self.muxes = {"tx": StreamMux(tx_link), "rx": StreamMux(rx_link)}
        self.fabrics = {"tx": SessionFabric(), "rx": SessionFabric()}

    def opener(self, side: str, sid: int):
        """A zero-argument open of session ``side + sid``."""
        stream = self.muxes[side].open_stream(sid, credits=8)

        def build_tx():
            sender, _ = make_netpipe_over(stream)
            return pipeline(
                IterSource(range(5)), MarshalFilter(), GreedyPump(), sender
            )

        def build_rx():
            _, receiver = make_netpipe_over(stream)
            return pipeline(
                receiver, UnmarshalFilter(), GreedyPump(),
                CollectSink(name="sink"),
            )

        build = build_tx if side == "tx" else build_rx
        fabric = self.fabrics[side]
        return lambda: fabric.open_session(build, name=f"{side}{sid}")

    def close(self) -> None:
        for mux in self.muxes.values():
            mux.close()


@pytest.fixture
def mux_fabrics():
    rig = MuxFabrics()
    yield rig
    rig.close()


class TestOpenBudget:
    def test_fabric_mux_opens_stay_in_budget_and_flat(self, mux_fabrics):
        counts: dict[tuple[str, int], int] = {}
        for sid in range(200):
            for side in ("tx", "rx"):
                open_one = mux_fabrics.opener(side, sid)
                if sid in (1, 199):
                    counts[side, sid] = count_calls(open_one)
                else:
                    open_one()
        assert all(
            len(fabric.sessions) == 200
            for fabric in mux_fabrics.fabrics.values()
        )
        assert counts["tx", 1] <= CALL_BUDGET, counts
        assert counts["rx", 1] <= CALL_BUDGET, counts
        assert counts["tx", 199] == counts["tx", 1], counts
        assert counts["rx", 199] == counts["rx", 1], counts

    def test_a_live_session_keeps_a_fixed_number_of_objects(
        self, mux_fabrics
    ):
        kept: dict[int, dict[str, int]] = {1: {}, 49: {}}
        for sid in range(50):
            for side in ("tx", "rx"):
                open_one = mux_fabrics.opener(side, sid)
                if sid in kept:
                    kept[sid][side] = objects_kept(open_one)
                else:
                    open_one()
        assert kept[1] == kept[49] == OBJECTS_PER_SESSION, kept


# ---------------------------------------------------------------------------
# Closing is a detach
# ---------------------------------------------------------------------------


def close_and_count(fabric: SessionFabric, name: str) -> dict[str, int]:
    """Close session ``name`` and count what the close did to the
    scheduler every session shares."""
    scheduler = fabric.scheduler
    own = fabric.sessions[name].threads
    every = list(scheduler.threads.values())
    mail = sum(len(thread.mailbox) for thread in every)
    delivered = scheduler.messages_delivered
    letters = len(scheduler.dead_letters)
    timers = len(scheduler._timer_heap)
    stale = scheduler._ready_stale
    seq = next(scheduler._ready_seq)
    calls = count_calls(lambda: fabric.close_session(name))
    assert all(thread.terminated for thread in own)
    return {
        "calls": calls,
        "threads": len(own),
        "delivered": scheduler.messages_delivered - delivered,
        "dead letters": len(scheduler.dead_letters) - letters,
        "mailbox growth": sum(len(t.mailbox) for t in every) - mail,
        "timers": len(scheduler._timer_heap) - timers,
        # Every push draws one sequence number.
        "heap pushes": next(scheduler._ready_seq) - seq - 1,
        "tombstones": scheduler._ready_stale - stale,
    }


def assert_close_is_a_detach(
    rig: MuxFabrics, call_budget: int = CLOSE_CALL_BUDGET
) -> None:
    """Three sessions a side, run part-way; the middle one of each side
    closes posting nothing, pushing nothing and at most one tombstone per
    thread it removes, within ``call_budget`` calls."""
    for sid in range(3):
        for side in ("tx", "rx"):
            rig.opener(side, sid)()
    for _ in range(2):
        rig.fabrics["tx"].run(max_steps=rig.fabrics["tx"].scheduler.steps + 4)
        rig.muxes["tx"].pump()
        rig.muxes["rx"].pump()
        rig.fabrics["rx"].run(max_steps=rig.fabrics["rx"].scheduler.steps + 4)
    for side in ("tx", "rx"):
        counts = close_and_count(rig.fabrics[side], f"{side}1")
        assert counts["calls"] <= call_budget, counts
        assert counts["tombstones"] <= counts["threads"], counts
        nothing = ("delivered", "dead letters", "mailbox growth", "timers",
                   "heap pushes")
        assert {key: counts[key] for key in nothing} == dict.fromkeys(
            nothing, 0
        ), counts


class TestCloseIsADetach:
    def test_a_close_posts_nothing_and_pushes_nothing(self, mux_fabrics):
        assert_close_is_a_detach(mux_fabrics)

    def test_a_close_through_engine_stop_fails_it(
        self, mux_fabrics, monkeypatch
    ):
        """Mutant twin: a close that broadcasts STOP before it detaches
        (39 calls) — caught by what it posts even under any call budget."""

        def close_through_stop(fabric, name):
            session = fabric.sessions.pop(name)
            session.engine.stop()
            fabric._detach(name, session.engine)

        monkeypatch.setattr(SessionFabric, "close_session", close_through_stop)
        with pytest.raises(AssertionError, match="'delivered': 4, "):
            assert_close_is_a_detach(mux_fabrics, call_budget=10**6)


# ---------------------------------------------------------------------------
# Rejected programs
# ---------------------------------------------------------------------------


class RawSink(CollectSink):
    input_spec = Typespec(format="raw")


class Unlinked(Component):
    """One in-port, one out-port, no mode link between them: the one shape
    that lets a push side run into a pull-only port."""

    style = Style.FUNCTION

    def __init__(self, name):
        super().__init__(name)
        self.add_in_port()
        self.add_out_port()

    def convert(self, item):
        return item


class Needy(MapFilter):
    events_sent_downstream = frozenset({"exotic-event"})


def mpeg_source():
    return IterSource([1], name="src", flow_spec=Typespec(format="mpeg"))


def wire(*edges):
    """A core Pipeline of the edges' components, every edge connected
    with the Typespec check switched off — the graph composition never
    saw, which only ``allocate``'s re-derivation can reject."""
    pipe = CorePipeline()
    for out_port, in_port in edges:
        pipe.add(out_port.component)
        pipe.add(in_port.component)
        connect(out_port, in_port, check_typespecs=False)
    return pipe


def mismatch_composed():
    return pipeline(
        mpeg_source(), GreedyPump(name="pump"), RawSink(name="sink")
    )


def mismatch_behind_composition():
    src, pump = mpeg_source(), GreedyPump(name="pump")
    sink = RawSink(name="sink")
    return wire((src.out_port, pump.in_port), (pump.out_port, sink.in_port))


def mismatch_edited_after_composition():
    """A checked pipeline whose tail is then cut off and replaced, the new
    edge unchecked."""
    src, pump = mpeg_source(), GreedyPump(name="pump")
    pipe = pipeline(src, pump, CollectSink(name="old"))
    pump.out_port.peer.peer = None
    pump.out_port.peer = None
    sink = RawSink(name="sink")
    connect(pump.out_port, sink.in_port, check_typespecs=False)
    return CorePipeline([src, pump, sink])


def _cycle_edges():
    src, pump = IterSource([1], name="src"), GreedyPump(name="pump")
    merge, split = MergeTee(2, name="merge"), MulticastTee(2, name="split")
    sink = CollectSink(name="sink")
    return [
        (src.out_port, pump.in_port),
        (pump.out_port, merge.port("in0")),
        (merge.out_port, split.in_port),
        (split.port("out0"), sink.in_port),
        (split.port("out1"), merge.port("in1")),
    ]


def cycle_composed():
    pipe = CorePipeline()
    for out_port, in_port in _cycle_edges():
        pipe.connect(out_port, in_port)
    return pipe


def cycle_behind_composition():
    return wire(*_cycle_edges())


def unconnected_port():
    return pipeline(IterSource([1], name="src"), GreedyPump(name="pump"))


def two_pumps_composed():
    return pipeline(
        IterSource([1], name="src"), GreedyPump(name="p1"),
        GreedyPump(name="p2"), CollectSink(name="sink"),
    )


def two_pumps_in_one_section():
    return pipeline(
        IterSource([1], name="src"), GreedyPump(name="p1"), Unlinked("u"),
        GreedyPump(name="p2"), CollectSink(name="sink"),
    )


def polarity_conflict_in_section():
    src, pump = IterSource([1], name="src"), GreedyPump(name="p")
    u = Unlinked("u")
    router = ActivityRouter(2, name="router")
    p0, p1 = GreedyPump(name="p0"), GreedyPump(name="p1")
    s0, s1 = CollectSink(name="s0"), CollectSink(name="s1")
    return wire(
        (src.out_port, pump.in_port),
        (pump.out_port, u.in_port),
        (u.out_port, router.in_port),
        (router.port("out0"), p0.in_port),
        (p0.out_port, s0.in_port),
        (router.port("out1"), p1.in_port),
        (p1.out_port, s1.in_port),
    )


def unhandled_control_event():
    return pipeline(
        IterSource([1], name="src"), GreedyPump(name="pump"),
        Needy(lambda x: x, name="needy"), CollectSink(name="sink"),
    )


def shared_coroutine_component():
    a, b = IterSource([1], name="a"), IterSource([2], name="b")
    pa, pb = GreedyPump(name="pa"), GreedyPump(name="pb")
    merge = MergeTee(2, name="merge")
    active = ActiveDefragmenter(name="active")
    sink = CollectSink(name="sink")
    return wire(
        (a.out_port, pa.in_port),
        (pa.out_port, merge.port("in0")),
        (b.out_port, pb.in_port),
        (pb.out_port, merge.port("in1")),
        (merge.out_port, active.in_port),
        (active.out_port, sink.in_port),
    )


#: builder -> (error class, message).  ``{p}`` is the session's name
#: prefix: present in what allocation reports (it runs after the fabric
#: namespaced the components), absent from what the builder itself raises.
#: The messages are the parent commit's, character for character.
REJECTED = {
    mismatch_composed: (
        TypespecMismatch,
        "flow into 'sink': no common flow (format: 'mpeg' vs 'raw')",
    ),
    mismatch_behind_composition: (
        TypespecMismatch,
        "flow into '{p}sink': no common flow (format: 'mpeg' vs 'raw')",
    ),
    mismatch_edited_after_composition: (
        TypespecMismatch,
        "flow into '{p}sink': no common flow (format: 'mpeg' vs 'raw')",
    ),
    cycle_composed: (
        CompositionError,
        "data-flow cycle involving: merge, sink, split (feedback must use "
        "control events, not data connections)",
    ),
    cycle_behind_composition: (
        CompositionError,
        "data-flow cycle involving: {p}merge, {p}sink, {p}split (feedback "
        "must use control events, not data connections)",
    ),
    unconnected_port: (
        AllocationError,
        "pipeline is incomplete; unconnected ports: {p}pump.out",
    ),
    two_pumps_composed: (
        CompositionError,
        "cannot connect p1.out (polarity +) to p2.in (polarity +): same "
        "polarity on both ports",
    ),
    two_pumps_in_one_section: (
        AllocationError,
        "section of '{p}p1' reaches a second activity origin '{p}p2' with "
        "no buffer in between; two pumps cannot drive the same pipeline "
        "section",
    ),
    polarity_conflict_in_section: (
        PolarityError,
        "{p}router.in must operate in push mode here, but its polarity "
        "fixes it to pull mode",
    ),
    unhandled_control_event: (
        AllocationError,
        "'{p}needy' sends control event(s) ['exotic-event'] downstream but "
        "no downstream component handles them",
    ),
    shared_coroutine_component: (
        AllocationError,
        "'{p}active' is shared between pipeline sections but its activity "
        "style requires a coroutine; only directly-callable styles "
        "(consumer, function) may sit downstream of a merge or upstream of "
        "an activity router",
    ),
}


def open_in_a_fabric(builder):
    SessionFabric().open_session(builder, name="s")


def set_up_an_engine(builder):
    Pipeline.from_builder(builder).build().engine.setup()


@pytest.mark.parametrize(
    "builder", list(REJECTED), ids=lambda builder: builder.__name__
)
@pytest.mark.parametrize(
    "realise, prefix",
    [(open_in_a_fabric, "s/"), (set_up_an_engine, "")],
    ids=["open_session", "engine_setup"],
)
def test_rejected_program_is_still_rejected(builder, realise, prefix):
    error, message = REJECTED[builder]
    with pytest.raises(error) as caught:
        realise(builder)
    assert type(caught.value) is error
    assert str(caught.value) == message.format(p=prefix)
    if error is TypespecMismatch:
        assert caught.value.conflicts == {"format": ("mpeg", "raw")}
