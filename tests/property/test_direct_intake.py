"""Property: the direct route refines the replayed one.

A direct-called producer whose upstream is plain code of its own section
calls it from inside ``get()``; over a gate the same ``get()`` aborts the
pull and the walker feeds the intake (deterministic replay).  The oracle
is the same program with a pump + ``Buffer`` spliced in front of every
input port of the producer, which forces the gate: every sink stream and
every item count must be equal, on the per-item walkers and on both
batch tiers.  On the direct route alone, nothing is fetched before a
``get()`` asks for it, and ``pull()`` executes exactly once per answer it
gives (an output, a NIL, the final EOS).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    Buffer,
    CollectSink,
    Engine,
    GreedyPump,
    IterSource,
    MapFilter,
)
from repro.core.component import Component, Role
from repro.core.composition import Pipeline
from repro.core.events import EOS
from repro.core.items import NIL
from repro.core.styles import EndOfStream, Producer, Style
from repro.errors import RuntimeFault
from repro.mbt.message import Message
from repro.runtime.bridge import NeedMoreInput, ReplayIntake


class CountedSource(IterSource):
    """Counts how often it was pulled, and what it answered."""

    def __init__(self, stream, name):
        super().__init__(stream, name=name)
        self.pulls = self.nils = 0
        self.ended = False

    def pull(self):
        self.pulls += 1
        item = super().pull()
        self.nils += item is NIL
        self.ended |= item is EOS
        return item


class Scripted(Component):
    """A producer whose ``n``-th output reads the ports ``script[n]``
    names, in that order — between none and four ``get()``s, so neither
    the demand per output nor its split over the ports is constant.
    Replay-safe: state moves only once every ``get()`` has answered."""

    style = Style.PRODUCER
    role = Role.TRANSFORM
    get = Producer.get

    def __init__(self, n_ports, script, sources):
        super().__init__("scripted")
        for index in range(n_ports):
            self.add_in_port(f"in{index}")
        self.add_out_port()
        self.mode_links = tuple((f"in{i}", "out") for i in range(n_ports))
        self.script, self.sources = script, sources
        self.made = self.executions = 0
        #: Per completed pull: how often each source had been pulled.
        self.drawn = []

    def pull(self):
        self.executions += 1
        wanted = self.script[self.made % len(self.script)]
        reads = tuple(self.get(f"in{port}") for port in wanted)
        self.made += 1
        self.drawn.append([source.pulls for source in self.sources])
        return (self.made, reads)


streams = st.lists(
    st.one_of(st.integers(0, 99), st.integers(0, 99), st.just(NIL)),
    max_size=24,
)


@st.composite
def scenarios(draw):
    n_ports = draw(st.integers(1, 2))
    script = draw(
        st.lists(
            st.lists(st.integers(0, n_ports - 1), max_size=4),
            min_size=1, max_size=6,
        ).filter(any_reads)
    )
    return (
        [draw(streams) for _ in range(n_ports)],
        [draw(st.integers(0, 2)) for _ in range(n_ports)],  # function hops
        script,
        draw(st.sampled_from([1, 8, 32])),
    )


def any_reads(script):
    return any(script_round for script_round in script)


def run(scenario, spliced):
    port_streams, hops, script, batch_max = scenario
    graph = Pipeline()
    sources = [
        CountedSource(stream, f"source{p}")
        for p, stream in enumerate(port_streams)
    ]
    producer = Scripted(len(sources), script, sources)
    pump, sink = GreedyPump(name="pump"), CollectSink(name="sink")
    for component in (*sources, producer, pump, sink):
        graph.add(component)
    for p, source in enumerate(sources):
        tail = source
        for h in range(hops[p]):
            hop = MapFilter(lambda x, k=h + 1: 3 * x + k, name=f"hop{p}.{h}")
            graph.add(hop)
            graph.connect(tail.out_port, hop.in_port)
            tail = hop
        if spliced:
            feeder = GreedyPump(name=f"feeder{p}")
            buffer = Buffer(capacity=3, name=f"buffer{p}")
            graph.add(feeder)
            graph.add(buffer)
            graph.connect(tail.out_port, feeder.in_port)
            graph.connect(feeder.out_port, buffer.in_port)
            tail = buffer
        graph.connect(tail.out_port, producer.port(f"in{p}"))
    graph.connect(producer.out_port, pump.in_port)
    graph.connect(pump.out_port, sink.in_port)

    engine = Engine(graph, batch_max=batch_max)
    engine.start()
    (final,) = [d for d in engine.pump_drivers if d.origin is pump]
    for _ in range(sum(len(s) for s in port_streams) + 2):
        engine.run(max_steps=100_000)
        if final.finished:
            break
        # A greedy pump that met a NIL sleeps until a gate wakes it; these
        # sources have none, so the test sends the wake.
        for driver in engine.pump_drivers:
            if driver.waiting_for_data:
                engine.scheduler.post(
                    Message(kind="cycle", target=driver.thread_name,
                            sender="test")
                )
    assert final.finished
    return engine, sources, producer, sink


def counts(engine, sources):
    """items_in / items_out of what both routes share.  A port the
    producer never exhausted is left out: the oracle's feeder runs ahead
    of demand there, which is the difference being tested for."""
    exhausted = tuple(
        prefix
        for p, source in enumerate(sources) if source.ended
        for prefix in (f"source{p}", f"hop{p}.")
    )
    return {
        name: (stats["items_in"], stats["items_out"])
        for name, stats in engine.stats.components.items()
        if name in ("scripted", "pump", "sink") or name.startswith(exhausted)
    }


def position_of(stream, nth):
    """How many pulls deliver ``stream``'s ``nth`` data item (0 for none)."""
    seen = 0
    for index, item in enumerate(stream):
        seen += item is not NIL
        if nth and seen == nth:
            return index + 1
    return 0


@given(scenarios())
@settings(max_examples=120, deadline=None)
def test_direct_route_equals_replayed_route(scenario):
    port_streams, _, script, _ = scenario
    engine, sources, producer, sink = run(scenario, spliced=False)
    oracle, oracle_sources, _, oracle_sink = run(scenario, spliced=True)

    assert sink.items == oracle_sink.items
    assert counts(engine, sources) == counts(oracle, sources)

    # Nothing is fetched before a get() asks for it: when the n-th pull
    # returns, each source has been pulled exactly up to the last item
    # those n pulls read from it.
    assert len(producer.drawn) == len(sink.items)
    read = [0] * len(sources)
    for n, drawn in enumerate(producer.drawn):
        for port in script[n % len(script)]:
            read[port] += 1
        assert drawn == [
            position_of(stream, read[p])
            for p, stream in enumerate(port_streams)
        ]

    # One execution per answer: an output, a NIL, the final EOS.
    assert producer.executions == (
        len(sink.items) + sum(s.nils for s in sources) + 1
    )


# ---------------------------------------------------------------------------
# The port closure against its specification
# ---------------------------------------------------------------------------
#
# ``ReplayIntake`` as it stood before a port became one closure family,
# written out as a model: one ``read`` cursor per port reset by ``begin``
# before every attempt, a fetcher that is upstream's counting ``serve``.
# The real intake is driven the way the two compiled walkers drive it —
# ``producer_pull`` begins every attempt, ``producer_plain`` never does and
# rewinds on the two abort paths instead; upstream's raw entry is bound
# together with its stats — through hypothesis schedules of attempts, feeds
# and mid-stream re-binds; after every step both must have returned the
# same values, raised the same exception, hold the same buffers and have
# counted the same ``items_in`` / ``items_out``.

PORTS = ("in0", "in1")


class Upstream:
    """A scripted source: hands out its answers, then EOS for ever."""

    def __init__(self, answers):
        self.answers = list(answers)
        self.stats = {"items_out": 0}

    def pull(self):
        return self.answers.pop(0) if self.answers else EOS

    def serve(self):  # Component.serve_pull: the counting entry
        item = self.pull()
        if item is not EOS and item is not NIL:
            self.stats["items_out"] += 1
        return item


class ModelIntake:
    """The reference semantics (the parent commit's ``ReplayIntake``)."""

    def __init__(self):
        self.buffers = {p: [] for p in PORTS}
        self.read = dict.fromkeys(PORTS, 0)
        self.fetch = dict.fromkeys(PORTS)
        self.eos, self.items_in = set(), 0

    def get(self, port):
        if port not in self.buffers:
            raise RuntimeFault(port)
        index, buffer = self.read[port], self.buffers[port]
        if index < len(buffer):
            item = buffer[index]
        elif port in self.eos:
            raise EndOfStream(port)
        elif self.fetch[port] is None:
            raise NeedMoreInput(port)
        else:
            item = self.fetch[port]()
            if item is NIL:
                raise NeedMoreInput(port)
            if item is EOS:
                self.eos.add(port)
            buffer.append(item)
        self.read[port] = index + 1
        if item is EOS:
            raise EndOfStream(port)
        return item

    def attempt(self, gets):
        self.read = dict.fromkeys(PORTS, 0)  # begin()
        values = [self.get(port) for port in gets]
        for port, count in self.read.items():  # commit()
            del self.buffers[port][:count]
            self.items_in += count
        return values

    def feed(self, port, item):
        if item is EOS:
            self.eos.add(port)
        self.buffers[port].append(item)


class Walker:
    """The real intake, installed on a two-input producer and driven by a
    compiled walker's protocol: ``"pull"`` begins every attempt,
    ``"plain"`` rewinds on the two aborts — and ``"mutant"`` is its twin
    that forgets the rewind after a NIL / replay abort."""

    def __init__(self, protocol):
        self.producer = Scripted(2, [[0]], [])
        self.intake = ReplayIntake(list(PORTS))
        self.intake.install(self.producer)
        self.begins = protocol == "pull"
        self.rewinds = protocol == "plain"

    def attempt(self, gets):
        if self.begins:
            self.intake.begin()
        try:
            values = [self.producer.get(port) for port in gets]
        except NeedMoreInput:
            if self.rewinds:
                self.intake.begin()
            raise
        except EndOfStream:
            self.intake.begin()
            raise
        self.intake.commit()
        return values


def outcome(fn, *args):
    try:
        return ("returned", fn(*args))
    except (NeedMoreInput, EndOfStream) as exc:
        return (type(exc).__name__, exc.args[0])
    except RuntimeFault:
        return ("RuntimeFault", None)


answers = st.lists(
    st.one_of(st.integers(0, 9), st.integers(0, 9), st.just(NIL), st.just(EOS)),
    max_size=12,
)
steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("attempt"),
            st.lists(st.sampled_from(PORTS + PORTS + ("in7",)), max_size=4),
        ),
        st.tuples(
            st.just("feed"), st.sampled_from(PORTS),
            st.one_of(st.integers(10, 19), st.just(EOS)),
        ),
        # direct over the raw entry, direct over a counting entry, replayed
        st.tuples(
            st.just("bind"), st.sampled_from(PORTS),
            st.sampled_from(["raw", "served", None]),
        ),
    ),
    max_size=24,
)


def check_against_the_model(schedule, protocol):
    port_answers, script = schedule
    walker, model = Walker(protocol), ModelIntake()
    real_up = {p: Upstream(a) for p, a in zip(PORTS, port_answers)}
    model_up = {p: Upstream(a) for p, a in zip(PORTS, port_answers)}
    for step in script:
        if step[0] == "attempt":
            result = outcome(walker.attempt, step[1])
            assert result == outcome(model.attempt, step[1])
            if result[0] == "RuntimeFault" and not walker.begins:
                return  # it crashed the one thread that runs a plain walker
        elif step[0] == "feed":
            walker.intake.feed(*step[1:])
            model.feed(*step[1:])
        else:
            _, port, route = step
            model.fetch[port] = model_up[port].serve if route else None
            if route == "raw":
                walker.intake.bind(
                    port, real_up[port].pull, real_up[port].stats
                )
            else:
                walker.intake.bind(port, route and real_up[port].serve)
        assert {
            p: list(b) for p, b in walker.intake.buffers.items()
        } == model.buffers
        assert walker.intake.eos == model.eos
        assert walker.intake.held() == sum(
            item is not EOS for b in model.buffers.values() for item in b
        )
        assert walker.producer.stats["items_in"] == model.items_in
        assert [u.stats for u in real_up.values()] == [
            u.stats for u in model_up.values()
        ]


schedules = st.tuples(st.tuples(answers, answers), steps)


@pytest.mark.parametrize("protocol", ["pull", "plain"])
@given(schedule=schedules)
@settings(max_examples=300, deadline=None)
def test_port_closure_equals_the_reference_intake(protocol, schedule):
    check_against_the_model(schedule, protocol)


def test_a_walker_that_forgets_to_rewind_is_rejected():
    """The mutant twin: after an attempt read one fragment and met NIL,
    the next attempt starts past it — the fragment is never re-read, a
    fresh one is fetched in its place and committed for it."""
    mutant = given(schedules)(
        settings(max_examples=300, deadline=None, derandomize=True,
                 database=None, report_multiple_bugs=False)(
            lambda schedule: check_against_the_model(schedule, "mutant")
        )
    )
    with pytest.raises(AssertionError):
        mutant()
