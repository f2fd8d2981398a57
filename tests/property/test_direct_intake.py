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
from repro.core.styles import Producer, Style
from repro.mbt.message import Message


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
