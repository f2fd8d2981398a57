"""Unit tests for pipeline composition and Typespec derivation."""

import pytest

from repro import (
    Buffer,
    ClockedPump,
    CollectSink,
    CompositionError,
    GreedyPump,
    IterSource,
    MapFilter,
    MulticastTee,
    Pipeline,
    TypespecMismatch,
    connect,
    pipeline,
)
from repro.core.polarity import Mode
from repro.core.typespec import Interval, Typespec
from repro.errors import PortError
from repro.runtime.engine import Engine


def ident(name=None, **kw):
    return MapFilter(lambda x: x, name=name, **kw)


class TestRshift:
    def test_builds_pipeline_in_order(self):
        src, pump, sink = IterSource([1]), GreedyPump(), CollectSink()
        pipe = src >> pump >> sink
        assert pipe.components == [src, pump, sink]
        assert pipe.is_complete()

    def test_pipeline_rshift_component(self):
        src, f, pump, sink = IterSource([1]), ident(), GreedyPump(), CollectSink()
        pipe = (src >> f) >> (pump >> sink)
        assert pipe.is_complete()
        assert len(pipe) == 4

    def test_pipeline_function_equivalent(self):
        src, pump, sink = IterSource([1]), GreedyPump(), CollectSink()
        pipe = pipeline(src, pump, sink)
        assert pipe.is_complete()

    def test_component_reuse_is_rejected(self):
        f = ident()
        IterSource([1]) >> f
        with pytest.raises(PortError):
            IterSource([2]) >> f

    def test_rshift_needs_single_free_ports(self):
        src1, src2 = IterSource([1]), IterSource([2])
        two_tails = Pipeline([src1, src2])
        with pytest.raises(PortError):
            two_tails >> CollectSink()


class TestPolarityChecking:
    def test_same_polarity_connection_rejected(self):
        # Buffer out receives pulls; buffer in receives pushes: both
        # negative -> composition error, a pump is needed in between.
        with pytest.raises(CompositionError):
            Buffer() >> Buffer()

    def test_passive_source_to_passive_sink_rejected(self):
        with pytest.raises(CompositionError):
            IterSource([1]) >> CollectSink()

    def test_filter_chain_induces_polarity_from_pump(self):
        src, f1, f2, pump, sink = (
            IterSource([1]), ident(), ident(), GreedyPump(), CollectSink()
        )
        src >> f1 >> f2 >> pump >> sink
        assert f1.in_port.mode is Mode.PULL
        assert f2.out_port.mode is Mode.PULL

    def test_filter_chain_cannot_close_both_passive_ends(self):
        src, f = IterSource([1]), ident()
        src >> f  # filter chain induced to pull mode
        with pytest.raises(CompositionError):
            Pipeline([f]) >> CollectSink()  # sink needs push


class TestTypespecDerivation:
    def test_incompatible_item_types_raise_at_connect(self):
        src = IterSource([1], flow_spec=Typespec(item_type="audio"))
        picky = ident(input_spec=Typespec(item_type="video"))
        with pytest.raises(TypespecMismatch):
            src >> picky

    def test_transform_enables_downstream_match(self):
        src = IterSource([1], flow_spec=Typespec(format="mpeg"))
        decoder = ident(
            input_spec=Typespec(format="mpeg"),
            output_props={"format": "raw"},
        )
        sink = CollectSink(input_spec=Typespec(format="raw"))
        pipe = src >> decoder >> GreedyPump() >> sink
        assert pipe.end_to_end_typespec()["format"] == "raw"

    def test_direct_connection_fails_without_transform(self):
        src = IterSource([1], flow_spec=Typespec(format="mpeg"))
        sink_spec = Typespec(format="raw")
        with pytest.raises(TypespecMismatch):
            src >> GreedyPump() >> CollectSink(input_spec=sink_spec)

    def test_qos_ranges_narrow_along_the_pipeline(self):
        src = IterSource([1], flow_spec=Typespec(frame_rate=Interval(0, 60)))
        limited = ident(input_spec=Typespec(frame_rate=Interval(0, 30)))
        pipe = src >> limited >> GreedyPump() >> CollectSink()
        spec = pipe.typespec_at(limited.out_port)
        assert spec["frame_rate"] == Interval(0, 30)

    def test_typespec_at_input_port(self):
        src = IterSource([1], flow_spec=Typespec(a=1))
        pump, sink = GreedyPump(), CollectSink()
        pipe = src >> pump >> sink
        assert pipe.typespec_at(sink.in_port)["a"] == 1

    def test_end_to_end_requires_single_sink(self):
        pipe = Pipeline([IterSource([1])])
        with pytest.raises(PortError):
            pipe.end_to_end_typespec()


class TestPipelineDerivesOnce:
    """``pipeline(a, b, c, d)`` connects the whole chain and folds the
    Typespecs forward once; ``>>`` re-derives after every join.  Same
    pipeline, same first error."""

    @staticmethod
    def chain(sink_format="raw", second_format="mpeg"):
        return (
            IterSource([1], flow_spec=Typespec(format="mpeg"), name="src"),
            ident("first", input_spec=Typespec(format="mpeg")),
            ident("second", input_spec=Typespec(format=second_format),
                  output_props={"format": "raw"}),
            GreedyPump(name="pump"),
            CollectSink(name="sink", input_spec=Typespec(format=sink_format)),
        )

    def test_one_derivation_for_the_whole_chain(self, monkeypatch):
        from repro.core import composition

        calls = []
        derive = composition.derive_typespecs
        monkeypatch.setattr(
            composition, "derive_typespecs",
            lambda components: calls.append(1) or derive(components),
        )
        pipe = pipeline(*self.chain())
        assert len(calls) == 1
        assert pipe.is_complete() and len(pipe) == 5
        assert pipe.end_to_end_typespec()["format"] == "raw"

    @pytest.mark.parametrize(
        "faults", [{"sink_format": "h264"}, {"second_format": "h264"},
                   {"sink_format": "h264", "second_format": "h264"}],
    )
    def test_same_first_mismatch_as_rshift(self, faults):
        with pytest.raises(TypespecMismatch) as folded:
            pipeline(*self.chain(**faults))
        a, b, c, d, e = self.chain(**faults)
        with pytest.raises(TypespecMismatch) as joined:
            a >> b >> c >> d >> e
        assert str(folded.value) == str(joined.value)
        assert folded.value.conflicts == joined.value.conflicts

    def test_a_mismatch_before_a_failing_join_is_still_reported_first(self):
        parts = self.chain(second_format="h264")[:3] + (Buffer(), Buffer())
        with pytest.raises(TypespecMismatch):
            pipeline(*parts)
        ok = self.chain()[:3] + (GreedyPump(), Buffer(), Buffer())
        with pytest.raises(CompositionError, match="same polarity"):
            pipeline(*ok)

    def test_pipelines_as_parts_and_the_empty_call(self):
        src, f, pump, sink = IterSource([1]), ident(), GreedyPump(), CollectSink()
        pipe = pipeline(src >> f, pump >> sink)
        assert pipe.components == [src, f, pump, sink] and pipe.is_complete()
        assert len(pipeline()) == 0
        assert pipeline(src).components == [src]


class TestPipelineQueries:
    def test_component_lookup_by_name(self):
        pump = GreedyPump(name="the-pump")
        pipe = IterSource([1]) >> pump >> CollectSink()
        assert pipe.component("the-pump") is pump
        with pytest.raises(PortError):
            pipe.component("ghost")

    def test_sources_and_sinks(self):
        src, sink = IterSource([1]), CollectSink()
        pipe = src >> GreedyPump() >> sink
        assert pipe.sources() == [src]
        assert pipe.sinks() == [sink]

    def test_free_ports_on_partial_pipeline(self):
        src, f = IterSource([1]), ident()
        partial = src >> f
        assert partial.free_in_ports() == []
        assert len(partial.free_out_ports()) == 1

    def test_contains_and_iter(self):
        src, pump, sink = IterSource([1]), GreedyPump(), CollectSink()
        pipe = src >> pump >> sink
        assert pump in pipe
        assert list(pipe) == [src, pump, sink]


class TestConnectValidation:
    def test_connect_wrong_directions(self):
        a, b = ident(), ident()
        with pytest.raises(PortError):
            connect(a.in_port, b.in_port)
        with pytest.raises(PortError):
            connect(a.out_port, b.out_port)

    def test_double_connect_rejected(self):
        a, b, c = ident(), ident(), ident()
        connect(a.out_port, b.in_port)
        with pytest.raises(PortError):
            connect(a.out_port, c.in_port)

    def test_data_cycle_rejected(self):
        a, b = ident(), ident()
        connect(a.out_port, b.in_port, check_typespecs=False)
        with pytest.raises(CompositionError, match="cycle"):
            connect(b.out_port, a.in_port)


class TestFlowSpecs:
    """A derivation checks the whole graph every time; the
    ``"component.port"`` map it returns is built only when read."""

    @staticmethod
    def tee_pipeline():
        src = IterSource([1], flow_spec=Typespec(a=1), name="src")
        pump, tee = GreedyPump(name="pump"), MulticastTee(2, name="tee")
        sinks = [CollectSink(name=f"sink{i}") for i in range(2)]
        pipe = src >> pump >> tee
        pipe.connect(tee.port("out0"), sinks[0].in_port)
        pipe.connect(tee.port("out1"), sinks[1].in_port)
        return pipe

    def test_the_map_once_read_names_every_connection(self):
        pipe = self.tee_pipeline()
        specs = pipe.derive_typespecs()
        connected = {
            port.qualified_name()
            for component in pipe
            for port in component.out_ports()
            if port.peer is not None
        }
        assert connected == {"src.out", "pump.out", "tee.out0", "tee.out1"}
        assert set(specs) == connected and len(specs) == 4
        for name in connected:
            assert specs[name]["a"] == 1
        assert specs.get("sink0.in") is None

    def test_a_derivation_nobody_reads_keys_nothing(self, monkeypatch):
        from repro.core.component import Port

        keyed = []
        qualified_name = Port.qualified_name
        monkeypatch.setattr(
            Port, "qualified_name",
            lambda port: keyed.append(port) or qualified_name(port),
        )
        pipe = self.tee_pipeline()
        Engine(pipe).setup()  # composes, then allocate re-derives
        assert keyed == []
        assert pipe.derive_typespecs()["tee.out0"]["a"] == 1
        assert len(keyed) == 4  # one key per connection, on first read
