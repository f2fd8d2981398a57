"""Unit tests for the composition microlanguage."""

import pytest

from repro import CollectSink, TypespecMismatch, allocate, api
from repro.lang import LangError, Registry, build, default_registry, parse
from repro.lang.parser import Chain, FactoryCall, Reference


class TestParser:
    def test_single_chain(self):
        chains = parse("a >> b >> c")
        assert len(chains) == 1
        assert [e.name for e in chains[0].endpoints] == ["a", "b", "c"]

    def test_arguments(self):
        (chain,) = parse('src(300, name="hello", rate=29.97, live=true)')
        call = chain.endpoints[0]
        assert call.args == (300,)
        assert call.kwargs_dict() == {
            "name": "hello", "rate": 29.97, "live": True,
        }

    def test_alias_and_reference(self):
        chains = parse("tee(2) : t\nt.out0 >> sink")
        assert chains[0].endpoints[0].alias == "t"
        ref = chains[1].endpoints[0]
        assert isinstance(ref, Reference)
        assert (ref.alias, ref.port) == ("t", "out0")

    def test_comments_and_blank_lines(self):
        chains = parse(
            """
            # the producer
            a >> b   # inline comment

            c >> d
            """
        )
        assert len(chains) == 2

    def test_semicolons_separate_statements(self):
        assert len(parse("a >> b; c >> d")) == 2

    def test_line_continuation_after_arrow(self):
        (chain,) = parse("a >>\n    b >> c")
        assert len(chain.endpoints) == 3

    def test_errors_carry_line_numbers(self):
        with pytest.raises(LangError, match="line 2"):
            parse("a >> b\na >> >> b")

    def test_unquoted_string_rejected(self):
        with pytest.raises(LangError, match="quote"):
            parse("src(hello)")

    def test_garbage_rejected(self):
        with pytest.raises(LangError):
            parse("a >> @b")

    def test_empty_args(self):
        (chain,) = parse("src()")
        assert chain.endpoints[0].args == ()


class TestRegistry:
    def test_default_registry_knows_builtins(self):
        registry = default_registry()
        for name in ("mpeg_file", "decoder", "clocked_pump", "display",
                     "buffer", "tee", "collect"):
            assert registry.knows(name)

    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(LangError, match="unknown component"):
            Registry().resolve("ghost")

    def test_child_scope_shadows_parent(self):
        parent = default_registry()
        child = parent.child()
        child.register("collect", lambda: CollectSink(name="shadowed"))
        assert child.resolve("collect")().name == "shadowed"
        assert parent.resolve("collect") is not child.resolve("collect")


class TestBuilder:
    def test_quickstart_description_runs(self):
        result = build(
            'mpeg_file("test.mpg", frames=30) >> decoder '
            ">> clocked_pump(30) >> display : screen"
        )
        api.Pipeline.from_pipeline(result.pipeline).run()
        assert result["screen"].stats["displayed"] == 30

    def test_allocation_matches_hand_built(self):
        result = build(
            "mpeg_file(frames=1) >> decoder >> clocked_pump(30) >> display"
        )
        plan = allocate(result.pipeline)
        assert plan.sections[0].coroutine_count == 2

    def test_tee_topology(self):
        result = build(
            """
            counting(limit=6) >> greedy_pump >> tee(2) : t
            t.out0 >> collect : left
            t.out1 >> collect : right
            """
        )
        api.Pipeline.from_pipeline(result.pipeline).run()
        assert result["left"].items == list(range(6))
        assert result["right"].items == list(range(6))

    def test_merge_two_chains(self):
        result = build(
            """
            counting(limit=3) >> greedy_pump >> merge(2) : m
            counting(limit=3) >> greedy_pump >> m
            m >> collect : out
            """
        )
        api.Pipeline.from_pipeline(result.pipeline).run()
        assert sorted(result["out"].items) == [0, 0, 1, 1, 2, 2]

    def test_bare_name_resolves_alias_before_factory(self):
        result = build(
            """
            counting(limit=2) >> greedy_pump >> gate : g
            """
        )
        assert result["g"].open

    def test_type_errors_surface(self):
        with pytest.raises(TypespecMismatch):
            build("mpeg_file(frames=1) >> clocked_pump(30) >> display")

    def test_bad_factory_arguments_reported_with_line(self):
        with pytest.raises(LangError, match="rejected its arguments"):
            build("clocked_pump(30, nonsense=1) >> collect")

    def test_unknown_alias_reported(self):
        with pytest.raises(LangError, match="unknown alias"):
            build("nowhere.out0 >> collect")

    def test_duplicate_alias_rejected(self):
        with pytest.raises(LangError, match="already used"):
            build("counting : x\ncounting : x")

    def test_empty_description_rejected(self):
        with pytest.raises(LangError, match="empty"):
            build("   \n  # nothing\n")

    def test_ambiguous_out_port_needs_explicit_name(self):
        with pytest.raises(LangError, match="explicit out port"):
            build("counting(limit=1) >> greedy_pump >> tee(2) >> collect")

    def test_custom_registry(self):
        registry = default_registry().child()
        registry.register("double", lambda: _DoubleFilter())
        result = build(
            "counting(limit=3) >> greedy_pump >> double >> collect : out",
            registry=registry,
        )
        api.Pipeline.from_pipeline(result.pipeline).run()
        assert result["out"].items == [0, 2, 4]


def _DoubleFilter():
    from repro import MapFilter

    return MapFilter(lambda x: x * 2)
