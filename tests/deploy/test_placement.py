"""Placement planner: legal cut points, LPT balancing, validation."""

import pytest

from repro import Buffer, OnFull, pipeline
from repro.components import (
    CollectSink,
    CountingSource,
    GreedyPump,
    IterSource,
    MapFilter,
)
from repro.deploy import Placement, plan_placement
from repro.deploy.worker import build_program
from repro.errors import DeployError

SRC = "counting(limit=24) >> greedy_pump >> buffer(4) >> greedy_pump >> collect"


def two_segment_pipeline():
    return pipeline(
        IterSource(range(8), name="src"),
        GreedyPump(name="p1"),
        Buffer(4, name="seam"),
        GreedyPump(name="p2"),
        CollectSink(name="sink"),
    )


class TestAutoPlanner:
    def test_single_shard_never_cuts(self):
        plan = plan_placement(two_segment_pipeline(), Placement.auto(1))
        assert plan.shards == 1
        assert plan.cuts == ()
        assert set(plan.assignment.values()) == {0}

    def test_buffer_seam_becomes_the_cut(self):
        plan = plan_placement(two_segment_pipeline(), Placement.auto(2))
        assert len(plan.cuts) == 1
        cut = plan.cuts[0]
        assert cut.kind == "buffer"
        assert cut.via == "seam"
        assert cut.upstream == "p1" and cut.downstream == "p2"
        assert {cut.src_shard, cut.dst_shard} == {0, 1}
        # The seam buffer travels with its upstream segment.
        assert plan.assignment["seam"] == plan.assignment["p1"]

    def test_more_shards_than_segments_fails(self):
        with pytest.raises(DeployError):
            plan_placement(two_segment_pipeline(), Placement.auto(3))

    def test_lang_source_program(self):
        plan = plan_placement(build_program(SRC), Placement.auto(2))
        assert len(plan.cuts) == 1
        assert plan.cuts[0].via == "buffer-1"

    def test_disconnected_chains_spread_without_cuts(self):
        components = []
        for i in range(4):
            components.extend(
                pipeline(
                    IterSource(range(4), name=f"s{i}"),
                    GreedyPump(name=f"p{i}"),
                    CollectSink(name=f"k{i}"),
                ).components
            )
        from repro.core.composition import Pipeline

        plan = plan_placement(Pipeline(components), Placement.auto(2))
        assert plan.cuts == ()
        shard_loads = [
            len(plan.shard_components(s)) for s in range(plan.shards)
        ]
        assert shard_loads == [6, 6]

    def test_weights_steer_the_split(self):
        pipe = two_segment_pipeline()
        heavy_up = plan_placement(
            pipe,
            Placement.auto(2, costs={"p1": 100.0, "src": 100.0}),
        )
        # Upstream segment is heaviest -> it alone on one shard either
        # way; both segments must still be placed on distinct shards.
        assert heavy_up.assignment["p1"] != heavy_up.assignment["p2"]

    def test_drop_policy_buffer_is_not_a_seam(self):
        from repro.components import OnFull

        pipe = pipeline(
            IterSource(range(8), name="src"),
            GreedyPump(name="p1"),
            Buffer(4, on_full=OnFull.DROP_NEW, name="dropper"),
            GreedyPump(name="p2"),
            CollectSink(name="sink"),
        )
        # The only candidate seam is policy-bearing: unsplittable.
        with pytest.raises(DeployError):
            plan_placement(pipe, Placement.auto(2))


class TestExplicitPlacement:
    def test_explicit_assignment_respected(self):
        plan = plan_placement(
            two_segment_pipeline(),
            Placement.explicit({"src": 0, "p2": 1}),
        )
        assert plan.shards == 2
        assert plan.assignment["p1"] == 0
        assert plan.assignment["sink"] == 1

    def test_conflicting_votes_within_segment_fail(self):
        with pytest.raises(DeployError):
            plan_placement(
                two_segment_pipeline(),
                Placement.explicit({"src": 0, "p1": 1}),
            )

    def test_unknown_component_fails(self):
        with pytest.raises(DeployError):
            plan_placement(
                two_segment_pipeline(),
                Placement.explicit({"nope": 0, "p2": 1}),
            )

    def test_cut_through_non_seam_edge_is_rejected(self):
        pipe = pipeline(
            IterSource(range(8), name="src"),
            MapFilter(lambda x: x, name="f"),
            GreedyPump(name="p"),
            CollectSink(name="sink"),
        )
        # One segment, no seams: asking for 2 shards cannot be planned.
        with pytest.raises(DeployError):
            plan_placement(pipe, Placement.auto(2))

    def test_describe_names_every_shard_and_cut(self):
        plan = plan_placement(two_segment_pipeline(), Placement.auto(2))
        text = plan.describe()
        assert "2 shard(s)" in text
        assert "seam" in text
        for name in ("src", "p1", "p2", "sink"):
            assert name in text
