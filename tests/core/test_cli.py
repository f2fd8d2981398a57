"""Tests for the command-line runner."""

import pytest

from repro.__main__ import main


def test_describe_prints_allocation(capsys):
    code = main(["describe",
                 "counting(limit=3) >> greedy_pump >> collect"])
    out = capsys.readouterr().out
    assert code == 0
    assert "coroutine(s)" in out
    assert "end-to-end flow:" in out


def test_run_to_completion_prints_stats(capsys):
    code = main(["run", "counting(limit=5) >> greedy_pump >> collect"])
    out = capsys.readouterr().out
    assert code == 0
    assert "items_in=5" in out


def test_run_with_horizon(capsys):
    code = main([
        "run", "counting >> clocked_pump(10) >> collect", "--until", "1.0",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "items_in=1" in out  # 10-ish items: summary shows items_in=1x
    assert "time=" in out


def test_run_thread_backend(capsys):
    code = main([
        "run",
        "counting(limit=4) >> greedy_pump >> collect",
        "--backend", "thread",
    ])
    assert code == 0


def test_components_lists_factories(capsys):
    code = main(["components"])
    out = capsys.readouterr().out
    assert code == 0
    for name in ("mpeg_file", "decoder", "clocked_pump", "display"):
        assert name in out


def test_errors_reported_cleanly(capsys):
    code = main(["describe", "nonsense_factory >> collect"])
    err = capsys.readouterr().err
    assert code == 1
    assert "error:" in err


def test_run_with_metrics_prints_prometheus(capsys):
    code = main([
        "run", "counting(limit=6) >> greedy_pump >> collect", "--metrics",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "items_in=6" in out
    assert "# TYPE repro_stage_latency_seconds histogram" in out
    assert "repro_component_items_total" in out
    # Telemetry decorates the stats summary with latency aggregates.
    assert "service_p95=" in out


def test_run_exports_trace_and_events(tmp_path, capsys):
    import json

    trace_path = tmp_path / "trace.json"
    events_path = tmp_path / "events.jsonl"
    code = main([
        "run", "counting(limit=4) >> greedy_pump >> collect",
        "--trace-out", str(trace_path), "--events-out", str(events_path),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "trace events" in out
    document = json.loads(trace_path.read_text())
    assert document["traceEvents"]
    for event in document["traceEvents"]:
        assert {"ph", "ts", "pid", "tid", "name"} <= set(event)
    lines = events_path.read_text().splitlines()
    assert lines
    assert {"ts", "kind"} <= set(json.loads(lines[0]))


def test_timeline_command(capsys):
    code = main([
        "timeline", "counting(limit=5) >> greedy_pump >> collect",
        "--width", "32",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "#" in out
    assert "trace:" in out
    assert "scheduled" in out


def test_run_trace_limit_bounds_ring(tmp_path, capsys):
    import json

    trace_path = tmp_path / "trace.json"
    code = main([
        "run", "counting(limit=50) >> greedy_pump >> collect",
        "--trace-out", str(trace_path), "--trace-limit", "10",
    ])
    assert code == 0
    document = json.loads(trace_path.read_text())
    # 10 retained events yield at most 10 slices/instants plus metadata.
    real = [e for e in document["traceEvents"] if e["ph"] != "M"]
    assert 0 < len(real) <= 10


def test_description_from_file(tmp_path, capsys):
    spec = tmp_path / "player.ipc"
    spec.write_text("counting(limit=2) >> greedy_pump >> collect\n")
    code = main(["run", str(spec)])
    out = capsys.readouterr().out
    assert code == 0
    assert "items_in=2" in out


SEAM = "counting(limit=24) >> greedy_pump >> buffer(4) >> greedy_pump >> collect"


def test_deploy_describe_prints_the_plan_without_running(capsys):
    code = main(["deploy", SEAM, "--shards", "2", "--describe"])
    out = capsys.readouterr().out
    assert code == 0
    assert "buffer-1" in out and "shard 0 -> 1" in out
    assert "completed=" not in out


def test_deploy_two_shards_prints_gathered_stats(capsys):
    code = main(["deploy", SEAM, "--shards", "2", "--timeout", "60"])
    out = capsys.readouterr().out
    assert code == 0
    assert "shards=2 transport=socketpair completed=True" in out
    assert "shard 1:" in out and "sink_items=24" in out
    assert "repro_" not in out  # no --metrics, no exposition


def test_deploy_metrics_and_flow_sample_reach_every_shard(capsys):
    code = main([
        "deploy", SEAM, "--shards", "2", "--timeout", "60",
        "--metrics", "--flow-sample", "1",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert 'repro_flow_traces_total{shard="0",status="delivered"} 0' in out
    assert 'repro_flow_traces_total{shard="1",status="delivered"} 24' in out


def test_deploy_place_assigns_components_explicitly(capsys):
    """``--place`` pins the two pumps; their segments follow them."""
    code = main([
        "deploy", SEAM, "--shards", "2", "--describe",
        "--place", "greedy-pump-1:0, greedy-pump-2:1",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "shard 0: buffer-1, counting-source-1, greedy-pump-1" in out
    assert "shard 1: collect-sink-1, greedy-pump-2" in out
    assert "greedy-pump-1 --buffer-1--> greedy-pump-2  (shard 0 -> 1)" in out


@pytest.mark.parametrize("entry", ["greedy-pump-1", ":1"])
def test_deploy_place_rejects_an_entry_that_is_not_name_colon_shard(
    entry, capsys
):
    code = main(["deploy", SEAM, "--shards", "2", "--describe",
                 "--place", f"greedy-pump-2:1,{entry}"])
    err = capsys.readouterr().err
    assert code == 1
    assert err == f"error: --place entry {entry!r} is not name:shard\n"


@pytest.mark.parametrize("command, flag", [
    ("deploy", ["--until", "1"]),
    ("deploy", ["--max-steps", "10"]),
    ("deploy", ["--trace-limit", "10"]),
    ("deploy", ["--slo-latency", "0.5"]),
    ("run", ["--shards", "2"]),
    ("top", ["--metrics"]),
    ("top", ["--trace-limit", "10"]),
    ("timeline", ["--flow-sample", "1"]),
])
def test_a_flag_the_command_does_not_read_is_an_error(
    command, flag, capsys
):
    with pytest.raises(SystemExit) as exit_info:
        main([command, SEAM, *flag])
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
