"""Dashboard rendering and the refresh loop."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro import (
    Buffer,
    CollectSink,
    Engine,
    GreedyPump,
    IterSource,
    MapFilter,
    pipeline,
)
from repro.__main__ import main
from repro.api import Pipeline
from repro.obs import (
    FlowTracer,
    Telemetry,
    render_top,
)
from repro.obs.dashboard import _TOP_FAMILIES, Dashboard


def _traced_run():
    engine = Engine(
        pipeline(IterSource(range(30)), GreedyPump(), CollectSink())
    )
    telemetry = Telemetry().attach(engine)
    tracer = FlowTracer(
        sample_every=1, registry=telemetry.registry
    ).attach(engine)
    engine.start()
    engine.run()
    tracer.finalize_inflight()
    return engine, telemetry, tracer


class TestRenderTop:
    def test_sections_present(self):
        engine, telemetry, tracer = _traced_run()
        text = render_top(
            registry=telemetry.registry, tracer=tracer, engine=engine,
        )
        assert text.startswith("repro top")
        for section in ("METRICS", "FLOW"):
            assert section in text
        assert "births=30" in text
        assert "delivered=30" in text

    def test_pure_function_no_state_needed(self):
        # Renders something sensible even with nothing attached.
        text = render_top(now=1.25)
        assert "t=1.250s" in text

    def test_width_is_enforced(self):
        engine, telemetry, tracer = _traced_run()
        text = render_top(
            registry=telemetry.registry, tracer=tracer, width=40
        )
        assert all(len(line) <= 40 for line in text.splitlines())


    def test_top_families_are_published_and_lead_the_pane(self):
        """Every family the metrics pane puts first is one Telemetry and
        FlowTracer register, so stage latency shows on a seven-stage run
        (at the parent two names nothing publishes stood there, and the
        24 lines filled with per-component byte gauges first)."""
        built = Pipeline.from_pipeline(pipeline(
            IterSource(range(64)), MapFilter(lambda x: x), GreedyPump(),
            Buffer(capacity=8), GreedyPump(), MapFilter(lambda x: x),
            CollectSink(),
        )).with_metrics().with_tracing(4).run()
        registry = built.telemetry.registry
        assert [f for f in _TOP_FAMILIES if f not in registry.families()] == []
        frame = render_top(registry=registry, tracer=built.tracer)
        assert "  repro_stage_latency_seconds{stage=" in frame


class TestDashboardLoop:
    def test_plain_renders_requested_frames(self):
        frames = []
        dashboard = Dashboard(lambda: "frame\n")
        out = io.StringIO()
        rendered = dashboard.run_plain(frames=3, out=out)
        assert rendered == 3
        assert out.getvalue() == "frame\n" * 3

    def test_advance_drives_the_pipeline_between_frames(self):
        state = {"steps": 0}

        def advance():
            state["steps"] += 1
            return state["steps"] < 2

        dashboard = Dashboard(lambda: "x\n", advance=advance)
        out = io.StringIO()
        dashboard.run_plain(frames=None, out=out)
        assert state["steps"] == 2
        # initial frame + one per advance that returned True + final
        assert out.getvalue().count("x") == 3

    def test_run_falls_back_to_plain_off_terminal(self, capsys):
        dashboard = Dashboard(lambda: "y\n")
        rendered = dashboard.run(frames=1, plain=True)
        assert rendered == 1
        assert "y" in capsys.readouterr().out


    def test_curses_loop_draws_clips_and_quits(self, monkeypatch):
        """The full-screen loop against a scripted screen (no terminal in
        CI): frames are clipped to the window, ``q`` quits, and a
        finished pipeline keeps refreshing until it does."""
        import sys
        import types

        drawn, naps = [], []

        class Screen:
            keys = iter([-1, -1, -1, ord("q")])

            def nodelay(self, flag): pass
            def erase(self): drawn.append([])
            def refresh(self): pass
            def getmaxyx(self): return 3, 8  # 2 usable rows, 7 columns
            def getch(self): return next(self.keys, -1)

            def addnstr(self, y, x, line, width):
                drawn[-1].append((y, x, line[:width]))

        fake = types.SimpleNamespace(
            curs_set=lambda visibility: None,
            napms=naps.append,
            wrapper=lambda loop: loop(Screen()),
        )
        monkeypatch.setitem(sys.modules, "curses", fake)
        steps = iter([True, False])
        dashboard = Dashboard(
            lambda: "0123456789\nsecond\nthird\n",
            advance=lambda: next(steps), interval=0.25,
        )
        assert dashboard.run_curses() == 4
        assert drawn == [[(0, 0, "0123456"), (1, 0, "second")]] * 4
        # After the third frame the pipeline had finished, so the loop
        # slept one interval instead of stepping; the fourth saw the q.
        assert naps == [250]
        # A frame budget ends the loop without a key.
        assert Dashboard(lambda: "x\n").run_curses(frames=2) == 2


class TestCli:
    DESC = "counting(limit=25) >> greedy_pump >> collect"

    def test_top_plain_smoke(self, capsys):
        code = main([
            "top", self.DESC, "--until", "1", "--plain", "--frames", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("repro top") == 2
        assert "METRICS" in out and "FLOW" in out

    def test_run_flow_out_writes_trace_log(self, tmp_path, capsys):
        path = tmp_path / "flows.jsonl"
        code = main(["run", self.DESC, "--flow-out", str(path)])
        assert code == 0
        lines = path.read_text().splitlines()
        assert len(lines) == 25
        first = json.loads(lines[0])
        assert first["status"] == "delivered"
        assert first["segments"]


def test_importing_repro_obs_loads_no_http_server():
    """Nothing in ``repro.obs`` serves over HTTP, so a fresh interpreter
    that imports it must not have paid for ``http.server`` (or the
    ``socketserver`` beneath it)."""
    code = (
        "import sys, repro.obs; "
        "print(sorted({'http.server', 'socketserver'} & set(sys.modules)))"
    )
    src = str(Path(repro.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert done.stdout.strip() == "[]"
