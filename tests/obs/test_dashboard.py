"""Dashboard rendering, the refresh loop, and the metrics endpoint."""

import io
import json
import urllib.request

from repro import CollectSink, Engine, GreedyPump, IterSource, pipeline
from repro.__main__ import main
from repro.obs import (
    FlowTracer,
    MetricsRegistry,
    MetricsServer,
    Objective,
    SloEngine,
    Telemetry,
    render_top,
)
from repro.obs.dashboard import Dashboard


def _traced_run():
    engine = Engine(
        pipeline(IterSource(range(30)), GreedyPump(), CollectSink())
    )
    telemetry = Telemetry().attach(engine)
    tracer = FlowTracer(
        sample_every=1, registry=telemetry.registry
    ).attach(engine)
    slo = SloEngine(
        [Objective("lat", "latency_p99", target=0.05, windows=(1.0,))],
        now=engine.scheduler.now,
        registry=telemetry.registry,
    ).attach(tracer)
    engine.start()
    engine.run()
    tracer.finalize_inflight()
    return engine, telemetry, tracer, slo


class TestRenderTop:
    def test_sections_present(self):
        engine, telemetry, tracer, slo = _traced_run()
        text = render_top(
            registry=telemetry.registry, tracer=tracer, slo=slo,
            engine=engine,
        )
        assert text.startswith("repro top")
        for section in ("METRICS", "FLOW", "SLO"):
            assert section in text
        assert "births=30" in text
        assert "delivered=30" in text
        assert "lat" in text

    def test_pure_function_no_state_needed(self):
        # Renders something sensible even with nothing attached.
        text = render_top(now=1.25)
        assert "t=1.250s" in text

    def test_tenant_pane_lists_sessions_busiest_first(self):
        from repro.fabric import SessionFabric

        def build():
            return pipeline(
                IterSource(range(12)), GreedyPump(), CollectSink()
            )

        fabric = SessionFabric()
        fabric.open_session(build, name="alice", weight=4.0)
        fabric.open_session(build, name="bob")
        fabric.open_session(build, name="carol")
        fabric.park("carol")
        fabric.run_to_completion(max_steps=100_000)
        text = render_top(fabric=fabric)
        assert "TENANTS" in text
        assert "sessions=3 live=0 parked=1 done=2" in text
        lines = text.splitlines()
        alice = next(i for i, l in enumerate(lines) if "alice" in l)
        carol = next(i for i, l in enumerate(lines) if "carol" in l)
        assert alice < carol  # busiest first; parked carol never dispatched
        assert "w=4" in lines[alice]

    def test_tenant_pane_folds_a_large_fleet(self):
        from repro.fabric import SessionFabric

        def build():
            return pipeline(
                IterSource(range(2)), GreedyPump(), CollectSink()
            )

        fabric = SessionFabric()
        for index in range(40):
            fabric.open_session(build, name=f"s{index}")
        text = render_top(fabric=fabric)
        assert "… and 28 more" in text  # 12-row pane over 40 sessions

    def test_width_is_enforced(self):
        engine, telemetry, tracer, slo = _traced_run()
        text = render_top(
            registry=telemetry.registry, tracer=tracer, slo=slo, width=40
        )
        assert all(len(line) <= 40 for line in text.splitlines())


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


class TestMetricsServer:
    def test_serves_metrics_flow_and_slo(self):
        _, telemetry, tracer, slo = _traced_run()
        server = MetricsServer(
            registry=telemetry.registry, tracer=tracer, slo=slo
        ).start()
        try:
            assert server.port != 0  # OS assigned a real port
            body = urllib.request.urlopen(
                server.url + "metrics", timeout=5
            ).read().decode()
            assert "repro_flow_traces_total" in body
            assert "repro_slo_burn_rate" in body
            flow = json.loads(
                urllib.request.urlopen(server.url + "flow", timeout=5).read()
            )
            assert flow["births"] == 30
            assert flow["by_status"]["delivered"] == 30
            slo_doc = json.loads(
                urllib.request.urlopen(server.url + "slo", timeout=5).read()
            )
            assert slo_doc["objectives"][0]["name"] == "lat"
            index = json.loads(
                urllib.request.urlopen(server.url, timeout=5).read()
            )
            assert set(index["endpoints"]) == {"/metrics", "/flow", "/slo"}
        finally:
            server.stop()

    def test_unknown_path_is_404(self):
        server = MetricsServer(registry=MetricsRegistry()).start()
        try:
            try:
                urllib.request.urlopen(server.url + "nope", timeout=5)
                raise AssertionError("expected HTTP 404")
            except urllib.error.HTTPError as exc:
                assert exc.code == 404
        finally:
            server.stop()


class TestCli:
    DESC = "counting(limit=25) >> greedy_pump >> collect"

    def test_top_plain_smoke(self, capsys):
        code = main([
            "top", self.DESC, "--until", "1", "--plain", "--frames", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("repro top") == 2
        assert "FLOW" in out and "SLO" in out

    def test_run_serve_metrics_smoke(self, capsys):
        code = main([
            "run", self.DESC, "--serve-metrics", "0", "--serve-for", "0",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "serving metrics at http://127.0.0.1:" in out

    def test_run_flow_out_writes_trace_log(self, tmp_path, capsys):
        path = tmp_path / "flows.jsonl"
        code = main(["run", self.DESC, "--flow-out", str(path)])
        assert code == 0
        lines = path.read_text().splitlines()
        assert len(lines) == 25
        first = json.loads(lines[0])
        assert first["status"] == "delivered"
        assert first["segments"]
