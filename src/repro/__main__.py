"""Command-line runner for Infopipe descriptions.

::

    python -m repro describe "counting(limit=5) >> greedy_pump >> collect"
    python -m repro run pipeline.ipc --until 10
    python -m repro run pipeline.ipc --metrics --trace-out trace.json
    python -m repro deploy pipeline.ipc --shards 4 --describe
    python -m repro deploy pipeline.ipc --describe --place pump-1:0,pump-2:1
    python -m repro deploy pipeline.ipc --shards 2 --transport tcp
    python -m repro deploy pipeline.ipc --shards 2 --metrics --flow-sample 4
    python -m repro top pipeline.ipc --until 5
    python -m repro timeline pipeline.ipc --until 5
    python -m repro components

Every execution command maps its flags onto ONE run spec
(:class:`repro.api.Pipeline`, see ``_app``) and hands it to the same
realisation the library uses, so a flag means on the command line what
its ``with_*`` step means in code — and each command accepts only the
flags it reads.

``describe`` prints the thread/coroutine allocation the middleware chose;
``run`` executes the pipeline on the virtual clock and prints statistics —
with ``--metrics`` it attaches the observability layer and prints the
Prometheus exposition, with ``--flow-sample N`` it attaches the causal
flow tracer (1-in-N items), with ``--trace-out``/``--events-out``/
``--flow-out`` it exports a Chrome trace-event JSON (flow arrows
included when tracing is on) / JSONL event log / JSONL flow-trace log.
``deploy`` plans a multi-core placement (cutting only at Buffer/netpipe
seams, or as ``--place`` assigns components to shards), runs one OS
process per shard bridged over sockets — each shard realising the same
spec, so ``--metrics`` and ``--flow-sample`` reach every shard — and
prints the gathered statistics; ``--describe`` prints the plan without
running.  ``top`` runs the pipeline behind a live top(1)-style
dashboard; ``timeline`` prints the text Gantt chart of which thread held
the CPU; ``components`` lists the factory names usable in descriptions.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from repro import allocate
from repro.api import Pipeline
from repro.errors import InfopipeError
from repro.lang import build, default_registry


def _load_source(value: str) -> str:
    path = pathlib.Path(value)
    if path.exists():
        return path.read_text()
    return value


def cmd_describe(args: argparse.Namespace) -> int:
    result = build(_load_source(args.pipeline))
    plan = allocate(result.pipeline)
    print(plan.report())
    print()
    sinks = result.pipeline.sinks()
    if len(sinks) == 1:
        print("end-to-end flow:", result.pipeline.end_to_end_typespec())
    return 0


def _app(args: argparse.Namespace) -> Pipeline:
    """The run spec the command's flags state."""

    def flag(name: str):
        return getattr(args, name, None)

    app = Pipeline.from_source(_load_source(args.pipeline)).with_backend(
        args.backend
    )
    if args.batch_max is not None:
        app = app.with_batching(args.batch_max)
    if flag("trace_out") is not None or flag("events_out") is not None:
        app = app.with_trace(args.trace_limit)
    if flag("metrics"):
        app = app.with_metrics()
    flow_sample = flag("flow_sample")
    if flow_sample is None and flag("flow_out") is not None:
        flow_sample = 1
    if flow_sample is not None:
        app = app.with_tracing(flow_sample)
    return app


def cmd_run(args: argparse.Namespace) -> int:
    built = _app(args).run(until=args.until, max_steps=args.max_steps)
    engine, tracer = built.engine, built.tracer
    print(engine.stats.summary())
    if args.trace_out is not None:
        from repro.obs import export_chrome_trace

        document = export_chrome_trace(
            engine.scheduler, args.trace_out, flows=tracer
        )
        print(
            f"wrote {len(document['traceEvents'])} trace events "
            f"to {args.trace_out}"
        )
    if args.events_out is not None:
        from repro.obs import export_jsonl

        count = export_jsonl(engine.scheduler, args.events_out)
        print(f"wrote {count} events to {args.events_out}")
    if args.flow_out is not None:
        from repro.obs import export_flow_traces

        count = export_flow_traces(tracer, args.flow_out)
        print(f"wrote {count} flow traces to {args.flow_out}")
    if args.metrics:
        print()
        print(built.prometheus(), end="")
    return 0


def _parse_place(value: str) -> dict[str, int]:
    """``name:0,other:1`` -> explicit component-to-shard map."""
    mapping: dict[str, int] = {}
    for entry in value.split(","):
        entry = entry.strip()
        if not entry:
            continue
        name, _, shard = entry.rpartition(":")
        if not name:
            raise InfopipeError(
                f"--place entry {entry!r} is not name:shard"
            )
        mapping[name.strip()] = int(shard)
    return mapping


def cmd_deploy(args: argparse.Namespace) -> int:
    from repro.deploy import Placement

    if args.place:
        placement = Placement.explicit(
            _parse_place(args.place), shards=args.shards
        )
    else:
        placement = Placement.auto(args.shards or 1)
    deployment = _app(args).deployment(
        placement,
        transport=args.transport,
        start_method=args.start_method,
    )
    if args.describe:
        print(deployment.describe())
        return 0
    result = deployment.run(timeout=args.timeout)
    summary = result.summary()
    print(
        f"shards={summary['shards']} transport={summary['transport']} "
        f"completed={summary['completed']} "
        f"wall={summary['wall_seconds']:.3f}s "
        f"run={summary['run_seconds']:.3f}s"
    )
    for cut in summary["cuts"]:
        print(f"  {cut}")
    for shard, stats in sorted(result.stats.items()):
        delivered = sum(
            counters.get("items_in", 0)
            for name, counters in stats["components"].items()
            if name.endswith("sink") or "sink" in name
        )
        print(
            f"  shard {shard}: threads={stats['threads']} "
            f"switches={stats['context_switches']} "
            f"messages={stats['messages_delivered']} "
            f"sink_items={delivered}"
        )
    if args.metrics:
        from repro.obs import prometheus_text

        print()
        print(prometheus_text(result.merged_metrics()), end="")
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    from repro.obs.dashboard import Dashboard, render_top

    # The dashboard shows metrics and flows together.
    app = _app(args).with_metrics()
    built = (app if app.flow_sample else app.with_tracing()).build()
    engine = built.engine.start()
    horizon = args.until
    interval = args.interval

    state = {"t": 0.0}

    def advance() -> bool:
        state["t"] += interval
        target = state["t"]
        if horizon is not None and target >= horizon:
            built.finish(until=horizon, max_steps=args.max_steps)
            return False
        engine.run(until=target, max_steps=args.max_steps)
        return not engine.completed

    def render() -> str:
        return render_top(
            registry=built.telemetry.registry,
            tracer=built.tracer,
            engine=engine,
        )

    dashboard = Dashboard(render, advance=advance, interval=interval)
    dashboard.run(frames=args.frames, plain=args.plain)
    return 0


def cmd_timeline(args: argparse.Namespace) -> int:
    from repro.mbt.tracing import summarize, timeline

    engine = _app(args).with_trace(args.trace_limit).run(
        until=args.until, max_steps=args.max_steps
    ).engine
    print(timeline(engine.scheduler, width=args.width))
    print()
    print(summarize(engine.scheduler))
    return 0


def cmd_components(args: argparse.Namespace) -> int:
    for name in sorted(default_registry().names()):
        print(name)
    return 0


# ---------------------------------------------------------------------------
# Flags: each stated once; a command lists exactly the ones it reads
# ---------------------------------------------------------------------------

FLAGS: dict[str, dict] = {
    "pipeline": dict(help="description text or file path"),
    "--backend": dict(choices=("generator", "thread"), default="generator"),
    "--batch-max": dict(
        type=int, help="batched data plane: move up to N items per pump "
                       "cycle (default 1 = per-item)"),
    "--until": dict(
        type=float, help="virtual-time horizon (default: run to EOS)"),
    "--max-steps": dict(type=int),
    "--trace-limit": dict(
        type=int, help="keep only the newest N trace events (ring)"),
    "--metrics": dict(
        action="store_true", help="attach telemetry; print Prometheus "
                                  "exposition after the run"),
    "--flow-sample": dict(
        type=int, metavar="N", help="attach causal flow tracing, sampling "
                                    "1-in-N source items"),
    "--trace-out": dict(
        metavar="FILE", help="write a Chrome trace-event JSON file (with "
                             "flow arrows when tracing is on)"),
    "--events-out": dict(
        metavar="FILE", help="write the scheduler event log as JSONL"),
    "--flow-out": dict(
        metavar="FILE", help="write finished flow traces as JSONL"),
    "--shards": dict(
        type=int, metavar="N", help="number of shard processes (placement "
        "cuts only at Buffer/netpipe seams)"),
    "--place": dict(
        metavar="NAME:SHARD,...", help="explicit component-to-shard "
        "assignment (default: auto planner)"),
    "--transport": dict(
        choices=("socketpair", "tcp"), default="socketpair",
        help="wire transport bridging cut edges"),
    "--start-method": dict(
        choices=("fork", "spawn", "forkserver"),
        help="multiprocessing start method (default: platform default)"),
    "--timeout": dict(
        type=float, help="seconds to wait for shards before failing"),
    "--describe": dict(
        action="store_true", help="print the placement plan without running"),
    "--interval": dict(
        type=float, default=0.5, help="virtual seconds advanced per frame"),
    "--frames": dict(
        type=int, help="stop after N frames (default: run to the end)"),
    "--plain": dict(
        action="store_true", help="print frames instead of the curses screen"),
    "--width": dict(type=int, default=64, help="timeline width in columns"),
}

#: What every pipeline-executing command reads: the run spec's flags.
SPEC_FLAGS = ("pipeline", "--backend", "--batch-max")
#: How far an in-process run goes.
HORIZON_FLAGS = ("--until", "--max-steps")

#: command -> (handler, help, the flags it reads).
COMMANDS: dict[str, tuple] = {
    "describe": (
        cmd_describe, "print the allocation for a description",
        ("pipeline",),
    ),
    "run": (
        cmd_run, "execute a description",
        SPEC_FLAGS + HORIZON_FLAGS + (
            "--trace-limit", "--metrics", "--flow-sample", "--trace-out",
            "--events-out", "--flow-out",
        ),
    ),
    "deploy": (
        cmd_deploy, "run a description sharded over N processes",
        SPEC_FLAGS + (
            "--metrics", "--flow-sample", "--shards", "--place",
            "--transport", "--start-method", "--timeout", "--describe",
        ),
    ),
    "top": (
        cmd_top, "run a description behind a live dashboard",
        SPEC_FLAGS + HORIZON_FLAGS + (
            "--flow-sample", "--interval", "--frames", "--plain",
        ),
    ),
    "timeline": (
        cmd_timeline, "run traced and print the thread timeline",
        SPEC_FLAGS + HORIZON_FLAGS + ("--trace-limit", "--width"),
    ),
    "components": (
        cmd_components, "list registered component types", (),
    ),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run and inspect Infopipe pipeline descriptions.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (handler, summary, flags) in COMMANDS.items():
        sub = commands.add_parser(name, help=summary)
        for flag in flags:
            sub.add_argument(flag, **FLAGS[flag])
        sub.set_defaults(handler=handler)
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except InfopipeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
