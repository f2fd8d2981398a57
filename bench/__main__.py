"""``python3 -m bench`` — the one command.

Measure one workload, in this process::

    python3 -m bench --workload fig9a-item --seed 1 --seconds 15 --trace 0
    python3 -m bench --workload fig9a-item --seed 1 --seconds 15 --trace 1

``--trace 0`` reports the end-to-end metrics with no wrapper installed;
``--trace 1`` is the separate traced run that reports the per-layer
ledger.  Every metric is printed by name with its unit; the last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  A record with the environment and every repeat is written
to ``bench/out/``.

Without ``--workload`` the whole suite runs, each workload and mode in a
fresh child process; ``--aa`` runs the suite twice on the same code and
checks every end-to-end metric against its own bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time

from bench import calibrate, harness, layers, probes
from bench.trace import Tracer
from bench.workloads import WORKLOADS

#: Share of a traced run's budget spent on the un-instrumented repeats.
PLAIN_SHARE = 0.45
#: Per-child budget of the suite: twelve children, about 100 s in all.
SUITE_SECONDS = 8


def _spec_units(spec: dict, section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec[section]}


def _last_line(correct, attempted, failed, values, units) -> str:
    stray = set(values) ^ set(units)
    if stray:
        raise SystemExit(
            f"metrics out of step with BENCHMARK.json: {sorted(stray)}"
        )
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            # A metric whose probe target is gone has no value; the line
            # the driver parses carries numbers only, the record keeps
            # the null and harness.missing_probes counts it.
            name: {"value": 0.0 if value is None else value, "unit": units[name]}
            for name, value in values.items()
        },
    })


def parse_result(stdout: str) -> dict:
    """The result object a measuring run printed as its last line."""
    return json.loads(stdout.rstrip().rsplit("\n", 1)[-1])


def _show(values: dict, units: dict[str, str]) -> None:
    width = max(map(len, values))
    for name, value in values.items():
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {name:<{width}}  {shown:>12} {units.get(name, '')}")


def measure(args) -> int:
    """Measure one workload in this process; prints the result."""
    spec = harness.load_spec()
    workload = WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    record = {
        "workload": workload.name,
        "trace": bool(args.trace),
        "environment": harness.environment(args.seed),
        "items_per_repeat": workload.items,
        "inputs_digest": workload.inputs_digest(),
    }
    if not args.trace:
        units = _spec_units(spec, "end_to_end")
        (repeats,) = harness.run_repeats([workload], args.seconds)
        values = harness.end_to_end(repeats)
        extra = harness.harness_metrics(repeats)
        record["repeats"] = harness.repeat_rows(repeats)
        everything = repeats
    else:
        units = _spec_units(spec, "per_layer")
        companion = workload.companion()
        group = [workload] + ([companion] if companion else [])
        before = calibrate.kernel()
        raw, missing = probes.run_probes(scale=0.05 if args.smoke else 1.0)
        scale, _ = calibrate.factors(before, calibrate.kernel())
        unit_costs = {
            name: None if value is None else value * scale
            for name, value in raw.items()
        }
        plain = harness.run_repeats(group, PLAIN_SHARE * args.seconds)
        with Tracer().install() as tracer:
            traced = harness.run_repeats(
                group, (1.0 - PLAIN_SHARE) * args.seconds, tracer
            )
            tracer.write(harness.OUT_DIR / f"trace-{workload.name}.json")
        missing += tracer.missing
        values = layers.derive(
            workload, plain[0], traced[0],
            plain[1] if companion else [], traced[1] if companion else [],
            tracer.groups, unit_costs, missing,
        )
        extra = {}
        record["missing_probes"] = missing
        record["repeats"] = harness.repeat_rows(plain[0])
        record["traced_repeats"] = harness.repeat_rows(traced[0])
        everything = [r for repeats in plain + traced for r in repeats]

    attempted, failed = harness.totals(everything)
    errors = [r.error for r in everything if r.error]
    record.update(
        metrics=values, harness=extra, attempted=attempted, failed=failed,
        failed_share=failed / attempted, errors=errors[:3],
    )
    mode = "trace" if args.trace else "e2e"
    harness.write_record(f"{workload.name}-{mode}", record)

    print(f"{workload.name} seed={args.seed} "
          f"{'per-layer (traced run)' if args.trace else 'end-to-end'}")
    _show({**values, **extra}, units)
    print(f"  failed_share  {failed / attempted:.6g} "
          f"({failed} of {attempted} items)")
    for error in errors[:1]:
        print(error, file=sys.stderr)
    if not values:
        return 1  # every repeat raised: nothing to report
    print(_last_line(failed == 0, attempted, failed, values, units))
    return 0


# ---------------------------------------------------------------------------
# the suite: one fresh child process per workload and mode
# ---------------------------------------------------------------------------


def _child(workload: str, trace: int, args) -> dict:
    command = [
        sys.executable, "-m", "bench", "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace),
    ] + (["--smoke"] if args.smoke else [])
    done = subprocess.run(
        command, cwd=harness.REPO_ROOT, capture_output=True, text=True,
        timeout=600,
    )
    if done.returncode != 0:
        raise SystemExit(
            f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}"
        )
    return parse_result(done.stdout)


def run_suite(args) -> dict:
    """``{workload: {"e2e": result, "trace": result}}`` for all six."""
    results = {}
    for name in WORKLOADS:
        started = time.perf_counter()
        results[name] = {
            "e2e": _child(name, 0, args), "trace": _child(name, 1, args),
        }
        print(f"{name}: measured in {time.perf_counter() - started:.1f} s",
              file=sys.stderr)
    return results


def _print_suite(results: dict, spec: dict) -> None:
    for section, mode in (("end_to_end", "e2e"), ("per_layer", "trace")):
        names = [m["name"] for m in spec[section]]
        width = max(map(len, names))
        print(f"\n{section}")
        print(" " * (width + 8) + " ".join(f"{w[:13]:>13}" for w in results))
        for metric in spec[section]:
            row = [
                results[w][mode]["metrics"][metric["name"]]["value"]
                for w in results
            ]
            print(f"{metric['name']:<{width}} {metric['unit']:>6} "
                  + " ".join(f"{v:>13.6g}" for v in row))
    print("\nfailed_share")
    for name, modes in results.items():
        for mode, result in modes.items():
            print(f"  {name:<20} {mode:<6} "
                  f"{result['failed'] / result['attempted']:.6g} "
                  f"({result['failed']} of {result['attempted']})")


def compare_aa(first: dict, second: dict, spec: dict) -> int:
    """Print the A/A table; returns how many pairs missed their bound."""
    misses = exact = 0
    print("\nA/A: second set against first, same code "
          "(+ is worse, in the metric's own direction)")
    print(f"{'workload':<20} {'metric':<18} {'A':>12} {'B':>12} "
          f"{'diff':>8} {'bound':>6}")
    for workload in first:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = first[workload]["e2e"]["metrics"][name]["value"]
            b = second[workload]["e2e"]["metrics"][name]["value"]
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            missed = abs(worse) > metric["bound"]
            misses += missed
            print(f"{workload:<20} {name:<18} {a:>12.6g} {b:>12.6g} "
                  f"{100 * worse:>+7.1f}% {100 * metric['bound']:>5.0f}%"
                  + ("  MISS" if missed else ""))
        for name in WORKLOADS[workload].exact_counts:
            a = first[workload]["trace"]["metrics"][name]["value"]
            b = second[workload]["trace"]["metrics"][name]["value"]
            exact += 1
            if a != b:
                misses += 1
                print(f"{workload:<20} {name:<18} {a!r} != {b!r}  "
                      "MISS (exact count)")
    print(f"{exact} exact per-layer counts compared (Workload.exact_counts)")
    return misses


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--aa", action="store_true",
                        help="suite only: run two sets, compare to bounds")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs (self-tests)")
    args = parser.parse_args(argv)

    # The library under test is this checkout's, found from here: the
    # command names no path outside the benchmark's own directory.
    source = harness.REPO_ROOT / "src"
    if not (source / "repro").is_dir():
        raise SystemExit(f"nothing to measure: {source / 'repro'} is missing")
    sys.path.insert(0, str(source))

    spec = harness.load_spec()
    if args.workload:
        if args.seconds is None:
            args.seconds = float(spec["run_seconds"])
        return measure(args)

    if args.seconds is None:
        args.seconds = SUITE_SECONDS
    first = run_suite(args)
    _print_suite(first, spec)
    record = {"environment": harness.environment(args.seed), "first": first}
    misses = 0
    if args.aa:
        second = run_suite(args)
        record["second"] = second
        misses = compare_aa(first, second, spec)
    harness.write_record("suite", record)
    failed = sum(r["failed"] for modes in first.values() for r in modes.values())
    return 1 if misses or failed else 0


if __name__ == "__main__":
    sys.exit(main())
