"""The reach table: which driver executes which function of ``src/repro``.

::

    python tools/reach.py            # run D1-D5, rewrite docs/REACH.md
    python tools/reach.py --check    # run D1-D5, fail where the table differs

Stdlib only (neither ``coverage`` nor ``pytest-cov`` is installed where
this has to run).  Every driver is a child process with a
``sys.setprofile`` + ``threading.setprofile`` recorder that notes each
code object entered; a ``multiprocessing`` *fork* child inherits the
recorder, starts from an empty record (``os.register_at_fork``) and
writes it when ``os._exit`` — the only way such a child ends — is
called.  ``spawn`` children and ``subprocess`` children are *not*
recorded.  The drivers, the verdict vocabulary and the caveats are
spelt out in the header this tool writes into ``docs/REACH.md``;
verdicts live in ``tools/reach_verdicts.py``.
"""

from __future__ import annotations

import argparse
import ast
import atexit
import fnmatch
import os
import runpy
import subprocess
import sys
import tempfile
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
TABLE = ROOT / "docs" / "REACH.md"

# ---------------------------------------------------------------------------
# the recorder (runs inside each driver process and its fork children)
# ---------------------------------------------------------------------------

_records: dict[str, set] = {}
_current: set = set()
_current_label = ""


def _profile(frame, event, arg):
    if event == "call":
        _current.add(frame.f_code)


def _label(label: str) -> None:
    """Attribute what runs from now on to ``label``."""
    global _current, _current_label
    _current_label = label
    _current = _records.setdefault(label, set())


def _forget() -> None:
    """A fork child reports only what it ran itself."""
    _records.clear()
    _label(_current_label)


def _flush() -> None:
    prefix = str(PACKAGE) + os.sep
    lines = []
    for label, codes in _records.items():
        for code in codes:
            if code.co_filename.startswith(prefix):
                path = code.co_filename[len(str(SRC)) + 1:]
                lines.append(f"{label}\t{path}\t{code.co_firstlineno}\n")
        codes.clear()
    out = Path(os.environ["REACH_OUT"]) / f"{os.getpid()}.tsv"
    with out.open("a") as handle:
        handle.writelines(lines)


def _install(label: str) -> None:
    _label(label)
    atexit.register(_flush)
    os.register_at_fork(after_in_child=_forget)
    real_exit = os._exit

    def exit_after_flush(code):
        _flush()
        real_exit(code)

    os._exit = exit_after_flush
    threading.setprofile(_profile)
    sys.setprofile(_profile)


class _PerFile:
    """pytest plugin: one label per test file."""

    def __init__(self, driver: str):
        self.driver = driver

    def pytest_runtest_logstart(self, nodeid, location):
        _label(f"{self.driver} {location[0]}")


def run_recorded(label: str, argv: list[str]) -> None:
    """``argv`` is what would follow ``python``: ``-m mod …``, ``-c code …``,
    ``pytest …`` (in-process, one label per test file) or ``script.py …``."""
    kind, rest = argv[0], argv[1:]
    _install(label)
    if kind == "pytest":
        import pytest

        raise SystemExit(pytest.main(rest, plugins=[_PerFile(label)]))
    if kind == "-c":
        sys.argv = ["-c"] + rest[1:]
        exec(compile(rest[0], "<reach -c>", "exec"), {"__name__": "__main__"})
    elif kind == "-m":
        sys.argv = rest
        runpy.run_module(rest[0], run_name="__main__", alter_sys=True)
    else:
        sys.argv = argv
        runpy.run_path(kind, run_name="__main__")


# ---------------------------------------------------------------------------
# the drivers
# ---------------------------------------------------------------------------

PYTEST = ["pytest", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0"]
PAPER_BENCHMARKS = ("fig*", "sec4_*", "ablation_*")
LEGACY_BENCHMARKS = {  # report -> (module of its writer, extra arguments)
    "batch_dataplane": ("test_bench_batch_dataplane", ""),
    "media_plane": ("test_bench_media_plane", ""),
    "multicore": ("test_bench_multicore", ""),
    "multitenant": ("test_bench_multitenant", ", full_scale=False"),
    "sched_hotpath": ("conftest", ""),
}
WORKLOADS = ("fig9a-item", "fig9a-batch32", "fig9a-obs", "video-wire",
             "fabric-mux", "deploy-seam-2shard")
CERT_GENERATORS = ("make_deploy_certs", "make_fabric_certs",
                   "make_refinement_certs")
CLI_SRC = ("counting(limit=64) >> greedy_pump >> buffer(8) >> greedy_pump "
           ">> buffer(8) >> greedy_pump >> buffer(8) >> greedy_pump >> collect")

DRIVER_NOTES = {
    "D1": "the paper reproduction: `tests/integration`, "
          "`benchmarks/test_bench_{fig*,sec4_*,ablation_*}` and every "
          "`examples/*.py`",
    "D2": "the six `BENCHMARK.json` workloads, `python3 -m bench --workload "
          "W --smoke --seed 1` at `--trace 0` and `--trace 1`",
    "D3": "the three certificate generators `benchmarks/make_*_certs.py` "
          "(writing to a scratch path)",
    "D4": "every `python -m repro` subcommand, with the flags its module "
          "docstring shows",
    "D5": "everything else: the rest of `tests/` and the report writers of "
          "the five legacy `benchmarks/test_bench_*` modules",
}


def jobs(scratch: Path) -> list[tuple[str, list[str]]]:
    """``(label, argv)`` for every driver run, in order."""
    bench_dir = ROOT / "benchmarks"
    paper = sorted(
        str(path.relative_to(ROOT))
        for pattern in PAPER_BENCHMARKS
        for path in bench_dir.glob(f"test_bench_{pattern}.py")
    )
    out: list[tuple[str, list[str]]] = [
        ("D1", PYTEST + ["--benchmark-disable", "tests/integration"] + paper),
    ]
    for example in sorted((ROOT / "examples").glob("*.py")):
        out.append((f"D1 examples/{example.name}", [str(example)]))
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            out.append((
                f"D2 {workload} --trace {trace}",
                ["-m", "bench", "--workload", workload, "--smoke",
                 "--seed", "1", "--trace", trace],
            ))
    for generator in CERT_GENERATORS:
        out.append((
            f"D3 benchmarks/{generator}.py",
            ["-c",
             "import sys; from pathlib import Path; "
             f"import benchmarks.{generator} as g; "
             "g.REPORT = Path(sys.argv[1]); raise SystemExit(g.main())",
             str(scratch / f"{generator}.json")],
        ))
    artefact = {
        name: str(scratch / name)
        for name in ("trace.json", "events.jsonl", "flows.jsonl")
    }
    for tail in (
        ["describe", CLI_SRC],
        ["run", CLI_SRC, "--until", "10"],
        ["run", CLI_SRC, "--metrics", "--trace-out", artefact["trace.json"],
         "--events-out", artefact["events.jsonl"],
         "--flow-out", artefact["flows.jsonl"]],
        ["run", CLI_SRC, "--until", "5", "--serve-metrics", "0",
         "--serve-for", "0.2"],
        ["deploy", CLI_SRC, "--shards", "4", "--describe"],
        ["deploy", CLI_SRC, "--shards", "2", "--transport", "tcp"],
        ["deploy", CLI_SRC, "--shards", "2", "--metrics",
         "--flow-sample", "4"],
        ["top", CLI_SRC, "--until", "5", "--plain"],
        ["timeline", CLI_SRC, "--until", "5"],
        ["components"],
    ):
        out.append((f"D4 repro {tail[0]}", ["-m", "repro"] + tail))
    out.append(("D5", PYTEST + ["tests", "--ignore=tests/integration"]))
    for report, (module, extra) in LEGACY_BENCHMARKS.items():
        out.append((
            f"D5 benchmarks/test_bench_{report}.py",
            ["-c",
             "import sys; from pathlib import Path; "
             f"from benchmarks.{module} import write_{report}_report as w; "
             f"w(Path(sys.argv[1]){extra})",
             str(scratch / f"BENCH_{report}.json")],
        ))
    return out


def record_all(data: Path) -> None:
    """Run every driver under the recorder; recordings land in ``data``."""
    scratch = data / "scratch"
    scratch.mkdir(parents=True, exist_ok=True)
    env = dict(
        os.environ,
        REACH_OUT=str(data),
        PYTHONPATH=os.pathsep.join([str(SRC), str(ROOT)]),
        PYTHONDONTWRITEBYTECODE="1",
    )
    env.pop("REPRO_MEDIA_PURE", None)
    for label, argv in jobs(scratch):
        print(f"reach: {label}", file=sys.stderr, flush=True)
        done = subprocess.run(
            [sys.executable, __file__, "--run", label] + argv,
            cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True,
        )
        if done.returncode == 1 and argv[0] == "pytest":
            # Some tests failed (the figure benchmarks compare wall-clock
            # costs, which a profiler can tip): reach is still recorded,
            # and whether tests pass is tier-1's question, not this one's.
            failed = [line for line in done.stdout.splitlines()
                      if line.startswith(("FAILED", "ERROR"))]
            print("reach: tests failed under the recorder:\n  "
                  + "\n  ".join(failed), file=sys.stderr)
        elif done.returncode != 0:
            raise SystemExit(
                f"driver {label!r} exited {done.returncode}:\n"
                + done.stdout[-4000:]
            )


# ---------------------------------------------------------------------------
# the table
# ---------------------------------------------------------------------------


class Function:
    """One top-level function or method of ``src/repro``."""

    def __init__(self, path: str, qualname: str, node, source_lines):
        self.path = path  # relative to src/
        self.module = path[:-3].replace(os.sep, ".").removesuffix(".__init__")
        # A property's setter shares its getter's name; rows are keyed
        # by name, so tell them apart.
        if any(getattr(d, "attr", None) == "setter"
               for d in node.decorator_list):
            qualname += ".setter"
        self.qualname = qualname
        first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        self.first, self.def_line, self.last = first, node.lineno, node.end_lineno
        self.lines = self.last - first + 1
        self.params = node.args
        self.aid = _is_debugging_aid(node, source_lines)
        self.labels: set[str] = set()

    @property
    def name(self) -> str:
        return f"{self.module}:{self.qualname}"


def _is_debugging_aid(node, source_lines) -> bool:
    """``__repr__``, ``# pragma: no cover``, or a body that only raises
    (an abstract stub): the one kind of code nothing is expected to run."""
    if node.name == "__repr__":
        return True
    if "pragma: no cover" in source_lines[node.lineno - 1]:
        return True
    body = [
        stmt for stmt in node.body
        if not (isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant))
    ]
    return len(body) == 1 and isinstance(body[0], ast.Raise)


def functions() -> list[Function]:
    found: list[Function] = []

    def walk(body, prefix, path, source_lines):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.append(
                    Function(path, prefix + node.name, node, source_lines))
            elif isinstance(node, ast.ClassDef):
                walk(node.body, f"{prefix}{node.name}.", path, source_lines)
            elif isinstance(node, (ast.If, ast.Try)):
                # `if TYPE_CHECKING:` / `try: import numpy` at module level
                walk(ast.iter_child_nodes(node), prefix, path, source_lines)

    for file in sorted(PACKAGE.rglob("*.py")):
        text = file.read_text()
        walk(ast.parse(text).body, "", str(file.relative_to(SRC)),
             text.splitlines())
    return found


def attribute(found: list[Function], data: Path) -> None:
    """Fill ``Function.labels`` from the recordings in ``data``."""
    calls: dict[str, dict[int, set[str]]] = defaultdict(
        lambda: defaultdict(set))
    for recording in data.glob("*.tsv"):
        for line in recording.read_text().splitlines():
            label, path, lineno = line.split("\t")
            calls[path][int(lineno)].add(label)
    for function in found:
        # A nested def, lambda or comprehension counts for its enclosing
        # top-level function: its code object starts inside the range.
        for lineno, labels in calls.get(function.path, {}).items():
            if function.first <= lineno <= function.last:
                function.labels |= labels


def real_driver(labels: set[str]) -> bool:
    return any(not label.startswith("D5") for label in labels)


def d5_files(labels: set[str]) -> str:
    files = sorted({
        label.split(" ", 1)[1].removeprefix("tests/")
        for label in labels if label.startswith("D5 ")
    })
    if len(files) > 3:
        files = files[:3] + [f"+{len(files) - 3} more"]
    return ", ".join(files)


def verdict_of(function: Function) -> tuple[str, str]:
    from reach_verdicts import RULES, VERDICTS

    if function.aid:
        return "verification", ("debugging aid (`__repr__`, `# pragma: no "
                                "cover`) or a body that only raises "
                                "(abstract stub, refusal)")
    for pattern, verdict, note in RULES:
        if fnmatch.fnmatchcase(function.name, pattern):
            assert verdict in VERDICTS, (pattern, verdict)
            return verdict, note
    return "UNDECIDED", "no rule in tools/reach_verdicts.py matches"


def render(found: list[Function]) -> str:
    from reach_verdicts import DELETED, VERDICTS

    total = sum(f.lines for f in found)
    real = sum(f.lines for f in found if real_driver(f.labels))
    nothing = sum(f.lines for f in found if not f.labels)
    rows = [f for f in found if not real_driver(f.labels)]
    counts: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    body = []
    for function in rows:
        verdict, note = verdict_of(function)
        counts[verdict][0] += 1
        counts[verdict][1] += function.lines
        reached = d5_files(function.labels) or (
            "nothing (debugging aid / abstract stub)" if function.aid
            else "**nothing**")
        body.append(
            f"| `{function.name}` | {function.path.removeprefix('repro/')}:"
            f"{function.def_line} | {function.lines} | {reached} "
            f"| *{verdict}* | {note} |"
        )
    out = [HEADER.format(
        drivers="\n".join(
            f"* **{name}** — {note}." for name, note in DRIVER_NOTES.items()),
        verdicts="\n".join(
            f"* *{name}* — {note}" for name, note in VERDICTS.items()),
        total=total, real=real, only=total - real - nothing, nothing=nothing,
        functions=len(found),
    )]
    out.append("| verdict | rows | lines |\n|---|---:|---:|")
    for verdict in list(VERDICTS) + ["UNDECIDED"]:
        if verdict in counts:
            out.append(f"| *{verdict}* | {counts[verdict][0]} "
                       f"| {counts[verdict][1]} |")
    out.append(
        "\n## Rows\n\n"
        "| function | at | lines | D5 files that reach it | verdict | why |\n"
        "|---|---|---:|---|---|---|")
    out.extend(body)
    out.append(DELETED_HEADER)
    for name, lines, reached, tests in DELETED:
        out.append(f"| `{name}` | {lines} | {reached} | *deleted* | {tests} |")
    out.append(PARAMS_HEADER)
    out.extend(unpassed_parameters(found))
    return "\n".join(out) + "\n"


def table_rows(text: str) -> dict[str, tuple[str, str]]:
    """``{function: (D5 files, verdict)}`` of a rendered table — what
    ``--check`` compares, and all of it that is not a line number."""
    rows = {}
    section = text.split("\n## Rows\n", 1)[1].split("\n## ", 1)[0]
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.split("|")]
        if len(cells) > 6 and cells[1].startswith("`"):
            rows[cells[1].strip("`")] = (cells[4], cells[5].strip("*"))
    return rows


# ---------------------------------------------------------------------------
# appendix: parameters no D1-D4 call site passes
# ---------------------------------------------------------------------------


def driver_sources() -> list[Path]:
    """The files outside ``src/`` that D1-D4 run: ``bench/``,
    ``examples/``, ``tests/integration``, the paper-figure benchmarks
    (and their conftest) and the certificate generators."""
    benchmarks = ROOT / "benchmarks"
    files = [
        *(ROOT / "bench").glob("*.py"),
        *(ROOT / "examples").glob("*.py"),
        *(ROOT / "tests" / "integration").glob("*.py"),
        *benchmarks.glob("make_*_certs.py"),
        benchmarks / "conftest.py",
    ]
    for pattern in PAPER_BENCHMARKS:
        files.extend(benchmarks.glob(f"test_bench_{pattern}.py"))
    return files


def _call_sites() -> dict[str, list[tuple[int, set[str], bool]]]:
    """callee name -> [(positional count, keywords, has */** splat)] over
    ``src/repro`` and :func:`driver_sources`."""
    sites: dict[str, list] = defaultdict(list)
    for file in [*PACKAGE.rglob("*.py"), *driver_sources()]:
        for node in ast.walk(ast.parse(file.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute)
                    else None)
            if name is None:
                continue
            splat = any(isinstance(a, ast.Starred) for a in node.args) or any(
                k.arg is None for k in node.keywords)
            sites[name].append((
                len(node.args),
                {k.arg for k in node.keywords if k.arg is not None},
                splat,
            ))
    return sites


def unpassed_parameters(found: list[Function]) -> list[str]:
    """One line per optional parameter of a D1-D4-reached function that
    no call site by that name passes, positionally or by keyword.

    Call sites are matched by bare name (``Buffer(...)`` and any
    ``super().__init__(...)`` for ``Buffer.__init__``, ``.run(...)`` for
    any ``run``), and a site with
    a ``*`` / ``**`` splat counts as passing everything, so the list
    errs towards silence; parameters of the classes the pipeline
    language registers are skipped (a description string can name them).
    """
    registry = ast.parse((PACKAGE / "lang" / "registry.py").read_text())
    registered = {
        node.args[1].attr for node in ast.walk(registry)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) == "register"
        and isinstance(node.args[1], ast.Attribute)
    }
    sites = _call_sites()
    out = []
    for function in found:
        if not real_driver(function.labels):
            continue  # has a row above already
        owner, _, method = function.qualname.rpartition(".")
        if method.startswith("_") and method != "__init__":
            continue
        if owner in registered and method == "__init__":
            continue
        callee = owner.rpartition(".")[2] if method == "__init__" else method
        args = function.params
        positional = [a.arg for a in args.posonlyargs + args.args]
        offset = 1 if owner and positional[:1] in (["self"], ["cls"]) else 0
        optional = positional[len(positional) - len(args.defaults):] + [
            a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
            if d is not None
        ]
        candidates = sites.get(callee, [])
        if method == "__init__":  # and `super().__init__(...)` in a subclass
            candidates = candidates + sites.get("__init__", [])
        unpassed = []
        for name in optional:
            index = (positional.index(name) - offset
                     if name in positional else None)
            passed = any(
                splat or name in keywords
                or (index is not None and count > index)
                for count, keywords, splat in candidates
            )
            if not passed:
                unpassed.append(name)
        if unpassed:
            by_reason: dict[str, list[str]] = defaultdict(list)
            for name in unpassed:
                by_reason[kept_because(function.name, name)].append(name)
            out.append(
                f"* `{function.name}` "
                f"({function.path.removeprefix('repro/')}:{function.def_line})"
                ": " + "; ".join(
                    ", ".join(f"`{name}`" for name in names) + f" — {reason}"
                    for reason, names in by_reason.items()))
    return out


def kept_because(function: str, parameter: str) -> str:
    """Why a parameter the appendix lists is still there (first match in
    ``reach_verdicts.KEPT_PARAMETERS``), or ``UNDECIDED``."""
    from reach_verdicts import KEPT_PARAMETERS

    for pattern, name, reason in KEPT_PARAMETERS:
        if fnmatch.fnmatchcase(function, pattern) and name == parameter:
            return reason
    return "UNDECIDED"


HEADER = """\
# REACH — which driver executes which function of `src/repro`

Generated by `python tools/reach.py`; do not edit the table by hand — edit
`tools/reach_verdicts.py` (the verdict of each row) and regenerate.
`python tools/reach.py --check` (CI job `reach`) regenerates it in a
temporary directory and fails on any row whose function, D5 files or
verdict differ from this file; line numbers and line counts may drift.
The tier-1 guard `tests/core/test_reach_guard.py` reads the rows: a name
in a `repro.*.__all__` that neither library code nor a real driver's
source uses needs a decided row here, and the *exception* rows may only
become fewer.  A full run takes about seven minutes.

## Drivers

{drivers}

A function is **reached** by a driver when the interpreter entered its
code object, or that of a `def`, `lambda` or comprehension nested in it,
while the driver ran.  A row below is a top-level function or method
that D1–D4 never enter.

## How it is measured

Every driver run is a child process of `tools/reach.py` with a
`sys.setprofile` + `threading.setprofile` hook that adds each entered
code object to a set (pytest runs switch the set per test file, which is
where the "D5 files" column comes from).  Caveats, each of which bit a
first attempt:

* **fork children** (`Deployment` shard workers) inherit the hook but
  leave through `os._exit`, which skips `atexit`: the recorder wraps
  `os._exit` to write its set first and empties the inherited set in
  `os.register_at_fork(after_in_child=…)`.  Without that the whole shard
  loop of `deploy/worker.py` reads as unreached.
* **`spawn` / `forkserver` children and `subprocess` children are not
  traced** (`tests/deploy/test_spawn_safety.py`, the generator replays of
  `tests/check/test_certificates.py`); what they run is reached under
  fork by D2 / D3 anyway.
* pytest runs use `--hypothesis-seed=0` so the set of functions a
  property test enters does not vary from run to run; D2 uses the
  workloads' `--smoke` sizes (same graph, fewer items).
* the five legacy benchmark modules gate on wall-clock ratios and rewrite
  committed `BENCH_*.json` files, so D5 calls their `write_*_report`
  functions with a scratch path instead of running their tests; a
  figure benchmark that compares wall-clock costs can fail under the
  profiler — that is printed, not fatal (whether tests pass is tier-1's
  question), while a driver that does not run at all stops the tool.

## Verdicts

{verdicts}

## Totals

{functions} top-level functions and methods, {total} function-lines:
**{real}** lines reached by D1–D4, **{only}** only by D5, **{nothing}**
by nothing at all.

"""

DELETED_HEADER = """
## Deleted in ISSUEs 21 and 22

Measured at the parent commit of each issue (70f6951; 23dc996 for the
ISSUE 22 block at the end), where these rows stood.  A test is listed
only when the deleted name was its sole subject.

| function | lines | reached at the parent by | verdict | tests deleted with it |
|---|---:|---|---|---|"""

PARAMS_HEADER = """
## Appendix: parameters no D1–D4 call site passes

Static (AST over call sites, keyword and positional) — ROADMAP aim 2's
"knobs nothing reads".  ISSUE 22 acted on the list: a parameter with one
value in use became that constant, and what is still listed carries the
reason it is kept (`KEPT_PARAMETERS` in `tools/reach_verdicts.py`; an
entry without one reads UNDECIDED and fails the tool).  It errs towards
silence: call sites are matched by bare callee name, a `*args` /
`**kwargs` site counts as passing everything, private functions and the
constructors the pipeline language registers (a description string can
pass any of their parameters) are skipped.
"""


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--run"]:  # a driver child: --run LABEL ARGV...
        run_recorded(argv[1], argv[2:])
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare against docs/REACH.md, write nothing")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as temporary:
        record_all(Path(temporary))
        found = functions()
        attribute(found, Path(temporary))
    text = render(found)
    undecided = [name for name, (_, verdict) in table_rows(text).items()
                 if verdict == "UNDECIDED"]
    undecided += [line for line in text.split(PARAMS_HEADER, 1)[1].splitlines()
                  if "UNDECIDED" in line]
    for name in undecided:
        print(f"no verdict for {name}", file=sys.stderr)
    if not args.check:
        TABLE.write_text(text)
        print(f"wrote {TABLE.relative_to(ROOT)}")
        return 1 if undecided else 0
    committed, fresh = table_rows(TABLE.read_text()), table_rows(text)
    differing = sorted(
        name for name in committed.keys() | fresh.keys()
        if committed.get(name) != fresh.get(name)
    )
    for name in differing:
        print(f"{name}: committed {committed.get(name)} "
              f"!= measured {fresh.get(name)}", file=sys.stderr)
    return 1 if differing or undecided else 0


if __name__ == "__main__":
    sys.exit(main())
