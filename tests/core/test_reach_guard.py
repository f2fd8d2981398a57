"""The "own unit test only" column of docs/REACH.md cannot silently refill.

Every name a ``repro.*.__all__`` exports must answer to something other
than its own unit test: library code that *uses* it (a definition, an
import or a re-export in a package ``__init__`` is not a use), a real
driver's source (``bench/``, ``examples/``, the paper-figure benchmarks,
the certificate generators, ``tests/integration``) — or a row of
docs/REACH.md, where someone wrote down why it is kept.  And the
*exception* rows of that table, the extensions kept on credit, may only
become fewer.

A use inside the defining module counts (``export_chrome_trace`` calling
``chrome_trace``): such a name is run by whatever runs its caller, and
if nothing does, the caller has the row.

The table's appendix lists every optional parameter that no call site
passes; each needs a reason to stay (``KEPT_PARAMETERS``), so the static
census runs here too, over every function the table has no row for, and
a new option that no driver sets fails tier-1 rather than only the slow
``tools/reach.py --check``.

Two blind spots of the table have their own guards here.  A row may name
a function that is gone (the table is re-measured only by the slow
``tools/reach.py --check``), so every row must still resolve.  And the
table measures whole functions: a scheduler branch that only unit tests
take sits in a reached function, so every syscall must be constructed
by library code outside :mod:`repro.mbt`, or be kept with its reason.
"""

import ast
import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "repro"

#: The exception rows docs/REACH.md has (92 when ISSUE 21 landed; ISSUE 22
#: retired the eight explicit-span rows, ISSUE 25 the eight flight-recorder
#: rows and `enable_trace`'s; deleting `Mailbox.clear` retired its own,
#: and `fabric-mux` now ends bursts in `_finish_burst`; an engine's event
#: fan-out is `Mailbox.put_many`'s production caller; deleting the audio
#: columnar half, the zip join, the SLO engine, the metrics server and the
#: fabric TENANTS pane retired 36 more, `TraceContext.fork` /
#: `FlowTrace.parent` are fan-out lineage, D4's `deploy --place`
#: retired three, and the Figure-9 configurations run at `batch_max` 8
#: and 32 retired `IterSource.pull_many`'s; deleting fabric admission
#: control retired 14, the QoS mapping's three are §2.1 again, and
#: deleting the tenant weights retired `Session.set_weight` and
#: `Tenant.weight`'s getter and setter).
#: Lower it when a row is retired; never raise it.
EXCEPTION_ROWS = 10

KEPT = ("verification", "paper", "tested here", "exception")

# The table's writer knows its layout and which sources the real drivers
# run (stdlib-only module, importing it runs nothing).
_spec = importlib.util.spec_from_file_location(
    "reach", ROOT / "tools" / "reach.py")
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)


def names_used(path: Path) -> set[str]:
    """Identifiers the module reads — defining, assigning or importing a
    name is not a use of it."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def exported_names() -> set[str]:
    exported: set[str] = set()
    for path in PACKAGE.rglob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets
            ):
                exported.update(e.value for e in node.value.elts)
    return exported


def reach_rows() -> list[tuple[str, str]]:
    """``(module:qualname, verdict)`` for every row of docs/REACH.md."""
    rows = reach.table_rows((ROOT / "docs" / "REACH.md").read_text())
    return [(name, verdict) for name, (_, verdict) in rows.items()]


def unanswered(exported, library_uses, driver_uses, rows):
    """Exported names only their own unit test can be running."""
    with_row = {
        function.split(":", 1)[1].split(".", 1)[0]
        for function, verdict in rows if verdict in KEPT
    }
    return sorted(exported - library_uses - driver_uses - with_row)


def exception_rows(rows) -> int:
    return sum(1 for _, verdict in rows if verdict == "exception")


def measured():
    library_uses = set().union(*(
        names_used(path) for path in PACKAGE.rglob("*.py")
        if path.name != "__init__.py"
    ))
    driver_uses = set().union(
        *(names_used(path) for path in reach.driver_sources()))
    return exported_names(), library_uses, driver_uses, reach_rows()


class TestEveryExportAnswersToADriver:
    def test_no_export_is_run_only_by_its_own_unit_test(self):
        assert unanswered(*measured()) == []

    def test_exception_rows_only_shrink(self):
        rows = reach_rows()
        assert 0 < exception_rows(rows) <= EXCEPTION_ROWS
        assert all(verdict in KEPT for _, verdict in rows), (
            "a row of docs/REACH.md is undecided")

    def test_no_rule_decides_a_function_nobody_looked_at(self, monkeypatch):
        """Outside ``repro.check`` a verdict names its function or class:
        a new function in any module is UNDECIDED (which fails the test
        above and ``tools/reach.py``) or lands on the counted debt list."""
        monkeypatch.syspath_prepend(str(ROOT / "tools"))
        for path in PACKAGE.rglob("*.py"):
            module = ".".join(
                path.relative_to(PACKAGE.parent).with_suffix("").parts)
            if module.startswith("repro.check"):
                continue
            for qualname in ("brand_new", "BrandNew.method"):
                new = SimpleNamespace(aid=False, name=f"{module}:{qualname}")
                assert reach.verdict_of(new)[0] in ("UNDECIDED", "exception"), (
                    new.name)

    def test_the_guard_bites(self):
        """Broken on purpose: an export nothing but a unit test names, and
        an exception nobody was owed."""
        exported, library_uses, driver_uses, rows = measured()
        again = exported | {"TimerServiceAgain"}
        assert unanswered(again, library_uses, driver_uses, rows) == [
            "TimerServiceAgain"]
        # A use in the library, in a driver, or a row someone decided
        # answers for it; a deleted or undecided row answers nothing.
        assert unanswered(
            again, library_uses | {"TimerServiceAgain"}, driver_uses, rows
        ) == []
        assert unanswered(
            again, library_uses, driver_uses | {"TimerServiceAgain"}, rows
        ) == []
        for verdict, orphans in (("paper", []), ("exception", []),
                                 ("deleted", ["TimerServiceAgain"]),
                                 ("UNDECIDED", ["TimerServiceAgain"])):
            row = ("repro.mbt.timers:TimerServiceAgain.post_at", verdict)
            assert unanswered(
                again, library_uses, driver_uses, rows + [row]
            ) == orphans
        one_more = rows + [("repro.fabric.session:surge_pricing",
                            "exception")]
        assert exception_rows(one_more) == exception_rows(rows) + 1
        assert exception_rows(rows) == EXCEPTION_ROWS, (
            "lower EXCEPTION_ROWS to the table's count when a row retires")


def resolves(function: str) -> bool:
    """Whether a row's ``module:qualname`` still names something: the
    module imports and each part of the qualname is an attribute of the
    last (so a property's ``setter`` resolves through the property)."""
    module, qualname = function.split(":", 1)
    try:
        target = importlib.import_module(module)
    except ImportError:
        return False
    for part in qualname.split("."):
        try:
            target = getattr(target, part)
        except AttributeError:
            return False
    return True


class TestEveryRowNamesALiveFunction:
    def test_every_row_resolves(self):
        assert [name for name, _ in reach_rows() if not resolves(name)] == []

    def test_the_guard_bites(self):
        assert resolves("repro.mbt.timers:PeriodicTimer.period.setter")
        assert resolves("repro.mbt.scheduler:Scheduler.reservations")
        assert not resolves("repro.mbt.scheduler:Scheduler._never_defined")
        assert not resolves("repro.mbt.timers:PeriodicTimer.period.nowhere")
        assert not resolves("repro.deploy.gone:anything")


class TestEveryUnpassedParameterIsDecided:
    """The appendix's census, statically: an optional parameter no call
    site passes is deleted or carries a ``KEPT_PARAMETERS`` reason."""

    @pytest.fixture(autouse=True)
    def verdicts(self, monkeypatch):
        monkeypatch.syspath_prepend(str(ROOT / "tools"))

    def test_no_unpassed_parameter_is_undecided(self):
        rows = dict(reach_rows())
        found = [f for f in reach.functions() if f.name not in rows]
        assert [line for line in reach.unpassed_parameters(found)
                if "UNDECIDED" in line] == []

    def test_a_super_init_passes_only_to_its_own_bases(self):
        """Broken on purpose: five positional arguments to ``Base`` reach
        no parameter of ``Unrelated`` (the census used to credit every
        ``super().__init__`` to every constructor)."""
        source = (
            "class Unrelated:\n"
            "    def __init__(self, a=1, b=2, c=3, d=4):\n        pass\n"
            "class Base:\n"
            "    def __init__(self, a, b, c, d, e=5):\n        pass\n"
            "class Middle(Base):\n    pass\n"
            "class Child(Middle):\n"
            "    def __init__(self):\n"
            "        super().__init__(1, 2, 3, 4, 5)\n"
        )
        tree = ast.parse(source)
        found = {
            cls.name: reach.Function(
                "repro/twin.py", f"{cls.name}.__init__", node,
                source.splitlines())
            for cls in tree.body for node in cls.body
            if isinstance(node, ast.FunctionDef)
        }
        sites = reach._call_sites([tree])
        census = reach.unpassed_parameters(
            list(found.values()), sites=sites, registered=set())
        assert [line.split(" (")[0] for line in census] == [
            "* `repro.twin:Unrelated.__init__`"]
        assert "`a`, `b`, `c`, `d` — UNDECIDED" in census[0]

    def test_a_registered_class_is_skipped(self):
        """``GreedyPump`` is registered through ``default_registry``'s
        dict loop, so a description string can pass any of its
        parameters: even with no call site at all, it is not listed."""
        assert "GreedyPump" in reach.registered_classes()
        assert "MpegDecoder" in reach.registered_classes()  # deferred
        pump = [f for f in reach.functions()
                if f.name == "repro.components.pumps:GreedyPump.__init__"]
        assert len(pump) == 1 and pump[0].params.defaults
        assert reach.unpassed_parameters(pump, sites={}) == []
        assert reach.unpassed_parameters(pump, sites={}, registered=set())


SYSCALLS = PACKAGE / "mbt" / "syscalls.py"
#: Syscalls no library code constructs, each with why it stays.
KEPT_SYSCALLS = {
    "Yield": "the explicit preemption point: tests model a CPU-bound rival "
             "(tests/mbt/test_repost.py) and run_watched's livelock "
             "(tests/check/test_deadlock.py) with it",
}


def syscall_classes(source: str) -> set[str]:
    """The classes ``source`` derives from ``Syscall`` directly."""
    return {
        node.name for node in ast.parse(source).body
        if isinstance(node, ast.ClassDef) and any(
            isinstance(base, ast.Name) and base.id == "Syscall"
            for base in node.bases)
    }


def constructed(source: str) -> set[str]:
    """Names ``source`` calls, bare (``Send(...)``) or through a module
    (``syscalls.Send(...)``).  A ``Receive`` is built in ``labelled`` and
    yielded by ``ThreadCtx.wait``: the construction is what counts."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                names.add(func.id)
            elif isinstance(func, ast.Attribute):
                names.add(func.attr)
    return names


def middleware_calls() -> set[str]:
    return set().union(*(
        constructed(path.read_text()) for path in PACKAGE.rglob("*.py")
        if path.relative_to(PACKAGE).parts[0] != "mbt"
    ))


def without_caller(syscalls: set[str], calls: set[str]) -> list[str]:
    return sorted(syscalls - calls - set(KEPT_SYSCALLS))


class TestEverySyscallHasAMiddlewareCaller:
    def test_every_syscall_is_built_by_the_middleware_or_kept(self):
        syscalls = syscall_classes(SYSCALLS.read_text())
        assert without_caller(syscalls, middleware_calls()) == []

    def test_the_kept_list_names_no_syscall_that_gained_a_caller(self):
        syscalls = syscall_classes(SYSCALLS.read_text())
        assert set(KEPT_SYSCALLS) <= syscalls
        assert set(KEPT_SYSCALLS).isdisjoint(middleware_calls())

    def test_the_guard_bites(self):
        """Broken on purpose: a synchronous call and a sleep, which no
        middleware code builds, beside the kept ``Yield``."""
        source = (
            "class Yield(Syscall):\n    pass\n"
            "class Call(Syscall):\n    target: str\n"
            "class Sleep(Syscall):\n    duration: float\n"
        )
        assert syscall_classes(source) == {"Yield", "Call", "Sleep"}
        assert without_caller(syscall_classes(source), set()) == [
            "Call", "Sleep"]
        assert without_caller(
            syscall_classes(source), constructed("syscalls.Call('peer')")
        ) == ["Sleep"]
