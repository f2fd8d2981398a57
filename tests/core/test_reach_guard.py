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
"""

import ast
import importlib.util
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "repro"

#: The exception rows docs/REACH.md has (92 when ISSUE 21 landed; ISSUE 22
#: retired the eight explicit-span rows, ISSUE 25 the eight flight-recorder
#: rows and `enable_trace`'s; deleting `Mailbox.clear` retired its own,
#: and `fabric-mux` now ends bursts in `_finish_burst`; an engine's event
#: fan-out is `Mailbox.put_many`'s production caller).  Lower it when a
#: row is retired; never raise it.
EXCEPTION_ROWS = 72

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
        one_more = rows + [("repro.fabric.admission:surge_pricing",
                            "exception")]
        assert exception_rows(one_more) == exception_rows(rows) + 1
        assert exception_rows(rows) == EXCEPTION_ROWS, (
            "lower EXCEPTION_ROWS to the table's count when a row retires")
