"""Array backend for the columnar media plane.

numpy is an *optional* accelerator (install the ``repro[media]`` extra);
the fallback is the stdlib ``array`` module, which still gives compact
parallel columns and buffer-protocol payload regions — only the fancy
indexing and bulk arithmetic degrade to Python loops.

Setting ``REPRO_MEDIA_PURE=1`` in the environment forces the pure-Python
path even when numpy is importable (CI exercises both paths this way).
Tests may also flip :data:`np` directly (``monkeypatch.setattr(arrays,
"np", None)``); the helpers below dispatch on the *actual column types*,
so batches built under one backend remain readable under the other.
"""

from __future__ import annotations

import os
from array import array
from typing import Any, Iterable, Sequence

try:  # pragma: no cover - exercised via both CI paths
    import numpy as _numpy
except Exception:  # pragma: no cover
    _numpy = None

#: Active numpy module, or None on the pure-Python path.  Module-global so
#: tests can monkeypatch it; read it at call time, never from-import it.
np = None if os.environ.get("REPRO_MEDIA_PURE") else _numpy


# -- column builders ----------------------------------------------------------


def i64(values: Iterable[int]):
    """Build an int64 column."""
    if np is not None:
        return np.fromiter(values, dtype=np.int64) if not isinstance(
            values, (list, tuple)
        ) else np.asarray(values, dtype=np.int64)
    return array("q", values)


def f64(values: Iterable[float]):
    """Build a float64 column."""
    if np is not None:
        return np.asarray(
            values if isinstance(values, (list, tuple)) else list(values),
            dtype=np.float64,
        )
    return array("d", values)


def u8(values: Iterable[int]):
    """Build a uint8 column (flags)."""
    if np is not None:
        return np.asarray(
            values if isinstance(values, (list, tuple)) else list(values),
            dtype=np.uint8,
        )
    return array("B", values)


def scratch_region(nbytes: int):
    """A payload region of undefined contents, for a producer that writes
    every byte of it (``bytearray`` has no uninitialised form)."""
    if np is not None:
        return np.empty(nbytes, dtype=np.uint8)
    return bytearray(nbytes)


# -- column operations (dispatch on the column's own type) --------------------


def take(column, indices: Sequence[int]):
    """Fancy-index ``column`` by a list of indices, preserving its type."""
    if _numpy is not None and isinstance(column, _numpy.ndarray):
        return column[indices]
    if isinstance(column, array):
        return array(column.typecode, [column[i] for i in indices])
    return [column[i] for i in indices]


def tolist(column) -> list:
    """The column as a list of Python scalars — the ONE crossing from the
    array backend into Python a per-item loop over a run should pay."""
    if _numpy is not None and isinstance(column, _numpy.ndarray):
        return column.tolist()
    return list(column)


def col_sum(column) -> int:
    """Sum of an integer column as a Python int."""
    if _numpy is not None and isinstance(column, _numpy.ndarray):
        return int(column.sum())
    return sum(column)


def region_view(region) -> memoryview:
    """A writable-if-possible flat byte view over a payload region."""
    view = memoryview(region)
    if view.format != "B":
        view = view.cast("B")
    return view


__all__ = [
    "np",
    "i64",
    "f64",
    "u8",
    "scratch_region",
    "take",
    "tolist",
    "col_sum",
    "region_view",
]
