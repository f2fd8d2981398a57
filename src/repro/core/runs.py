"""Columnar runs: batch-walker runs stored column-wise.

The batched data plane (docs/RUNTIME.md §11) moves *runs* — ordered
sequences of data items.  A plain Python list of per-item objects is the
default run representation; a :class:`ColumnarRun` is the alternative:
one object holding parallel arrays (plus, for media, a single contiguous
payload region) that *behaves* like a pure-data list of items.

The contract a ColumnarRun must honour so every existing walker keeps
working unchanged:

* ``len(run)`` is the item count;
* ``run[i]`` materializes item ``i`` on demand (negative indices work,
  and the result is never EOS/NIL — columnar runs are pure data, so the
  walkers' ``run[-1] is EOS`` probes are trivially False);
* ``run[a:b]`` returns a columnar sub-run sharing the underlying columns
  (gates use this to retry a partially accepted run);
* iteration materializes items in order — the per-item fallback every
  non-vectorized component relies on.

Because columnar runs never carry EOS, a batch-aware source returns its
final short run of data and delivers ``[EOS]`` as its own run on the next
cycle (both legal under the run conventions).

This module is dependency-free so the runtime can type-check runs without
importing :mod:`repro.media`.
"""

from __future__ import annotations


class ColumnarRun:
    """Base class of the columnar run representations: a run is columnar
    exactly when ``isinstance(run, ColumnarRun)``."""

    __slots__ = ()

    def __len__(self) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def __getitem__(self, index):  # pragma: no cover - abstract
        raise NotImplementedError

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]
