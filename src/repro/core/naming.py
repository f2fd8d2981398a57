"""Unique, human-readable names for components and threads."""

from __future__ import annotations

import contextlib
import functools
import re
from collections import defaultdict

#: Names handed out so far, per slug.
_counters: defaultdict[str, int] = defaultdict(int)


@contextlib.contextmanager
def fresh_scope():
    """Build under a private auto-naming scope.

    Component auto-names draw from a process-global counter, so the same
    program built twice (or built in a worker process that has already
    imported other pipelines) would get different names — and a plan's
    name → shard assignment would no longer match.  Swapping in fresh
    counters makes every build of one program yield identical names in
    every process, session and co-simulated twin."""
    global _counters
    saved = _counters
    _counters = defaultdict(int)
    try:
        yield
    finally:
        _counters = saved


def fresh_name(prefix: str) -> str:
    """Return a unique name like ``"mpeg-decoder-2"``.

    Prefixes are normalized from CamelCase class names to kebab-case, so
    ``MpegDecoder`` yields ``mpeg-decoder-1``, ``mpeg-decoder-2``, ...
    """
    slug = camel_to_kebab(prefix)
    _counters[slug] += 1
    return f"{slug}-{_counters[slug]}"


@functools.lru_cache(maxsize=1024)  # an entry per class name in practice
def camel_to_kebab(name: str) -> str:
    """``"MpegFileSource"`` -> ``"mpeg-file-source"``."""
    step = re.sub(r"(.)([A-Z][a-z]+)", r"\1-\2", name)
    step = re.sub(r"([a-z0-9])([A-Z])", r"\1-\2", step)
    return step.replace("_", "-").lower()
