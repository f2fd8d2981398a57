"""Unique, human-readable names for components and threads."""

from __future__ import annotations

import contextlib
import itertools
import re
from collections import defaultdict


def _new_counters() -> defaultdict[str, itertools.count]:
    return defaultdict(lambda: itertools.count(1))


_counters = _new_counters()


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
    _counters = _new_counters()
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
    return f"{slug}-{next(_counters[slug])}"


def camel_to_kebab(name: str) -> str:
    """``"MpegFileSource"`` -> ``"mpeg-file-source"``."""
    step = re.sub(r"(.)([A-Z][a-z]+)", r"\1-\2", name)
    step = re.sub(r"([a-z0-9])([A-Z])", r"\1-\2", step)
    return step.replace("_", "-").lower()


def reset_counters() -> None:
    """Forget all counters (used by tests for stable names)."""
    _counters.clear()
