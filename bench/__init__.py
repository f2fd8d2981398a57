"""The repository's benchmark: one runner, six named workloads.

Run ``python3 -m bench`` from the repository root (see ``bench/README.md``).
Nothing here is imported by ``repro``; the benchmark drives the library
from outside, through its public API only.
"""
