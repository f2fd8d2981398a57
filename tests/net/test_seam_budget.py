"""A run on the seam has a budget.

A two-shard deploy's seam (``Deployment(...).simulate()``: both shards in
one engine, joined by a credited :class:`~repro.net.mux.StreamMux` stream
over in-process links) moves 3 200 items in 100 runs of 32.  Per run the
sending shard marshals the run in one ``struct`` call into a frame, the
mux carries it, and the receiving shard checks every length prefix in one
``unpack``, queues the frame whole and unmarshals it in one more.  This
pins what that costs, counted in Python-level call events
(``sys.setprofile``, C calls excluded), over the second run of the rig in
a process: the first reads a few more while the ``Struct`` caches warm.

The count was 9 017 while a uniform run carried an offset list and a
length list of 32 entries each (built per run on both sides, its ``len``
a call into a list and its ``nbytes`` a sum) and the receiver probed for
a raw columnar codec before the scalar route (indexing the run to read a
first byte).  It is 7 317 (-17 a run) since a uniform ``EncodedRun`` is
its buffer, count and length: ``nbytes`` and ``count`` are fields, the
tables are built only when something indexes the run (here nothing
does), the scalar route is asked first and unpacks the buffer where it
lies, the netpipe receiver reads ``count``, and the function walker asks
a run's ``len`` once (``ends_in_eos`` asks ``isinstance`` first).
"""

import gc
import sys
from collections import Counter

from repro import CollectSink
from repro.api import Pipeline
from repro.deploy import Deployment

SOURCE = ("counting(limit=3200) >> greedy_pump >> buffer(64) "
          ">> greedy_pump >> collect")
ITEMS, RUN = 3200, 32
#: Every Python-level call event of the second run, at the achieved count.
SEAM_RUN_CALLS = 7_317


def seam():
    engine = Deployment(
        Pipeline.from_source(SOURCE).with_batching(RUN), shards=2
    ).simulate()
    engine.start()
    return engine


def profile(engine) -> tuple[int, Counter]:
    """``(calls, by_name)`` of ``engine.run()``: every call event, and
    the calls into ``repro.net.marshal`` by function name."""
    calls, by_name = 0, Counter()

    def profiler(frame, event, arg):
        nonlocal calls
        if event != "call":
            return
        calls += 1
        code = frame.f_code
        if code.co_filename.endswith("marshal.py"):
            by_name[code.co_name] += 1

    gc.collect()
    gc.disable()
    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        engine.run()
    finally:
        sys.setprofile(previous)
        gc.enable()
    return calls, by_name


def test_a_seam_run_stays_in_budget():
    profile(seam())  # warms the Struct caches
    engine = seam()
    calls, by_name = profile(engine)
    (sink,) = [c for c in engine.pipeline.components
               if isinstance(c, CollectSink)]
    assert sink.items == list(range(ITEMS))
    runs = ITEMS // RUN
    # One marshal, one prefix check and one unmarshal a run, each a
    # uniform run that never builds its tables.
    assert by_name["_encode_scalar_run"] == by_name["decode_frame_run"] \
        == by_name["_decode_scalar_run"] == runs
    assert by_name["uniform"] == 2 * runs
    assert by_name["_tables"] == by_name["_decode_run"] == 0
    assert calls == SEAM_RUN_CALLS
