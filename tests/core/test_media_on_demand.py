"""A program loads the media plane only when it names a media component.

``default_registry()`` knows every built-in name, but the media family
(``mpeg_file``, ``decoder``, ``display`` ...) is imported the first time
a program resolves one of its names.  A fresh interpreter builds, runs
and deploys a program with no media component in it and must end with
neither :mod:`repro.media` nor numpy imported; naming a media component
still builds and runs it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

#: Every name the microlanguage resolves, media family included.
NAMES = [
    "audio_device", "audio_source", "buffer", "camera", "clocked_pump",
    "collect", "counting", "decoder", "display", "dropper", "encoder",
    "feedback_pump", "gate", "greedy_pump", "iter", "keep_kind", "merge",
    "midi", "mpeg_file", "null", "resizer", "router", "stamp", "tee",
]

PROBE = """
import json, sys
from repro.api import Pipeline
from repro.components import CollectSink
from repro.lang import build, default_registry

def sink_items(app):
    (sink,) = [c for c in app.engine.pipeline.components
               if isinstance(c, CollectSink)]
    return sink.items

names = sorted(default_registry().names())
ran = sink_items(Pipeline.from_source(
    "counting(limit=8) >> greedy_pump >> collect").run())
deployed = Pipeline.from_source(
    "counting(limit=3200) >> greedy_pump >> buffer(64) >> greedy_pump "
    ">> collect").with_batching(32).deploy(shards=2, timeout=60.0)
(gathered,) = deployed.sinks.values()
loaded = {m: m in sys.modules for m in ("repro.media", "numpy")}
media = build('mpeg_file("test.mpg", frames=30) >> decoder '
              ">> clocked_pump(30) >> display : screen")
Pipeline.from_pipeline(media.pipeline).run()
print(json.dumps({
    "names": names, "ran": ran, "deployed": gathered == list(range(3200)),
    "loaded": loaded, "displayed": media["screen"].stats["displayed"],
    "media_loaded": "repro.media" in sys.modules,
}))
"""


def probe() -> dict:
    done = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_a_non_media_program_never_imports_the_media_plane():
    seen = probe()
    assert seen["ran"] == list(range(8))
    assert seen["deployed"]
    assert seen["loaded"] == {"repro.media": False, "numpy": False}
    # ... while the registry still lists, and builds, the whole family.
    assert seen["names"] == NAMES
    assert seen["displayed"] == 30
    assert seen["media_loaded"]
