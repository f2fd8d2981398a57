"""Media substrate: the synthetic video/audio/MIDI workloads.

The paper's evaluation vehicle is a video player; real MPEG files and
devices are substituted by behaviour-preserving models:

* :mod:`repro.media.gop` / :mod:`repro.media.frames` — GOP-structured
  frames with I/P/B dependencies and realistic relative sizes;
* :mod:`repro.media.source` — an ``MpegFileSource`` ("test.mpg") and an
  active camera source;
* :mod:`repro.media.codec` — a decoder with decode cost, reference-frame
  sharing (the section-2.2 control-interaction example) and skipping of
  undecodable frames after upstream loss;
* :mod:`repro.media.dropper` — the priority dropping filter the Figure-1
  feedback loop actuates (B before P before I);
* :mod:`repro.media.display` — a display sink collecting jitter/lateness/
  continuity statistics and emitting window-resize events;
* :mod:`repro.media.resize` — the resizer that reacts to them;
* :mod:`repro.media.audio` — an audio block source and a clock-driven
  active audio device;
* :mod:`repro.media.batch` / :mod:`repro.media.arrays` — columnar
  :class:`FrameBatch` runs with one contiguous payload region
  (numpy-backed via the ``repro[media]`` extra, stdlib ``array``
  otherwise) — the zero-copy media plane (docs/MEDIA.md).
"""

from repro.media.audio import AudioDevice, AudioSource
from repro.media.batch import FrameBatch
from repro.media.codec import MpegDecoder, MpegEncoder
from repro.media.display import VideoDisplay
from repro.media.dropper import PriorityDropFilter
from repro.media.frames import (
    AudioSample,
    MidiEvent,
    VideoFrame,
    synth_payload,
)
from repro.media.gop import GopStructure
from repro.media.resize import Resizer
from repro.media.source import CameraSource, MidiSource, MpegFileSource

__all__ = [
    "AudioDevice",
    "AudioSample",
    "AudioSource",
    "CameraSource",
    "FrameBatch",
    "GopStructure",
    "MidiEvent",
    "MidiSource",
    "MpegDecoder",
    "MpegEncoder",
    "MpegFileSource",
    "PriorityDropFilter",
    "Resizer",
    "VideoDisplay",
    "VideoFrame",
    "synth_payload",
]
