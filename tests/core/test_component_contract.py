"""The component and run contracts (docs/RUNTIME.md, "Seams and their
contracts"): everything the runtime reads off a component is declared
once on :class:`~repro.core.component.Component` with a default, and
every stock class either keeps that default or states its own value; a
run is a ``list`` or a :class:`~repro.core.runs.ColumnarRun`, told apart
by ``isinstance``."""

import importlib
import pkgutil

import pytest

import repro.components
import repro.media
import repro.net
from repro.components.buffers import Boundary, Buffer, OnEmpty, OnFull
from repro.core.component import Component
from repro.core.events import EOS
from repro.core.runs import ColumnarRun
from repro.core.styles import Consumer, FunctionComponent, Producer
from repro.errors import PortError
from repro.media import MpegDecoder, MpegFileSource, PriorityDropFilter, Resizer
from repro.net import InProcessLink
from repro.net.netpipe import make_netpipe_over
from repro.runtime.section import ends_in_eos


def classes_of(*packages) -> list[type]:
    """Every class defined in a module of ``packages``, in name order."""
    found = {}
    for package in packages:
        prefix = package.__name__ + "."
        for info in pkgutil.iter_modules(package.__path__, prefix):
            module = importlib.import_module(info.name)
            for value in vars(module).values():
                if isinstance(value, type) and (
                    value.__module__ == module.__name__
                ):
                    found[f"{module.__name__}:{value.__qualname__}"] = value
    return [found[name] for name in sorted(found)]


CLASSES = classes_of(repro.components, repro.media, repro.net)
COMPONENTS = [c for c in CLASSES if issubclass(c, Component)]
RUNS = [c for c in CLASSES if issubclass(c, ColumnarRun)]


def entry(value) -> bool:
    return value is None or callable(value)


#: seam -> (its default on the declaring base, what a subclass may set)
COMPONENT_SEAMS = {
    "pull": (None, entry),
    "push": (None, entry),
    "on_eos": (None, entry),
    "process_run": (None, entry),
    "wire_sink": (False, lambda value: isinstance(value, bool)),
    "loss_reason": (None, lambda value: isinstance(value, str) and value),
    "location": ("", lambda value: isinstance(value, str)),
    "conserving": (None, lambda value: isinstance(value, bool)),
    "declares_drops": (False, lambda value: value is True),
}
BOUNDARY_SEAMS = {
    "on_full": (OnFull.BLOCK, lambda value: isinstance(value, OnFull)),
    "on_empty": (OnEmpty.BLOCK, lambda value: isinstance(value, OnEmpty)),
    "capacity": (None, lambda value: isinstance(value, int) and value > 0),
}


def declared(cls: type, name: str) -> tuple[type, object]:
    """The class whose namespace defines ``name`` first, and the value."""
    owner = next(k for k in cls.__mro__ if name in vars(k))
    return owner, vars(owner)[name]


def test_the_walk_finds_the_stock_classes():
    names = {cls.__name__ for cls in COMPONENTS}
    assert names >= {
        "Buffer", "CollectSink", "MulticastTee", "MpegDecoder", "Resizer",
        "PriorityDropFilter", "MarshalFilter", "NetpipeSender",
        "NetpipeReceiver",
    }
    assert {cls.__name__ for cls in RUNS} == {"FrameBatch", "EncodedRun"}


@pytest.mark.parametrize("cls", COMPONENTS, ids=lambda cls: cls.__name__)
def test_each_seam_reads_its_default_or_the_class_own_value(cls):
    seams = dict(COMPONENT_SEAMS)
    if issubclass(cls, Boundary):
        seams.update(BOUNDARY_SEAMS)
    for name, (default, allowed) in seams.items():
        owner, value = declared(cls, name)
        if owner in (Component, Boundary):
            assert value is default, (cls.__name__, name)
        else:
            assert allowed(value), (cls.__name__, name, owner.__name__)


@pytest.mark.parametrize("cls", RUNS, ids=lambda cls: cls.__name__)
def test_every_run_class_is_a_whole_columnar_run(cls):
    assert cls.__len__ is not ColumnarRun.__len__
    assert cls.__getitem__ is not ColumnarRun.__getitem__
    # Membership is the type: no marker a walker could ask about.
    assert "columnar" not in dir(cls)


class TestTheStyleBases:
    def test_each_declares_only_the_entry_its_style_owns(self):
        assert Consumer.pull is None and callable(Consumer.push)
        assert Producer.push is None and callable(Producer.pull)
        assert FunctionComponent.pull is None
        assert FunctionComponent.push is None
        assert callable(FunctionComponent.convert_many)

    def test_no_entry_refuses_the_stock_dispatch_and_counts_nothing(self):
        bare = Component("bare")
        with pytest.raises(PortError, match="cannot serve a pull"):
            bare.serve_pull()
        with pytest.raises(PortError, match="cannot receive a push"):
            bare.receive_push(1)
        assert bare.stats == {"items_in": 0, "items_out": 0}


class TestWhatInstancesState:
    def test_a_netpipe_pair_states_its_nodes_and_its_wire(self):
        sender, receiver = make_netpipe_over(InProcessLink("a", "b"))
        assert (sender.location, receiver.location) == ("a", "b")
        assert sender.wire_sink and not receiver.wire_sink
        assert callable(sender.on_eos) and receiver.on_eos is None

    def test_every_boundary_answers_the_planner(self):
        buffer = Buffer(4, on_full=OnFull.DROP_NEW, on_empty=OnEmpty.NIL)
        assert (buffer.on_full, buffer.on_empty, buffer.capacity) == (
            OnFull.DROP_NEW, OnEmpty.NIL, 4)
        _, receiver = make_netpipe_over(
            InProcessLink("a", "b"), on_empty=OnEmpty.NIL)
        assert (receiver.on_full, receiver.on_empty, receiver.capacity) == (
            OnFull.BLOCK, OnEmpty.NIL, None)


class TestRunMembership:
    def batch(self):
        return MpegFileSource("t.mpg", frames=4).pull_many(4)

    def test_a_run_is_a_list_or_a_columnar_run(self):
        batch = self.batch()
        assert isinstance(batch, ColumnarRun)
        assert not isinstance([EOS], ColumnarRun)
        assert ends_in_eos([1, EOS]) and not ends_in_eos(batch)

    def test_a_columnar_run_is_never_indexed_for_eos(self):
        class Untouchable(ColumnarRun):
            def __len__(self):
                return 2

            def __getitem__(self, index):
                raise AssertionError("indexed")

        assert not ends_in_eos(Untouchable())

    def test_the_vectorized_entries_take_a_batch_and_decline_a_list(self):
        batch = self.batch()
        frames = list(batch)
        dropper = PriorityDropFilter()
        assert dropper.process_run(frames) is None
        assert dropper.process_run(batch) is batch
        assert MpegDecoder(share_references=False).process_run(frames) is None
        resizer = Resizer()
        assert isinstance(resizer.convert_many(frames), list)
        assert isinstance(resizer.convert_many(batch), ColumnarRun)
