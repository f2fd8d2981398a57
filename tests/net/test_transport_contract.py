"""One contract, five transports (docs/RUNTIME.md, "Seams and their
contracts").

Every :class:`~repro.net.protocols.Transport` hands what arrives to the
one receive-side delivery function, so bound and unbound receivers see
the same thing whatever carried the bytes.  The second half is the guard
that keeps it so: nothing under ``repro.net`` / ``repro.deploy`` /
``runtime/engine.py`` may probe a transport or an origin for what the
contract declares.
"""

import ast
from pathlib import Path

import pytest

from repro.errors import MarshalError, RemoteError
from repro.mbt import Scheduler, VirtualClock
from repro.net import (
    DatagramProtocol,
    InProcessLink,
    Network,
    SocketLink,
    StreamProtocol,
)
from repro.net.marshal import encode_batch
from repro.net.mux import MuxStream, StreamMux
from repro.net.protocols import Transport


class Rig:
    """A sending end, a receiving end and ``settle()``, which delivers
    whatever the wire still holds."""

    def __init__(self, tx, rx, settle=lambda: None, close=lambda: None):
        self.tx, self.rx, self.settle, self.close = tx, rx, settle, close
        self.data, self.frames, self.eos = [], [], []

    def bind(self, frames=True):
        self.rx.on_deliver(
            lambda chunk: self.data.append(bytes(chunk)),
            lambda: self.eos.append(True),
            (lambda frame: self.frames.append(bytes(frame)))
            if frames else None,
        )
        return self


def simulated(protocol_cls):
    scheduler = Scheduler(clock=VirtualClock())
    network = Network(scheduler, seed=0)
    network.add_link("a", "b", bandwidth_bps=10_000_000, delay=0.01)
    protocol = protocol_cls(network, "flow", "a", "b")
    return Rig(protocol, protocol, scheduler.run_until_idle)


def socket_link():
    tx, rx = SocketLink.pair()

    def close():
        tx.close()
        rx.close()

    return Rig(tx, rx, rx.pump, close)


def in_process():
    link = InProcessLink()
    return Rig(link, link)


def mux_stream():
    forward = InProcessLink("a", "b", "fwd")
    back = InProcessLink("b", "a", "back")
    tx_mux = StreamMux(forward, inbound=back)
    rx_mux = StreamMux(back, inbound=forward)
    rig = Rig(
        tx_mux.open_stream(1, credits=4), rx_mux.open_stream(1, credits=4)
    )
    rig.tx_mux, rig.rx_mux = tx_mux, rx_mux
    return rig


RIGS = {
    "datagram": lambda: simulated(DatagramProtocol),
    "stream": lambda: simulated(StreamProtocol),
    "socketlink": socket_link,
    "inprocess": in_process,
    "muxstream": mux_stream,
}


@pytest.fixture(params=list(RIGS))
def rig(request):
    made = RIGS[request.param]()
    yield made
    made.close()


FRAME = encode_batch([b"one", b"two", b"three"])


def send(rig, kind):
    if kind == "data":
        rig.tx.send(b"payload")
    elif kind == "frame":
        rig.tx.send_frame(FRAME)
    else:
        rig.tx.send_eos()
    rig.settle()


class TestReceiveSide:
    def test_every_transport_inherits_the_one_delivery_function(self, rig):
        for end in (rig.tx, rig.rx):
            assert isinstance(end, Transport)
            assert type(end).on_deliver is Transport.on_deliver
            assert type(end)._receive is Transport._receive

    def test_a_bound_receiver_gets_each_kind_on_its_own_callback(self, rig):
        rig.bind()
        send(rig, "data")
        send(rig, "frame")
        send(rig, "eos")
        assert rig.data == [b"payload"]
        assert rig.frames == [FRAME]
        assert rig.eos == [True]
        assert rig.rx.eos_received
        # `delivered` counts messages a bound receiver took, EOS included.
        assert rig.rx.stats["delivered"] == 3

    def test_a_receiver_without_a_frame_path_gets_the_chunks(self, rig):
        rig.bind(frames=False)
        send(rig, "frame")
        assert rig.data == [b"one", b"two", b"three"]
        assert rig.rx.stats["delivered"] == 1

    @pytest.mark.parametrize("kind", ["data", "frame", "eos"])
    def test_nothing_bound_is_the_same_error_for_every_kind(self, rig, kind):
        with pytest.raises(RemoteError, match="has no receiver bound"):
            send(rig, kind)
        assert rig.rx.stats["delivered"] == 0
        assert not rig.rx.eos_received


class TestUnknownKind:
    def test_the_contract_has_three_kinds_and_refuses_a_fourth(self):
        bare = Rig(None, Transport("bare", "a", "b")).bind()
        with pytest.raises(MarshalError, match="unknown message kind"):
            bare.rx._receive("credit", b"x")
        assert bare.rx.stats["delivered"] == 0

    def test_a_wire_byte_no_kind_maps_to_is_refused_too(self):
        rig = socket_link().bind()
        rig.tx._sendall(7, b"x")
        with pytest.raises(MarshalError, match="unknown message kind 7"):
            rig.settle()
        rig.close()


class TestSendSide:
    def test_stated_items_are_accepted_and_only_a_counter_charges_them(
        self, rig
    ):
        rig.bind()
        # Three data chunks and a side chunk: four chunks, three items.
        framed = encode_batch([b"a", b"b", b"c", b"\x7fside"])
        rig.tx.send_frame(framed, items=3)
        rig.settle()
        assert rig.frames == [framed]
        if not rig.rx.counts_drained:
            return
        assert isinstance(rig.tx, MuxStream)
        assert rig.tx.credits == 4 - 3
        rig.rx.note_drained(3)
        assert rig.tx.credits == 4
        assert rig.rx.stats["credits_granted"] == 3

    def test_only_the_mux_stream_counts(self, rig):
        assert rig.rx.counts_drained is isinstance(rig.rx, MuxStream)


class TestDeclaredDefaults:
    def test_what_used_to_be_probed_answers_on_every_transport(self, rig):
        for end in (rig.tx, rig.rx):
            assert (end.flow, end.src, end.dst) == (
                str(end.flow), str(end.src), str(end.dst))
            assert end.receiver_loss_sample() == 0.0
            assert end.pump() == 0
            assert end.wait(0.0) is False
            assert end.attach_scheduler(Scheduler()) is None
            assert end.stats["retransmits"] == 0
        rig.tx.close()
        rig.rx.close()

    def test_the_base_alone_is_a_complete_receiver(self):
        bare = Rig(None, Transport("bare", "a", "b")).bind()
        bare.rx._receive("data", b"x")
        bare.rx._receive("frame", FRAME)
        bare.rx._receive("eos")
        assert (bare.data, bare.frames, bare.eos) == ([b"x"], [FRAME], [True])
        for method in (bare.rx.send, bare.rx.send_frame):
            with pytest.raises(NotImplementedError):
                method(b"x")
        with pytest.raises(NotImplementedError):
            bare.rx.send_eos()


class TestLinkEosOnAMux:
    def test_a_send_only_end_survives_link_eos(self):
        rig = mux_stream().bind()
        # The receiving process closes the whole link: the sending end of
        # stream 1 has no receiver bound, and that is not an error.
        rig.rx_mux.send_link_eos()
        assert rig.tx.eos_received
        assert rig.tx.stats["delivered"] == 0

    def test_link_eos_reaches_every_bound_stream_once(self):
        rig = mux_stream().bind()
        rig.tx_mux.send_link_eos()
        rig.tx_mux.transport.eos_sent = False  # a second close of the link
        rig.tx_mux.send_link_eos()
        assert rig.eos == [True]

    def test_a_stream_eos_for_an_unbound_receiver_is_not_swallowed(self):
        rig = mux_stream()
        with pytest.raises(RemoteError, match="has no receiver bound"):
            rig.tx.send_eos()
        assert not rig.rx.eos_received


# -- the guard: the contract is read, never probed ---------------------------

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
SEAM_NAMES = {"protocol", "transport", "inbound", "link", "origin"}
GUARDED = [
    *sorted((SRC / "net").glob("*.py")),
    *sorted((SRC / "deploy").glob("*.py")),
    SRC / "runtime" / "engine.py",
]


def probes(source: str) -> list[ast.Call]:
    """Every ``getattr`` / ``hasattr`` call in ``source``."""
    return [
        node for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("getattr", "hasattr")
    ]


def seam_probes(source: str) -> list[str]:
    """The probes whose subject is named like a transport or an origin
    (``protocol``, ``self.protocol``, ``sender.protocol`` ...)."""
    found = []
    for call in probes(source):
        subject = call.args[0] if call.args else None
        name = (subject.id if isinstance(subject, ast.Name)
                else subject.attr if isinstance(subject, ast.Attribute)
                else None)
        if name in SEAM_NAMES:
            found.append(ast.unparse(call))
    return found


def library_probe_count() -> int:
    """ISSUE 22's command: ``grep -rn "getattr(\\|hasattr(" src/repro
    --include=*.py | grep -v "^src/repro/check\\|__main__" | wc -l``."""
    count = 0
    for path in SRC.rglob("*.py"):
        if path.relative_to(SRC).parts[0] != "check" and (
            path.name != "__main__.py"
        ):
            count += sum(
                "getattr(" in line or "hasattr(" in line
                for line in path.read_text().splitlines()
            )
    return count


class TestNothingProbesASeam:
    def test_no_transport_or_origin_is_probed(self):
        for path in GUARDED:
            assert seam_probes(path.read_text()) == [], path.name

    def test_on_deliver_is_written_once(self):
        definitions = [
            f"{path.name}:{node.lineno}"
            for path in sorted((SRC / "net").glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.FunctionDef) and node.name == "on_deliver"
        ]
        assert len(definitions) == 1, definitions
        assert definitions[0].startswith("protocols.py:")

    def test_the_probe_count_only_falls(self):
        assert library_probe_count() <= 45

    def test_the_guard_bites(self):
        """Broken on purpose: the probes this PR removed, verbatim."""
        broken = (
            "class NetpipeSender:\n"
            "    def __init__(self, protocol):\n"
            "        self._counted = hasattr(protocol, 'note_drained')\n"
            "    def on_attach(self, engine):\n"
            "        hook = getattr(self.protocol, 'attach_scheduler', None)\n"
            "def plan(sender, component):\n"
            "    via = getattr(sender.protocol, 'flow', sender.name)\n"
            "    wait = getattr(self.inbound, 'wait', None)\n"
            "    slack = getattr(self.origin, 'deadline_slack', None)\n"
            "    fine = getattr(component, 'location', '')\n"
        )
        assert len(probes(broken)) == 6
        assert len(seam_probes(broken)) == 5
