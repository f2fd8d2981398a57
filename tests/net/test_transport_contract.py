"""One contract, five transports (docs/RUNTIME.md, "Seams and their
contracts").

Every :class:`~repro.net.protocols.Transport` hands what arrives to the
one receive-side delivery function, so bound and unbound receivers see
the same thing whatever carried the bytes.  The second half is the guard
that keeps every seam so: nothing in the library may probe a transport or
an origin for what its contract declares, and each probe left stands on
an allow-list, by function, with its reason.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

from repro.errors import MarshalError, NetworkBindingError, RemoteError
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
from repro.net.protocols import Protocol, Transport


class Rig:
    """A sending end, a receiving end and ``settle()``, which delivers
    whatever the wire still holds."""

    #: Whether the two ends name one wire (``wire_key``): a socket
    #: pair's ends are two links, one per process.
    paired = True

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
    rig = Rig(protocol, protocol, scheduler.run)
    rig.scheduler = scheduler
    return rig


def socket_link():
    tx, rx = SocketLink.pair()

    def close():
        tx.close()
        rx.close()

    rig = Rig(tx, rx, rx.pump, close)
    rig.paired = False
    return rig


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
            assert end.stats["retransmits"] == 0
        rig.tx.close()
        rig.rx.close()

    def test_only_a_simulated_end_binds_a_scheduler(self, rig):
        """A simulated end runs its network on the scheduler it is handed
        (the netpipes hand it their engine's) and answers that network,
        for the engine to bind; a scheduler not its network's is the
        named error.  Every other end ignores the scheduler."""
        for end in (rig.tx, rig.rx):
            if not isinstance(end, Protocol):
                assert end.attach_scheduler(Scheduler()) is None
                continue
            assert end.attach_scheduler(rig.scheduler) is end.network
            with pytest.raises(NetworkBindingError, match="not on the engine"):
                end.attach_scheduler(Scheduler())
            assert end.network.scheduler is rig.scheduler

    def test_a_clean_wire_counts_nothing_lost(self, rig):
        rig.bind()
        for kind in ("data", "frame", "eos"):
            send(rig, kind)
        for end in (rig.tx, rig.rx):
            assert end.stats["lost"] == 0

    def test_the_two_ends_of_one_wire_answer_one_key(self, rig):
        """What ``netpipe_pairs`` pairs the halves of a bridge by: the
        transport itself, or, for a mux stream, whose two ends are two
        objects, the link the sending end's mux writes and the receiving
        end's mux reads, with the stream id."""
        assert (rig.tx.wire_key(True) == rig.rx.wire_key(False)) is \
            rig.paired
        if isinstance(rig.tx, MuxStream):
            assert rig.tx.wire_key(True) == (rig.tx_mux.transport, 1)
        else:
            assert rig.tx.wire_key(True) is rig.tx
            assert rig.rx.wire_key(False) is rig.rx

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
#: What the guards read: every module of the library, the checker and the
#: CLI included.
LIBRARY = sorted(SRC.rglob("*.py"))
#: The runtime: the library minus ``repro.check``, which reads user
#: predicates and items, and the CLI.
RUNTIME = [
    path for path in LIBRARY
    if path.relative_to(SRC).parts[0] != "check"
    and path.name != "__main__.py"
]
#: The probes that stay, by ``module:function``: how many, and why.  Each
#: reads something from outside the library, which declares nothing.
ALLOWED = {
    "runtime/section.py:_run_entry": (
        2, "the run-entry rule walks the instance, then its MRO: a tap on "
           "the instance wins, and a slotted instance has no __dict__"),
    "core/component.py:Component.handle_event": (
        1, "the paper's on_<kind> handler naming, for any kind a program "
           "sends"),
    "feedback/sensors.py:MetricSensor.sample": (
        1, "the histogram aggregate the user names as the stat"),
    "lang/registry.py:default_registry": (
        1, "keep_kind's predicate sees whatever items the user's flow "
           "carries"),
    "api.py:build_program": (
        1, "a user's builder may return any object carrying its Pipeline"),
    "deploy/worker.py:done_payload": (
        1, "a sink of the user's own class reports its items list"),
    "__main__.py:_app.flag": (
        1, "each subcommand's argparse namespace holds only the flags it "
           "defines"),
    "check/deadlock.py:describe_match": (
        4, "a receive's match predicate is any callable: its name, code, "
           "closure and defaults describe it"),
    "check/deadlock.py:blocked_waits": (
        1, "the `waiting_on` a match predicate may carry "
           "(`receive_from` sets it)"),
    "check/refine.py:Projection.by_attr.get": (
        1, "the attribute the user projects each sink item to"),
    "check/refine.py:_describe_fn": (
        1, "the name of the user's projection callable, if it has one"),
}


def is_probe(node) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("getattr", "hasattr")
    )


def probes(source: str) -> list[ast.Call]:
    """Every ``getattr`` / ``hasattr`` call in ``source``."""
    return [node for node in ast.walk(ast.parse(source)) if is_probe(node)]


def seam_probes(source: str) -> list[str]:
    """The probes whose subject or probed name is a transport or an
    origin (``protocol``, ``sender.protocol``, ``x, "protocol"`` ...)."""
    found = []
    for call in probes(source):
        subject = call.args[0] if call.args else None
        name = (subject.id if isinstance(subject, ast.Name)
                else subject.attr if isinstance(subject, ast.Attribute)
                else None)
        probed = call.args[1] if len(call.args) > 1 else None
        if name in SEAM_NAMES or (
            isinstance(probed, ast.Constant) and probed.value in SEAM_NAMES
        ):
            found.append(ast.unparse(call))
    return found


def probe_sites(module: str, source: str) -> Counter:
    """``module:function`` -> the probes written in that function
    (``Class.method`` for a method; a lambda counts for its ``def``)."""
    sites: Counter = Counter()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if is_probe(child):
                sites[f"{module}:{scope}"] += 1
            visit(child, scope)

    visit(ast.parse(source), "")
    return sites


def unallowed(sites: Counter) -> dict[str, int]:
    """The sites holding more probes than the allow-list grants them."""
    return {
        site: count for site, count in sites.items()
        if count > ALLOWED.get(site, (0, ""))[0]
    }


def probe_count(paths) -> int:
    """``grep -rn "getattr(\\|hasattr(" PATHS | wc -l``."""
    return sum(
        "getattr(" in line or "hasattr(" in line
        for path in paths
        for line in path.read_text().splitlines()
    )


class TestNothingProbesASeam:
    def test_no_transport_or_origin_is_probed(self):
        for path in LIBRARY:
            assert seam_probes(path.read_text()) == [], path.name

    def test_every_probe_left_is_allowed_where_it_stands(self):
        found: Counter = Counter()
        for path in LIBRARY:
            found += probe_sites(
                path.relative_to(SRC).as_posix(), path.read_text())
        assert unallowed(found) == {}
        # ...and the list names no probe that is gone.
        assert found == Counter(
            {site: count for site, (count, _) in ALLOWED.items()})

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
        assert probe_count(RUNTIME) <= 7
        assert probe_count(
            path for path in LIBRARY if path.parent.name == "check"
        ) <= 7
        assert probe_count(LIBRARY) == 15

    def test_the_guard_bites(self):
        """Broken on purpose: probes the seam contracts and the checker's
        contract replaced, verbatim."""
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
            "def _stock_pull(component):\n"
            "    return getattr(component, 'pull', None)\n"
            "def plant_sink(ctx, component, entry, count=None):\n"
            "    if getattr(component, 'wire_sink', False):\n"
            "        on_eos = getattr(component, 'on_eos', None)\n"
            "def ends_in_eos(run):\n"
            "    return not getattr(run, 'columnar', False)\n"
            "def _is_seam_buffer(component):\n"
            "    return getattr(component, 'on_full', None) is not BLOCK\n"
            "class MpegDecoder:\n"
            "    def process_run(self, run):\n"
            "        kinds = getattr(run, 'kind', None)\n"
            "def _run_entry(component, item_entry):\n"
            "    entry = getattr(component, run_name, None)\n"
            "    namespace = getattr(holder, '__dict__', {})\n"
            "    process_run = getattr(component, 'process_run', None)\n"
        )
        assert len(probes(broken)) == 15
        assert len(seam_probes(broken)) == 5
        sites = probe_sites("runtime/section.py", broken)
        # Every site is refused, _run_entry's too: it holds one probe more
        # than the two the list grants it.
        assert set(unallowed(sites)) == set(sites)
        assert sites["runtime/section.py:_run_entry"] == 3
        # The checker is library too: its old probes of the program and of
        # a netpipe half are refused, the second as a seam probe as well.
        explorer = (
            "def _scheduler_of(program):\n"
            "    return getattr(program, 'scheduler', program)\n"
        )
        invariants = (
            "def _is_sink(component):\n"
            "    return getattr(component, 'protocol', None) is None\n"
        )
        checker = probe_sites("check/explorer.py", explorer) \
            + probe_sites("check/invariants.py", invariants)
        assert set(unallowed(checker)) == set(checker) == {
            "check/explorer.py:_scheduler_of", "check/invariants.py:_is_sink",
        }
        assert seam_probes(explorer) == []
        assert seam_probes(invariants) == [
            "getattr(component, 'protocol', None)"
        ]
