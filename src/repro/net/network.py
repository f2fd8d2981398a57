"""The discrete-event network simulator.

One :class:`Network` runs on the scheduler (and virtual clock) of the
engine whose netpipes ride it (they bind it as they attach), so
transmission, queueing and propagation delays interleave naturally with
pipeline execution; an engine-less driver passes ``Network(scheduler)``.
"""

from __future__ import annotations

import random
from typing import Callable

from repro.errors import NetworkBindingError, RemoteError
from repro.mbt.scheduler import Scheduler
from repro.net.links import Link
from repro.net.packets import Packet


class Network:
    """A set of named nodes connected by directed links."""

    def __init__(self, scheduler: Scheduler | None = None, seed: int = 0):
        self.scheduler = scheduler
        self.seed = seed
        self.rng = random.Random(seed)
        self._links: dict[tuple[str, str], Link] = {}
        self._nodes: set[str] = set()
        #: flow id -> receive callback (called with the packet on arrival).
        self._receivers: dict[str, Callable[[Packet], None]] = {}
        #: Saved loss rates of links currently forced down (fault injection).
        self._downed: dict[tuple[str, str], float] = {}

    def bind(self, scheduler: Scheduler, rival: "Network | None" = None):
        """Run on ``scheduler`` (again: a no-op), as the network of an
        engine whose network is ``rival``, and answer self; another
        scheduler, or another network, raises naming both."""
        if rival is not None and rival is not self:
            raise NetworkBindingError(
                f"the engine runs {rival!r}; {self!r} is a second network")
        if self.scheduler is not None and self.scheduler is not scheduler:
            raise NetworkBindingError(f"{self!r} runs on {self.scheduler!r}"
                                      f", not on the engine's {scheduler!r}")
        self.scheduler = scheduler
        return self

    def __repr__(self) -> str:
        return f"<Network seed={self.seed} nodes={sorted(self._nodes)}>"

    # ------------------------------------------------------------ topology

    def add_node(self, name: str) -> str:
        self._nodes.add(name)
        return name

    @property
    def nodes(self) -> set[str]:
        return set(self._nodes)

    def add_link(
        self,
        src: str,
        dst: str,
        bandwidth_bps: float = 10_000_000.0,
        delay: float = 0.010,
        jitter: float = 0.0,
        loss_rate: float = 0.0,
        queue_packets: int = 64,
        symmetric: bool = True,
    ) -> Link:
        """Create a link (and, by default, its reverse twin for acks)."""
        self._nodes.update((src, dst))
        qos = dict(bandwidth_bps=bandwidth_bps, delay=delay, jitter=jitter,
                   loss_rate=loss_rate, queue_packets=queue_packets)
        link = self._links[(src, dst)] = Link(src=src, dst=dst, **qos)
        if symmetric and (dst, src) not in self._links:
            self._links[(dst, src)] = Link(src=dst, dst=src, **qos)
        return link

    def link(self, src: str, dst: str) -> Link:
        try:
            return self._links[(src, dst)]
        except KeyError:
            raise RemoteError(f"no link {src!r} -> {dst!r}") from None

    # ------------------------------------------------------------ transfer

    def register_receiver(
        self, flow: str, receive: Callable[[Packet], None]
    ) -> None:
        if flow in self._receivers:
            raise RemoteError(f"duplicate receiver for flow {flow!r}")
        self._receivers[flow] = receive

    def transmit(self, src: str, dst: str, packet: Packet) -> bool:
        """Send a packet; returns False when it was dropped on the way.

        Delivery happens asynchronously at the simulated arrival time, by
        invoking the flow's registered receive callback.
        """
        link = self.link(src, dst)
        if self.scheduler is None:
            raise NetworkBindingError(f"{self!r} runs on no scheduler")
        arrival = link.admit(self.scheduler.now(), packet, self.rng)
        if arrival is None:
            return False
        receive = self._receivers.get(packet.flow)
        if receive is None:
            raise RemoteError(
                f"flow {packet.flow!r} has no registered receiver"
            )
        self.scheduler.at(arrival, lambda: receive(packet))
        return True

    # ------------------------------------------------------------ faults

    def take_link_down(self, src: str, dst: str) -> None:
        """Force a link down: every packet admitted while down is lost.

        Used by :mod:`repro.check.faults` to model link flaps.  Idempotent;
        the pre-flap loss rate is restored by :meth:`bring_link_up`.
        """
        link = self.link(src, dst)
        if (src, dst) not in self._downed:
            self._downed[(src, dst)] = link.loss_rate
            link.loss_rate = 1.0

    def bring_link_up(self, src: str, dst: str) -> None:
        """Restore a link taken down by :meth:`take_link_down`."""
        saved = self._downed.pop((src, dst), None)
        if saved is not None:
            self.link(src, dst).loss_rate = saved

    def link_is_down(self, src: str, dst: str) -> bool:
        return (src, dst) in self._downed

    # ------------------------------------------------------------ QoS views

    def control_latency(self, src: str, dst: str) -> float:
        """One-way latency for small control messages (events, queries)."""
        if src == dst or not src or not dst:
            return 0.0
        link = self._links.get((src, dst))
        if link is None:
            return 0.0
        return link.delay

    def rtt(self, a: str, b: str) -> float:
        return self.control_latency(a, b) + self.control_latency(b, a)
