"""Point-to-point links with bandwidth, delay, jitter, loss and queueing.

A link models a serializing transmitter feeding a propagation delay:

* packets are serialized one at a time at ``bandwidth_bps``;
* while the transmitter is busy, packets wait in a bounded drop-tail queue
  (``queue_packets``), so sustained overload produces both queueing delay
  and loss — the congestion the Figure-1 feedback loop reacts to;
* after serialization a packet propagates for ``delay`` seconds plus
  uniform random jitter in ``[0, jitter]``;
* independently of congestion, each packet is lost with ``loss_rate``
  probability (random loss on a best-effort path).

All randomness comes from a seeded RNG owned by the network, so runs are
reproducible.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.net.packets import Packet


@dataclass
class LinkStats:
    sent: int = 0
    delivered: int = 0
    dropped_queue: int = 0
    dropped_random: int = 0
    bytes_delivered: int = 0
    max_queue: int = 0

    @property
    def dropped(self) -> int:
        return self.dropped_queue + self.dropped_random


@dataclass
class Link:
    """Directed link between two nodes."""

    src: str
    dst: str
    bandwidth_bps: float = 10_000_000.0  # bits per second (10 Mbit/s)
    delay: float = 0.010
    jitter: float = 0.0
    loss_rate: float = 0.0
    queue_packets: int = 64

    stats: LinkStats = field(default_factory=LinkStats)
    #: Time at which the transmitter becomes free.
    _busy_until: float = 0.0
    #: Serialization-finish times of packets still queued or being sent.
    _departures: deque = field(default_factory=deque)

    def serialization_time(self, packet: Packet) -> float:
        return packet.size * 8.0 / self.bandwidth_bps

    def queue_occupancy(self, now: float) -> int:
        """Packets queued or in serialization at ``now``."""
        while self._departures and self._departures[0] <= now + 1e-12:
            self._departures.popleft()
        return len(self._departures)

    def admit(self, now: float, packet: Packet, rng) -> float | None:
        """Accept a packet for transmission at ``now``.

        Returns the arrival time at ``dst``, or ``None`` if the packet was
        dropped (queue overflow or random loss).
        """
        self.stats.sent += 1
        if rng.random() < self.loss_rate:
            self.stats.dropped_random += 1
            return None
        occupancy = self.queue_occupancy(now)
        if occupancy >= self.queue_packets:
            self.stats.dropped_queue += 1
            return None
        self.stats.max_queue = max(self.stats.max_queue, occupancy + 1)
        start = max(now, self._busy_until)
        self._busy_until = start + self.serialization_time(packet)
        self._departures.append(self._busy_until)
        arrival = self._busy_until + self.delay
        if self.jitter > 0.0:
            arrival += rng.random() * self.jitter
        self.stats.delivered += 1
        self.stats.bytes_delivered += packet.size
        return arrival
