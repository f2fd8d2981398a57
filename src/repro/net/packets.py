"""Network packets."""

from __future__ import annotations

from dataclasses import dataclass

#: Bytes of header overhead accounted per packet on the wire.
HEADER_BYTES = 28  # IP (20) + UDP (8), close enough for a simulator


@dataclass(slots=True)
class Packet:
    """One packet on the simulated wire.

    Messages larger than the MTU are fragmented: ``msg_seq`` identifies the
    message, ``frag_idx``/``frag_count`` the fragment's position.
    """

    flow: str
    seq: int
    payload: bytes
    kind: str = "data"  # "data" | "ack" | "control"
    msg_seq: int = 0
    frag_idx: int = 0
    frag_count: int = 1

    @property
    def size(self) -> int:
        """Wire size in bytes (payload + header overhead)."""
        return len(self.payload) + HEADER_BYTES

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Packet {self.kind} flow={self.flow} seq={self.seq} "
            f"{len(self.payload)}B>"
        )
