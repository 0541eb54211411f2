"""Multi-socket server topology.

The paper studies interference *within* one multicore processor; real
server nodes often carry two or more sockets, each with its own LLC and
memory controllers.  Co-location interference is a per-socket phenomenon
(cross-socket co-runners share neither the LLC nor, to first order, the
memory channels), so a multi-socket server behaves like several
independent machines that happen to share a hostname.

:class:`Server` captures exactly that: a named collection of sockets, each
a :class:`~repro.machine.processor.MulticoreProcessor`.  The scheduling
extension treats sockets as placement targets, which is how the paper's
per-processor models compose up to node scale.
"""

from __future__ import annotations

from dataclasses import dataclass

from .processor import MulticoreProcessor

__all__ = ["Server", "dual_socket"]


@dataclass(frozen=True)
class Server:
    """A server node: one or more sockets, each an independent domain."""

    name: str
    sockets: tuple[MulticoreProcessor, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("server needs a name")
        if not self.sockets:
            raise ValueError("server needs at least one socket")

    @property
    def total_cores(self) -> int:
        """Cores across all sockets."""
        return sum(s.num_cores for s in self.sockets)

    @property
    def socket_names(self) -> tuple[str, ...]:
        """Unique per-socket identifiers (``<server>/socket<i>``)."""
        return tuple(f"{self.name}/socket{i}" for i in range(len(self.sockets)))

    def homogeneous(self) -> bool:
        """Whether all sockets are the same part (same specs)."""
        first = self.sockets[0]
        return all(
            s.num_cores == first.num_cores
            and s.llc == first.llc
            and s.dram == first.dram
            and s.pstates == first.pstates
            for s in self.sockets
        )


def dual_socket(name: str, processor: MulticoreProcessor) -> Server:
    """The common case: a 2S server with two identical sockets."""
    return Server(name=name, sockets=(processor, processor))
