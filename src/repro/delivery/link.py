"""The shared workstation network as a contended medium.

:class:`~repro.server.network.NetworkLink` models one point-to-point
request: latency plus serialized transfer.  Streaming delivery needs
more: N workstations share *one* Ethernet segment, so every chunk pays
a per-chunk arbitration overhead and queues behind whatever the medium
is currently carrying.  :class:`SharedLink` is that medium as a
discrete-event resource on the simulated clock — who transmits next is
decided elsewhere (the chunk scheduler); the link only accounts for
occupancy, per-station fairness and utilization.

The chunked cost model is exactly the point-to-point one applied per
chunk: moving ``n`` bytes as ``k`` chunks costs
``transfer_time(n) + (k - 1) * latency`` — the invariant pinned down by
``tests/test_property_network.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import DeliveryError
from repro.server.network import NetworkLink


@dataclass
class LinkStats:
    """Accumulated shared-medium statistics."""

    chunks_sent: int = 0
    bytes_sent: int = 0
    busy_s: float = 0.0
    #: Sum over chunks of (transmit start - ready time): time spent
    #: waiting for the medium while ready to send.
    contention_wait_s: float = 0.0
    bytes_by_station: dict[str, int] = field(default_factory=dict)
    chunks_by_station: dict[str, int] = field(default_factory=dict)

    def utilization(self, horizon_s: float) -> float:
        """Fraction of ``horizon_s`` the medium spent transmitting."""
        if horizon_s <= 0:
            return 0.0
        return min(self.busy_s / horizon_s, 1.0)


@dataclass(frozen=True)
class Transmission:
    """Outcome of one chunk transmission on the shared medium."""

    station: str
    nbytes: int
    ready_s: float
    start_s: float
    finish_s: float

    @property
    def waited_s(self) -> float:
        """Time the chunk sat ready while the medium was busy."""
        return self.start_s - self.ready_s


class SharedLink:
    """One broadcast medium serialized among all stations.

    Parameters
    ----------
    link:
        Per-chunk timing model (arbitration latency + bandwidth); the
        same :class:`NetworkLink` the point-to-point path uses, so a
        one-chunk transfer on the shared medium costs exactly what the
        analytic formula says.

    The link is a pure resource: it has no queue and no policy.  A
    caller (the pipeline's chunk scheduler) decides *which* ready chunk
    transmits when the medium frees; :meth:`transmit` then serializes
    it and returns the occupancy interval.
    """

    def __init__(self, link: NetworkLink | None = None) -> None:
        self._link = link or NetworkLink()
        self._free_s = 0.0
        self.stats = LinkStats()

    @property
    def link(self) -> NetworkLink:
        """The per-chunk timing model."""
        return self._link

    @property
    def free_s(self) -> float:
        """Simulated time at which the medium is next idle."""
        return self._free_s

    def transmit(
        self,
        station: str,
        nbytes: int,
        ready_s: float,
        *,
        start_not_before_s: float = 0.0,
    ) -> Transmission:
        """Serialize one chunk onto the medium; returns its interval.

        The chunk must be *ready* (fetched from the server) at
        ``ready_s``; it starts when the chunk, the medium, and the
        dispatching scheduler (``start_not_before_s``, the scheduler's
        current simulated time) are all available, and occupies the
        medium for ``latency + nbytes / bandwidth``.  The gap between
        ``ready_s`` and the start is the chunk's contention wait.

        Raises
        ------
        DeliveryError
            If the chunk size is negative.
        """
        if nbytes < 0:
            raise DeliveryError(f"negative chunk size: {nbytes}")
        start = max(self._free_s, ready_s, start_not_before_s)
        duration = self._link.transfer_time(nbytes)
        finish = start + duration
        self._free_s = finish
        self.stats.chunks_sent += 1
        self.stats.bytes_sent += nbytes
        self.stats.busy_s += duration
        self.stats.contention_wait_s += start - ready_s
        self.stats.bytes_by_station[station] = (
            self.stats.bytes_by_station.get(station, 0) + nbytes
        )
        self.stats.chunks_by_station[station] = (
            self.stats.chunks_by_station.get(station, 0) + 1
        )
        return Transmission(
            station=station, nbytes=nbytes, ready_s=ready_s,
            start_s=start, finish_s=finish,
        )
