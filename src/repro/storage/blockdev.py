"""Simulated block devices with a seek/rotation/transfer timing model.

Service time for an access at byte offset ``o`` of length ``n``::

    seek(distance) + rotational_latency/2 + n / transfer_rate

where ``seek(d)`` grows with the square root of the head travel
distance, the classic disk-seek approximation: short hops are much
cheaper than full-stroke seeks.  Timing parameters are mid-1980s
figures; what matters for the benchmarks is the *ratio* between the
optical archiver and the magnetic cache, not absolute numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import AllocationError, StorageError
from repro.storage.cache import LRUCache


@dataclass(frozen=True, slots=True)
class Extent:
    """A contiguous byte range on a device."""

    offset: int
    length: int

    def __post_init__(self) -> None:
        if self.offset < 0 or self.length < 0:
            raise StorageError(f"invalid extent: {self}")

    @property
    def end(self) -> int:
        """Exclusive end offset."""
        return self.offset + self.length


@dataclass(frozen=True)
class DiskGeometry:
    """Timing and capacity parameters of a device."""

    capacity_bytes: int
    max_seek_s: float
    rotational_latency_s: float
    transfer_bytes_per_s: float

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise StorageError(f"capacity must be positive: {self.capacity_bytes}")
        if self.transfer_bytes_per_s <= 0:
            raise StorageError("transfer rate must be positive")

    def seek_time(self, from_offset: int, to_offset: int) -> float:
        """Head travel time between two byte offsets."""
        distance = abs(to_offset - from_offset)
        if distance == 0:
            return 0.0
        fraction = min(distance / self.capacity_bytes, 1.0)
        return self.max_seek_s * math.sqrt(fraction)

    def access_time(self, from_offset: int, extent: Extent) -> float:
        """Total service time for one access."""
        return (
            self.seek_time(from_offset, extent.offset)
            + self.rotational_latency_s / 2
            + extent.length / self.transfer_bytes_per_s
        )


class DeviceTimeline:
    """One device's queue on a simulated clock, with optional staging.

    The device model of every virtual-time answer to Section 5's
    "queueing delays ... when several users try to access data from the
    same device": the C-CONC and C-CLUSTER replays and the C-STREAM
    delivery pipeline.  Reads are served FIFO in issue order — a read
    issued at ``now_s`` starts when the device frees up and holds it
    for its service time — so queueing delay emerges from the arrival
    pattern alone.

    With a staging ``cache``, each staged key also carries the time its
    bytes land.  A staged key still in flight is served at that time
    (single-flight: the request piggybacks on the read under way); a
    staged key past it is free (a hit); anything else goes to the
    device.
    """

    __slots__ = (
        "geometry", "cache", "free_s", "head", "busy_s", "reads", "_ready"
    )

    def __init__(
        self, geometry: DiskGeometry, cache: LRUCache | None = None
    ) -> None:
        self.geometry = geometry
        self.cache = cache
        #: When the device finishes the last read queued on it.
        self.free_s = 0.0
        #: Head position after the last read charged with its extent.
        self.head = 0
        self.busy_s = 0.0
        self.reads = 0
        self._ready: dict[str, float] = {}

    def service_time(self, extent: Extent) -> float:
        """Service time of a read of ``extent`` from the current head."""
        return self.geometry.access_time(self.head, extent)

    def charge(
        self, now_s: float, service_s: float, extent: Extent | None = None
    ) -> tuple[float, float]:
        """Queue one read issued at ``now_s``; returns ``(start, finish)``.

        ``extent`` moves the head; a caller whose service time came from
        a real device read leaves it out.
        """
        start = max(self.free_s, now_s)
        self.free_s = start + service_s
        self.busy_s += service_s
        self.reads += 1
        if extent is not None:
            self.head = extent.end
        return start, self.free_s

    def staged(self, key: str, now_s: float) -> float | None:
        """When a request at ``now_s`` has ``key``'s staged bytes.

        None when ``key`` is not staged: the read goes to the device.
        """
        if self.cache is None or self.cache.get(key) is None:
            return None
        return self.ready_at(key, now_s)

    def ready_at(self, key: str, now_s: float) -> float:
        """When staged ``key``'s bytes are there for a request at ``now_s``."""
        return max(now_s, self._ready.get(key, now_s))

    def stage(
        self, key: str, ready_s: float, data: bytes | None = None
    ) -> None:
        """Record that ``key``'s bytes land at ``ready_s``.

        ``data`` is put into the staging cache; without it the caller
        has already published the bytes.
        """
        if data is not None:
            self.cache.put(key, data)
        self._ready[key] = ready_s


@dataclass
class DiskStats:
    """Accumulated device statistics."""

    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    busy_time_s: float = 0.0
    #: Raw (pre-compression) media bytes archived onto this device, and
    #: the stored (framed) bytes they became.  Advanced by
    #: :meth:`repro.server.archiver.Archiver.store`; equal when
    #: compression is off.
    media_raw_bytes: int = 0
    media_stored_bytes: int = 0

    @property
    def media_ratio(self) -> float:
        """Raw/stored media byte ratio (1.0 when nothing was archived)."""
        if not self.media_stored_bytes:
            return 1.0
        return self.media_raw_bytes / self.media_stored_bytes


class SimulatedDisk:
    """A byte-addressable device with simulated service times.

    Subclasses set the geometry and may restrict writes (WORM).  The
    device keeps a head position so consecutive nearby accesses are
    cheaper than random ones — which is what gives SCAN scheduling its
    advantage in the C-QUEUE benchmark.
    """

    def __init__(self, geometry: DiskGeometry, name: str = "disk") -> None:
        self._geometry = geometry
        self._name = name
        self._data = bytearray()
        self._head = 0
        self.stats = DiskStats()

    @property
    def name(self) -> str:
        """Device name, for traces."""
        return self._name

    @property
    def geometry(self) -> DiskGeometry:
        """Timing/capacity parameters."""
        return self._geometry

    @property
    def used_bytes(self) -> int:
        """Bytes currently allocated."""
        return len(self._data)

    @property
    def head_position(self) -> int:
        """Current head byte offset (for scheduling)."""
        return self._head

    # ------------------------------------------------------------------
    # allocation and I/O
    # ------------------------------------------------------------------

    def allocate(self, length: int) -> Extent:
        """Reserve ``length`` bytes at the end of the device.

        Raises
        ------
        AllocationError
            If the device is full.
        """
        if length < 0:
            raise StorageError(f"cannot allocate negative length {length}")
        if len(self._data) + length > self._geometry.capacity_bytes:
            raise AllocationError(
                f"{self._name}: {length} bytes requested, "
                f"{self._geometry.capacity_bytes - len(self._data)} free"
            )
        extent = Extent(len(self._data), length)
        self._data.extend(b"\x00" * length)
        return extent

    def append(self, data: bytes) -> tuple[Extent, float]:
        """Allocate-and-write at the end; returns extent and service time."""
        extent = self.allocate(len(data))
        service = self._write_at(extent, data)
        return extent, service

    def write(self, extent: Extent, data: bytes) -> float:
        """Write into an allocated extent; returns service time.

        Raises
        ------
        StorageError
            If the data does not fit the extent or the extent is not
            allocated.
        """
        if len(data) != extent.length:
            raise StorageError(
                f"data length {len(data)} does not match extent {extent}"
            )
        if extent.end > len(self._data):
            raise StorageError(f"extent {extent} not allocated on {self._name}")
        self._check_write_allowed(extent)
        return self._write_at(extent, data)

    def read(self, extent: Extent) -> tuple[bytes, float]:
        """Read an extent; returns the bytes and the service time."""
        if extent.end > len(self._data):
            raise StorageError(f"extent {extent} not allocated on {self._name}")
        service = self._geometry.access_time(self._head, extent)
        self._head = extent.end
        self.stats.reads += 1
        self.stats.bytes_read += extent.length
        self.stats.busy_time_s += service
        return bytes(self._data[extent.offset : extent.end]), service

    def service_time(self, extent: Extent) -> float:
        """Service time a read of ``extent`` would take *now* (no I/O)."""
        return self._geometry.access_time(self._head, extent)

    # ------------------------------------------------------------------
    # hooks
    # ------------------------------------------------------------------

    def _check_write_allowed(self, extent: Extent) -> None:
        """Subclass hook; WORM devices reject rewrites here."""

    def _write_at(self, extent: Extent, data: bytes) -> float:
        service = self._geometry.access_time(self._head, extent)
        self._data[extent.offset : extent.end] = data
        self._head = extent.end
        self.stats.writes += 1
        self.stats.bytes_written += len(data)
        self.stats.busy_time_s += service
        return service
