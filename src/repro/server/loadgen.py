"""Deterministic multi-workstation load generation and replay.

Two replay modes exercise the serving stack:

``replay_virtual``
    A replay in *simulated time*: one shared optical device, FIFO
    service, optional shared cache with single-flight piggybacking —
    the one-node case of :func:`repro.cluster.router.replay_cluster`.
    Fully deterministic for a given schedule, so the C-CONC benchmark
    can assert latency-curve shapes (p95 grows with contention; the
    cache flattens it) with exact numbers.

``replay_threaded``
    Drives a real :class:`~repro.server.frontend.ServerFrontend` with
    one OS thread per workstation.  Thread interleaving is up to the
    host scheduler, so per-request latencies vary run to run — but the
    *totals* (device reads, device busy time, bytes served, cache
    effectiveness) are the quantities the queueing claim is about, and
    those are asserted on.

Schedules are generated from a seeded RNG: per-station Poisson
arrivals over a zipf-skewed object popularity distribution — a few hot
documents take most of the traffic, the regime where a shared cache
pays off.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ArchiverError, ServerBusyError
from repro.ids import ObjectId
from repro.server.archiver import Archiver, CachingArchiver
from repro.server.frontend import ServerFrontend
from repro.server.metrics import ServerMetrics
from repro.server.metrics import percentile as shared_percentile


@dataclass(frozen=True)
class LoadRequest:
    """One workstation request in an arrival schedule."""

    request_id: int
    station: str
    arrival_s: float
    object_id: ObjectId


@dataclass
class LoadReport:
    """Aggregate outcome of a replay: virtual, cluster or threaded."""

    latencies: list[float] = field(default_factory=list)
    #: Device service seconds of each completed request, parallel to
    #: ``latencies`` (0.0 for a hit or a piggyback); virtual-time
    #: replays only.
    service_s: list[float] = field(default_factory=list)
    device_busy_s: float = 0.0
    device_reads: int = 0
    cache_hits: int = 0
    piggybacks: int = 0
    rejected: int = 0
    failed_reads: int = 0
    failovers: int = 0
    hedges: int = 0
    hedge_wins: int = 0
    #: node id -> reads served there.
    node_reads: dict[int, int] = field(default_factory=dict)
    #: node id -> simulated busy seconds on that node's device.
    node_busy_s: dict[int, float] = field(default_factory=dict)

    @property
    def completed(self) -> int:
        """Number of requests that completed."""
        return len(self.latencies)

    def percentile(self, p: float) -> float:
        """Latency percentile in simulated seconds (0.0 if empty)."""
        return shared_percentile(self.latencies, p)

    @property
    def p95_s(self) -> float:
        """95th-percentile simulated latency."""
        return self.percentile(95)

    @property
    def mean_s(self) -> float:
        """Mean simulated latency."""
        return float(np.mean(self.latencies)) if self.latencies else 0.0


def zipf_weights(n: int, skew: float = 1.1) -> np.ndarray:
    """Normalized zipf popularity weights over ``n`` ranked items."""
    if n <= 0:
        raise ArchiverError(f"popularity needs at least one item: {n}")
    ranks = np.arange(1, n + 1, dtype=float)
    weights = ranks ** -skew
    return weights / weights.sum()


def build_schedule(
    object_ids: list[ObjectId],
    *,
    stations: int,
    rate_per_station_s: float,
    duration_s: float,
    skew: float = 1.1,
    seed: int = 0,
) -> list[LoadRequest]:
    """A deterministic multi-station arrival schedule.

    Each of ``stations`` workstations issues Poisson arrivals at
    ``rate_per_station_s`` for ``duration_s`` simulated seconds, each
    request targeting an object drawn from a zipf(``skew``) popularity
    distribution over ``object_ids``.  Requests are returned sorted by
    arrival time with ids in arrival order.

    Raises
    ------
    ArchiverError
        If there are no objects or no stations.
    """
    if not object_ids:
        raise ArchiverError("schedule needs at least one object")
    if stations <= 0:
        raise ArchiverError(f"schedule needs at least one station: {stations}")
    weights = zipf_weights(len(object_ids), skew)
    rng = np.random.default_rng(seed)
    raw: list[tuple[float, str, ObjectId]] = []
    for station in range(stations):
        now = 0.0
        while True:
            now += float(rng.exponential(1.0 / rate_per_station_s))
            if now >= duration_s:
                break
            target = object_ids[int(rng.choice(len(object_ids), p=weights))]
            raw.append((now, f"ws-{station}", target))
    raw.sort(key=lambda row: row[0])
    return [
        LoadRequest(
            request_id=index, station=station, arrival_s=arrival,
            object_id=object_id,
        )
        for index, (arrival, station, object_id) in enumerate(raw)
    ]


def station_subset(
    schedule: list[LoadRequest], stations: int
) -> list[LoadRequest]:
    """The requests of the first ``stations`` workstations only.

    Contention experiments need *nested* workloads: the 4-user load is
    exactly the 2-user load plus two more stations' streams, so any
    latency growth is attributable to added contention, not to a
    different random draw.
    """
    keep = {f"ws-{i}" for i in range(stations)}
    return [request for request in schedule if request.station in keep]


def replay_virtual(
    archiver: Archiver | CachingArchiver,
    schedule: list[LoadRequest],
    *,
    cache_bytes: int | None = None,
    metrics: ServerMetrics | None = None,
) -> LoadReport:
    """Replay a schedule in virtual time against one shared device.

    The device serves fetches FIFO in arrival order; each fetch's
    service time comes from the device geometry and head position, so
    queueing delay emerges exactly as in Section 5.  With
    ``cache_bytes`` set, a shared LRU cache absorbs repeats and
    in-flight fetches absorb concurrent duplicates (single-flight):
    a request arriving while its object is already being fetched
    completes when that fetch does, adding no device work.

    This is :func:`repro.cluster.router.replay_cluster` over a one-node
    cluster, so both replays charge one device model; a request for an
    object the archiver does not hold counts as a failed read.
    ``metrics``, if given, sees every completed request once.  The
    archiver is only consulted for object extents — no bytes are
    actually read, which keeps the replay O(requests).
    """
    # repro.cluster imports repro.server, so the cluster loads here.
    from repro.cluster.node import ClusterNode
    from repro.cluster.router import ClusterRouter, replay_cluster

    router = ClusterRouter([ClusterNode(0, archiver)], replication=1)
    report = replay_cluster(router, schedule, cache_bytes=cache_bytes)
    if metrics is not None:
        for latency, service in zip(report.latencies, report.service_s):
            metrics.on_complete(latency, service, cache_hit=(service == 0.0))
    return report


def replay_threaded(
    frontend: ServerFrontend,
    schedule: list[LoadRequest],
    *,
    timeout_s: float = 60.0,
) -> LoadReport:
    """Replay a schedule through a live frontend, one thread per station.

    Each station thread issues its own requests in arrival order
    (closed-loop: it waits for each response before issuing the next,
    like a real workstation session).  Rejected requests
    (:class:`ServerBusyError`) are counted, not retried.  Device totals
    are reported as deltas over the replay.
    """
    disk = frontend.archiver.disk
    busy_before = disk.stats.busy_time_s
    reads_before = disk.stats.reads
    report = LoadReport()
    lock = threading.Lock()
    by_station: dict[str, list[LoadRequest]] = {}
    for request in sorted(schedule, key=lambda r: (r.arrival_s, r.request_id)):
        by_station.setdefault(request.station, []).append(request)

    def run_station(requests: list[LoadRequest]) -> None:
        for request in requests:
            try:
                future = frontend.submit(
                    "fetch", request.object_id, station=request.station,
                    arrival_s=request.arrival_s,
                )
                _, service = future.result(timeout=timeout_s)
            except ServerBusyError:
                with lock:
                    report.rejected += 1
                continue
            with lock:
                report.latencies.append(service)
                if service == 0.0:
                    report.cache_hits += 1

    threads = [
        threading.Thread(target=run_station, args=(requests,), daemon=True)
        for requests in by_station.values()
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=timeout_s)
    report.device_busy_s = disk.stats.busy_time_s - busy_before
    report.device_reads = disk.stats.reads - reads_before
    if isinstance(frontend.archiver, CachingArchiver):
        flights = frontend.archiver.flight_stats.snapshot()
        report.piggybacks = flights.piggybacks
    return report
