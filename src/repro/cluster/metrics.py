"""Cluster observability: counters and histograms.

The scale-out layer is only trustworthy if its failure handling is
visible: every read records which node served it, every failover and
hedge is counted, every quorum write records whether it met its
quorum, and every migration records the bytes it moved.  Everything
is thread-safe.

Latencies are in *simulated seconds* (see
:mod:`repro.server.metrics`), so histograms are deterministic for a
deterministic workload.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass

from repro.server.metrics import Histogram, HistogramSnapshot


@dataclass(frozen=True)
class ClusterMetricsSnapshot:
    """Immutable point-in-time view of :class:`ClusterMetrics`."""

    reads: int
    read_failures: int
    failovers: int
    hedges: int
    hedge_wins: int
    writes: int
    replica_writes: int
    replica_write_failures: int
    quorum_failures: int
    migrations: int
    migration_failures: int
    bytes_migrated: int
    #: Completed reads per node id — the load-balance evidence.
    node_reads: dict[int, int]
    #: Lifecycle transitions per ``(node_id, status)``.
    node_status_counts: dict[tuple[int, str], int]
    read_latency: HistogramSnapshot
    quorum_latency: HistogramSnapshot

    @property
    def hedge_win_rate(self) -> float:
        """Fraction of hedged reads the hedge actually won."""
        return self.hedge_wins / self.hedges if self.hedges else 0.0

    @property
    def read_balance_ratio(self) -> float:
        """Max over mean reads per serving node (1.0 = perfectly even)."""
        if not self.node_reads:
            return 0.0
        loads = list(self.node_reads.values())
        mean = sum(loads) / len(loads)
        return max(loads) / mean if mean else 0.0


class ClusterMetrics:
    """Thread-safe instrumentation for the cluster router and rebalancer."""

    def __init__(self) -> None:
        self.read_latency = Histogram()
        self.quorum_latency = Histogram()
        self._reads = 0
        self._read_failures = 0
        self._failovers = 0
        self._hedges = 0
        self._hedge_wins = 0
        self._writes = 0
        self._replica_writes = 0
        self._replica_write_failures = 0
        self._quorum_failures = 0
        self._migrations = 0
        self._migration_failures = 0
        self._bytes_migrated = 0
        self._node_reads: Counter[int] = Counter()
        self._node_status: Counter[tuple[int, str]] = Counter()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------

    def on_read(self, node_id: int, latency_s: float) -> None:
        """Record one read completed by ``node_id``."""
        self.read_latency.record(latency_s)
        with self._lock:
            self._reads += 1
            self._node_reads[node_id] += 1

    def on_read_failed(self) -> None:
        """Record a read no replica could serve — the count that must
        stay 0 whenever a quorum of replicas is alive."""
        with self._lock:
            self._read_failures += 1

    def on_failover(self) -> None:
        """Record one failover away from a replica that could not serve."""
        with self._lock:
            self._failovers += 1

    def on_hedge(self, won: bool) -> None:
        """Record one hedged read (``won`` = the hedge finished first)."""
        with self._lock:
            self._hedges += 1
            if won:
                self._hedge_wins += 1

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------

    def on_replica_write(self, ok: bool) -> None:
        """Record one per-replica write attempt."""
        with self._lock:
            self._replica_writes += 1
            if not ok:
                self._replica_write_failures += 1

    def on_write(self, quorum_latency_s: float, *, quorum_met: bool) -> None:
        """Record one fanned-out store and its quorum outcome."""
        self.quorum_latency.record(quorum_latency_s)
        with self._lock:
            self._writes += 1
            if not quorum_met:
                self._quorum_failures += 1

    # ------------------------------------------------------------------
    # rebalance + lifecycle
    # ------------------------------------------------------------------

    def on_migrate(self, nbytes: int, *, ok: bool = True) -> None:
        """Record one extent migration (or a failed attempt)."""
        with self._lock:
            if ok:
                self._migrations += 1
                self._bytes_migrated += nbytes
            else:
                self._migration_failures += 1

    def on_node_status(self, node_id: int, status: str) -> None:
        """Record one node lifecycle transition."""
        with self._lock:
            self._node_status[(node_id, status)] += 1

    def snapshot(self) -> ClusterMetricsSnapshot:
        """A coherent immutable copy of all counters and histograms."""
        with self._lock:
            return ClusterMetricsSnapshot(
                reads=self._reads,
                read_failures=self._read_failures,
                failovers=self._failovers,
                hedges=self._hedges,
                hedge_wins=self._hedge_wins,
                writes=self._writes,
                replica_writes=self._replica_writes,
                replica_write_failures=self._replica_write_failures,
                quorum_failures=self._quorum_failures,
                migrations=self._migrations,
                migration_failures=self._migration_failures,
                bytes_migrated=self._bytes_migrated,
                node_reads=dict(self._node_reads),
                node_status_counts=dict(self._node_status),
                read_latency=self.read_latency.snapshot(),
                quorum_latency=self.quorum_latency.snapshot(),
            )
