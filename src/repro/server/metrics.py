"""Server observability: counters and latency histograms.

Section 5's performance concern is only actionable if it is measurable:
the frontend records per-request latency, queue depth at admission,
rejections, and cache effectiveness.  Everything is thread-safe (worker
threads record concurrently).

Latencies are recorded in *simulated seconds* — the modelled service
and queueing time of the storage substrate — so histograms are
deterministic for a deterministic workload, independent of host speed.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile of raw samples, linearly interpolated.

    The one quantile definition shared by every report in the repo —
    ``LoadReport`` (server), ``ClusterLoadReport`` (cluster),
    ``DeliveryReport`` (delivery) and the SLO monitor all call this,
    so "p95" means the same thing in every benchmark table.  ``p`` is
    in [0, 100]; an empty sample set reads as 0.0.
    """
    if not 0 <= p <= 100:
        raise ValueError(f"percentile out of range: {p}")
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), p))


@dataclass(frozen=True)
class HistogramSnapshot:
    """Immutable point-in-time view of a :class:`Histogram`."""

    bounds: tuple[float, ...]
    counts: tuple[int, ...]
    count: int
    total: float
    min_value: float
    max_value: float

    @property
    def mean(self) -> float:
        """Arithmetic mean of recorded values (0.0 if empty)."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Upper bound of the bucket containing the ``p``-th percentile.

        ``p`` is in [0, 100].  Returns 0.0 for an empty histogram.  The
        estimate is conservative (never below the true percentile by
        more than one bucket width).
        """
        if not 0 <= p <= 100:
            raise ValueError(f"percentile out of range: {p}")
        if self.count == 0:
            return 0.0
        threshold = math.ceil(self.count * p / 100.0)
        seen = 0
        for bound, bucket in zip(self.bounds, self.counts):
            seen += bucket
            if seen >= threshold:
                return min(bound, self.max_value)
        return self.max_value


class Histogram:
    """Log-scale bucketed histogram of nonnegative values.

    Buckets are geometric between ``min_value`` and ``max_value`` with
    ``buckets_per_decade`` resolution; values below the first bound go
    into the first bucket, values above the last into an overflow
    bucket.  ``record`` is O(log buckets) and thread-safe.
    """

    def __init__(
        self,
        min_value: float = 1e-6,
        max_value: float = 1e4,
        buckets_per_decade: int = 8,
    ) -> None:
        if min_value <= 0 or max_value <= min_value:
            raise ValueError(
                f"invalid histogram range [{min_value}, {max_value}]"
            )
        decades = math.log10(max_value / min_value)
        n = max(1, math.ceil(decades * buckets_per_decade))
        ratio = (max_value / min_value) ** (1.0 / n)
        bounds = [min_value * ratio ** (i + 1) for i in range(n)]
        bounds.append(math.inf)  # overflow bucket
        self._bounds = tuple(bounds)
        self._counts = [0] * len(bounds)
        self._count = 0
        self._total = 0.0
        self._min = math.inf
        self._max = 0.0
        self._lock = threading.Lock()

    def record(self, value: float) -> None:
        """Record one nonnegative observation."""
        if value < 0:
            raise ValueError(f"histogram values must be nonnegative: {value}")
        index = self._bucket_index(value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._total += value
            self._min = min(self._min, value)
            self._max = max(self._max, value)

    def _bucket_index(self, value: float) -> int:
        lo, hi = 0, len(self._bounds) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if value <= self._bounds[mid]:
                hi = mid
            else:
                lo = mid + 1
        return lo

    @property
    def count(self) -> int:
        """Number of recorded observations."""
        with self._lock:
            return self._count

    def percentile(self, p: float) -> float:
        """Percentile estimate (see :meth:`HistogramSnapshot.percentile`)."""
        return self.snapshot().percentile(p)

    def snapshot(self) -> HistogramSnapshot:
        """A coherent immutable copy of the histogram state."""
        with self._lock:
            return HistogramSnapshot(
                bounds=self._bounds,
                counts=tuple(self._counts),
                count=self._count,
                total=self._total,
                min_value=self._min if self._count else 0.0,
                max_value=self._max,
            )


@dataclass(frozen=True)
class MetricsSnapshot:
    """Immutable point-in-time view of :class:`ServerMetrics`."""

    admitted: int
    rejected: int
    completed: int
    errors: int
    cache_hits: int
    cache_misses: int
    latency: HistogramSnapshot
    service: HistogramSnapshot
    queue_depths: dict[int, int]
    #: Failed requests by exception class name (e.g. ``TransientIOError``).
    error_kinds: dict[str, int]
    #: Injected faults by ``(site, kind)`` — populated when a
    #: :class:`repro.faults.FaultPlan` is wired to these metrics.
    fault_counts: dict[tuple[str, str], int]
    #: Recovery outcomes by name (``rollforward``, ``rollback``, ...).
    recovery_counts: dict[str, int]

    @property
    def hit_rate(self) -> float:
        """Fraction of completed requests served without device work."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def max_queue_depth(self) -> int:
        """Deepest admission queue observed."""
        return max(self.queue_depths) if self.queue_depths else 0


class ServerMetrics:
    """Thread-safe instrumentation for the server frontend."""

    def __init__(self) -> None:
        self.latency = Histogram()
        self.service = Histogram()
        self._queue_depths: dict[int, int] = {}
        self._admitted = 0
        self._rejected = 0
        self._completed = 0
        self._errors = 0
        self._cache_hits = 0
        self._cache_misses = 0
        self._error_kinds: dict[str, int] = {}
        self._fault_counts: dict[tuple[str, str], int] = {}
        self._recovery_counts: dict[str, int] = {}
        self._lock = threading.Lock()

    def on_admit(self, depth: int) -> None:
        """Record one admitted request and the queue depth it saw."""
        with self._lock:
            self._admitted += 1
            self._queue_depths[depth] = self._queue_depths.get(depth, 0) + 1

    def on_reject(self) -> None:
        """Record one rejected (admission-control) request."""
        with self._lock:
            self._rejected += 1

    def on_complete(
        self, latency_s: float, service_s: float, cache_hit: bool
    ) -> None:
        """Record one completed request with its simulated timings."""
        self.latency.record(latency_s)
        self.service.record(service_s)
        with self._lock:
            self._completed += 1
            if cache_hit:
                self._cache_hits += 1
            else:
                self._cache_misses += 1

    def on_error(self, error: BaseException | None = None) -> None:
        """Record one request that failed with an exception.

        When the exception is supplied, its class name is counted in
        ``error_kinds`` so operators can tell injected transient device
        faults apart from missing objects or bad ranges.
        """
        with self._lock:
            self._errors += 1
            if error is not None:
                kind = type(error).__name__
                self._error_kinds[kind] = self._error_kinds.get(kind, 0) + 1

    def on_fault(self, site: str, kind: str) -> None:
        """Record one injected fault."""
        with self._lock:
            key = (site, kind)
            self._fault_counts[key] = self._fault_counts.get(key, 0) + 1

    def on_recovery(self, outcome: str) -> None:
        """Record one recovery outcome (``rollforward``, ``rollback``, ...)."""
        with self._lock:
            self._recovery_counts[outcome] = (
                self._recovery_counts.get(outcome, 0) + 1
            )

    def snapshot(self) -> MetricsSnapshot:
        """A coherent immutable copy of all counters and histograms."""
        with self._lock:
            return MetricsSnapshot(
                admitted=self._admitted,
                rejected=self._rejected,
                completed=self._completed,
                errors=self._errors,
                cache_hits=self._cache_hits,
                cache_misses=self._cache_misses,
                latency=self.latency.snapshot(),
                service=self.service.snapshot(),
                queue_depths=dict(self._queue_depths),
                error_kinds=dict(self._error_kinds),
                fault_counts=dict(self._fault_counts),
                recovery_counts=dict(self._recovery_counts),
            )
