"""Index observability: counters and per-shard histograms.

Section 5's claim — browse-time search at insertion-time cost — is only
checkable if the index reports what it does.  Every structural event
(insert, flush, compaction) and every query is counted, and per-shard
lookup latencies go into :class:`repro.server.metrics.Histogram`
instances.

Latencies here are *wall-clock seconds* of real index work — the index
is a real data structure, not a simulated device — which is exactly
what the C-SEARCH benchmark compares against the linear scan.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.server.metrics import Histogram, HistogramSnapshot


def _histogram() -> "Histogram":
    # Imported lazily: repro.index is a dependency of the formatter and
    # archiver modules, so it must not import repro.server at load time.
    from repro.server.metrics import Histogram

    return Histogram(min_value=1e-8, max_value=1e2)


@dataclass(frozen=True)
class IndexMetricsSnapshot:
    """Immutable point-in-time view of :class:`IndexMetrics`."""

    objects_indexed: int
    postings_indexed: int
    voice_reindexes: int
    flushes: int
    compactions: int
    segments_merged: int
    postings_dropped: int
    queries: int
    shard_lookups: int
    query_latency: "HistogramSnapshot"
    shard_latency: dict[int, "HistogramSnapshot"]


class IndexMetrics:
    """Thread-safe instrumentation for an :class:`ArchiveIndex`."""

    def __init__(self) -> None:
        self.query_latency = _histogram()
        self._shard_latency: dict[int, "Histogram"] = {}
        self._objects_indexed = 0
        self._postings_indexed = 0
        self._voice_reindexes = 0
        self._flushes = 0
        self._compactions = 0
        self._segments_merged = 0
        self._postings_dropped = 0
        self._queries = 0
        self._shard_lookups = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # build-side events
    # ------------------------------------------------------------------

    def on_insert(self, postings: int) -> None:
        """Record one object's postings entering the index."""
        with self._lock:
            self._objects_indexed += 1
            self._postings_indexed += postings

    def on_voice_reindex(self, postings: int) -> None:
        """Record a voice-channel reindex after (re-)recognition."""
        with self._lock:
            self._voice_reindexes += 1
            self._postings_indexed += postings

    def on_flush(self) -> None:
        """Record one memtable flush into an immutable segment."""
        with self._lock:
            self._flushes += 1

    def on_compaction(self, segments_merged: int, postings_dropped: int) -> None:
        """Record one shard compaction."""
        with self._lock:
            self._compactions += 1
            self._segments_merged += segments_merged
            self._postings_dropped += postings_dropped

    # ------------------------------------------------------------------
    # query-side events
    # ------------------------------------------------------------------

    def on_shard_lookup(self, shard_id: int, latency_s: float) -> None:
        """Record one term lookup against one shard."""
        with self._lock:
            self._shard_lookups += 1
            histogram = self._shard_latency.get(shard_id)
            if histogram is None:
                histogram = self._shard_latency[shard_id] = _histogram()
        histogram.record(latency_s)

    def on_query(self, latency_s: float) -> None:
        """Record one index-served query."""
        self.query_latency.record(latency_s)
        with self._lock:
            self._queries += 1

    # ------------------------------------------------------------------
    # snapshot
    # ------------------------------------------------------------------

    def snapshot(self) -> IndexMetricsSnapshot:
        """A coherent immutable copy of all counters and histograms."""
        with self._lock:
            shard_latency = {
                shard_id: histogram.snapshot()
                for shard_id, histogram in self._shard_latency.items()
            }
            return IndexMetricsSnapshot(
                objects_indexed=self._objects_indexed,
                postings_indexed=self._postings_indexed,
                voice_reindexes=self._voice_reindexes,
                flushes=self._flushes,
                compactions=self._compactions,
                segments_merged=self._segments_merged,
                postings_dropped=self._postings_dropped,
                queries=self._queries,
                shard_lookups=self._shard_lookups,
                query_latency=self.query_latency.snapshot(),
                shard_latency=shard_latency,
            )
