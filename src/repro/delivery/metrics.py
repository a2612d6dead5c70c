"""Delivery observability: histograms and counters.

The continuous-voice claim is only checkable if the pipeline reports
what the listener experienced: startup latency, jitter-buffer
occupancy, underruns, chunk latency and page-turn latency.  The
histograms reuse :class:`repro.server.metrics.Histogram` so percentile
assertions read the same in C-CONC and C-STREAM.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.server.metrics import Histogram, HistogramSnapshot


@dataclass(frozen=True)
class DeliverySnapshot:
    """Immutable point-in-time view of :class:`DeliveryMetrics`."""

    chunks_delivered: int
    audio_bytes: int
    bulk_bytes: int
    underruns: int
    stall_s: float
    streams_started: int
    page_turns: int
    prefetch_page_hits: int
    prefetch_issued: int
    prefetch_cancelled: int
    chunk_latency: HistogramSnapshot
    page_latency: HistogramSnapshot
    startup_latency: HistogramSnapshot
    buffer_occupancy: HistogramSnapshot

    @property
    def prefetch_hit_rate(self) -> float:
        """Fraction of page turns satisfied from staged read-ahead."""
        return self.prefetch_page_hits / self.page_turns if self.page_turns else 0.0


class DeliveryMetrics:
    """Thread-safe instrumentation for the delivery pipeline."""

    def __init__(self) -> None:
        self.chunk_latency = Histogram()
        self.page_latency = Histogram()
        self.startup_latency = Histogram()
        # Occupancy in seconds of buffered speech; well under the 1e4
        # default ceiling, recorded at every chunk delivery.
        self.buffer_occupancy = Histogram()
        self._chunks_delivered = 0
        self._audio_bytes = 0
        self._bulk_bytes = 0
        self._underruns = 0
        self._stall_s = 0.0
        self._streams_started = 0
        self._page_turns = 0
        self._prefetch_page_hits = 0
        self._prefetch_issued = 0
        self._prefetch_cancelled = 0
        self._lock = threading.Lock()

    def on_chunk(self, traffic_class: str, nbytes: int, latency_s: float) -> None:
        """Record one chunk delivered to a station."""
        self.chunk_latency.record(latency_s)
        with self._lock:
            self._chunks_delivered += 1
            if traffic_class == "audio":
                self._audio_bytes += nbytes
            else:
                self._bulk_bytes += nbytes

    def on_stream_start(self, startup_latency_s: float) -> None:
        """Record playback beginning on a station."""
        self.startup_latency.record(startup_latency_s)
        with self._lock:
            self._streams_started += 1

    def on_buffer_level(self, buffered_s: float) -> None:
        """Sample the jitter-buffer occupancy of a running stream."""
        self.buffer_occupancy.record(buffered_s)

    def on_underrun(self, stall_s: float) -> None:
        """Record one playback stall (the speaker went silent)."""
        with self._lock:
            self._underruns += 1
            self._stall_s += stall_s

    def on_page_turn(self, latency_s: float, prefetched: bool) -> None:
        """Record one visual page becoming fully resident at a station."""
        self.page_latency.record(latency_s)
        with self._lock:
            self._page_turns += 1
            if prefetched:
                self._prefetch_page_hits += 1

    def on_prefetch(self) -> None:
        """Record one read-ahead task issued."""
        with self._lock:
            self._prefetch_issued += 1

    def on_cancel(self, count: int) -> None:
        """Record a jump revoking ``count`` outstanding prefetches."""
        with self._lock:
            self._prefetch_cancelled += count

    def snapshot(self) -> DeliverySnapshot:
        """A coherent immutable copy of all counters and histograms."""
        with self._lock:
            return DeliverySnapshot(
                chunks_delivered=self._chunks_delivered,
                audio_bytes=self._audio_bytes,
                bulk_bytes=self._bulk_bytes,
                underruns=self._underruns,
                stall_s=self._stall_s,
                streams_started=self._streams_started,
                page_turns=self._page_turns,
                prefetch_page_hits=self._prefetch_page_hits,
                prefetch_issued=self._prefetch_issued,
                prefetch_cancelled=self._prefetch_cancelled,
                chunk_latency=self.chunk_latency.snapshot(),
                page_latency=self.page_latency.snapshot(),
                startup_latency=self.startup_latency.snapshot(),
                buffer_occupancy=self.buffer_occupancy.snapshot(),
            )
