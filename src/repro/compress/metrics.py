"""Compression observability: per-codec counters and ratio histograms."""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.server.metrics import Histogram, HistogramSnapshot


@dataclass(frozen=True)
class CompressionSnapshot:
    """Immutable point-in-time view of :class:`CompressionMetrics`."""

    #: Encoded pieces by codec name.
    encode_counts: dict[str, int]
    #: Decoded pieces by codec name.
    decode_counts: dict[str, int]
    #: Raw bytes in, by codec name (encode side).
    bytes_raw: dict[str, int]
    #: Stored (framed) bytes out, by codec name (encode side).
    bytes_stored: dict[str, int]
    #: Compression-ratio histograms (raw/stored per piece) by codec.
    ratios: dict[str, HistogramSnapshot]

    @property
    def total_raw(self) -> int:
        """Raw bytes across all codecs."""
        return sum(self.bytes_raw.values())

    @property
    def total_stored(self) -> int:
        """Stored bytes across all codecs."""
        return sum(self.bytes_stored.values())

    @property
    def overall_ratio(self) -> float:
        """Aggregate raw/stored ratio (1.0 when nothing was encoded)."""
        return self.total_raw / self.total_stored if self.total_stored else 1.0


class CompressionMetrics:
    """Thread-safe per-codec compression instrumentation."""

    def __init__(self) -> None:
        self._encode_counts: dict[str, int] = {}
        self._decode_counts: dict[str, int] = {}
        self._bytes_raw: dict[str, int] = {}
        self._bytes_stored: dict[str, int] = {}
        self._ratios: dict[str, Histogram] = {}
        self._lock = threading.Lock()

    def _ratio_histogram(self, codec: str) -> Histogram:
        # Imported lazily: repro.server imports repro.compress (the
        # archiver decodes frames), so a module-level import here would
        # be circular.
        from repro.server.metrics import Histogram

        histogram = self._ratios.get(codec)
        if histogram is None:
            # Ratios live in roughly [0.5, 300] for these codecs.
            histogram = Histogram(
                min_value=1e-2, max_value=1e3, buckets_per_decade=8
            )
            self._ratios[codec] = histogram
        return histogram

    def on_encode(self, codec: str, raw_len: int, stored_len: int) -> None:
        """Record one encoded piece."""
        with self._lock:
            self._encode_counts[codec] = self._encode_counts.get(codec, 0) + 1
            self._bytes_raw[codec] = self._bytes_raw.get(codec, 0) + raw_len
            self._bytes_stored[codec] = (
                self._bytes_stored.get(codec, 0) + stored_len
            )
            if stored_len:
                self._ratio_histogram(codec).record(raw_len / stored_len)

    def on_decode(self, codec: str) -> None:
        """Record one decoded piece."""
        with self._lock:
            self._decode_counts[codec] = self._decode_counts.get(codec, 0) + 1

    def snapshot(self) -> CompressionSnapshot:
        """A coherent immutable copy of all counters and histograms."""
        with self._lock:
            return CompressionSnapshot(
                encode_counts=dict(self._encode_counts),
                decode_counts=dict(self._decode_counts),
                bytes_raw=dict(self._bytes_raw),
                bytes_stored=dict(self._bytes_stored),
                ratios={
                    codec: histogram.snapshot()
                    for codec, histogram in self._ratios.items()
                },
            )
