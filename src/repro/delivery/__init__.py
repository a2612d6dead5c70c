"""Deadline-aware streaming delivery (Section 5, the wire half).

"Voice must reach the workstation continuously in real time, while the
next visual and audio pages are prefetched in the background."  The
PR-1 serving stack ends at the archiver; this subsystem carries object
parts the rest of the way — as chunked, scheduled transfers over a
shared medium, against playout deadlines, with read-ahead:

* :mod:`repro.delivery.link` — the shared Ethernet segment as a
  contended discrete-event resource.
* :mod:`repro.delivery.chunks` — chunk requests and link arbitration
  (FIFO baseline vs. EDF with audio preemption and fair bulk).
* :mod:`repro.delivery.session` — playout deadlines from codec rates
  and audio-page boundaries; jitter buffer; underrun accounting.
* :mod:`repro.delivery.prefetch` — browse-direction read-ahead through
  the shared cache, with generation-gated cancellation.
* :mod:`repro.delivery.pipeline` — the deterministic replay engine,
  workload builder, and policy comparison (C-STREAM).
"""

from repro.delivery.chunks import (
    ChunkRequest,
    ChunkScheduler,
    LinkDiscipline,
    TrafficClass,
)
from repro.delivery.link import LinkStats, SharedLink, Transmission
from repro.delivery.pipeline import (
    DeliveryConfig,
    DeliveryPipeline,
    DeliveryPolicy,
    DeliveryReport,
    PageView,
    StationScript,
    RETRYABLE_ERRORS,
    StreamIntent,
    build_streaming_workload,
    fetch_with_retry,
    page_extents_for,
)
from repro.delivery.prefetch import (
    PrefetchStats,
    PrefetchTask,
    Prefetcher,
    piece_range_key,
)
from repro.delivery.session import PlayoutChunk, StreamSession, UnderrunEvent

__all__ = [
    "ChunkRequest",
    "ChunkScheduler",
    "DeliveryConfig",
    "DeliveryPipeline",
    "DeliveryPolicy",
    "DeliveryReport",
    "LinkDiscipline",
    "LinkStats",
    "PageView",
    "PlayoutChunk",
    "PrefetchStats",
    "PrefetchTask",
    "Prefetcher",
    "RETRYABLE_ERRORS",
    "SharedLink",
    "StationScript",
    "StreamIntent",
    "StreamSession",
    "TrafficClass",
    "Transmission",
    "UnderrunEvent",
    "build_streaming_workload",
    "fetch_with_retry",
    "page_extents_for",
    "piece_range_key",
]
