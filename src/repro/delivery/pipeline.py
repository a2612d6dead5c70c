"""The deadline-aware streaming delivery pipeline.

Everything between the archiver and the playout device, on one
simulated clock: object parts leave the (PR-1) serving stack as
*chunked, scheduled transfers* over a :class:`SharedLink` that all
stations contend for, voice chunks carry playout deadlines, and a
:class:`Prefetcher` stages the next pages before the user asks.

Two delivery policies bracket the paper's Section-5 claim:

``ON_DEMAND``
    The naive baseline: bytes are fetched when the presentation needs
    them, the medium is FIFO, no read-ahead.  One outstanding voice
    window per stream; page turns pay device + link cold.

``DEADLINE``
    Voice read-ahead in batches ``lookahead_s`` before each chunk's
    deadline, EDF link arbitration (audio preempts bulk at chunk
    boundaries, bulk served fair), and browse-direction prefetch of
    the next pages into the shared cache *and* onward to the station.

The replay is a deterministic discrete-event simulation: one shared
device served FIFO in issue order — the
:class:`~repro.storage.blockdev.DeviceTimeline` that the C-CONC and
C-CLUSTER replays charge too, staging cache and single-flight included
— one shared medium arbitrated by the chunk scheduler, all latencies in
simulated seconds.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from repro.cluster.placement import stable_hash
from repro.delivery.chunks import (
    ChunkRequest,
    ChunkScheduler,
    LinkDiscipline,
    TrafficClass,
)
from repro.delivery.link import SharedLink
from repro.delivery.prefetch import Prefetcher, piece_range_key
from repro.delivery.session import StreamSession
from repro.errors import (
    DeliveryError,
    RequestTimeoutError,
    ServerBusyError,
    TransientIOError,
)
from repro.ids import ObjectId
from repro.objects.model import DrivingMode, MultimediaObject
from repro.obs.context import bind as bind_span
from repro.obs.context import current as current_span
from repro.obs.spans import SpanContext, SpanKind as ObsSpanKind
from repro.obs.spans import SpanRecorder
from repro.obs.spans import SpanStatus as ObsSpanStatus
from repro.server.archiver import Archiver
from repro.server.frontend import ServerFrontend
from repro.server.metrics import percentile as shared_percentile
from repro.server.network import NetworkLink
from repro.storage.blockdev import DeviceTimeline, Extent
from repro.storage.cache import LRUCache


#: Spacing between successive read-ahead issues after a page view, so
#: prefetch trickles behind the foreground traffic.
PREFETCH_STAGGER_S = 0.25


class DeliveryPolicy(Enum):
    """How the pipeline moves bytes to the stations."""

    ON_DEMAND = "on_demand"
    DEADLINE = "deadline"


@dataclass(frozen=True)
class DeliveryConfig:
    """Tunable knobs of one pipeline run."""

    policy: DeliveryPolicy = DeliveryPolicy.DEADLINE
    chunk_bytes: int = 4000
    page_bytes: int = 32_000
    prebuffer_chunks: int = 2
    #: DEADLINE policy: how far before a voice chunk's deadline its
    #: device read is issued.
    lookahead_s: float = 3.0
    #: DEADLINE policy: voice chunks fetched per device read (one seek
    #: amortized over the batch).
    batch_chunks: int = 4
    prefetch_depth: int = 2
    link: NetworkLink = field(default_factory=NetworkLink)
    cache_bytes: int = 8_000_000

    @property
    def discipline(self) -> LinkDiscipline:
        """Link arbitration implied by the policy."""
        if self.policy is DeliveryPolicy.DEADLINE:
            return LinkDiscipline.EDF
        return LinkDiscipline.FIFO


@dataclass(frozen=True)
class StreamIntent:
    """One station's voice stream: which piece, from when."""

    object_id: ObjectId
    tag: str
    total_bytes: int
    bytes_per_s: float
    start_s: float


@dataclass(frozen=True)
class PageView:
    """One page the user asks to see, at a scripted time.

    ``jump`` marks views the prefetcher could not have predicted
    (non-adjacent page, new object): they revoke outstanding
    read-ahead for the station.
    """

    at_s: float
    object_id: ObjectId
    page: int
    jump: bool = False


@dataclass
class StationScript:
    """Everything one workstation does during the replay."""

    station: str
    stream: StreamIntent | None = None
    views: list[PageView] = field(default_factory=list)


@dataclass
class DeliveryReport:
    """Aggregate outcome of one pipeline replay."""

    policy: str
    stations: int
    underruns: int = 0
    stall_s: float = 0.0
    startup_latencies: list[float] = field(default_factory=list)
    page_latencies: list[float] = field(default_factory=list)
    cold_page_latencies: list[float] = field(default_factory=list)
    page_turns: int = 0
    prefetched_page_hits: int = 0
    wasted_prefetches: int = 0
    cancelled_prefetches: int = 0
    streams_completed: int = 0
    chunks_delivered: int = 0
    device_busy_s: float = 0.0
    link_busy_s: float = 0.0
    link_wait_s: float = 0.0
    finished_s: float = 0.0

    def page_latency_percentile(self, p: float) -> float:
        """Percentile of page-turn latency over all turns (0.0 if none)."""
        return shared_percentile(self.page_latencies, p)

    @property
    def median_page_latency_s(self) -> float:
        """Median page-turn latency, local hits included."""
        return self.page_latency_percentile(50)


def page_extents_for(
    archiver: Archiver, object_id: ObjectId, page_bytes: int
) -> list[tuple[str, int, int]]:
    """Byte ranges of a visual object's pages, ``page_bytes`` each.

    The object's largest data piece (the image raster for the library
    corpus) is the visual payload; it is windowed into consecutive
    page-sized ranges, the delivery analogue of the view windows the
    archiver already serves.
    """
    record = archiver.record(object_id)
    if not record.descriptor.locations:
        raise DeliveryError(f"object {object_id} has no data pieces")
    location = max(record.descriptor.locations, key=lambda loc: loc.length)
    return [
        (location.tag, start, min(page_bytes, location.length - start))
        for start in range(0, location.length, page_bytes)
    ]


def _voice_piece(obj: MultimediaObject) -> tuple[str, float]:
    """(piece tag, codec bytes/s) of an audio object's first segment."""
    if not obj.voice_segments:
        raise DeliveryError(f"object {obj.object_id} has no voice part")
    segment = obj.voice_segments[0]
    return f"voice/{segment.segment_id}", float(segment.recording.sample_rate)


def build_streaming_workload(
    archiver: Archiver,
    objects: list[MultimediaObject],
    *,
    stations: int,
    duration_s: float,
    think_s: float = 2.0,
    jump_probability: float = 0.15,
    page_bytes: int = 32_000,
    seed: int = 0,
) -> list[StationScript]:
    """Deterministic per-station scripts: one voice stream + browsing.

    Station ``i`` streams the ``i``-th audio object (mod count) from a
    staggered start and browses the visual objects in rotation: mostly
    forward page turns every ``think_s`` (with seeded jitter), a
    ``jump_probability`` chance of leaping to a random page, and a jump
    to the next object when a sweep completes.  Scripts are mutually
    independent, so the first N scripts form a nested subset workload —
    latency growth between N and N+k stations is attributable to
    contention alone.

    Raises
    ------
    DeliveryError
        If the library lacks visual or audio objects, or ``stations``
        is not positive.
    """
    if stations <= 0:
        raise DeliveryError(f"workload needs stations: {stations}")
    visual = [o for o in objects if o.driving_mode is DrivingMode.VISUAL]
    audio = [o for o in objects if o.driving_mode is DrivingMode.AUDIO]
    if not visual or not audio:
        raise DeliveryError("workload needs both visual and audio objects")
    page_counts = {
        obj.object_id: len(page_extents_for(archiver, obj.object_id, page_bytes))
        for obj in visual
    }
    scripts: list[StationScript] = []
    for index in range(stations):
        rng = np.random.default_rng(seed * 1009 + index)
        station = f"ws-{index}"
        audio_obj = audio[index % len(audio)]
        tag, bytes_per_s = _voice_piece(audio_obj)
        extent = archiver.data_extent(audio_obj.object_id, tag)
        # The stream delivers *stored* bytes.  A compressed piece holds
        # the same playout seconds in fewer bytes, so the byte rate that
        # keeps the speaker fed scales by stored/raw (ratio 1 when
        # compression is off).
        raw_len = audio_obj.voice_segments[0].recording.n_samples
        if raw_len:
            bytes_per_s *= extent.length / raw_len
        stream = StreamIntent(
            object_id=audio_obj.object_id,
            tag=tag,
            total_bytes=extent.length,
            bytes_per_s=bytes_per_s,
            start_s=0.5 + 0.11 * index,
        )
        views: list[PageView] = []
        rotation = index % len(visual)
        current = visual[rotation].object_id
        page = 0
        expected = 0  # the page a forward browse would show next
        now = 1.0 + 0.07 * index
        while now < duration_s:
            views.append(
                PageView(
                    at_s=now, object_id=current, page=page,
                    jump=(page != expected),
                )
            )
            count = page_counts[current]
            if float(rng.random()) < jump_probability and count > 1:
                expected = page + 1
                page = int(rng.integers(0, count))
            elif page + 1 >= count:
                rotation = (rotation + 1) % len(visual)
                current = visual[rotation].object_id
                expected = -1  # object switch: never the predicted page
                page = 0
            else:
                expected = page + 1
                page = page + 1
            now += think_s * float(0.7 + 0.6 * rng.random())
        scripts.append(StationScript(station=station, stream=stream, views=views))
    return scripts


class DeliveryPipeline:
    """Deterministic replay of station scripts over device + medium.

    Parameters
    ----------
    archiver:
        The object store.  The pipeline owns its own staging cache, so
        each run starts cold and the two policies compare fairly.
    config:
        Policy and knobs.
    """

    def __init__(
        self,
        archiver: Archiver,
        config: DeliveryConfig | None = None,
        *,
        obs: SpanRecorder | None = None,
    ) -> None:
        self.config = config or DeliveryConfig()
        self._archiver = archiver
        self.cache = LRUCache(self.config.cache_bytes)
        self._device = DeviceTimeline(self._archiver.disk.geometry, self.cache)
        self.link = SharedLink(self.config.link)
        self._sched = ChunkScheduler(self.config.discipline)
        self._prefetcher = Prefetcher(
            self._archiver, self.cache, depth=self.config.prefetch_depth
        )
        self._events: list[tuple[float, int, str, object]] = []
        self._order = itertools.count()
        self._chunk_seq = itertools.count()
        self._now = 0.0
        self._link_busy = False
        self._sessions: dict[str, StreamSession] = {}
        self._next_audio_seq: dict[str, int] = {}
        #: (station, object_id, page) -> how the page got here.
        self._page_store: dict[tuple[str, str, int], str] = {}
        self._pending_pages: dict[tuple[str, str, int], list] = {}
        self._pending_prefetch: dict[tuple[str, int, str, int], int] = {}
        self._page_extents: dict[str, list[tuple[str, int, int]]] = {}
        #: Optional span recorder: page turns, streams, prefetches and
        #: underruns become DELIVERY spans on the replay's simulated
        #: clock (docs/OBSERVABILITY.md).
        self.obs = obs
        self._page_spans: dict[tuple[str, str, int], object] = {}
        self._prefetch_spans: dict[tuple[str, int, str, int], object] = {}
        self._stream_spans: dict[str, object] = {}
        self._stream_ctx: dict[str, SpanContext] = {}

    @property
    def prefetcher(self) -> Prefetcher:
        """The read-ahead planner (stats live here)."""
        return self._prefetcher

    # ------------------------------------------------------------------
    # replay
    # ------------------------------------------------------------------

    def run(self, scripts: list[StationScript]) -> DeliveryReport:
        """Replay the scripts to completion; returns the report.

        Raises
        ------
        DeliveryError
            If a script names an unknown object or the pipeline was
            already run.
        """
        if self._now > 0.0 or self._events:
            raise DeliveryError("pipeline instances replay one workload once")
        report = DeliveryReport(
            policy=self.config.policy.value, stations=len(scripts)
        )
        self._report = report
        for script in scripts:
            if script.stream is not None:
                self._schedule(script.stream.start_s, "stream_start", script)
            for view in script.views:
                self._schedule(view.at_s, "view", (script.station, view))
        while self._events:
            time_s, _, kind, payload = heapq.heappop(self._events)
            self._now = max(self._now, time_s)
            getattr(self, f"_on_{kind}")(payload)
        for station, session in self._sessions.items():
            report.underruns += len(session.underruns)
            report.stall_s += session.total_stall_s
            if session.startup_latency_s is not None:
                report.startup_latencies.append(session.startup_latency_s)
            if session.complete:
                report.streams_completed += 1
            active = self._stream_spans.pop(station, None)
            if active is not None:
                status = (
                    ObsSpanStatus.ERROR if session.underruns
                    else ObsSpanStatus.OK
                )
                active.finish(
                    self._now, status=status,
                    underruns=len(session.underruns),
                    stall_s=round(session.total_stall_s, 9),
                    complete=session.complete,
                )
        # Prefetches revoked by a jump never see their final chunk
        # delivered; close their spans as CANCELLED.
        for active in self._prefetch_spans.values():
            active.finish(self._now, status=ObsSpanStatus.CANCELLED)
        self._prefetch_spans.clear()
        report.device_busy_s = self._device.busy_s
        report.link_busy_s = self.link.stats.busy_s
        report.link_wait_s = self.link.stats.contention_wait_s
        report.chunks_delivered = self.link.stats.chunks_sent
        report.cancelled_prefetches = self._prefetcher.stats.cancelled
        report.finished_s = self._now
        return report

    # ------------------------------------------------------------------
    # event handlers
    # ------------------------------------------------------------------

    def _schedule(self, time_s: float, kind: str, payload: object) -> None:
        heapq.heappush(
            self._events, (time_s, next(self._order), kind, payload)
        )

    def _on_stream_start(self, script: StationScript) -> None:
        intent = script.stream
        session = StreamSession(
            station=script.station,
            object_id=intent.object_id,
            tag=intent.tag,
            total_bytes=intent.total_bytes,
            bytes_per_s=intent.bytes_per_s,
            chunk_bytes=self.config.chunk_bytes,
            prebuffer_chunks=self.config.prebuffer_chunks,
            request_s=self._now,
        )
        self._sessions[script.station] = session
        if self.obs is not None:
            active = self.obs.start(
                None, "stream", ObsSpanKind.DELIVERY, self._now,
                baggage={"station": script.station},
                object=str(intent.object_id), tag=intent.tag,
            )
            self._stream_spans[script.station] = active
            self._stream_ctx[script.station] = active.context
        if self.config.policy is DeliveryPolicy.DEADLINE:
            # Plan every batch up front: fetch lookahead_s before the
            # batch's first deadline, never before the stream starts.
            size = max(self.config.batch_chunks, 1)
            for first in range(0, len(session), size):
                at = max(
                    self._now,
                    session.nominal_deadline(first) - self.config.lookahead_s,
                )
                self._schedule(
                    at, "audio_batch",
                    (script.station, first, min(first + size, len(session))),
                )
        else:
            # Fetch-on-demand: fill the prebuffer, then one chunk per
            # delivery (a single outstanding read window).
            window = min(session.prebuffer_chunks, len(session))
            self._next_audio_seq[script.station] = window
            for seq in range(window):
                self._issue_audio(script.station, seq)

    def _on_audio_batch(self, payload: tuple[str, int, int]) -> None:
        station, first, stop = payload
        session = self._sessions[station]
        chunks = [session.chunk(seq) for seq in range(first, stop)]
        base = self._archiver.data_extent(session.object_id, session.tag)
        start_byte = chunks[0].offset
        length = chunks[-1].offset + chunks[-1].length - start_byte
        _, ready = self._device_read(
            Extent(base.offset + start_byte, length),
            parent=self._stream_ctx.get(station),
        )
        for chunk in chunks:
            self._enqueue_at(
                ready,
                ChunkRequest(
                    seq=next(self._chunk_seq),
                    station=station,
                    nbytes=chunk.length,
                    traffic_class=TrafficClass.AUDIO,
                    deadline_s=session.nominal_deadline(chunk.seq),
                    issued_s=self._now,
                    meta={"kind": "stream", "stream_seq": chunk.seq},
                ),
            )

    def _issue_audio(self, station: str, seq: int) -> None:
        session = self._sessions[station]
        chunk = session.chunk(seq)
        base = self._archiver.data_extent(session.object_id, session.tag)
        _, ready = self._device_read(
            Extent(base.offset + chunk.offset, chunk.length),
            parent=self._stream_ctx.get(station),
        )
        self._enqueue_at(
            ready,
            ChunkRequest(
                seq=next(self._chunk_seq),
                station=station,
                nbytes=chunk.length,
                traffic_class=TrafficClass.AUDIO,
                deadline_s=session.nominal_deadline(seq),
                issued_s=self._now,
                meta={"kind": "stream", "stream_seq": seq},
            ),
        )

    def _on_view(self, payload: tuple[str, PageView]) -> None:
        station, view = payload
        deadline_mode = self.config.policy is DeliveryPolicy.DEADLINE
        if view.jump and deadline_mode:
            generation = self._prefetcher.jump(station)
            self._sched.cancel_where(
                lambda c: (
                    c.station == station
                    and c.meta.get("kind") == "prefetch"
                    and c.meta.get("generation", generation) < generation
                )
            )
        key = (station, str(view.object_id), view.page)
        extents = self._extents_of(view.object_id)
        if view.page >= len(extents):
            raise DeliveryError(
                f"script asks for page {view.page} of "
                f"{len(extents)}-page object {view.object_id}"
            )
        if key in self._page_store:
            prefetched = self._page_store[key] == "prefetch"
            self._report.page_turns += 1
            self._report.page_latencies.append(0.0)
            if prefetched:
                self._report.prefetched_page_hits += 1
            if self.obs is not None:
                self.obs.emit(
                    None, "page_turn", ObsSpanKind.DELIVERY,
                    self._now, self._now,
                    baggage={"station": station},
                    object=str(view.object_id), page=view.page,
                    source=self._page_store[key], latency_s=0.0,
                )
        elif key not in self._pending_pages:
            tag, start, length = extents[view.page]
            if self.obs is not None:
                active = self.obs.start(
                    None, "page_turn", ObsSpanKind.DELIVERY, self._now,
                    baggage={"station": station},
                    object=str(view.object_id), page=view.page,
                    source="demand",
                )
                self._page_spans[key] = active
                with bind_span(active.context):
                    ready = self._fetch_cached(
                        view.object_id, tag, start, length
                    )
            else:
                ready = self._fetch_cached(view.object_id, tag, start, length)
            total = self._split_bulk(
                station, length, ready,
                {"kind": "page", "page_key": key},
            )
            self._pending_pages[key] = [self._now, total]
        if deadline_mode:
            tasks = self._prefetcher.observe_view(
                station, view.object_id, view.page, extents
            )
            for index, task in enumerate(tasks):
                self._schedule(
                    self._now + (index + 1) * PREFETCH_STAGGER_S,
                    "prefetch", task,
                )

    def _on_prefetch(self, task) -> None:
        page_key = (task.station, str(task.object_id), task.page)
        pending = (task.station, task.generation, str(task.object_id), task.page)
        if page_key in self._page_store or pending in self._pending_prefetch:
            return  # already at (or in flight to) the station
        data, service = self._prefetcher.execute(task)
        if data is None:
            return
        if service > 0.0:
            # execute() read the device and published the bytes;
            # serialize that read on the shared device timeline like
            # every other fetch.
            _, ready = self._device.charge(self._now, service)
            self._device.stage(task.cache_key(), ready)
        else:
            # Served from the shared cache: no device work, but honour
            # an in-flight fetch of the same key.
            ready = self._device.ready_at(task.cache_key(), self._now)
        self._start_prefetch_span(task, pending)
        total = self._split_bulk(
            task.station, task.length, ready,
            {
                "kind": "prefetch",
                "generation": task.generation,
                "page_key": page_key,
                "pending_key": pending,
            },
        )
        self._pending_prefetch[pending] = total

    def _start_prefetch_span(self, task, pending) -> None:
        if self.obs is None:
            return
        self._prefetch_spans[pending] = self.obs.start(
            None, "prefetch", ObsSpanKind.DELIVERY, self._now,
            baggage={"station": task.station},
            object=str(task.object_id), page=task.page,
            generation=task.generation,
        )

    def _on_enqueue(self, chunk: ChunkRequest) -> None:
        self._sched.add(chunk)
        self._pump()

    def _on_deliver(self, payload: tuple[ChunkRequest, float]) -> None:
        chunk, _ = payload
        self._link_busy = False
        kind = chunk.meta.get("kind")
        if kind == "stream":
            self._deliver_stream_chunk(chunk)
        elif kind == "page":
            self._deliver_page_chunk(chunk)
        elif kind == "prefetch":
            self._deliver_prefetch_chunk(chunk)
        self._pump()

    # ------------------------------------------------------------------
    # delivery bookkeeping
    # ------------------------------------------------------------------

    def _deliver_stream_chunk(self, chunk: ChunkRequest) -> None:
        station = chunk.station
        session = self._sessions[station]
        event = session.on_delivered(chunk.meta["stream_seq"], self._now)
        if event is not None and self.obs is not None:
            self.obs.emit(
                self._stream_ctx.get(station), "underrun",
                ObsSpanKind.DELIVERY, self._now, self._now,
                status=ObsSpanStatus.ERROR,
                seq=event.seq, stall_s=round(event.stall_s, 9),
            )
        if self.config.policy is DeliveryPolicy.ON_DEMAND:
            next_seq = self._next_audio_seq.get(station, len(session))
            if next_seq < len(session):
                self._next_audio_seq[station] = next_seq + 1
                self._issue_audio(station, next_seq)

    def _deliver_page_chunk(self, chunk: ChunkRequest) -> None:
        key = chunk.meta["page_key"]
        state = self._pending_pages.get(key)
        if state is None:  # pragma: no cover - defensive
            return
        state[1] -= 1
        if state[1] == 0:
            del self._pending_pages[key]
            latency = self._now - state[0]
            self._page_store[key] = "demand"
            self._report.page_turns += 1
            self._report.page_latencies.append(latency)
            self._report.cold_page_latencies.append(latency)
            active = self._page_spans.pop(key, None)
            if active is not None:
                active.finish(self._now, latency_s=round(latency, 9))

    def _deliver_prefetch_chunk(self, chunk: ChunkRequest) -> None:
        pending = chunk.meta["pending_key"]
        remaining = self._pending_prefetch.get(pending)
        if remaining is None:  # pragma: no cover - defensive
            return
        if remaining > 1:
            self._pending_prefetch[pending] = remaining - 1
            return
        del self._pending_prefetch[pending]
        station = chunk.station
        wasted = chunk.meta["generation"] != self._prefetcher.generation(station)
        if not wasted:
            self._page_store.setdefault(chunk.meta["page_key"], "prefetch")
        else:
            self._report.wasted_prefetches += 1
        active = self._prefetch_spans.pop(pending, None)
        if active is not None:
            active.finish(
                self._now,
                status=(
                    ObsSpanStatus.CANCELLED if wasted else ObsSpanStatus.OK
                ),
                wasted=wasted,
            )

    # ------------------------------------------------------------------
    # resources
    # ------------------------------------------------------------------

    def _extents_of(self, object_id: ObjectId) -> list[tuple[str, int, int]]:
        key = str(object_id)
        if key not in self._page_extents:
            self._page_extents[key] = page_extents_for(
                self._archiver, object_id, self.config.page_bytes
            )
        return self._page_extents[key]

    def _device_read(
        self, extent: Extent, *, parent: SpanContext | None = None
    ) -> tuple[bytes, float]:
        """FIFO device read; returns the bytes and their ready time."""
        data, service = self._archiver.read_raw(extent)
        start, ready = self._device.charge(self._now, service)
        if self.obs is not None:
            self.obs.emit(
                parent if parent is not None else current_span(),
                "device_read", ObsSpanKind.DEVICE, start, ready,
                bytes=extent.length,
            )
        return data, ready

    def _fetch_cached(
        self, object_id: ObjectId, tag: str, start: int, length: int
    ) -> float:
        """Read a piece range through the staging cache; returns ready time.

        A cache hit is free but may still wait for an in-flight fetch
        of the same key (single-flight piggyback); a miss pays the
        device and publishes for everyone.
        """
        key = piece_range_key(object_id, tag, start, length)
        ready = self._device.staged(key, self._now)
        if ready is not None:
            if self.obs is not None:
                self.obs.emit(
                    current_span(), "staging_cache", ObsSpanKind.CACHE,
                    self._now, ready, hit=True, key=key,
                )
            return ready
        base = self._archiver.data_extent(object_id, tag)
        if start < 0 or start + length > base.length:
            raise DeliveryError(
                f"range [{start}, {start + length}) exceeds piece "
                f"{tag!r} of length {base.length}"
            )
        data, ready = self._device_read(Extent(base.offset + start, length))
        self._device.stage(key, ready, data)
        return ready

    def _split_bulk(
        self, station: str, length: int, ready_s: float, meta: dict
    ) -> int:
        """Enqueue a bulk payload as link chunks; returns the chunk count."""
        count = max(1, math.ceil(length / self.config.chunk_bytes))
        remaining = length
        for _ in range(count):
            nbytes = min(self.config.chunk_bytes, remaining)
            remaining -= nbytes
            self._enqueue_at(
                ready_s,
                ChunkRequest(
                    seq=next(self._chunk_seq),
                    station=station,
                    nbytes=nbytes,
                    traffic_class=TrafficClass.BULK,
                    issued_s=self._now,
                    meta=dict(meta),
                ),
            )
        return count

    def _enqueue_at(self, ready_s: float, chunk: ChunkRequest) -> None:
        chunk.ready_s = ready_s
        if ready_s <= self._now:
            self._on_enqueue(chunk)
        else:
            self._schedule(ready_s, "enqueue", chunk)

    def _pump(self) -> None:
        if self._link_busy:
            return
        chunk = self._sched.pop_next(self._now)
        if chunk is None:
            return
        tx = self.link.transmit(
            chunk.station, chunk.nbytes, chunk.ready_s,
            start_not_before_s=self._now,
        )
        self._link_busy = True
        self._schedule(tx.finish_s, "deliver", (chunk, tx.finish_s))


#: Failure modes :func:`fetch_with_retry` retries: admission rejection,
#: wall-clock expiry, and injected transient device faults.  Everything
#: else propagates — refetching will not fix a missing object, a bad
#: range, or a torn write already abandoned by the commit protocol.
RETRYABLE_ERRORS = (ServerBusyError, RequestTimeoutError, TransientIOError)


def fetch_with_retry(
    frontend: ServerFrontend,
    op: str,
    *params,
    station: str = "ws-0",
    attempts: int = 3,
    timeout_s: float = 30.0,
    backoff_s: float = 0.0,
    backoff_factor: float = 2.0,
    jitter_fraction: float = 0.0,
    rng=None,
    sleep=None,
    on_retry=None,
):
    """Submit a server request, retrying the transient failure modes.

    Delivery clients keep a presentation running across the retryable
    server outcomes — admission rejection (:class:`ServerBusyError`),
    wall-clock expiry (:class:`RequestTimeoutError`), and transient
    device faults (:class:`TransientIOError`, e.g. injected by a fault
    plan at the ``device.read`` site) — and let every other archiver
    error propagate, since refetching will not fix a missing object or
    a bad range.  Returns ``(payload, service_time_s)``.

    Attempts are bounded by ``attempts``; after the last one the final
    retryable error is re-raised unchanged.  Between attempts the
    client waits ``backoff_s * backoff_factor**retry_index`` seconds —
    a monotone non-decreasing schedule (``backoff_factor >= 1``) so a
    saturated server sees pressure back off, not pile up.  The default
    ``backoff_s=0.0`` keeps the historical immediate-retry behaviour.
    ``sleep`` injects the waiting primitive (real ``time.sleep`` by
    default; tests pass a recorder), and ``on_retry(retry_index,
    delay_s, error)`` observes every scheduled retry.

    ``jitter_fraction`` decorrelates the schedule: each wait is
    stretched to ``delay * (1 + jitter_fraction * u)`` with ``u``
    drawn uniformly from ``[0, 1)`` by ``rng``.  Without jitter, every
    workstation that lost the same replica retries on the *same*
    exponential schedule and the failover target absorbs the whole
    herd at once; with it, the herd spreads over a window that widens
    with the backoff.  The default ``rng`` is seeded from the station
    name (``random.Random(stable_hash(station))``), so each station's
    jitter sequence is deterministic and repeatable while distinct
    stations decorrelate — pass an explicit ``rng`` to override.

    Every op in :data:`~repro.server.archiver.READ_OPS` is retry-safe,
    including a ``read_scattered`` batch: a rejection happens at
    admission, before the archiver plans or reads anything, and a
    transient read fault leaves no partial device state, so a retried
    request re-plans from untouched cache and disk-head state.

    Raises
    ------
    DeliveryError
        On a non-positive ``attempts``, a negative ``backoff_s``, or a
        ``backoff_factor`` below 1 (which would make the schedule
        non-monotone).
    """
    if attempts < 1:
        raise DeliveryError(f"attempts must be positive: {attempts}")
    if backoff_s < 0:
        raise DeliveryError(f"backoff must be non-negative: {backoff_s}")
    if backoff_factor < 1.0:
        raise DeliveryError(
            f"backoff factor must be at least 1: {backoff_factor}"
        )
    if not 0.0 <= jitter_fraction <= 1.0:
        raise DeliveryError(
            f"jitter fraction must be within [0, 1]: {jitter_fraction}"
        )
    if rng is None and jitter_fraction > 0:
        rng = random.Random(stable_hash(station))
    if sleep is None:
        import time as _time

        sleep = _time.sleep
    last: Exception | None = None
    for attempt in range(attempts):
        try:
            future = frontend.submit(op, *params, station=station)
            return future.result(timeout=timeout_s)
        except RETRYABLE_ERRORS as exc:
            last = exc
            if attempt + 1 >= attempts:
                break
            delay = backoff_s * (backoff_factor ** attempt)
            if jitter_fraction > 0:
                delay *= 1.0 + jitter_fraction * rng.random()
            if on_retry is not None:
                on_retry(attempt, delay, exc)
            if delay > 0:
                sleep(delay)
    raise last
