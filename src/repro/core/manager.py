"""The presentation manager.

"When the user selects the miniature of an object the multimedia object
presentation manager undertakes the responsibility to present the
information of the selected object.  The multimedia object presentation
manager will also facilitate the user in navigating from the current
object to other related objects...  The multimedia object presentation
manager resides in the user's workstation and requests the appropriate
pieces of information from the multimedia object server subsystems."

Objects come from a :class:`LocalStore` (workstation memory — the
editing-state preview path of Section 4) or from any server store (an
:class:`ObjectStore`: archiver, caching front, worker pool or cluster),
which all get the same open: it moves real bytes over the
:class:`~repro.server.network.NetworkLink`, advancing the simulated
clock — and, crucially, the bitmaps of images that have an on-screen
*representation* are **not** shipped: views defined on the
representation fetch only their window's rows from the server (the
C-VIEW claim).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Iterator, Protocol, Union

import numpy as np

from repro.core.audio import AudioSession
from repro.core.compile import VisualProgram, compile_visual_program
from repro.core.visual import VisualSession
from repro.errors import BrowsingError, ObjectNotFoundError
from repro.ids import ImageId, ObjectId
from repro.images.bitmap import Bitmap
from repro.images.geometry import Rect
from repro.objects.model import DrivingMode, MultimediaObject, ObjectState
from repro.objects.relationships import RelevanceKind, RelevantLink
from repro.obs.context import bind as bind_span
from repro.obs.context import current as current_span
from repro.obs.spans import SpanKind as ObsSpanKind
from repro.obs.spans import SpanRecorder
from repro.obs.spans import SpanStatus as ObsSpanStatus
from repro.server.archiver import StoredObjectRecord, _all_archiver
from repro.server.network import NetworkLink
from repro.server.query import MiniatureCard, QueryInterface
from repro.trace import EventKind
from repro.workstation.station import Workstation

Session = Union[VisualSession, AudioSession]


class ObjectStore(Protocol):
    """A server store: an :class:`~repro.server.archiver.Archiver`, a
    :class:`~repro.server.archiver.CachingArchiver`, a started
    :class:`~repro.server.frontend.ServerFrontend` or a
    :class:`~repro.cluster.ClusterRouter`.

    Pieces are named by object id and tag, never by platter offset, so
    a cluster may serve each read from any replica.  Reads return their
    payloads and the device service time they cost.
    """

    def record(self, object_id: ObjectId) -> StoredObjectRecord:
        ...  # pragma: no cover - protocol

    def version_of(self, object_id: ObjectId) -> int:
        ...  # pragma: no cover - protocol

    def recognition_for(self, object_id: ObjectId) -> dict:
        ...  # pragma: no cover - protocol

    def read_pieces(
        self, object_id: ObjectId, tags: list[str]
    ) -> tuple[list[bytes], float]:
        ...  # pragma: no cover - protocol

    def read_piece_rows(
        self, object_id: ObjectId, tag: str, ranges: list[tuple[int, int]]
    ) -> tuple[list[bytes], float]:
        ...  # pragma: no cover - protocol


class LocalStore:
    """In-memory store: archived objects held at the workstation.

    Also usable for previewing editing-state objects with the same
    browsing software ("duplication of software is not required").
    """

    def __init__(self) -> None:
        self._objects: dict[ObjectId, MultimediaObject] = {}

    def add(self, obj: MultimediaObject) -> None:
        """Register an object for presentation."""
        self._objects[obj.object_id] = obj

    def __contains__(self, object_id: ObjectId) -> bool:
        return object_id in self._objects

    def fetch_object(self, object_id: ObjectId) -> tuple[MultimediaObject, float]:
        """Fetch with zero simulated cost (local memory).

        Raises
        ------
        ObjectNotFoundError
            If the object was never added.
        """
        obj = self._objects.get(object_id)
        if obj is None:
            raise ObjectNotFoundError(f"local store has no object {object_id}")
        return obj, 0.0


@dataclass
class _DeferredImage:
    """A source image whose bitmap stays on the server."""

    tag: str
    width: int
    height: int


@dataclass
class _DecodedEntry:
    """One decoded-object cache entry."""

    obj: MultimediaObject
    version: int
    nbytes: int
    #: Page programs compiled from ``obj``, by page height.
    programs: dict[int, VisualProgram] = field(default_factory=dict)


class DecodedObjectCache:
    """LRU cache of rebuilt (decoded) objects at the workstation.

    The byte LRU in the server staging path caches *archive bytes*;
    this cache sits one tier up and holds the finished product of an
    open — descriptor parsed, pieces rebuilt, recognition injected — so
    a relevant-object excursion, a ``return_from_relevant`` or a tour
    re-visit re-opens the object with zero server requests and zero
    bytes shipped.

    Entries are memory-accounted by the composition bytes that were
    shipped to build them and evicted least-recently-used.  Every entry
    carries the archiver's version token at build time; a lookup with a
    newer token (bumped by :meth:`Archiver.attach_recognition`)
    invalidates the entry instead of serving stale utterances.
    """

    def __init__(self, capacity_bytes: int = 8 << 20) -> None:
        if capacity_bytes <= 0:
            raise BrowsingError(
                f"decoded-object cache capacity must be positive: {capacity_bytes}"
            )
        self.capacity_bytes = capacity_bytes
        self._entries: OrderedDict[ObjectId, _DecodedEntry] = OrderedDict()
        self.used_bytes = 0
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, object_id: ObjectId) -> bool:
        return object_id in self._entries

    def get(self, object_id: ObjectId, version: int) -> MultimediaObject | None:
        """The cached object, or None on miss or stale version token."""
        entry = self._entries.get(object_id)
        if entry is None:
            self.misses += 1
            return None
        if entry.version != version:
            self.invalidations += 1
            self.misses += 1
            self._drop(object_id)
            return None
        self._entries.move_to_end(object_id)
        self.hits += 1
        return entry.obj

    def put(
        self,
        object_id: ObjectId,
        obj: MultimediaObject,
        version: int,
        nbytes: int,
    ) -> None:
        """Insert (or replace) an entry, evicting LRU entries to fit.

        Objects larger than the whole cache are not admitted.
        """
        if object_id in self._entries:
            self._drop(object_id)
        if nbytes > self.capacity_bytes:
            return
        while self.used_bytes + nbytes > self.capacity_bytes and self._entries:
            oldest = next(iter(self._entries))
            self._drop(oldest)
            self.evictions += 1
        self._entries[object_id] = _DecodedEntry(
            obj=obj, version=version, nbytes=nbytes
        )
        self.used_bytes += nbytes

    def program(self, obj: MultimediaObject, page_height: int) -> VisualProgram:
        """The page program of ``obj``, compiled once per entry and height.

        Sessions share the program read-only.  An object that is not
        this cache's current entry (never admitted, evicted, or
        replaced) is compiled afresh.  Neither the hit counters nor the
        LRU order move.
        """
        entry = self._entries.get(obj.object_id)
        if entry is None or entry.obj is not obj:
            return compile_visual_program(obj, page_height=page_height)
        program = entry.programs.get(page_height)
        if program is None:
            program = compile_visual_program(obj, page_height=page_height)
            entry.programs[page_height] = program
        return program

    def invalidate(self, object_id: ObjectId) -> bool:
        """Explicitly drop an entry; True if one was present."""
        if object_id not in self._entries:
            return False
        self.invalidations += 1
        self._drop(object_id)
        return True

    def _drop(self, object_id: ObjectId) -> None:
        entry = self._entries.pop(object_id)
        self.used_bytes -= entry.nbytes


@dataclass
class _StackEntry:
    """One level of relevant-object nesting."""

    session: Session
    link: RelevantLink | None = None
    parent_composite: Bitmap | None = field(default=None, repr=False)


class PresentationManager:
    """Presents archived objects onto a workstation.

    Parameters
    ----------
    store:
        Where objects come from: a :class:`LocalStore` or any
        :class:`ObjectStore`.
    workstation:
        The user's workstation.
    link:
        Network model that server-store reads are shipped over.
    """

    def __init__(
        self,
        store: ObjectStore | LocalStore,
        workstation: Workstation,
        link: NetworkLink | None = None,
        *,
        batch_open: bool = True,
        decoded_cache_bytes: int = 8 << 20,
        obs: SpanRecorder | None = None,
    ) -> None:
        self._store = store
        self._ws = workstation
        self._link = link or NetworkLink()
        #: Optional span recorder; when set, every user-visible request
        #: (open / navigate / search) roots one span tree and the store
        #: layers below nest their spans under it via the ambient
        #: context (docs/OBSERVABILITY.md).
        self.obs = obs
        if obs is not None:
            if obs.clock is None:
                obs.clock = lambda: self._ws.clock.now
            if hasattr(self._store, "obs"):
                self._store.obs = obs
        self._stack: list[_StackEntry] = []
        self._deferred: dict[ObjectId, dict[ImageId, _DeferredImage]] = {}
        self.bytes_shipped = 0
        #: When True (the default), an open collects every piece read
        #: into one scatter-gather server request instead of one
        #: round-trip per piece.  False keeps the sequential path — the
        #: baseline the C-OPEN benchmark measures against.
        self.batch_open = batch_open
        self.decoded_cache = DecodedObjectCache(decoded_cache_bytes)

    @property
    def workstation(self) -> Workstation:
        """The workstation the manager presents onto."""
        return self._ws

    @property
    def current_session(self) -> Session | None:
        """The session the user is currently browsing (top of stack)."""
        return self._stack[-1].session if self._stack else None

    @property
    def nesting_depth(self) -> int:
        """How many relevant objects deep the user currently is."""
        return max(len(self._stack) - 1, 0)

    # ------------------------------------------------------------------
    # opening objects
    # ------------------------------------------------------------------

    def open(self, object_id: ObjectId) -> Session:
        """Open an object as the root browsing session and display it."""
        session = self._make_session(object_id, "open")
        self._stack = [_StackEntry(session=session)]
        session.open()
        # The menu options "are presented in the form of menu options"
        # alongside the object; record what the user was offered.
        self._ws.trace.record(
            self._ws.clock.now,
            EventKind.MENU_SHOWN,
            object=str(object_id),
            options=len(session.menu),
        )
        return session

    def _make_session(
        self, object_id: ObjectId, request: str, **attrs
    ) -> Session:
        """Fetch an object into a session, under one ``request`` span."""
        if self.obs is None:
            return self._new_session(object_id)
        active = self.obs.start(
            None, request, ObsSpanKind.REQUEST, self._ws.clock.now,
            baggage={"station": self._ws.name, "object": str(object_id)},
            **attrs,
        )
        try:
            with bind_span(active.context):
                session = self._new_session(object_id)
        except Exception as exc:
            active.finish(
                self._ws.clock.now, status=ObsSpanStatus.ERROR,
                error=type(exc).__name__,
            )
            raise
        active.finish(
            active.start_s + session.open_cost_s,
            open_cost_s=round(session.open_cost_s, 9),
        )
        return session

    def _new_session(self, object_id: ObjectId) -> Session:
        obj, cost = self._fetch(object_id)
        if obj.state is not ObjectState.ARCHIVED:
            raise BrowsingError(
                f"object {object_id} is not archived; archive before presenting"
            )
        if obj.driving_mode is DrivingMode.AUDIO:
            session: Session = AudioSession(obj, self._ws, manager=self)
        else:
            session = VisualSession(obj, self._ws, manager=self)
        # The fetch cost (disk service + network) is part of what the
        # user waited for; keep it on the session for traces/benchmarks.
        session.open_cost_s = cost
        return session

    def _fetch(self, object_id: ObjectId) -> tuple[MultimediaObject, float]:
        store = self._store
        if isinstance(store, LocalStore):
            return store.fetch_object(object_id)

        # Server path: fetch pieces selectively, deferring the bitmaps
        # of images that have a representation in the object — views
        # over the representation fetch windows later.
        from repro.formatter.builder import rebuild_object

        version = store.version_of(object_id)
        cached = self.decoded_cache.get(object_id, version)
        if cached is not None:
            # Warm open: the decoded object is already at the
            # workstation — no server requests, zero bytes shipped.
            if self.obs is not None:
                now = self._ws.clock.now
                self.obs.emit(
                    current_span(), "decoded_cache", ObsSpanKind.CACHE,
                    now, now, hit=True, object=str(object_id),
                )
            self._ws.trace.record(
                self._ws.clock.now,
                EventKind.TRANSFER,
                object=str(object_id),
                bytes=0,
                service_s=0.0,
                network_s=0.0,
                decoded_cache="hit",
            )
            return cached, 0.0

        descriptor = _all_archiver(store.record(object_id).descriptor)
        # _all_archiver already shallow-copies ``extra``; the only
        # mutation below is popping ``bitmap_tag`` out of image payload
        # dicts, so copying the image list and its dicts is enough — no
        # need to deep-copy every nested graphics/label structure.
        images = [
            dict(payload) for payload in descriptor.extra.get("images", [])
        ]
        descriptor.extra["images"] = images
        deferred: dict[ImageId, _DeferredImage] = {}
        represented = {
            payload["source_image_id"]
            for payload in images
            if payload.get("is_representation") and "source_image_id" in payload
        }
        for payload in images:
            if payload["image_id"] in represented and "bitmap_tag" in payload:
                deferred[ImageId(payload["image_id"])] = _DeferredImage(
                    tag=payload.pop("bitmap_tag"),
                    width=payload["width"],
                    height=payload["height"],
                )

        # Piece-read planner: every piece the rebuild will touch is
        # known from the descriptor (all locations minus deferred
        # bitmaps).  A batched open asks for them in ONE scatter-gather
        # request, the sequential baseline in one request per piece.
        deferred_tags = {info.tag for info in deferred.values()}
        planned = [
            location for location in descriptor.locations
            if location.tag not in deferred_tags
        ]
        shipped = sum(location.length for location in planned)
        per_request = len(planned) if self.batch_open else 1
        t0 = self._ws.clock.now
        ship = read = None
        if self.obs is not None:
            # The request and its reply cross the link; the server's
            # read nests in that exchange, and the store's own spans (a
            # cluster's route and replica reads) nest in the read.
            ship = self.obs.start(
                current_span(), "ship", ObsSpanKind.NETWORK, t0,
                bytes=shipped,
            )
            read = self.obs.start(
                ship.context, "archiver_read", ObsSpanKind.DEVICE, t0,
                bytes=shipped, object=str(object_id),
            )
        staged: dict[tuple[int, int], bytes] = {}
        total_cost = 0.0
        try:
            with bind_span(current_span() if read is None else read.context):
                for first in range(0, len(planned), per_request or 1):
                    # Requests run back to back on the workstation clock.
                    self._ws.clock.advance_to(t0 + total_cost)
                    batch = planned[first:first + per_request]
                    payloads, service = store.read_pieces(
                        object_id, [location.tag for location in batch]
                    )
                    total_cost += service
                    for location, data in zip(batch, payloads):
                        staged[location.offset, location.length] = data
            obj = rebuild_object(
                descriptor, b"",
                archiver_read=lambda offset, length: staged[offset, length],
                recognized=store.recognition_for(object_id),
            )
        except Exception as exc:
            for span in (read, ship):
                if span is not None:
                    span.finish(
                        t0 + total_cost, status=ObsSpanStatus.ERROR,
                        error=type(exc).__name__,
                    )
            raise
        # Voice segments arrive with companded bytes only; hook the
        # one-shot decode trace so the first playback is observable.
        for segment in obj.voice_segments:
            recording = segment.recording
            if not recording.is_materialized and recording.on_decode is None:
                recording.on_decode = self._decode_tracer(segment.segment_id)
        network = self._ship(object_id, shipped, total_cost, t0)
        if read is not None:
            read.finish(t0 + total_cost)
            # Pieces decode here, at the workstation, as they arrive:
            # one marker per open, in the modeled time decoding does
            # not take.
            self.obs.emit(
                current_span(), "decode", ObsSpanKind.COMPRESS,
                t0 + total_cost, t0 + total_cost,
                pieces=len(planned), stored_len=shipped,
            )
            ship.finish(t0 + total_cost + network)
        self._deferred[object_id] = deferred
        self.decoded_cache.put(object_id, obj, version, nbytes=shipped)
        return obj, total_cost + network

    def _ship(
        self, object_id: ObjectId, nbytes: int, service: float,
        start: float, **detail,
    ) -> float:
        """Charge one server reply (device service, then the link) from
        ``start`` to the clock, the byte count and the trace; returns
        the link time."""
        network = self._link.transfer_time(nbytes)
        self._ws.clock.advance_to(start + (service + network))
        self.bytes_shipped += nbytes
        self._ws.trace.record(
            self._ws.clock.now,
            EventKind.TRANSFER,
            object=str(object_id),
            bytes=nbytes,
            service_s=round(service, 4),
            network_s=round(network, 4),
            **detail,
        )
        return network

    def _decode_tracer(self, segment_id):
        def on_decode(recording) -> None:
            self._ws.trace.record(
                self._ws.clock.now,
                EventKind.DECODE_VOICE,
                segment=str(segment_id),
                samples=recording.n_samples,
            )

        return on_decode

    # ------------------------------------------------------------------
    # server-backed views
    # ------------------------------------------------------------------

    def view_data_source(self, obj: MultimediaObject, image):
        """A window-fetching data source for views on ``image``.

        Returns None when the image's data is local (the view crops the
        in-memory bitmap).  For representations of deferred source
        images, returns a callable that reads only the window's rows
        from the server store and charges disk + network time.
        """
        info = self._deferred.get(obj.object_id, {}).get(image.source_image_id)
        if info is None or not image.is_representation:
            return None
        object_id = obj.object_id

        def fetch_window(rect: Rect) -> Bitmap:
            ranges = [
                ((rect.y + row) * info.width + rect.x, rect.width)
                for row in range(rect.height)
            ]
            start = self._ws.clock.now
            rows, service = self._store.read_piece_rows(
                object_id, info.tag, ranges
            )
            payload = b"".join(rows)
            self._ship(
                object_id, len(payload), service, start, piece=info.tag
            )
            pixels = np.frombuffer(payload, dtype=np.uint8).reshape(
                rect.height, rect.width
            )
            return Bitmap(pixels.copy())

        return fetch_window

    # ------------------------------------------------------------------
    # relevant-object navigation
    # ------------------------------------------------------------------

    def in_relevant(self, session: Session) -> bool:
        """Whether ``session`` is a relevant object (non-root level)."""
        for depth, entry in enumerate(self._stack):
            if entry.session is session:
                return depth > 0
        return False

    def select_relevant(self, session: Session, indicator: str) -> Session:
        """Branch into a relevant object via its indicator.

        The child session browses "by using the driving mode of the
        relevant object"; relevances are materialized on it (text
        highlight events, image polygons, queued voice segments).
        When the child's presentation is a transparency over the
        parent's display (Figures 7-8), the parent's raster seeds the
        child's compositing base.

        Raises
        ------
        BrowsingError
            If the indicator is not currently visible, or ``session``
            is not the top of the navigation stack.
        """
        if not self._stack or self._stack[-1].session is not session:
            raise BrowsingError("only the current session can branch")
        link = self._find_visible_link(session, indicator)
        parent_composite = self._ws.screen.composite
        child = self._make_session(
            link.target_object_id, "navigate",
            indicator=indicator, depth=len(self._stack),
        )
        self._materialize_relevances(child, link)
        if isinstance(child, VisualSession) and parent_composite is not None:
            child.inherited_base = parent_composite
        self._ws.trace.record(
            self._ws.clock.now,
            EventKind.ENTER_RELEVANT,
            indicator=indicator,
            target=str(link.target_object_id),
            depth=len(self._stack),
        )
        self._stack.append(
            _StackEntry(
                session=child, link=link, parent_composite=parent_composite
            )
        )
        child.open()
        return child

    def return_from_relevant(self, session: Session) -> Session:
        """Return to the parent object, re-establishing its browsing mode.

        Raises
        ------
        BrowsingError
            If ``session`` is not the current relevant object.
        """
        if len(self._stack) < 2 or self._stack[-1].session is not session:
            raise BrowsingError("not inside a relevant object")
        entry = self._stack.pop()
        parent = self._stack[-1].session
        self._ws.trace.record(
            self._ws.clock.now,
            EventKind.RETURN_RELEVANT,
            target=str(parent.object.object_id),
            depth=len(self._stack) - 1,
        )
        if isinstance(parent, VisualSession):
            if parent.current_page_number:
                parent.goto_page(parent.current_page_number)
        else:
            parent._update_visual_message(parent.position)
        __ = entry
        return parent

    def _find_visible_link(self, session: Session, indicator: str) -> RelevantLink:
        visible = {d["indicator"] for d in session.visible_indicators()}
        for link in session.object.relevant_links:
            if link.indicator_id.value == indicator:
                if indicator not in visible:
                    raise BrowsingError(
                        f"indicator {indicator!r} is not currently displayed"
                    )
                return link
        raise BrowsingError(f"object has no relevant-object indicator {indicator!r}")

    def _materialize_relevances(self, child: Session, link: RelevantLink) -> None:
        for relevance in link.relevances:
            if relevance.kind is RelevanceKind.TEXT:
                self._ws.trace.record(
                    self._ws.clock.now,
                    EventKind.HIGHLIGHT,
                    relevance="text",
                    segment=str(relevance.segment_id),
                    span=f"{relevance.text_start}-{relevance.text_end}",
                )
            elif relevance.kind is RelevanceKind.IMAGE:
                if isinstance(child, VisualSession):
                    child.relevance_regions.setdefault(
                        relevance.image_id, []
                    ).append(relevance.region)
            elif relevance.kind is RelevanceKind.VOICE:
                child.relevant_voice_queue.append(
                    (
                        relevance.segment_id,
                        relevance.voice_start,
                        relevance.voice_end,
                    )
                )

    # ------------------------------------------------------------------
    # miniature browsing interface
    # ------------------------------------------------------------------

    def browse_by_content(
        self, terms: list[str] | None = None, **criteria
    ) -> Iterator[MiniatureCard]:
        """Query the server and stream miniatures of qualifying objects.

        Each yielded card is also traced as MINIATURE_SHOWN and the
        clock advances to the card's arrival time.  Select a card with
        :meth:`open` on its ``object_id``.

        Raises
        ------
        BrowsingError
            If the store keeps no archive index (see
            :meth:`query_interface`).
        """
        interface = self.query_interface()
        if self.obs is not None:
            active = self.obs.start(
                None, "search", ObsSpanKind.REQUEST, self._ws.clock.now,
                baggage={"station": self._ws.name},
                terms=list(terms) if terms else [],
            )
            with bind_span(active.context):
                object_ids = interface.select(terms=terms, **criteria)
            active.finish(self._ws.clock.now, results=len(object_ids))
        else:
            object_ids = interface.select(terms=terms, **criteria)
        for card in interface.miniature_stream(object_ids):
            self._ws.clock.advance_to(card.available_at_s)
            self._ws.trace.record(
                self._ws.clock.now,
                EventKind.MINIATURE_SHOWN,
                object=str(card.object_id),
                mode=card.driving_mode,
                bytes=card.nbytes,
            )
            yield card

    def query_interface(self) -> QueryInterface:
        """The content-query interface over this manager's store.

        Raises
        ------
        BrowsingError
            If the store keeps no archive index: a :class:`LocalStore`,
            or a cluster, whose index is split over its nodes.
        """
        if getattr(self._store, "archive_index", None) is None:
            raise BrowsingError(
                "content queries need a store with an archive index"
            )
        return QueryInterface(self._store, link=self._link)
