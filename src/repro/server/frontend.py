"""Concurrent serving front-end for the object server.

"The major concern in the server subsystem is performance.  Performance
may be crucial due to queueing delays that may be experienced when
several users try to access data from the same device."

The frontend multiplexes requests from many workstation sessions
through a bounded pool of worker threads.  Admission control bounds the
queue: when the queue is full, new requests are rejected with a typed
:class:`~repro.errors.ServerBusyError` instead of growing the delay
without bound.  Workers execute against a (thread-safe)
:class:`~repro.server.archiver.Archiver` or, preferably, a
:class:`~repro.server.archiver.CachingArchiver` whose shared cache and
per-key single-flight collapse duplicate optical reads.

Time model: requests carry an optional simulated arrival time; the
frontend keeps a simulated clock that advances by each request's
modelled device service time, so the latency recorded in metrics is
queueing + service in *simulated seconds* — deterministic aggregate
totals regardless of host thread scheduling.
"""

from __future__ import annotations

import itertools
import queue
import threading
from dataclasses import dataclass
from typing import Any

from repro.errors import ArchiverError, RequestTimeoutError, ServerBusyError
from repro.ids import ObjectId
from repro.obs.context import bind, current
from repro.obs.spans import SpanContext, SpanKind, SpanRecorder, SpanStatus
from repro.server.archiver import (
    READ_OPS,
    Archiver,
    CachingArchiver,
    StoredObjectRecord,
    serve_read,
)
from repro.server.metrics import ServerMetrics

_STOP = object()


@dataclass(frozen=True)
class ServerRequest:
    """One request admitted to the frontend."""

    request_id: int
    station: str
    op: str
    params: tuple
    arrival_s: float = 0.0
    #: Span context of the caller (e.g. a workstation ``open`` span);
    #: the worker parents this request's ``server`` span on it.
    ctx: SpanContext | None = None


class ServerFuture:
    """Completion handle for a submitted request."""

    def __init__(self, request: ServerRequest) -> None:
        self.request = request
        self._event = threading.Event()
        self._payload: Any = None
        self._service_s = 0.0
        self._error: BaseException | None = None

    def done(self) -> bool:
        """Whether the request has completed (successfully or not)."""
        return self._event.is_set()

    def result(self, timeout: float | None = 30.0) -> tuple[Any, float]:
        """Block until completion; returns ``(payload, service_time_s)``.

        ``payload`` is op-shaped: bytes for ``read_absolute``, a
        :class:`~repro.server.archiver.FetchResult` for ``fetch``, and
        for ``read_scattered`` the *list* of range payloads in request
        order with ``service_time_s`` covering the whole batch (a
        cache-warm batch reports 0.0, same as a single-range hit).

        Two clocks are in play and must not be confused.  ``timeout``
        is measured on the *host* (wall) clock: it bounds how long the
        calling thread sleeps waiting for a worker.  The returned
        ``service_time_s`` — and every latency in the metrics — is
        *simulated* time: the modelled device/queueing cost.  A request
        can cost many simulated seconds yet complete in microseconds of
        wall time, so a ``timeout`` expiry means a worker is genuinely
        stuck (or the pool was never started), never that the simulated
        workload was "slow".

        Raises the worker-side exception if the request failed, or
        :class:`~repro.errors.RequestTimeoutError` if the wall-clock
        budget runs out — typed so delivery retries can catch exactly
        the timeout case without swallowing other archiver failures.
        """
        if not self._event.wait(timeout):
            raise RequestTimeoutError(
                f"request {self.request.request_id} did not complete "
                f"within {timeout}s of wall-clock time (simulated-time "
                "latencies never trip this timeout)"
            )
        if self._error is not None:
            raise self._error
        return self._payload, self._service_s

    def _complete(self, payload: Any, service_s: float) -> None:
        self._payload = payload
        self._service_s = service_s
        self._event.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._event.set()


class ServerFrontend:
    """Bounded worker pool with admission control over one archiver.

    A started frontend is a :class:`~repro.core.manager.ObjectStore`: a
    workstation manager can sit directly on the worker pool, and each
    of its opens and view windows is one admitted request.

    Parameters
    ----------
    archiver:
        A :class:`CachingArchiver` (recommended — shared cache and
        single-flight) or a bare thread-safe :class:`Archiver`.
    workers:
        Number of worker threads draining the admission queue.
    queue_depth:
        Maximum number of requests waiting for a worker; submissions
        beyond this are rejected with :class:`ServerBusyError`.
    metrics:
        Instrumentation sink (a fresh one is created if omitted).
    """

    def __init__(
        self,
        archiver: Archiver | CachingArchiver,
        *,
        workers: int = 4,
        queue_depth: int = 32,
        metrics: ServerMetrics | None = None,
        obs: SpanRecorder | None = None,
    ) -> None:
        if workers <= 0:
            raise ArchiverError(f"worker pool must be positive: {workers}")
        if queue_depth <= 0:
            raise ArchiverError(f"queue depth must be positive: {queue_depth}")
        self._archiver = archiver
        self._workers_n = workers
        self._queue: queue.Queue = queue.Queue(maxsize=queue_depth)
        self.metrics = metrics if metrics is not None else ServerMetrics()
        self.obs = obs
        if obs is not None:
            # One timeline for the whole serving stack: spans emitted by
            # leaf sites without a clock of their own (codec decode,
            # single-flight markers) land on the frontend's simulated
            # clock.  The archiver picks the recorder up so those sites
            # can find it ambiently.
            if obs.clock is None:
                obs.clock = lambda: self.sim_time_s
            if hasattr(self._archiver, "obs"):
                self._archiver.obs = obs
        self._ids = itertools.count()
        self._threads: list[threading.Thread] = []
        self._sim_lock = threading.Lock()
        self._sim_time = 0.0
        self._started = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @property
    def archiver(self) -> Archiver | CachingArchiver:
        """The archiver requests execute against."""
        return self._archiver

    @property
    def sim_time_s(self) -> float:
        """Accumulated simulated device time across all served requests."""
        with self._sim_lock:
            return self._sim_time

    def start(self) -> "ServerFrontend":
        """Spawn the worker pool (idempotent)."""
        if self._started:
            return self
        self._started = True
        for index in range(self._workers_n):
            thread = threading.Thread(
                target=self._worker_loop, name=f"server-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        return self

    def stop(self) -> None:
        """Drain outstanding work and stop the workers (idempotent)."""
        if not self._started:
            return
        for _ in self._threads:
            self._queue.put(_STOP)
        for thread in self._threads:
            thread.join(timeout=30.0)
        self._threads.clear()
        self._started = False

    def __enter__(self) -> "ServerFrontend":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------

    def submit(
        self,
        op: str,
        *params,
        station: str = "ws-0",
        arrival_s: float = 0.0,
        ctx: SpanContext | None = None,
    ) -> ServerFuture:
        """Admit a request; returns a future.

        ``ctx`` parents this request's server span on the caller's
        span; when omitted, the ambient context (if any) is captured
        here — *before* the worker thread takes over — so causality
        survives the thread hop.

        Raises
        ------
        ServerBusyError
            If the admission queue is full.
        ArchiverError
            If the frontend is not started or the operation is unknown.
        """
        if not self._started:
            raise ArchiverError("frontend is not started")
        if op not in READ_OPS:
            raise ArchiverError(f"unknown server operation {op!r}")
        if ctx is None:
            ctx = current()
        request = ServerRequest(
            request_id=next(self._ids), station=station, op=op,
            params=params, arrival_s=arrival_s, ctx=ctx,
        )
        future = ServerFuture(request)
        depth = self._queue.qsize()
        try:
            self._queue.put_nowait(future)
        except queue.Full:
            self.metrics.on_reject()
            if self.obs is not None:
                now = self.sim_time_s
                self.obs.emit(
                    ctx, f"server:{op}", SpanKind.SERVER, now, now,
                    status=SpanStatus.ERROR,
                    baggage={"station": station},
                    request_id=request.request_id, error="ServerBusyError",
                    queue_depth=depth,
                )
            raise ServerBusyError(
                f"admission queue full ({depth} waiting); request "
                f"{request.request_id} ({op}) rejected"
            ) from None
        self.metrics.on_admit(depth)
        return future

    def fetch(self, object_id: ObjectId, *, station: str = "ws-0"):
        """Blocking convenience: fetch an object's stored form."""
        payload, _ = self.submit("fetch", object_id, station=station).result()
        return payload

    def fetch_object(
        self, object_id: ObjectId, *, station: str = "ws-0"
    ) -> tuple[Any, float]:
        """Blocking convenience: rebuild a whole object; returns
        ``(object, service_time_s)``."""
        return self.submit("fetch_object", object_id, station=station).result()

    def read_piece_range(
        self, object_id: ObjectId, tag: str, start: int, length: int,
        *, station: str = "ws-0",
    ) -> tuple[bytes, float]:
        """Blocking convenience: byte-range read within a data piece."""
        return self.submit(
            "read_piece_range", object_id, tag, start, length, station=station
        ).result()

    def read_pieces(
        self, object_id: ObjectId, tags: list[str], *, station: str = "ws-0"
    ) -> tuple[list[bytes], float]:
        """Blocking convenience: whole pieces of one object by tag, as
        one request (see :meth:`Archiver.read_pieces`)."""
        return self.submit(
            "read_pieces", object_id, tags, station=station
        ).result()

    def read_piece_rows(
        self, object_id: ObjectId, tag: str, ranges: list[tuple[int, int]],
        *, station: str = "ws-0",
    ) -> tuple[list[bytes], float]:
        """Blocking convenience: view window rows of one piece, as one
        request (see :meth:`Archiver.read_piece_rows`)."""
        return self.submit(
            "read_piece_rows", object_id, tag, ranges, station=station
        ).result()

    def record(self, object_id: ObjectId) -> StoredObjectRecord:
        """The storage record of an object, from the archiver's tables
        (no device read, so no request)."""
        return self._archiver.record(object_id)

    def version_of(self, object_id: ObjectId) -> int:
        """Version token of an object (see :meth:`Archiver.version_of`)."""
        return self._archiver.version_of(object_id)

    def recognition_for(self, object_id: ObjectId) -> dict:
        """Recognition side table (see :meth:`Archiver.recognition_for`)."""
        return self._archiver.recognition_for(object_id)

    def read_absolute(
        self, offset: int, length: int, *, station: str = "ws-0"
    ) -> tuple[bytes, float]:
        """Blocking convenience: archiver-absolute byte-range read."""
        return self.submit(
            "read_absolute", offset, length, station=station
        ).result()

    def read_scattered(
        self, ranges: list[tuple[int, int]], *, station: str = "ws-0"
    ) -> tuple[list[bytes], float]:
        """Blocking convenience: scatter-gather batch of absolute ranges.

        The batch occupies one admission slot regardless of how many
        ranges it carries; a rejection (:class:`ServerBusyError`) is
        raised before the archiver is touched, leaving cache and disk
        head state unchanged — safe to retry via
        :func:`repro.delivery.pipeline.fetch_with_retry`.
        """
        return self.submit(
            "read_scattered", ranges, station=station
        ).result()

    # ------------------------------------------------------------------
    # workers
    # ------------------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is _STOP:
                return
            future: ServerFuture = item
            request = future.request
            active = None
            if self.obs is not None:
                active = self.obs.start(
                    request.ctx,
                    f"server:{request.op}",
                    SpanKind.SERVER,
                    request.arrival_s,
                    baggage={"station": request.station},
                    request_id=request.request_id,
                    op=request.op,
                )
            try:
                if active is not None:
                    with bind(active.context):
                        payload, service = self._execute(request)
                else:
                    payload, service = self._execute(request)
            except Exception as exc:  # typed errors flow to the caller
                self.metrics.on_error(exc)
                if active is not None:
                    active.finish(
                        self.sim_time_s,
                        status=SpanStatus.ERROR,
                        error=type(exc).__name__,
                    )
                future._fail(exc)
                continue
            with self._sim_lock:
                self._sim_time += service
                now = self._sim_time
            # Latency in simulated terms: queueing is the time the
            # device spent on *other* requests between this request's
            # arrival and its completion, bounded below by its own
            # service time.
            latency = max(now - request.arrival_s, service)
            cache_hit = service == 0.0
            self.metrics.on_complete(latency, service, cache_hit=cache_hit)
            if active is not None:
                start = now - latency
                if latency > service:
                    self.obs.emit(
                        active.context, "queue", SpanKind.QUEUE,
                        start, now - service,
                    )
                if cache_hit:
                    self.obs.emit(
                        active.context, "cache", SpanKind.CACHE, now, now,
                        hit=True,
                    )
                else:
                    self.obs.emit(
                        active.context, "device", SpanKind.DEVICE,
                        now - service, now,
                    )
                active.finish(
                    now, start_s=start,
                    latency_s=round(latency, 9),
                    service_s=round(service, 9),
                    cache_hit=cache_hit,
                )
            future._complete(payload, service)

    def _execute(self, request: ServerRequest) -> tuple[Any, float]:
        return serve_read(self._archiver, request.op, *request.params)
