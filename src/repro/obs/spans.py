"""Span model: contexts, kinds, statuses, and the thread-safe recorder.

A *span* is a named, typed interval attributed to one layer of the
stack.  Spans form trees: each span carries a :class:`SpanContext`
whose ``parent_id`` points at the span that caused it, and every span
in one user-visible request shares a ``trace_id``.  Ids are small
sequential integers handed out by the :class:`SpanRecorder`, so runs
with a seeded workload produce byte-identical traces.

Two clocks flow through here, mirroring the repo-wide two-clock
contract (docs/SERVER.md): span times are *simulated* seconds wherever
the caller has a simulated clock (DES replays, device models) and
wall-clock seconds only where the caller itself runs on wall clock.
The recorder never reads a clock behind the caller's back — every
``start_s``/``end_s`` is passed in explicitly, with :meth:`SpanRecorder.now`
as an escape hatch for leaf sites that have no clock of their own.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping


class SpanKind(enum.Enum):
    """Which layer of the stack a span's time belongs to."""

    REQUEST = "request"  # user-visible workstation request (tree root)
    SERVER = "server"  # frontend admission + worker service
    QUEUE = "queue"  # waiting for a worker / admission slot
    CACHE = "cache"  # staging-cache hit or single-flight piggyback
    DEVICE = "device"  # optical / magnetic device occupancy
    NETWORK = "network"  # link transfer time
    CLUSTER = "cluster"  # router read / quorum write / replica attempt
    MIGRATE = "migrate"  # rebalancer migration step
    DELIVERY = "delivery"  # chunk scheduling, streams, prefetch
    INDEX = "index"  # index query + per-shard fan-out
    COMPRESS = "compress"  # media codec encode / decode


class SpanStatus(enum.Enum):
    """How a span's work ended."""

    OK = "ok"
    ERROR = "error"
    RETRIED = "retried"  # failed here, but the request failed over
    HEDGED_LOSER = "hedged_loser"  # finished after the hedge winner
    CANCELLED = "cancelled"  # abandoned (e.g. wasted prefetch)


@dataclass(frozen=True, slots=True)
class SpanContext:
    """Immutable causal token propagated across layer boundaries."""

    trace_id: int
    span_id: int
    parent_id: int | None = None
    #: Sorted (key, value) pairs riding along the whole trace, e.g.
    #: ``(("object", "42"), ("station", "ws-3"))``.
    baggage: tuple[tuple[str, str], ...] = ()

    def item(self, key: str, default: str | None = None) -> str | None:
        for name, value in self.baggage:
            if name == key:
                return value
        return default


@dataclass(frozen=True, slots=True)
class Span:
    """One finished interval in a span tree."""

    context: SpanContext
    name: str
    kind: SpanKind
    start_s: float
    end_s: float
    status: SpanStatus = SpanStatus.OK
    attrs: Mapping[str, object] = field(default_factory=dict)
    #: Span ids this span is causally linked to without being parented
    #: on them — e.g. a single-flight joiner links to the flight leader.
    links: tuple[int, ...] = ()

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    @property
    def span_id(self) -> int:
        return self.context.span_id

    @property
    def trace_id(self) -> int:
        return self.context.trace_id

    @property
    def parent_id(self) -> int | None:
        return self.context.parent_id


class ActiveSpan:
    """An open span: a context plus the recorder that will finish it."""

    __slots__ = ("context", "name", "kind", "start_s", "_attrs", "_recorder")

    def __init__(self, recorder, context, name, kind, start_s, attrs):
        self._recorder = recorder
        self.context = context
        self.name = name
        self.kind = kind
        self.start_s = start_s
        self._attrs = attrs

    def annotate(self, **attrs: object) -> None:
        self._attrs.update(attrs)

    def finish(
        self,
        end_s: float,
        *,
        status: SpanStatus = SpanStatus.OK,
        start_s: float | None = None,
        links: tuple[int, ...] = (),
        **attrs: object,
    ) -> Span:
        """Record the finished span; ``start_s`` may correct the start."""
        if start_s is not None:
            self.start_s = start_s
        self._attrs.update(attrs)
        span = Span(
            context=self.context,
            name=self.name,
            kind=self.kind,
            start_s=self.start_s,
            end_s=end_s,
            status=status,
            attrs=dict(self._attrs),
            links=links,
        )
        self._recorder._record(span)
        return span


class SpanRecorder:
    """Thread-safe collector of spans with deterministic ids.

    One recorder spans (sic) all layers of one scenario: the
    workstation manager, frontend workers, cluster nodes, DES replays.
    Components hold an optional reference and skip all work when it is
    ``None`` — that is the zero-overhead "tracing disabled" mode the
    C-TRACE benchmark measures against.

    ``clock`` supplies :meth:`now` for leaf emit sites that have no
    clock parameter of their own (e.g. codec decode inside the
    archiver).  Layers that own a simulated clock wire it in so all
    spans of a scenario share one timeline.
    """

    def __init__(self, clock: Callable[[], float] | None = None) -> None:
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        self._next_trace = 1
        self._next_span = 1
        self._listeners: list[Callable[[Span], None]] = []
        self.clock = clock

    def now(self) -> float:
        return self.clock() if self.clock is not None else 0.0

    def add_listener(self, listener: Callable[[Span], None]) -> None:
        """Call ``listener(span)`` for every finished span (streaming)."""
        with self._lock:
            self._listeners.append(listener)

    def start(
        self,
        parent: SpanContext | None,
        name: str,
        kind: SpanKind,
        start_s: float,
        *,
        baggage: Mapping[str, str] | None = None,
        **attrs: object,
    ) -> ActiveSpan:
        """Open a span under ``parent`` (``None`` starts a new trace)."""
        context = self._open_context(parent, baggage)
        return ActiveSpan(self, context, name, kind, start_s, attrs)

    def emit(
        self,
        parent: SpanContext | None,
        name: str,
        kind: SpanKind,
        start_s: float,
        end_s: float,
        *,
        status: SpanStatus = SpanStatus.OK,
        links: tuple[int, ...] = (),
        baggage: Mapping[str, str] | None = None,
        **attrs: object,
    ) -> Span:
        """One-shot ``start`` + ``finish`` for already-measured work.

        The hot path for already-timed leaves (device reads, decode
        markers): one lock round-trip, no :class:`ActiveSpan`, and
        ``attrs`` recorded as-is (``**attrs`` is a fresh dict).
        """
        with self._lock:
            context = self._open_context_locked(parent, baggage)
            span = Span(
                context=context,
                name=name,
                kind=kind,
                start_s=start_s,
                end_s=end_s,
                status=status,
                attrs=attrs,
                links=links,
            )
            self._spans.append(span)
            listeners = tuple(self._listeners)
        for listener in listeners:
            listener(span)
        return span

    def _open_context(
        self,
        parent: SpanContext | None,
        baggage: Mapping[str, str] | None,
    ) -> SpanContext:
        with self._lock:
            return self._open_context_locked(parent, baggage)

    def _open_context_locked(
        self,
        parent: SpanContext | None,
        baggage: Mapping[str, str] | None,
    ) -> SpanContext:
        span_id = self._next_span
        self._next_span += 1
        if parent is None:
            trace_id = self._next_trace
            self._next_trace += 1
            bag = tuple(sorted((baggage or {}).items()))
            return SpanContext(trace_id, span_id, None, bag)
        bag = parent.baggage
        if baggage:
            merged = dict(parent.baggage)
            merged.update(baggage)
            bag = tuple(sorted(merged.items()))
        return SpanContext(parent.trace_id, span_id, parent.span_id, bag)

    def _record(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)
            listeners = tuple(self._listeners)
        for listener in listeners:
            listener(span)

    def spans(self) -> list[Span]:
        with self._lock:
            return list(self._spans)

    def traces(self) -> dict[int, list[Span]]:
        """Spans grouped by trace id, in recording order."""
        grouped: dict[int, list[Span]] = {}
        for span in self.spans():
            grouped.setdefault(span.trace_id, []).append(span)
        return grouped

    def trace_ids(self) -> list[int]:
        return sorted(self.traces())

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self.spans())
