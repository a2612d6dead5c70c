"""Host-clock spans recorded around layer entry points.

The benchmark traces the program from the outside: a :class:`Tracer`
replaces each entry point named in a patch table with a wrapper that
records one :class:`HostSpan` (name, start, end, parent) on the host
clock and otherwise behaves exactly like the original -- same
arguments, same return value, same exceptions.  Each thread keeps its
own stack of open spans, so spans opened on frontend worker threads
nest under the worker's own spans, never under the load generator's.

Spans stay in memory while the run lasts; :func:`write_spans` writes
them out once it ends.  A span's *self time* is its duration minus the
union of its children's intervals (:func:`self_times`).
"""

from __future__ import annotations

import functools
import gc
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

_clock = time.perf_counter


@dataclass(frozen=True, slots=True)
class HostSpan:
    """One finished call of a wrapped entry point, on the host clock."""

    span_id: int
    parent_id: int | None
    name: str
    thread: int
    start: float
    end: float
    #: Bytes the call returned, for entry points wrapped with a sizer.
    nbytes: int = 0
    #: Correlation key, for entry points wrapped with a keyer.
    key: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Patch:
    """One entry point to wrap: ``owner.attr`` becomes span ``name``.

    ``owner`` is a class (the attribute is looked up on instances) or a
    module (the attribute is a global the importing module calls by
    name).  ``sizer(result)`` and ``keyer(args, result)`` optionally
    derive a span's byte count and correlation key.
    """

    owner: object
    attr: str
    name: str
    sizer: Callable | None = None
    keyer: Callable | None = None


class Tracer:
    """Installs span-recording wrappers and collects their spans."""

    def __init__(self) -> None:
        self.spans: list[HostSpan] = []
        #: ``(start, end)`` of every collector pause while installed.
        self.gc_pauses: list[tuple[float, float]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []
        self._gc_started = 0.0

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, sizer=None, keyer=None):
        """A behaviour-preserving wrapper of ``fn`` that records spans."""
        spans = self.spans
        ids = self._ids
        stack_of = self._stack
        ident = threading.get_ident

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else None
            span_id = next(ids)
            stack.append(span_id)
            start = _clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = _clock()
                stack.pop()
                spans.append(
                    HostSpan(
                        span_id, parent, name, ident(), start, end,
                        sizer(result) if sizer and result is not None else 0,
                        keyer(args, result) if keyer else None,
                    )
                )

        return wrapper

    def install(self, patches: Iterable[Patch]) -> None:
        """Wrap every patch target; :meth:`uninstall` restores them."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for patch in patches:
            raw = vars(patch.owner)[patch.attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(
                    self.wrap(raw.__func__, patch.name, patch.sizer, patch.keyer)
                )
            else:
                wrapped = self.wrap(raw, patch.name, patch.sizer, patch.keyer)
            self._saved.append((patch.owner, patch.attr, raw))
            setattr(patch.owner, patch.attr, wrapped)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        """Put every original entry point back (idempotent)."""
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = _clock()
        else:
            self.gc_pauses.append((self._gc_started, _clock()))


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[HostSpan]) -> dict[int, float]:
    """Self time of every span: duration minus the union of its children.

    Children are clipped to their parent's interval first, so a child
    that outlives its parent (possible across threads) is charged only
    for the part the parent spans.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent_id is not None:
            children[span.parent_id].append((span.start, span.end))
    result = {}
    for span in spans:
        clipped = [
            (max(start, span.start), min(end, span.end))
            for start, end in children.get(span.span_id, ())
        ]
        result[span.span_id] = span.duration - union_length(clipped)
    return result


@dataclass
class NameStats:
    """Aggregate of every span sharing one name."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    nbytes: int = 0


def by_name(spans: Sequence[HostSpan]) -> dict[str, NameStats]:
    """Calls, total time, self time and bytes per span name."""
    selfs = self_times(spans)
    stats: dict[str, NameStats] = defaultdict(NameStats)
    for span in spans:
        entry = stats[span.name]
        entry.calls += 1
        entry.total_s += span.duration
        entry.self_s += selfs[span.span_id]
        entry.nbytes += span.nbytes
    return dict(stats)


def attributed_fraction(
    spans: Sequence[HostSpan], windows: Sequence[tuple[float, float]]
) -> float:
    """Share of the windows' wall time covered by at least one root span."""
    wall = sum(end - start for start, end in windows)
    if wall <= 0:
        return 0.0
    covered = 0.0
    roots = [(s.start, s.end) for s in spans if s.parent_id is None]
    for start, end in windows:
        covered += union_length(
            (max(a, start), min(b, end)) for a, b in roots if b > start and a < end
        )
    return covered / wall


def write_spans(path, spans: Sequence[HostSpan]) -> None:
    """Write spans as JSON lines: id, parent, name, thread, start, end."""
    path.parent.mkdir(parents=True, exist_ok=True)
    threads = {}
    with open(path, "w", encoding="utf-8") as out:
        for span in spans:
            thread = threads.setdefault(span.thread, len(threads))
            out.write(
                json.dumps(
                    [span.span_id, span.parent_id, span.name, thread,
                     round(span.start, 9), round(span.end, 9)]
                )
                + "\n"
            )
