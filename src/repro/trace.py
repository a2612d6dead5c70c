"""Observable event trace of a presentation session.

The paper's presentation manager has no API-level output other than
what appears on the screen and what comes out of the speaker.  The
:class:`Trace` is our stand-in for that observable surface: every
display, playback, navigation and menu action is recorded as a
:class:`TraceEvent` stamped with simulated time.  Tests assert on the
trace ("the x-ray stayed on screen while the related voice played");
benchmarks derive timing series from it.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass
from typing import Any, Callable, Iterator


class EventKind(enum.Enum):
    """Classification of observable workstation events."""

    DISPLAY_PAGE = "display_page"
    CLEAR_SCREEN = "clear_screen"
    PIN_MESSAGE = "pin_message"
    UNPIN_MESSAGE = "unpin_message"
    SUPERIMPOSE = "superimpose"
    OVERWRITE = "overwrite"
    PLAY_VOICE = "play_voice"
    DECODE_VOICE = "decode_voice"
    INTERRUPT_VOICE = "interrupt_voice"
    RESUME_VOICE = "resume_voice"
    SEEK_VOICE = "seek_voice"
    PLAY_MESSAGE = "play_message"
    PLAY_LABEL = "play_label"
    DISPLAY_LABEL = "display_label"
    HIGHLIGHT = "highlight"
    MENU_SHOWN = "menu_shown"
    COMMAND = "command"
    ENTER_RELEVANT = "enter_relevant"
    RETURN_RELEVANT = "return_relevant"
    SHOW_INDICATOR = "show_indicator"
    VIEW_MOVED = "view_moved"
    VIEW_RESIZED = "view_resized"
    TOUR_STOP = "tour_stop"
    SIM_PAGE = "sim_page"
    MINIATURE_SHOWN = "miniature_shown"
    SEARCH_HIT = "search_hit"
    TRANSFER = "transfer"


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One observable event.

    Attributes
    ----------
    time:
        Simulated time at which the event occurred.
    kind:
        Event classification.
    detail:
        Event-specific payload (page numbers, segment ids, byte counts
        and so on).  Values are plain data so traces print cleanly.
    """

    time: float
    kind: EventKind
    detail: dict[str, Any]

    def __str__(self) -> str:
        payload = ", ".join(f"{k}={v}" for k, v in sorted(self.detail.items()))
        return f"[{self.time:9.3f}] {self.kind.value}: {payload}"


class Trace:
    """Append-only log of :class:`TraceEvent` records.

    ``record`` is thread-safe, and readers (``of_kind``, ``last``,
    iteration) always see a coherent snapshot while other threads
    append.
    """

    def __init__(self) -> None:
        self._events: list[TraceEvent] = []
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._snapshot())

    def __getitem__(self, index: int) -> TraceEvent:
        with self._lock:
            return self._events[index]

    def _snapshot(self) -> list[TraceEvent]:
        with self._lock:
            return list(self._events)

    def record(self, time: float, kind: EventKind, **detail: Any) -> TraceEvent:
        """Append an event and return it."""
        event = TraceEvent(time=time, kind=kind, detail=detail)
        with self._lock:
            self._events.append(event)
        return event

    def of_kind(self, *kinds: EventKind) -> list[TraceEvent]:
        """Return all events whose kind is one of ``kinds``, in order."""
        wanted = set(kinds)
        return [e for e in self._snapshot() if e.kind in wanted]

    def last(self, kind: EventKind | None = None) -> TraceEvent | None:
        """Return the most recent event, optionally of a given kind."""
        events = self._snapshot()
        if kind is None:
            return events[-1] if events else None
        for event in reversed(events):
            if event.kind is kind:
                return event
        return None

    def where(self, predicate: Callable[[TraceEvent], bool]) -> list[TraceEvent]:
        """Return all events satisfying ``predicate``, in order."""
        return [e for e in self._snapshot() if predicate(e)]

    def since(self, time: float) -> list[TraceEvent]:
        """Return all events at or after simulated ``time``."""
        return [e for e in self._snapshot() if e.time >= time]

    def clear(self) -> None:
        """Drop all recorded events."""
        with self._lock:
            self._events.clear()

    def dump(self) -> str:
        """Render the whole trace as one string, one event per line."""
        return "\n".join(str(e) for e in self._snapshot())
