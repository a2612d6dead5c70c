"""Tour execution.

"A tour is a sequence of views defined on an image by the multimedia
object designer.  The sequence is played automatically...  A logical
message (visual or audio) may be associated with each position of the
tour.  The user may interrupt the tour and move the window all round."
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import BrowsingError
from repro.images.geometry import Rect
from repro.images.view import View
from repro.objects.messages import VoiceMessage
from repro.objects.presentation import Tour
from repro.trace import EventKind

if TYPE_CHECKING:  # pragma: no cover - cycle guard
    from repro.core.visual import VisualSession


class TourController:
    """Drives one tour, automatically or stop by stop."""

    def __init__(self, session: "VisualSession", tour: Tour) -> None:
        self._session = session
        self._tour = tour
        self._next_stop = 0
        self._interrupted = False
        image = session.object.image(tour.image_id)
        data_source = None
        if session._manager is not None:
            data_source = session._manager.view_data_source(session.object, image)
        first = tour.stops[0]
        rect = Rect(
            first.x, first.y, tour.window_width, tour.window_height
        ).clamped_within(View._source_rect(image))
        self._view = View(image, rect, data_source=data_source)

    @property
    def view(self) -> View:
        """The tour's moving window."""
        return self._view

    def step(self) -> bool:
        """Visit the next stop; returns False when the tour is over.

        Raises
        ------
        BrowsingError
            If the tour was interrupted.
        """
        if self._interrupted:
            raise BrowsingError("tour was interrupted; start it again to resume")
        if self._next_stop >= len(self._tour.stops):
            return False
        stop = self._tour.stops[self._next_stop]
        self._next_stop += 1
        workstation = self._session.workstation
        result = self._view.jump(stop.x, stop.y)
        workstation.trace.record(
            workstation.clock.now,
            EventKind.TOUR_STOP,
            stop=self._next_stop - 1,
            rect=f"{result.rect.x},{result.rect.y}",
            bytes=result.bitmap.nbytes,
        )
        if stop.message_id is not None:
            message = self._session.object.message(stop.message_id)
            if isinstance(message, VoiceMessage):
                workstation.audio.play_message(
                    message.recording, str(message.message_id)
                )
            else:
                workstation.screen.pin(
                    str(message.message_id), text=message.content.text
                )
        workstation.clock.advance(self._tour.dwell_s)
        return True

    def run_all(self) -> int:
        """Play the remaining stops automatically; returns stops visited."""
        visited = 0
        while self.step():
            visited += 1
        return visited

    def interrupt(self) -> View:
        """Stop the tour; the window remains available for free movement."""
        self._interrupted = True
        return self._view
