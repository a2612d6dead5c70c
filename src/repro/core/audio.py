"""The audio-mode browsing session.

The symmetric counterpart of :class:`~repro.core.visual.VisualSession`:
audio pages instead of visual pages, pause-based rewind instead of
re-reading, recognized-utterance search instead of text search, and
visual logical messages pinned to the screen while the related voice
plays.

Playback runs against the simulated clock: :meth:`AudioSession.play`
starts output, the caller advances time (or uses
:meth:`AudioSession.play_for`), and :meth:`AudioSession.interrupt`
settles the position — exactly the interactive pattern of a user
listening and pressing menu buttons.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import TYPE_CHECKING

from repro.audio.pages import AudioPage, AudioPager
from repro.audio.pauses import PauseKind
from repro.core.browsing import BrowseCommand
from repro.core.messages import MessageEngine, VoicePosition
from repro.errors import BrowsingError, NavigationError, UnknownCommandError
from repro.objects.logical import LogicalUnitKind
from repro.objects.model import DrivingMode, MultimediaObject
from repro.objects.parts import VoiceSegment
from repro.text.search import TextSearchIndex
from repro.trace import EventKind
from repro.workstation.menus import Menu, MenuOption
from repro.workstation.station import Workstation

if TYPE_CHECKING:  # pragma: no cover - cycle guard
    from repro.core.manager import PresentationManager

_UNIT_COMMANDS: dict[BrowseCommand, tuple[LogicalUnitKind, int]] = {
    BrowseCommand.NEXT_CHAPTER: (LogicalUnitKind.CHAPTER, +1),
    BrowseCommand.PREVIOUS_CHAPTER: (LogicalUnitKind.CHAPTER, -1),
    BrowseCommand.NEXT_SECTION: (LogicalUnitKind.SECTION, +1),
    BrowseCommand.PREVIOUS_SECTION: (LogicalUnitKind.SECTION, -1),
    BrowseCommand.NEXT_PARAGRAPH: (LogicalUnitKind.PARAGRAPH, +1),
    BrowseCommand.PREVIOUS_PARAGRAPH: (LogicalUnitKind.PARAGRAPH, -1),
}

#: Every other menu command and the name of the session method it runs.
_HANDLERS: dict[BrowseCommand, str] = {
    BrowseCommand.INTERRUPT: "interrupt",
    BrowseCommand.RESUME: "resume",
    BrowseCommand.RESUME_PAGE_START: "resume_page_start",
    BrowseCommand.REWIND_SHORT_PAUSES: "rewind_short_pauses",
    BrowseCommand.REWIND_LONG_PAUSES: "rewind_long_pauses",
    BrowseCommand.NEXT_PAGE: "next_page",
    BrowseCommand.PREVIOUS_PAGE: "previous_page",
    BrowseCommand.ADVANCE_PAGES: "advance_pages",
    BrowseCommand.GOTO_PAGE: "goto_page",
    BrowseCommand.FIND_PATTERN: "find_pattern",
    BrowseCommand.SELECT_RELEVANT: "_select_relevant",
    BrowseCommand.RETURN_FROM_RELEVANT: "_return_from_relevant",
    BrowseCommand.NEXT_RELEVANT_VOICE: "next_relevant_voice",
}


class AudioSession:
    """Interactive browsing of one audio mode object."""

    def __init__(
        self,
        obj: MultimediaObject,
        workstation: Workstation,
        manager: "PresentationManager | None" = None,
    ) -> None:
        if obj.driving_mode is not DrivingMode.AUDIO:
            raise BrowsingError(
                f"object {obj.object_id} is visually driven; open a VisualSession"
            )
        self._obj = obj
        self._ws = workstation
        self._manager = manager
        #: Simulated cost (disk service + network) of fetching this
        #: object; set by the presentation manager on session creation.
        self.open_cost_s = 0.0
        self._messages = MessageEngine(obj)

        order = obj.presentation.audio_order or [
            s.segment_id for s in obj.voice_segments
        ]
        self._segments: list[VoiceSegment] = [
            obj.voice_segment(segment_id) for segment_id in order
        ]
        if not self._segments:
            raise BrowsingError(f"object {obj.object_id} has no voice part")
        self._offsets: list[float] = []
        cursor = 0.0
        for segment in self._segments:
            self._offsets.append(cursor)
            cursor += segment.duration
        self._total = cursor

        self._pager = _GlobalPager(
            self._total, obj.presentation.audio_page_seconds
        )
        self._position = 0.0  # global seconds
        self._playing_since: float | None = None  # clock time play began
        self._playing_from: float = 0.0
        self._search_indexes: dict = {}
        self._last_find: tuple[str, float] | None = None
        self.relevant_voice_queue: list = []
        self._pinned_visual: str | None = None

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def object(self) -> MultimediaObject:
        """The object being presented."""
        return self._obj

    @property
    def workstation(self) -> Workstation:
        """The workstation this session presents onto."""
        return self._ws

    @property
    def duration(self) -> float:
        """Total length of the object voice part, in seconds."""
        return self._total

    @property
    def is_playing(self) -> bool:
        """Whether voice output is running."""
        return self._playing_since is not None

    @property
    def position(self) -> float:
        """Current position in the voice part, in global seconds."""
        if self._playing_since is not None:
            elapsed = self._ws.clock.now - self._playing_since
            return min(self._playing_from + elapsed, self._total)
        return self._position

    @property
    def page_count(self) -> int:
        """Number of audio pages."""
        return len(self._pager)

    @property
    def current_page(self) -> AudioPage:
        """The audio page containing the current position."""
        return self._pager.page_at(self.position)

    @property
    def current_page_number(self) -> int:
        """Number of the current audio page."""
        return self.current_page.number

    def locate(self, global_time: float) -> tuple[VoiceSegment, float]:
        """Map a global position to ``(segment, local_time)``."""
        index = max(bisect_right(self._offsets, global_time) - 1, 0)
        segment = self._segments[index]
        local = min(global_time - self._offsets[index], segment.duration)
        return segment, local

    # ------------------------------------------------------------------
    # menu
    # ------------------------------------------------------------------

    @property
    def menu(self) -> Menu:
        """The operations available right now."""
        options: list[MenuOption] = []

        def add(command: BrowseCommand, label: str) -> None:
            options.append(MenuOption(command=command.value, label=label))

        if self.is_playing:
            add(BrowseCommand.INTERRUPT, "interrupt voice output")
        else:
            add(BrowseCommand.RESUME, "resume voice output")
            add(BrowseCommand.RESUME_PAGE_START, "resume from page start")
            add(BrowseCommand.REWIND_SHORT_PAUSES, "replay from short pauses back")
            add(BrowseCommand.REWIND_LONG_PAUSES, "replay from long pauses back")
            if self.page_count > 1:
                add(BrowseCommand.NEXT_PAGE, "next voice page")
                add(BrowseCommand.PREVIOUS_PAGE, "previous voice page")
                add(BrowseCommand.ADVANCE_PAGES, "advance n voice pages")
                add(BrowseCommand.GOTO_PAGE, "go to voice page")
            kinds = set()
            for segment in self._segments:
                kinds |= segment.logical_index.kinds_present()
            for command, (kind, _direction) in _UNIT_COMMANDS.items():
                if kind in kinds:
                    add(command, command.value.replace("_", " "))
            if any(segment.utterances for segment in self._segments):
                add(BrowseCommand.FIND_PATTERN, "find spoken pattern")
            if self._visible_indicator_dicts():
                add(BrowseCommand.SELECT_RELEVANT, "relevant object")
            if self._manager is not None and self._manager.in_relevant(self):
                add(BrowseCommand.RETURN_FROM_RELEVANT, "return from relevant object")
            if self.relevant_voice_queue:
                add(BrowseCommand.NEXT_RELEVANT_VOICE, "next related voice segment")
        return Menu(options)

    def execute(self, command: BrowseCommand, **kwargs):
        """Execute a menu command.

        Raises
        ------
        UnknownCommandError
            If the command is not on the current menu.
        """
        if command.value not in self.menu:
            raise UnknownCommandError(
                f"command {command.value!r} is not on the audio menu "
                f"(playing={self.is_playing})"
            )
        name = _HANDLERS.get(command)
        unit = _UNIT_COMMANDS.get(command)
        if name is None and unit is None:  # pragma: no cover - exhaustive
            raise UnknownCommandError(f"no handler for {command.value!r}")
        self._ws.trace.record(
            self._ws.clock.now, EventKind.COMMAND, command=command.value
        )
        if unit is not None:
            return self.goto_unit(*unit)
        return getattr(self, name)(**kwargs)

    # ------------------------------------------------------------------
    # playback
    # ------------------------------------------------------------------

    def open(self) -> None:
        """Present the object: branch to the beginning and start playing."""
        self._branch_to(0.0, play=True)

    def play(self) -> None:
        """Start voice output from the current position.

        Raises
        ------
        BrowsingError
            If already playing.
        """
        if self.is_playing:
            raise BrowsingError("already playing")
        self._start_output(self._position)

    def play_for(self, seconds: float) -> float:
        """Let playback run for ``seconds`` of simulated time.

        Starts output if necessary, advances the clock, fires any voice
        messages whose anchors are entered during the interval, and
        updates the pinned visual message.  Returns the new position.
        """
        if not self.is_playing:
            self.play()
        start = self.position
        span = min(seconds, self._total - start)
        self._ws.clock.advance(max(span, 0.0))
        end = self.position
        self._process_interval(start, end)
        if end >= self._total:
            self._settle(end)
        return end

    def play_to_end(self) -> float:
        """Play the remaining voice part to completion."""
        return self.play_for(self._total - self.position + 1e-9)

    def interrupt(self) -> float:
        """Interrupt voice output; returns the settled position."""
        if not self.is_playing:
            raise BrowsingError("not playing")
        position = self.position
        self._process_interval(self._playing_from, position)
        self._settle(position)
        self._ws.trace.record(
            self._ws.clock.now,
            EventKind.INTERRUPT_VOICE,
            label="voice_part",
            at_s=round(position, 3),
        )
        return position

    def resume(self) -> None:
        """Resume voice output from the current position."""
        if self.is_playing:
            raise BrowsingError("already playing")
        self._ws.trace.record(
            self._ws.clock.now,
            EventKind.RESUME_VOICE,
            label="voice_part",
            from_s=round(self._position, 3),
        )
        self._start_output(self._position)

    def resume_page_start(self) -> float:
        """Resume from the beginning of the current voice page."""
        page = self.current_page
        self._branch_to(page.start, play=True)
        return page.start

    def _start_output(self, from_position: float) -> None:
        # Voice output needs real samples: a lazily-shipped segment
        # decodes at its first playback, firing DECODE_VOICE via the
        # recording's on_decode hook.
        segment, _local = self.locate(from_position)
        segment.recording.materialize()
        self._playing_from = from_position
        self._playing_since = self._ws.clock.now
        self._ws.trace.record(
            self._ws.clock.now,
            EventKind.PLAY_VOICE,
            label="voice_part",
            from_s=round(from_position, 3),
        )
        self._update_visual_message(from_position)

    def _settle(self, position: float) -> None:
        self._position = position
        self._playing_since = None

    # ------------------------------------------------------------------
    # pause-based rewind
    # ------------------------------------------------------------------

    def rewind_short_pauses(self, count: int = 1) -> float:
        """Replay from ``count`` short pauses back from the current position."""
        return self._rewind(PauseKind.SHORT, count)

    def rewind_long_pauses(self, count: int = 1) -> float:
        """Replay from ``count`` long pauses back from the current position."""
        return self._rewind(PauseKind.LONG, count)

    def _rewind(self, kind: PauseKind, count: int) -> float:
        if self.is_playing:
            raise BrowsingError("interrupt before rewinding")
        segment, local = self.locate(self._position)
        target_local = segment.pause_index.rewind_position(local, kind, count)
        target = self._offsets[self._segments.index(segment)] + target_local
        self._branch_to(target, play=True)
        return target

    # ------------------------------------------------------------------
    # audio page browsing
    # ------------------------------------------------------------------

    def next_page(self) -> int:
        """Seek to the start of the next voice page and play."""
        number = min(self.current_page_number + 1, self.page_count)
        return self.goto_page(number)

    def previous_page(self) -> int:
        """Seek to the start of the previous voice page and play."""
        number = max(self.current_page_number - 1, 1)
        return self.goto_page(number)

    def advance_pages(self, count: int = 1) -> int:
        """Advance ``count`` voice pages forth (or back)."""
        number = min(max(self.current_page_number + count, 1), self.page_count)
        return self.goto_page(number)

    def goto_page(self, number: int) -> int:
        """Seek to voice page ``number`` and play.

        Raises
        ------
        NavigationError
            If the number is out of range.
        """
        if not 1 <= number <= self.page_count:
            raise NavigationError(
                f"voice page {number} out of range 1..{self.page_count}"
            )
        page = self._pager.page(number)
        self._branch_to(page.start, play=True)
        return number

    # ------------------------------------------------------------------
    # logical-unit browsing
    # ------------------------------------------------------------------

    def goto_unit(self, kind: LogicalUnitKind, direction: int) -> float:
        """Seek to the next/previous start of a logical unit and play.

        Raises
        ------
        NavigationError
            If no such unit exists in that direction.
        """
        position = self._position
        segment, local = self.locate(position)
        segment_index = self._segments.index(segment)
        order = (
            range(segment_index, len(self._segments))
            if direction > 0
            else range(segment_index, -1, -1)
        )
        for index in order:
            candidate = self._segments[index]
            reference = (
                local
                if index == segment_index
                else (-1.0 if direction > 0 else float("inf"))
            )
            unit = (
                candidate.logical_index.next_start(kind, reference)
                if direction > 0
                else candidate.logical_index.previous_start(kind, reference)
            )
            if unit is not None:
                target = self._offsets[index] + unit.start
                self._branch_to(target, play=True)
                return target
        raise NavigationError(
            f"no {'next' if direction > 0 else 'previous'} {kind.value}"
        )

    # ------------------------------------------------------------------
    # pattern search over recognized voice
    # ------------------------------------------------------------------

    def _index_for(self, segment: VoiceSegment) -> TextSearchIndex:
        key = segment.segment_id
        if key not in self._search_indexes:
            self._search_indexes[key] = TextSearchIndex.from_utterances(
                segment.utterances
            )
        return self._search_indexes[key]

    def find_pattern(self, pattern: str = "") -> int | None:
        """Seek to the next voice page with an occurrence of ``pattern``.

        The occurrence comes from the recognized utterances produced at
        insertion time — "voice recognition is not taking place at the
        time of browsing".  Returns the page number, or None.
        """
        if not pattern:
            raise BrowsingError("find_pattern needs a pattern")
        if self._last_find is not None and self._last_find[0] == pattern:
            after = self._last_find[1]
        else:
            after = self.position
        segment, local = self.locate(after)
        start_index = self._segments.index(segment)
        for index in range(start_index, len(self._segments)):
            candidate = self._segments[index]
            threshold = (after - self._offsets[index]) if index == start_index else -1.0
            hit = self._index_for(candidate).next_occurrence(pattern, threshold)
            if hit is not None:
                target = self._offsets[index] + hit
                self._last_find = (pattern, target)
                page = self._pager.page_at(target)
                self._ws.trace.record(
                    self._ws.clock.now,
                    EventKind.SEARCH_HIT,
                    pattern=pattern,
                    at_s=round(target, 3),
                    page=page.number,
                )
                self._branch_to(page.start, play=True)
                return page.number
        self._last_find = None
        return None

    # ------------------------------------------------------------------
    # branching and messages
    # ------------------------------------------------------------------

    def _branch_to(self, target: float, play: bool) -> None:
        """Seek to a position, firing branch-triggered messages.

        Voice logical messages anchored at the target fire *before* the
        related voice resumes ("the logical voice message is played
        before the voice of the related segment").
        """
        if self.is_playing:
            position = self.position
            self._process_interval(self._playing_from, position)
            self._settle(position)
        previous = self._voice_position(self._position)
        self._position = min(max(target, 0.0), self._total)
        current = self._voice_position(self._position)
        self._ws.trace.record(
            self._ws.clock.now,
            EventKind.SEEK_VOICE,
            label="voice_part",
            to_s=round(self._position, 3),
        )
        for message in self._messages.voice_messages_entering(previous, current):
            self._ws.audio.play_message(message.recording, str(message.message_id))
        self._update_visual_message(self._position)
        if play:
            self._start_output(self._position)

    def _voice_position(self, global_time: float) -> VoicePosition:
        segment, local = self.locate(global_time)
        return VoicePosition(segment_id=segment.segment_id, time=local)

    def _process_interval(self, start: float, end: float) -> None:
        """Fire messages whose anchors were entered during [start, end)."""
        if end <= start:
            return
        previous = self._voice_position(start)
        # Sample the interval at anchor boundaries: collect candidate
        # entry times from message anchors inside the window.
        entries: list[float] = []
        for message in self._obj.voice_messages:
            for anchor in message.anchors:
                anchor_start = getattr(anchor, "start", getattr(anchor, "time", None))
                segment_id = getattr(anchor, "segment_id", None)
                if anchor_start is None or segment_id is None:
                    continue
                index = next(
                    (
                        i
                        for i, s in enumerate(self._segments)
                        if s.segment_id == segment_id
                    ),
                    None,
                )
                if index is None:
                    continue
                global_anchor = self._offsets[index] + anchor_start
                if start < global_anchor <= end:
                    entries.append(global_anchor)
        for entry in sorted(entries):
            current = self._voice_position(min(entry + 1e-6, self._total))
            for message in self._messages.voice_messages_entering(previous, current):
                self._ws.audio.play_message(
                    message.recording, str(message.message_id)
                )
            previous = current
        self._update_visual_message(end)

    def _update_visual_message(self, global_time: float) -> None:
        """Pin/unpin the visual logical message for the current position."""
        segment, local = self.locate(min(global_time, self._total - 1e-9))
        covering = self._messages.visual_messages_for_voice(
            segment.segment_id, local
        )
        if covering:
            message = covering[0]
            name = str(message.message_id)
            if self._pinned_visual != name:
                bitmap = None
                if message.content.image_ids:
                    from repro.images.canvas import render_image

                    bitmap = render_image(
                        self._obj.image(message.content.image_ids[0])
                    )
                self._ws.screen.pin(name, text=message.content.text, bitmap=bitmap)
                self._pinned_visual = name
        elif self._pinned_visual is not None:
            self._ws.screen.unpin()
            self._pinned_visual = None

    # ------------------------------------------------------------------
    # relevant objects
    # ------------------------------------------------------------------

    def _visible_indicator_dicts(self) -> list[dict]:
        visible = []
        segment, local = self.locate(self._position)
        for link in self._obj.relevant_links:
            anchor = link.parent_anchor
            show = False
            if anchor is None:
                show = True
            else:
                covers = getattr(anchor, "covers", None)
                if (
                    covers is not None
                    and getattr(anchor, "segment_id", None) == segment.segment_id
                ):
                    show = covers(local)
            if show:
                visible.append(
                    {
                        "indicator": link.indicator_id.value,
                        "label": link.label,
                        "target": link.target_object_id.value,
                    }
                )
        return visible

    def visible_indicators(self) -> list[dict]:
        """The relevant-object indicators currently on display."""
        return self._visible_indicator_dicts()

    def _select_relevant(self, indicator: str = ""):
        if self._manager is None:
            raise BrowsingError(
                "relevant-object navigation needs a presentation manager"
            )
        return self._manager.select_relevant(self, indicator)

    def _return_from_relevant(self):
        if self._manager is None:
            raise BrowsingError(
                "relevant-object navigation needs a presentation manager"
            )
        return self._manager.return_from_relevant(self)

    def next_relevant_voice(self) -> bool:
        """Play the next voice relevance; False when exhausted."""
        if not self.relevant_voice_queue:
            return False
        segment_id, start, end = self.relevant_voice_queue.pop(0)
        segment = self._obj.voice_segment(segment_id)
        clip = segment.recording.slice(start, end)
        self._ws.audio.play_to_end(clip, f"relevance:{segment_id}")
        return True


class _GlobalPager:
    """Audio pages over the concatenated voice part."""

    def __init__(self, total: float, page_seconds: float) -> None:
        from repro.audio.signal import Recording
        import numpy as np

        # Reuse AudioPager's partitioning logic via a dummy recording of
        # the right duration (1 sample per page-second granularity would
        # distort lengths, so use a real-rate silent carrier).
        carrier = Recording(
            samples=np.zeros(max(int(total * 100), 1), dtype=np.float32),
            sample_rate=100,
        )
        self._pager = AudioPager(carrier, page_seconds=page_seconds)

    def __len__(self) -> int:
        return len(self._pager)

    def page(self, number: int) -> AudioPage:
        return self._pager.page(number)

    def page_at(self, position: float) -> AudioPage:
        return self._pager.page_at(position)
