"""The visual-mode browsing session.

Implements every Section-2 primitive for visual mode objects: page
browsing, logical-unit browsing, pattern search, pinned visual logical
messages, voice logical messages on branch, transparency sets (both
display methods plus user-selected superimposition), overwrite pages,
process simulation, tours, label selection/highlighting, and views
(including views defined on representations, fetching only the window's
data from the server).
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, Callable

from repro.core.browsing import BrowseCommand
from repro.core.compile import CompiledPage, PageKind, compile_visual_program
from repro.core.messages import ImagePosition, MessageEngine, Position, TextPosition
from repro.core.process_sim import run_simulation_group
from repro.core.tour import TourController
from repro.errors import BrowsingError, NavigationError, UnknownCommandError
from repro.ids import ImageId
from repro.images.bitmap import Bitmap
from repro.images.canvas import Canvas, render_image
from repro.images.geometry import Point, Rect
from repro.images.view import View
from repro.objects.anchors import ImageAnchor, TextAnchor
from repro.objects.logical import LogicalUnitKind
from repro.objects.model import DrivingMode, MultimediaObject
from repro.objects.presentation import TransparencyMode
from repro.trace import EventKind
from repro.workstation.menus import Menu, MenuOption
from repro.workstation.station import Workstation

if TYPE_CHECKING:  # pragma: no cover - cycle guard
    from repro.core.manager import PresentationManager

#: Logical-unit navigation commands and the unit kind they move over.
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
    BrowseCommand.NEXT_PAGE: "next_page",
    BrowseCommand.PREVIOUS_PAGE: "previous_page",
    BrowseCommand.ADVANCE_PAGES: "advance_pages",
    BrowseCommand.GOTO_PAGE: "goto_page",
    BrowseCommand.FIND_PATTERN: "find_pattern",
    BrowseCommand.SELECT_TRANSPARENCIES: "select_transparencies",
    BrowseCommand.SELECT_OBJECT: "select_object_at",
    BrowseCommand.HIGHLIGHT_LABELS: "highlight_labels",
    BrowseCommand.PLAY_ALL_LABELS: "play_all_labels",
    BrowseCommand.DEFINE_VIEW: "define_view",
    BrowseCommand.MOVE_VIEW: "move_view",
    BrowseCommand.JUMP_VIEW: "jump_view",
    BrowseCommand.RESIZE_VIEW: "resize_view",
    BrowseCommand.TOGGLE_VOICE_OPTION: "toggle_voice_option",
    BrowseCommand.START_TOUR: "start_tour",
    BrowseCommand.INTERRUPT_TOUR: "interrupt_tour",
    BrowseCommand.RUN_SIMULATION: "run_simulation",
    BrowseCommand.SET_SIMULATION_SPEED: "set_simulation_speed",
    BrowseCommand.SELECT_RELEVANT: "_select_relevant",
    BrowseCommand.RETURN_FROM_RELEVANT: "_return_from_relevant",
    BrowseCommand.NEXT_RELEVANT_VOICE: "next_relevant_voice",
}

ViewDataSource = Callable[[Rect], Bitmap]


class VisualSession:
    """Interactive browsing of one visual mode object.

    Parameters
    ----------
    obj:
        The (archived) multimedia object to present.
    workstation:
        Where to present it.
    manager:
        Optional owning manager; required for relevant-object
        navigation and for server-backed view retrieval.
    """

    def __init__(
        self,
        obj: MultimediaObject,
        workstation: Workstation,
        manager: "PresentationManager | None" = None,
    ) -> None:
        if obj.driving_mode is not DrivingMode.VISUAL:
            raise BrowsingError(
                f"object {obj.object_id} is audio-driven; open an AudioSession"
            )
        self._obj = obj
        self._ws = workstation
        self._manager = manager
        #: Simulated cost (disk service + network) of fetching this
        #: object; set by the presentation manager on session creation.
        self.open_cost_s = 0.0
        page_height = workstation.screen.text_lines
        self._program = (
            manager.decoded_cache.program(obj, page_height)
            if manager is not None
            else compile_visual_program(obj, page_height=page_height)
        )
        self._messages = MessageEngine(obj)
        self._current: int = 0  # 0 = nothing displayed yet
        self._previous_position: Position = None
        # Fine-grained reading position inside the current page: page
        # navigation resets it to the page's first character; logical
        # and pattern navigation advance it to the target, so repeated
        # "next chapter" / "find again" keep moving forward.
        self._offset_cursor: float = 0.0
        self._last_find: tuple[str, float] | None = None
        self._view: View | None = None
        self._sim_speed = 1.0
        self._tour_controller: TourController | None = None
        #: Voice relevances injected by the manager when this session
        #: presents a relevant object (played via NEXT_RELEVANT_VOICE).
        self.relevant_voice_queue: list = []
        #: Image relevances: polygons projected on top of the named
        #: images ("relevances to images are indicated by closed
        #: polygons displayed at the top of the image").
        self.relevance_regions: dict[ImageId, list] = {}
        #: Raster inherited from the parent object when this session
        #: presents a relevant object whose pages are transparencies
        #: superimposed on the parent's display (Figures 7-8).
        self.inherited_base: Bitmap | None = None

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def object(self) -> MultimediaObject:
        """The object being presented."""
        return self._obj

    @property
    def program(self):
        """The compiled page program, shared read-only with every other
        session on the same decoded object."""
        return self._program

    @property
    def page_count(self) -> int:
        """Total pages of the presentation form."""
        return len(self._program)

    @property
    def current_page_number(self) -> int:
        """The displayed page's number (0 before :meth:`open`)."""
        return self._current

    @property
    def current_page(self) -> CompiledPage | None:
        """The displayed compiled page."""
        if self._current == 0:
            return None
        return self._program.page(self._current)

    @property
    def workstation(self) -> Workstation:
        """The workstation this session presents onto."""
        return self._ws

    @property
    def view(self) -> View | None:
        """The active image view, if one is defined."""
        return self._view

    # ------------------------------------------------------------------
    # menu
    # ------------------------------------------------------------------

    @cached_property
    def _object_menu_options(self) -> list[MenuOption]:
        """The menu options that depend on the object alone."""
        options: list[MenuOption] = []

        def add(command: BrowseCommand, label: str) -> None:
            options.append(MenuOption(command=command.value, label=label))

        if self.page_count > 1:
            add(BrowseCommand.NEXT_PAGE, "next page")
            add(BrowseCommand.PREVIOUS_PAGE, "previous page")
            add(BrowseCommand.ADVANCE_PAGES, "advance n pages")
            add(BrowseCommand.GOTO_PAGE, "go to page")

        # The blocks name the unit kinds; the index itself is built on
        # the first logical-unit command.
        kinds = set()
        for segment in self._obj.text_segments:
            kinds |= segment.document.structural_kinds
        for command, (kind, _direction) in _UNIT_COMMANDS.items():
            if kind in kinds:
                add(command, command.value.replace("_", " "))

        if self._obj.text_segments:
            add(BrowseCommand.FIND_PATTERN, "find pattern")
        return options

    @property
    def menu(self) -> Menu:
        """The operations available right now.

        Derived from the object ("the presentation and browsing
        functions which are available for each multimedia object depend
        on the object itself") and from the current page.
        """
        options = list(self._object_menu_options)

        def add(command: BrowseCommand, label: str) -> None:
            options.append(MenuOption(command=command.value, label=label))

        if self._visible_indicator_dicts():
            add(BrowseCommand.SELECT_RELEVANT, "relevant object")
        if self._manager is not None and self._manager.in_relevant(self):
            add(BrowseCommand.RETURN_FROM_RELEVANT, "return from relevant object")
        if self.relevant_voice_queue:
            add(BrowseCommand.NEXT_RELEVANT_VOICE, "next related voice segment")

        page = self.current_page
        if page is not None:
            if page.kind is PageKind.TRANSPARENCY:
                add(BrowseCommand.SELECT_TRANSPARENCIES, "superimpose selected")
            if page.image_id is not None:
                image = self._obj.image(page.image_id)
                if image.labelled_objects():
                    add(BrowseCommand.SELECT_OBJECT, "select object")
                    add(BrowseCommand.HIGHLIGHT_LABELS, "highlight by label")
                if image.voice_labelled_objects():
                    add(BrowseCommand.PLAY_ALL_LABELS, "play all voice labels")
                add(BrowseCommand.DEFINE_VIEW, "define view")
                if self._view is not None:
                    add(BrowseCommand.MOVE_VIEW, "move view")
                    add(BrowseCommand.JUMP_VIEW, "jump view")
                    add(BrowseCommand.RESIZE_VIEW, "resize view")
                    add(BrowseCommand.TOGGLE_VOICE_OPTION, "toggle voice option")
            if page.kind is PageKind.TOUR:
                add(BrowseCommand.START_TOUR, "start tour")
                if self._tour_controller is not None:
                    add(BrowseCommand.INTERRUPT_TOUR, "interrupt tour")
            if page.kind is PageKind.SIM_STEP:
                add(BrowseCommand.RUN_SIMULATION, "run simulation")
                add(BrowseCommand.SET_SIMULATION_SPEED, "set simulation speed")
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
                f"command {command.value!r} is not on the menu for page "
                f"{self._current}"
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
    # rendering
    # ------------------------------------------------------------------

    def render_screen(self, layout=None):
        """Render the current display as a character frame.

        The frame shows the page layout as the user saw it: the pinned
        visual message at the top, the flowing content below, and the
        menu options down the right-hand side (Figures 1-2).
        """
        from repro.workstation.framebuffer import render_frame

        page = self.current_page
        visual = page.visual if page is not None else None
        pinned = self._ws.screen.pinned
        return render_frame(
            visual,
            self.menu,
            pinned_text=pinned.text if pinned else "",
            pinned_image=bool(pinned and pinned.bitmap is not None),
            layout=layout,
        )

    # ------------------------------------------------------------------
    # page navigation
    # ------------------------------------------------------------------

    def open(self) -> None:
        """Display the first page."""
        self.goto_page(1)

    def next_page(self) -> int:
        """Move to the next page; returns the new page number."""
        return self.goto_page(min(self._current + 1, self.page_count))

    def previous_page(self) -> int:
        """Move to the previous page."""
        return self.goto_page(max(self._current - 1, 1))

    def advance_pages(self, count: int = 1) -> int:
        """Advance ``count`` pages forth (or back, when negative)."""
        target = min(max(self._current + count, 1), self.page_count)
        return self.goto_page(target)

    def goto_page(self, number: int) -> int:
        """Display page ``number``.

        Raises
        ------
        NavigationError
            If the page number is out of range.
        """
        if not 1 <= number <= self.page_count:
            raise NavigationError(
                f"page {number} out of range 1..{self.page_count}"
            )
        page = self._program.page(number)
        if (
            page.kind is PageKind.SIM_STEP
            and not self._inside_sim_group(page.sim_group)
        ):
            # Turning into a process simulation runs it automatically
            # ("displayed one after the other automatically").
            return self.run_simulation(group=page.sim_group)
        self._display(page)
        return self._current

    def _inside_sim_group(self, group: int | None) -> bool:
        current = self.current_page
        return (
            current is not None
            and current.kind is PageKind.SIM_STEP
            and current.sim_group == group
        )

    # ------------------------------------------------------------------
    # display
    # ------------------------------------------------------------------

    def _display(self, page: CompiledPage) -> None:
        previous = self._previous_position
        position = self._position_of(page)
        self._tour_controller = None
        self._view = None

        if page.kind is PageKind.TEXT:
            self._display_text_page(page, previous, position)
        elif page.kind is PageKind.IMAGE:
            bitmap = render_image(self._obj.image(page.image_id))
            self._ws.screen.unpin()
            self._ws.screen.show_image_page(
                page.number, bitmap, image_id=str(page.image_id)
            )
            self._project_relevance_regions(page.image_id)
        elif page.kind is PageKind.TRANSPARENCY:
            self._display_transparency(page)
        elif page.kind is PageKind.OVERWRITE:
            self._display_overwrite(page)
        elif page.kind is PageKind.SIM_STEP:
            self._display_sim_step(page)
        elif page.kind is PageKind.TOUR:
            bitmap = render_image(self._obj.image(page.image_id))
            self._ws.screen.unpin()
            self._ws.screen.show_image_page(
                page.number, bitmap, image_id=str(page.image_id), tour=True
            )

        self._current = page.number
        self._previous_position = position
        self._offset_cursor = float(page.char_span[0])

        # Voice logical messages fire on branch-into transitions.
        for message in self._messages.voice_messages_entering(previous, position):
            self._ws.audio.play_message(message.recording, str(message.message_id))

        self._ws.screen.show_indicators(self._visible_indicator_dicts())

    def _display_text_page(
        self, page: CompiledPage, previous: Position, position: Position
    ) -> None:
        assert page.visual is not None
        if page.pinned_message_id is not None:
            message = self._messages.visual_message_to_pin(
                page.pinned_message_id, previous, position
            )
            if message is not None:
                bitmap = None
                if message.content.image_ids:
                    bitmap = render_image(
                        self._obj.image(message.content.image_ids[0])
                    )
                self._ws.screen.pin(
                    str(message.message_id),
                    text=message.content.text,
                    bitmap=bitmap,
                )
            else:
                self._ws.screen.unpin()
        else:
            self._ws.screen.unpin()
        self._ws.screen.show_page(page.number, page.visual.rendered_text())

    def _display_transparency(self, page: CompiledPage) -> None:
        base = self._base_composite_before(page)
        self._ws.screen.reset_composite(base)
        members = self._transparency_members(page.transparency_group)
        if page.transparency_mode is TransparencyMode.STACKED:
            to_apply = members[: page.transparency_position + 1]
        else:
            to_apply = [members[page.transparency_position]]
        for member in to_apply:
            overlay = render_image(self._obj.image(member.image_id))
            self._ws.screen.superimpose(overlay, str(member.image_id))
        self._ws.screen.show_page(
            page.number,
            "",
            transparency=str(page.image_id),
            group=page.transparency_group,
        )

    def _display_overwrite(self, page: CompiledPage) -> None:
        # Recompute the accumulated composite deterministically from the
        # nearest base page through every intervening overlay page.
        base_page, base = self._composition_walk_start(page)
        self._ws.screen.reset_composite(base)
        for intermediate in self._program.pages[base_page : page.number]:
            overlay = render_image(self._obj.image(intermediate.image_id))
            if intermediate.kind is PageKind.OVERWRITE:
                self._ws.screen.overwrite(overlay, str(intermediate.image_id))
            elif intermediate.kind is PageKind.TRANSPARENCY:
                self._ws.screen.superimpose(overlay, str(intermediate.image_id))
        self._ws.screen.show_page(
            page.number, "", overwrite=str(page.image_id)
        )

    def _display_sim_step(self, page: CompiledPage) -> None:
        assert page.sim_step is not None
        overlay = render_image(self._obj.image(page.image_id))
        kind = page.sim_step.kind.value
        if kind == "new_page":
            self._ws.screen.reset_composite(overlay)
        elif kind == "transparency":
            self._ws.screen.superimpose(overlay, str(page.image_id))
        else:
            self._ws.screen.overwrite(overlay, str(page.image_id))
        self._ws.trace.record(
            self._ws.clock.now,
            EventKind.SIM_PAGE,
            page=page.number,
            image=str(page.image_id),
        )

    def _project_relevance_regions(self, image_id: ImageId) -> None:
        """Project relevance polygons on top of a displayed image."""
        regions = self.relevance_regions.get(image_id)
        if not regions:
            return
        image = self._obj.image(image_id)
        canvas = Canvas(image.width, image.height)
        from repro.images.graphics import GraphicsObject

        for index, polygon in enumerate(regions):
            canvas.draw(
                GraphicsObject(name=f"relevance-{index}", shape=polygon, intensity=255)
            )
        self._ws.screen.superimpose(canvas.snapshot(), "relevance-regions")

    def _transparency_members(self, group: int | None) -> list[CompiledPage]:
        return [
            p
            for p in self._program.pages
            if p.kind is PageKind.TRANSPARENCY and p.transparency_group == group
        ]

    def _base_composite_before(self, page: CompiledPage) -> Bitmap | None:
        """The raster of "the last page before the transparency set"."""
        base_index, base = self._composition_walk_start(page)
        __ = base_index
        return base

    def _composition_walk_start(
        self, page: CompiledPage
    ) -> tuple[int, Bitmap | None]:
        """Find the nearest preceding base page and its raster.

        Returns ``(page_index, bitmap)`` where ``page_index`` is the
        0-based index *after* the base page (the first overlay to
        apply when walking forward).
        """
        for index in range(page.number - 2, -1, -1):
            candidate = self._program.pages[index]
            if candidate.kind is PageKind.IMAGE:
                return index + 1, render_image(self._obj.image(candidate.image_id))
            if candidate.kind is PageKind.SIM_STEP and candidate.sim_step is not None:
                if candidate.sim_step.kind.value == "new_page":
                    return index + 1, render_image(
                        self._obj.image(candidate.image_id)
                    )
            if candidate.kind is PageKind.TEXT:
                return index + 1, None
        return 0, self.inherited_base

    def _position_of(self, page: CompiledPage) -> Position:
        if page.kind is PageKind.TEXT and page.segment_id is not None:
            start, end = page.char_span
            return TextPosition(segment_id=page.segment_id, start=start, end=end)
        if page.image_id is not None:
            return ImagePosition(image_id=page.image_id)
        return None

    # ------------------------------------------------------------------
    # logical-unit browsing
    # ------------------------------------------------------------------

    def goto_unit(self, kind: LogicalUnitKind, direction: int) -> int:
        """Show the page with the next/previous start of a logical unit.

        Raises
        ------
        NavigationError
            If no such unit exists in that direction.
        """
        page = self.current_page
        segment_order = [
            s.segment_id
            for s in self._obj.text_segments
        ]
        if not segment_order:
            raise NavigationError("object has no text part")
        if page is not None and page.segment_id in segment_order:
            segment_id = page.segment_id
            # Units starting mid-page stay reachable because the cursor
            # advances to each unit we navigate to.
            offset = self._offset_cursor
        else:
            segment_id = segment_order[0]
            offset = -1 if direction > 0 else float("inf")

        index = self._obj.text_segment(segment_id).logical_index
        unit = (
            index.next_start(kind, offset)
            if direction > 0
            else index.previous_start(kind, offset)
        )
        if unit is None:
            raise NavigationError(
                f"no {'next' if direction > 0 else 'previous'} {kind.value}"
            )
        target = self._program.page_for_offset(segment_id, unit.start)
        result = self.goto_page(target)
        self._offset_cursor = float(unit.start)
        return result

    # ------------------------------------------------------------------
    # pattern search
    # ------------------------------------------------------------------

    def find_pattern(self, pattern: str = "") -> int | None:
        """Show the next page with an occurrence of ``pattern``.

        Repeated calls with the same pattern keep advancing; a new
        pattern restarts from the current page.  Returns the new page
        number, or None when there is no further occurrence.
        """
        if not pattern:
            raise BrowsingError("find_pattern needs a pattern")
        page = self.current_page
        segment_order = [s.segment_id for s in self._obj.text_segments]
        if not segment_order:
            return None

        if self._last_find is not None and self._last_find[0] == pattern:
            after = self._last_find[1]
        else:
            after = float(page.char_span[0] - 1) if page is not None else -1.0

        start_segment = (
            page.segment_id
            if page is not None and page.segment_id in segment_order
            else segment_order[0]
        )
        start_index = segment_order.index(start_segment)
        for segment_id in segment_order[start_index:]:
            index = self._obj.text_segment(segment_id).search_index
            threshold = after if segment_id == start_segment else -1.0
            hit = index.next_occurrence(pattern, threshold)
            if hit is not None:
                self._last_find = (pattern, hit)
                target = self._program.page_for_offset(segment_id, hit)
                self._ws.trace.record(
                    self._ws.clock.now,
                    EventKind.SEARCH_HIT,
                    pattern=pattern,
                    offset=hit,
                    page=target,
                )
                result = self.goto_page(target)
                self._offset_cursor = float(hit)
                return result
        self._last_find = None
        return None

    # ------------------------------------------------------------------
    # transparencies: user-selected superimposition
    # ------------------------------------------------------------------

    def select_transparencies(self, positions: list[int] = ()) -> None:
        """Superimpose only the chosen transparencies of the current set.

        "He can do that by displaying the transparencies independently
        ... and selecting the ones that he wants to see superimposed."

        Raises
        ------
        BrowsingError
            If the current page is not a transparency, or a position is
            out of range.
        """
        page = self.current_page
        if page is None or page.kind is not PageKind.TRANSPARENCY:
            raise BrowsingError("not on a transparency page")
        members = self._transparency_members(page.transparency_group)
        base = self._base_composite_before(page)
        self._ws.screen.reset_composite(base)
        for position in positions:
            if not 0 <= position < len(members):
                raise BrowsingError(
                    f"transparency position {position} out of range "
                    f"0..{len(members) - 1}"
                )
            overlay = render_image(self._obj.image(members[position].image_id))
            self._ws.screen.superimpose(overlay, str(members[position].image_id))

    # ------------------------------------------------------------------
    # labels
    # ------------------------------------------------------------------

    def _current_image(self):
        page = self.current_page
        if page is None or page.image_id is None:
            raise BrowsingError("current page has no image")
        return self._obj.image(page.image_id)

    def select_object_at(self, x: float = 0, y: float = 0):
        """Mouse-select the object at ``(x, y)``; plays or displays its
        label.  Returns the graphics object, or None if nothing is hit."""
        image = self._current_image()
        obj = image.object_at(Point(x, y))
        if obj is None or obj.label is None:
            return obj
        label = obj.label
        if label.kind.is_voice:
            self._ws.audio.play_label(label.voice, label.text)
        else:
            self._ws.trace.record(
                self._ws.clock.now,
                EventKind.DISPLAY_LABEL,
                label=label.text,
                object=obj.name,
            )
        return obj

    def highlight_labels(self, pattern: str = "") -> list[str]:
        """Highlight objects whose label contains ``pattern``.

        Returns the matched object names (also traced), implementing
        "the user can specify a pattern and request that the objects in
        which this pattern appears within their label are highlighted".
        """
        if not pattern:
            raise BrowsingError("highlight_labels needs a pattern")
        image = self._current_image()
        matches = [g.name for g in image.objects_matching_label(pattern)]
        self._ws.trace.record(
            self._ws.clock.now,
            EventKind.HIGHLIGHT,
            pattern=pattern,
            objects=",".join(matches),
        )
        return matches

    def play_all_labels(self) -> int:
        """Play every voice label, in a system-defined (insertion) order.

        Returns the number of labels played.
        """
        image = self._current_image()
        count = 0
        for graphics in image.voice_labelled_objects():
            self._ws.audio.play_label(graphics.label.voice, graphics.label.text)
            count += 1
        return count

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------

    def define_view(self, x: int = 0, y: int = 0, width: int = 0, height: int = 0):
        """Define a view rectangle on the current image.

        When the image is a representation, the view's data comes from
        the *source* image — fetched from the server when this session
        was opened through a manager — so only the window's bytes move.
        """
        image = self._current_image()
        data_source: ViewDataSource | None = None
        if self._manager is not None:
            data_source = self._manager.view_data_source(self._obj, image)
        label_image = None
        if image.is_representation:
            label_image = self._obj.image(image.source_image_id)
            if data_source is None and label_image.bitmap is not None:
                # No server backing: the source image is local, so
                # windows crop its bitmap (coordinates are source-space).
                data_source = label_image.bitmap.crop
        self._view = View(
            image,
            Rect(x, y, width, height),
            data_source=data_source,
            label_image=label_image,
        )
        result = self._view.fetch()
        self._ws.trace.record(
            self._ws.clock.now,
            EventKind.VIEW_MOVED,
            rect=f"{x},{y},{width}x{height}",
            bytes=result.nbytes,
            op="define",
        )
        return self._view

    def _require_view(self) -> View:
        if self._view is None:
            raise BrowsingError("no view is defined; use define_view first")
        return self._view

    def move_view(self, dx: int = 0, dy: int = 0):
        """Move the view; plays newly encountered voice labels when the
        voice option is on."""
        view = self._require_view()
        result = view.move(dx, dy)
        self._after_view_op(result, kind="move")
        return result

    def jump_view(self, x: int = 0, y: int = 0):
        """Non-contiguous view move."""
        view = self._require_view()
        result = view.jump(x, y)
        self._after_view_op(result, kind="jump")
        return result

    def resize_view(self, dw: int = 0, dh: int = 0):
        """Shrink or expand the view."""
        view = self._require_view()
        result = view.resize(dw, dh)
        self._after_view_op(result, kind="resize")
        return result

    def toggle_voice_option(self) -> bool:
        """Flip whether encountered voice labels are played."""
        view = self._require_view()
        view.voice_option = not view.voice_option
        return view.voice_option

    def _after_view_op(self, result, kind: str) -> None:
        rect = result.rect
        self._ws.trace.record(
            self._ws.clock.now,
            EventKind.VIEW_MOVED if kind != "resize" else EventKind.VIEW_RESIZED,
            rect=f"{rect.x},{rect.y},{rect.width}x{rect.height}",
            bytes=result.bitmap.nbytes,
            op=kind,
        )
        view = self._require_view()
        if view.voice_option:
            for label in result.new_labels:
                self._ws.audio.play_label(label.voice, label.text)

    # ------------------------------------------------------------------
    # process simulation
    # ------------------------------------------------------------------

    def set_simulation_speed(self, factor: float = 1.0) -> float:
        """Adjust the user speed factor (>1 is faster)."""
        if factor <= 0:
            raise BrowsingError(f"speed factor must be positive: {factor}")
        self._sim_speed = factor
        return factor

    def run_simulation(self, group: int | None = None) -> int:
        """Run a process simulation group to completion.

        Defaults to the group of the current page.  Returns the number
        of the last simulation page, which becomes the current page.
        """
        if group is None:
            page = self.current_page
            if page is None or page.sim_group is None:
                raise BrowsingError("not on a process-simulation page")
            group = page.sim_group
        steps = [
            p
            for p in self._program.pages
            if p.kind is PageKind.SIM_STEP and p.sim_group == group
        ]
        if not steps:
            raise BrowsingError(f"no simulation group {group}")
        last = run_simulation_group(self, steps, self._sim_speed)
        self._current = last.number
        self._previous_position = self._position_of(last)
        self._ws.screen.show_indicators(self._visible_indicator_dicts())
        return self._current

    # ------------------------------------------------------------------
    # tours
    # ------------------------------------------------------------------

    def start_tour(self) -> TourController:
        """Begin the tour on the current tour page.

        Returns a controller; call :meth:`TourController.run_all` for
        the automatic sequence or :meth:`TourController.step` /
        :meth:`TourController.interrupt` to drive it interactively.
        """
        page = self.current_page
        if page is None or page.tour is None:
            raise BrowsingError("not on a tour page")
        self._tour_controller = TourController(self, page.tour)
        return self._tour_controller

    def interrupt_tour(self) -> View:
        """Interrupt the running tour; the window stays for free movement.

        "The user may interrupt the tour and move the window all round
        in order to navigate through other positions of the image."
        """
        if self._tour_controller is None:
            raise BrowsingError("no tour is running")
        view = self._tour_controller.interrupt()
        self._view = view
        self._tour_controller = None
        return view

    # ------------------------------------------------------------------
    # relevant objects
    # ------------------------------------------------------------------

    def _visible_indicator_dicts(self) -> list[dict]:
        visible = []
        for link in self._obj.relevant_links:
            if self._indicator_visible(link):
                visible.append(
                    {
                        "indicator": link.indicator_id.value,
                        "label": link.label,
                        "target": link.target_object_id.value,
                    }
                )
        return visible

    def _indicator_visible(self, link) -> bool:
        anchor = link.parent_anchor
        if anchor is None:
            return True
        page = self.current_page
        if page is None:
            return False
        if isinstance(anchor, TextAnchor) and page.segment_id == anchor.segment_id:
            start, end = page.char_span
            return anchor.overlaps(start, end)
        if isinstance(anchor, ImageAnchor):
            return page.image_id == anchor.image_id
        return False

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
        """Play the next voice relevance of this relevant object.

        "Relevances to voice segments are indicated by the fact that
        the voice segment is played independently.  (A menu option has
        to be selected in order to hear the next related voice
        segment.)"  Returns False when the queue is exhausted.
        """
        if not self.relevant_voice_queue:
            return False
        segment_id, start, end = self.relevant_voice_queue.pop(0)
        segment = self._obj.voice_segment(segment_id)
        clip = segment.recording.slice(start, end)
        self._ws.audio.play_to_end(clip, f"relevance:{segment_id}")
        return True
