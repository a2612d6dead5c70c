"""Reference browse code: the per-character work browse no longer runs.

:class:`repro.workstation.framebuffer.CharacterFrame` keeps each row as
one string, and :func:`repro.workstation.framebuffer.render_frame`
starts every row from one blank row that already holds the menu's
column rule.  :func:`repro.text.formatter._words_with_offsets` splits a
styled run with one regular expression.  The code here is what those
replaced, kept verbatim as the oracle for the differential tests in
``tests/test_browse_reference.py``: the frames, the clipped writes and
the words must come out identical.  Nothing under ``src/`` imports this
module.
"""

from __future__ import annotations

from repro.text.markup import Block, TextStyle
from repro.text.pagination import PageElementKind, VisualPage
from repro.workstation.framebuffer import FrameLayout
from repro.workstation.menus import Menu

#: Marker row drawn between the pinned region and the flowing content.
_RULE = "-"


class CharacterFrame:
    """One rendered screenful."""

    def __init__(self, layout: FrameLayout) -> None:
        self._layout = layout
        self._rows = [
            [" "] * layout.width for _ in range(layout.height)
        ]

    @property
    def layout(self) -> FrameLayout:
        """Frame geometry."""
        return self._layout

    def row(self, index: int) -> str:
        """One row of the grid as a string."""
        return "".join(self._rows[index])

    def render(self) -> str:
        """The whole frame, newline-joined."""
        return "\n".join(self.row(i) for i in range(self._layout.height))

    def put(self, row: int, column: int, text: str) -> None:
        """Write ``text`` at (row, column), clipped to the frame."""
        if not 0 <= row < self._layout.height:
            return
        start = max(column, 0)
        end = min(column + len(text), self._layout.width)
        if start < end:
            self._rows[row][start:end] = text[start - column : end - column]


def render_frame(
    page: VisualPage | None,
    menu: Menu,
    pinned_text: str = "",
    pinned_image: bool = False,
    layout: FrameLayout | None = None,
) -> CharacterFrame:
    """Render a visual page, its menu, and any pinned message.

    Layout: the pinned region (if present) occupies the top rows with
    its text/image marker; a rule separates it from the flowing page
    content; menu options run down the right-hand column.
    """
    layout = layout or FrameLayout()
    frame = CharacterFrame(layout)
    content_width = layout.content_width

    # Right-hand menu, one option per row (Figures 1-2 style), behind a
    # column rule written straight into the grid.
    menu_col = content_width + 1
    if 0 <= content_width < layout.width:
        for cells in frame._rows:
            cells[content_width] = "|"
    for index, option in enumerate(menu):
        frame.put(index, menu_col, f"[{option.label[: layout.menu_width - 2]}]")

    content_top = 0
    if pinned_text or pinned_image:
        marker = "[IMAGE]" if pinned_image else ""
        frame.put(0, 0, (marker + " " + pinned_text)[:content_width])
        for row in range(1, layout.pinned_rows - 1):
            if pinned_image:
                frame.put(row, 0, "#" * min(20, content_width))
        frame.put(layout.pinned_rows - 1, 0, _RULE * content_width)
        content_top = layout.pinned_rows

    if page is not None:
        row = content_top
        for element in page.elements:
            if row >= layout.height:
                break
            if element.kind is PageElementKind.IMAGE:
                for image_row in range(element.height_lines):
                    if row >= layout.height:
                        break
                    frame.put(
                        row, 0, f"%% image {element.image_tag} %%"[:content_width]
                    )
                    row += 1
            else:
                frame.put(row, 0, element.line.text[:content_width])
                row += 1
    return frame


def _words_with_offsets(block: Block) -> list[tuple[str, int, TextStyle]]:
    """Split a block's runs into words, keeping offset and style."""
    words: list[tuple[str, int, TextStyle]] = []
    for run in block.runs:
        position = 0
        text = run.text
        while position < len(text):
            while position < len(text) and text[position] == " ":
                position += 1
            start = position
            while position < len(text) and text[position] != " ":
                position += 1
            if position > start:
                words.append((text[start:position], run.offset + start, run.style))
    return words
