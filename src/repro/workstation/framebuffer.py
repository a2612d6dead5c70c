"""A character framebuffer: the screen's text layout made observable.

The virtual screen stores page content symbolically; this module
renders it into a fixed character grid the way the SUN-3 display laid
out a MINOS page: an optional pinned region at the top (visual logical
message), the flowing page content below, and the menu options down the
right-hand side — "In the right hand side of the screen some menu
options displayed are shown" (Figures 1-2).

Tests assert on grid rows; humans can ``print(frame.render())`` to see
the page as the user did.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.text.pagination import PageElementKind, VisualPage
from repro.workstation.menus import Menu

#: Marker row drawn between the pinned region and the flowing content.
_RULE = "-"


@dataclass
class FrameLayout:
    """Geometry of the rendered frame."""

    width: int = 100
    height: int = 42
    menu_width: int = 24
    pinned_rows: int = 14

    @property
    def content_width(self) -> int:
        """Columns available to page content (left of the menu)."""
        return self.width - self.menu_width - 1


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
