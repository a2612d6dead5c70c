"""The text formatting engine: documents to styled, wrapped lines.

Presentation facilities "similar to those that are provided by text
formatters": word wrap at a fixed character width, paragraph indent,
centred titles, emphasised headings.  Every formatted line remembers
the plain-text span it covers, which is how pattern-search hits and
logical-unit starts are later mapped to page numbers.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field

from repro.errors import PaginationError
from repro.text.markup import Block, BlockKind, Document, StyledRun, TextStyle


class LineKind(enum.Enum):
    """What a formatted line contains."""

    TEXT = "text"
    TITLE = "title"
    HEADING = "heading"
    BLANK = "blank"
    IMAGE = "image"


@dataclass
class FormattedLine:
    """One line of the presentation form.

    Attributes
    ----------
    kind:
        Line classification.
    text:
        The rendered characters (including indent), empty for blank and
        image lines.
    runs:
        The styled runs making up the text, for display fidelity.
    start, end:
        The plain-text character span this line covers (``start == end``
        for lines not derived from document text).
    image_tag:
        For IMAGE lines, the data tag of the embedded image.
    """

    kind: LineKind
    text: str = ""
    runs: list[StyledRun] = field(default_factory=list)
    start: int = 0
    end: int = 0
    image_tag: str = ""


class TextFormatter:
    """Formats a parsed document into lines of a fixed character width."""

    def __init__(self, width: int = 72) -> None:
        if width < 16:
            raise PaginationError(f"formatting width too small: {width}")
        self._width = width

    @property
    def width(self) -> int:
        """Line width in characters."""
        return self._width

    def format(self, document: Document) -> list[FormattedLine]:
        """Render every block of ``document`` into formatted lines."""
        lines: list[FormattedLine] = []
        indent = 0
        for block in document.blocks:
            if block.kind is BlockKind.INDENT:
                indent = int(block.argument)
            elif block.kind is BlockKind.TITLE:
                lines.extend(self._title_lines(block))
            elif block.kind in (BlockKind.CHAPTER, BlockKind.SECTION):
                lines.extend(self._heading_lines(block))
            elif block.kind is BlockKind.PARAGRAPH:
                lines.extend(self._paragraph_lines(block, indent))
                lines.append(FormattedLine(LineKind.BLANK, start=block.end, end=block.end))
            elif block.kind is BlockKind.IMAGE:
                lines.append(
                    FormattedLine(
                        LineKind.IMAGE,
                        image_tag=block.argument,
                        start=block.start,
                        end=block.start,
                    )
                )
            elif block.kind in (BlockKind.ABSTRACT_START, BlockKind.REFERENCES_START):
                label = (
                    "ABSTRACT"
                    if block.kind is BlockKind.ABSTRACT_START
                    else "REFERENCES"
                )
                lines.append(
                    FormattedLine(
                        LineKind.HEADING,
                        text=label,
                        start=block.start,
                        end=block.start,
                    )
                )
                lines.append(
                    FormattedLine(LineKind.BLANK, start=block.start, end=block.start)
                )
        # Trim a trailing blank line so documents end crisply.
        while lines and lines[-1].kind is LineKind.BLANK:
            lines.pop()
        return lines

    # ------------------------------------------------------------------
    # block renderers
    # ------------------------------------------------------------------

    def _title_lines(self, block: Block) -> list[FormattedLine]:
        text = block.text.strip()
        centred = text.center(self._width).rstrip()
        return [
            FormattedLine(
                LineKind.TITLE,
                text=centred,
                runs=list(block.runs),
                start=block.start,
                end=block.end,
            ),
            FormattedLine(LineKind.BLANK, start=block.end, end=block.end),
        ]

    def _heading_lines(self, block: Block) -> list[FormattedLine]:
        prefix = "" if block.kind is BlockKind.CHAPTER else "  "
        return [
            FormattedLine(LineKind.BLANK, start=block.start, end=block.start),
            FormattedLine(
                LineKind.HEADING,
                text=prefix + block.text.strip(),
                runs=list(block.runs),
                start=block.start,
                end=block.end,
            ),
            FormattedLine(LineKind.BLANK, start=block.end, end=block.end),
        ]

    def _paragraph_lines(self, block: Block, indent: int) -> list[FormattedLine]:
        """Word-wrap a paragraph, tracking plain-text offsets per line."""
        words = _words_with_offsets(block)
        if not words:
            return []
        pad = " " * indent
        usable = self._width - indent
        lines: list[FormattedLine] = []
        current: list[tuple[str, int, TextStyle]] = []
        current_len = 0
        for word, offset, style in words:
            extra = len(word) + (1 if current else 0)
            if current and current_len + extra > usable:
                lines.append(_assemble_line(current, pad))
                current, current_len = [], 0
                extra = len(word)
            current.append((word, offset, style))
            current_len += extra
        if current:
            lines.append(_assemble_line(current, pad))
        return lines


#: A word: a maximal run of anything but the space character.
_WORD = re.compile("[^ ]+")


def _words_with_offsets(block: Block) -> list[tuple[str, int, TextStyle]]:
    """Split a block's runs into words, keeping offset and style."""
    return [
        (match.group(), run.offset + match.start(), run.style)
        for run in block.runs
        for match in _WORD.finditer(run.text)
    ]


def _assemble_line(
    words: list[tuple[str, int, TextStyle]], pad: str
) -> FormattedLine:
    text = pad + " ".join(w for w, _, _ in words)
    runs = [
        StyledRun(text=word, style=style, offset=offset)
        for word, offset, style in words
    ]
    start = words[0][1]
    end = words[-1][1] + len(words[-1][0])
    return FormattedLine(LineKind.TEXT, text=text, runs=runs, start=start, end=end)
