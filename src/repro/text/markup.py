"""The declarative markup language of MINOS text segments.

Structural directives live on their own line:

* ``@title{...}`` — object title
* ``@abstract`` — abstract until the next structural directive
* ``@chapter{...}`` / ``@section{...}`` — numbered structure
* ``@references`` — reference list until end of segment
* ``@image{tag}`` — embed the image with that data tag at this point
* ``@indent{n}`` — set paragraph indent (in spaces) from here on

Blank lines separate paragraphs.  Inline emphasis uses the conventions
the paper lists for text ("underlined words, tilted words, bold tones"):
``**bold**``, ``*italic*`` and ``_underline_``.

Parsing yields a :class:`Document`: a list of typed blocks, the
tag-free *plain text* (the offset space shared by anchors, search and
pagination), and a :class:`~repro.objects.logical.LogicalIndex` built
from the structural tags.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from functools import cached_property

from repro.errors import MarkupError
from repro.objects.logical import LogicalIndex, LogicalUnit, LogicalUnitKind


class TextStyle(enum.Flag):
    """Inline character emphasis."""

    PLAIN = 0
    BOLD = enum.auto()
    ITALIC = enum.auto()
    UNDERLINE = enum.auto()


@dataclass(frozen=True, slots=True)
class StyledRun:
    """A run of characters sharing one style.

    ``offset`` is the run's start in the document's plain text.
    """

    text: str
    style: TextStyle
    offset: int


class BlockKind(enum.Enum):
    """Kinds of top-level block."""

    TITLE = "title"
    ABSTRACT_START = "abstract_start"
    CHAPTER = "chapter"
    SECTION = "section"
    REFERENCES_START = "references_start"
    PARAGRAPH = "paragraph"
    IMAGE = "image"
    INDENT = "indent"


@dataclass
class Block:
    """One parsed block.

    For headings and paragraphs, ``runs`` carries the styled content
    and ``start``/``end`` its plain-text span.  For ``IMAGE`` blocks,
    ``argument`` is the data tag.  For ``INDENT``, ``argument`` is the
    indent width.
    """

    kind: BlockKind
    runs: list[StyledRun] = field(default_factory=list)
    argument: str = ""
    start: int = 0
    end: int = 0

    @property
    def text(self) -> str:
        """Plain text of the block."""
        return "".join(run.text for run in self.runs)


_DIRECTIVE = re.compile(r"^@(\w+)(?:\{(.*)\})?\s*$")
_INLINE = re.compile(r"(\*\*[^*]+\*\*|\*[^*]+\*|_[^_]+_)")


@dataclass
class Document:
    """A parsed text segment."""

    blocks: list[Block]
    plain_text: str

    @cached_property
    def logical_index(self) -> LogicalIndex:
        """Logical structure derived from the structural directives."""
        return _build_logical_index(self.blocks, self.plain_text)

    @cached_property
    def structural_kinds(self) -> frozenset[LogicalUnitKind]:
        """The unit kinds of :attr:`logical_index` above sentences and
        words, read off the blocks without building the index."""
        return frozenset(
            _BLOCK_UNIT_KINDS[block.kind]
            for block in self.blocks
            if block.kind in _BLOCK_UNIT_KINDS
        )

    def image_tags(self) -> list[str]:
        """Data tags of all embedded images, in order."""
        return [b.argument for b in self.blocks if b.kind is BlockKind.IMAGE]


def parse_markup(markup: str) -> Document:
    """Parse markup into a :class:`Document`.

    Raises
    ------
    MarkupError
        On unknown directives or malformed directive syntax.
    """
    blocks: list[Block] = []
    plain_parts: list[str] = []
    offset = 0

    def emit_text_block(kind: BlockKind, raw: str, argument: str = "") -> None:
        nonlocal offset
        runs, consumed = _parse_inline(raw, offset)
        block = Block(
            kind=kind,
            runs=runs,
            argument=argument,
            start=offset,
            end=offset + consumed,
        )
        blocks.append(block)
        plain_parts.append(block.text)
        plain_parts.append("\n")
        offset += consumed + 1  # the separating newline

    paragraph_lines: list[str] = []

    def flush_paragraph() -> None:
        if paragraph_lines:
            emit_text_block(BlockKind.PARAGRAPH, " ".join(paragraph_lines))
            paragraph_lines.clear()

    for line_no, line in enumerate(markup.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            flush_paragraph()
            continue
        if stripped.startswith("@"):
            match = _DIRECTIVE.match(stripped)
            if match is None:
                raise MarkupError(f"line {line_no}: malformed directive {stripped!r}")
            name, argument = match.group(1), match.group(2)
            flush_paragraph()
            if name == "title":
                _require_argument(name, argument, line_no)
                emit_text_block(BlockKind.TITLE, argument)
            elif name == "chapter":
                _require_argument(name, argument, line_no)
                emit_text_block(BlockKind.CHAPTER, argument)
            elif name == "section":
                _require_argument(name, argument, line_no)
                emit_text_block(BlockKind.SECTION, argument)
            elif name == "abstract":
                blocks.append(Block(kind=BlockKind.ABSTRACT_START, start=offset, end=offset))
            elif name == "references":
                blocks.append(
                    Block(kind=BlockKind.REFERENCES_START, start=offset, end=offset)
                )
            elif name == "image":
                _require_argument(name, argument, line_no)
                blocks.append(
                    Block(
                        kind=BlockKind.IMAGE,
                        argument=argument,
                        start=offset,
                        end=offset,
                    )
                )
            elif name == "indent":
                _require_argument(name, argument, line_no)
                if not argument.isdigit():
                    raise MarkupError(
                        f"line {line_no}: @indent needs a number, got {argument!r}"
                    )
                blocks.append(
                    Block(
                        kind=BlockKind.INDENT,
                        argument=argument,
                        start=offset,
                        end=offset,
                    )
                )
            else:
                raise MarkupError(f"line {line_no}: unknown directive @{name}")
        else:
            paragraph_lines.append(stripped)
    flush_paragraph()

    return Document(blocks=blocks, plain_text="".join(plain_parts))


def _require_argument(name: str, argument: str | None, line_no: int) -> None:
    if argument is None or argument == "":
        raise MarkupError(f"line {line_no}: @{name} requires an argument in braces")


def _parse_inline(raw: str, base_offset: int) -> tuple[list[StyledRun], int]:
    """Split inline emphasis markers into styled runs.

    Returns the runs and the plain-text length consumed.
    """
    runs: list[StyledRun] = []
    offset = base_offset
    for piece in _INLINE.split(raw):
        if not piece:
            continue
        if piece.startswith("**") and piece.endswith("**") and len(piece) > 4:
            text, style = piece[2:-2], TextStyle.BOLD
        elif piece.startswith("*") and piece.endswith("*") and len(piece) > 2:
            text, style = piece[1:-1], TextStyle.ITALIC
        elif piece.startswith("_") and piece.endswith("_") and len(piece) > 2:
            text, style = piece[1:-1], TextStyle.UNDERLINE
        else:
            text, style = piece, TextStyle.PLAIN
        runs.append(StyledRun(text=text, style=style, offset=offset))
        offset += len(text)
    return runs, offset - base_offset


#: The unit each structural block opens in :func:`_build_logical_index`:
#: exactly one, of this kind, whatever blocks surround it.
_BLOCK_UNIT_KINDS: dict[BlockKind, LogicalUnitKind] = {
    BlockKind.TITLE: LogicalUnitKind.TITLE,
    BlockKind.ABSTRACT_START: LogicalUnitKind.ABSTRACT,
    BlockKind.REFERENCES_START: LogicalUnitKind.REFERENCES,
    BlockKind.CHAPTER: LogicalUnitKind.CHAPTER,
    BlockKind.SECTION: LogicalUnitKind.SECTION,
    BlockKind.PARAGRAPH: LogicalUnitKind.PARAGRAPH,
}


def _build_logical_index(blocks: list[Block], plain_text: str) -> LogicalIndex:
    """Derive the logical-unit forest from structural blocks.

    Chapters span to the next chapter (or end); sections to the next
    section/chapter; paragraphs/sentences/words are leaves within them.
    """
    total = len(plain_text)
    roots: list[LogicalUnit] = []
    chapter: LogicalUnit | None = None
    section: LogicalUnit | None = None
    in_abstract = False
    abstract: LogicalUnit | None = None
    references: LogicalUnit | None = None

    def close(unit: LogicalUnit | None, end: float) -> None:
        if unit is not None:
            unit.end = end

    for block in blocks:
        if block.kind is BlockKind.TITLE:
            roots.append(
                LogicalUnit(LogicalUnitKind.TITLE, block.start, block.end, block.text)
            )
        elif block.kind is BlockKind.ABSTRACT_START:
            in_abstract = True
            abstract = LogicalUnit(
                LogicalUnitKind.ABSTRACT, block.start, block.start, "abstract"
            )
            roots.append(abstract)
        elif block.kind is BlockKind.REFERENCES_START:
            in_abstract = False
            close(abstract, block.start)
            close(section, block.start)
            close(chapter, block.start)
            section = chapter = None
            references = LogicalUnit(
                LogicalUnitKind.REFERENCES, block.start, total, "references"
            )
            roots.append(references)
        elif block.kind is BlockKind.CHAPTER:
            in_abstract = False
            close(abstract, block.start)
            close(section, block.start)
            close(chapter, block.start)
            section = None
            chapter = LogicalUnit(
                LogicalUnitKind.CHAPTER, block.start, total, block.text
            )
            roots.append(chapter)
        elif block.kind is BlockKind.SECTION:
            close(section, block.start)
            section = LogicalUnit(
                LogicalUnitKind.SECTION, block.start, total, block.text
            )
            if chapter is not None:
                chapter.children.append(section)
            else:
                roots.append(section)
        elif block.kind is BlockKind.PARAGRAPH:
            paragraph = LogicalUnit(
                LogicalUnitKind.PARAGRAPH, block.start, block.end, ""
            )
            paragraph.children.extend(_sentence_units(block))
            if in_abstract and abstract is not None:
                abstract.children.append(paragraph)
                abstract.end = block.end
            elif references is not None:
                references.children.append(paragraph)
            elif section is not None:
                section.children.append(paragraph)
            elif chapter is not None:
                chapter.children.append(paragraph)
            else:
                roots.append(paragraph)
    return LogicalIndex(roots)


_SENTENCE_SPLIT = re.compile(r"[^.!?]+[.!?]?")
_WORD = re.compile(r"[\w'-]+")


def _sentence_units(block: Block) -> list[LogicalUnit]:
    text = block.text
    sentences: list[LogicalUnit] = []
    for match in _SENTENCE_SPLIT.finditer(text):
        raw = match.group(0)
        if not raw.strip():
            continue
        s_start = block.start + match.start()
        s_end = block.start + match.end()
        sentence = LogicalUnit(LogicalUnitKind.SENTENCE, s_start, s_end, "")
        for word in _WORD.finditer(raw):
            sentence.children.append(
                LogicalUnit(
                    LogicalUnitKind.WORD,
                    s_start + word.start(),
                    s_start + word.end(),
                    word.group(0),
                )
            )
        sentences.append(sentence)
    return sentences
