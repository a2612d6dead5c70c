"""The declarative markup language."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MarkupError
from repro.ids import IdGenerator
from repro.objects.logical import LogicalUnitKind
from repro.scenarios import (
    build_audio_mode_report,
    build_big_map_object,
    build_city_walk_simulation,
    build_engineering_design,
    build_map_tour_object,
    build_object_library,
    build_office_document,
    build_subway_map_with_relevants,
    build_visual_report_with_xray,
    build_xray_transparency_object,
)
from repro.server import Archiver
from repro.text.markup import BlockKind, TextStyle, parse_markup

SAMPLE = """@title{The Document}
@abstract
A short abstract paragraph.

@chapter{First Chapter}
Plain text with **bold words** and *italic ones* and _underlined_.

Second paragraph of the chapter. It has two sentences!
@section{A Section}
Section content goes here.
@image{img-1}
After the image.
@references
[1] Some reference entry.
"""


class TestParsing:
    def test_block_sequence(self):
        doc = parse_markup(SAMPLE)
        kinds = [b.kind for b in doc.blocks]
        assert kinds == [
            BlockKind.TITLE,
            BlockKind.ABSTRACT_START,
            BlockKind.PARAGRAPH,
            BlockKind.CHAPTER,
            BlockKind.PARAGRAPH,
            BlockKind.PARAGRAPH,
            BlockKind.SECTION,
            BlockKind.PARAGRAPH,
            BlockKind.IMAGE,
            BlockKind.PARAGRAPH,
            BlockKind.REFERENCES_START,
            BlockKind.PARAGRAPH,
        ]

    def test_plain_text_has_no_markup(self):
        doc = parse_markup(SAMPLE)
        assert "@" not in doc.plain_text
        assert "**" not in doc.plain_text
        assert "bold words" in doc.plain_text

    def test_image_tags(self):
        doc = parse_markup(SAMPLE)
        assert doc.image_tags() == ["img-1"]

    def test_inline_styles(self):
        doc = parse_markup("With **bold** and *italic* and _under_.")
        styles = {run.style for run in doc.blocks[0].runs}
        assert TextStyle.BOLD in styles
        assert TextStyle.ITALIC in styles
        assert TextStyle.UNDERLINE in styles
        assert TextStyle.PLAIN in styles

    def test_run_offsets_match_plain_text(self):
        doc = parse_markup("one **two** three")
        for run in doc.blocks[0].runs:
            assert doc.plain_text[run.offset: run.offset + len(run.text)] == run.text

    def test_unknown_directive_rejected(self):
        with pytest.raises(MarkupError):
            parse_markup("@nonsense{x}")

    def test_directive_without_required_argument_rejected(self):
        with pytest.raises(MarkupError):
            parse_markup("@chapter")

    def test_indent_requires_number(self):
        with pytest.raises(MarkupError):
            parse_markup("@indent{lots}")

    def test_blank_lines_split_paragraphs(self):
        doc = parse_markup("first paragraph\n\nsecond paragraph")
        paragraphs = [b for b in doc.blocks if b.kind is BlockKind.PARAGRAPH]
        assert len(paragraphs) == 2

    def test_consecutive_lines_join_into_one_paragraph(self):
        doc = parse_markup("line one\nline two\nline three")
        paragraphs = [b for b in doc.blocks if b.kind is BlockKind.PARAGRAPH]
        assert len(paragraphs) == 1
        assert paragraphs[0].text == "line one line two line three"


class TestLogicalIndex:
    def test_structural_units(self):
        index = parse_markup(SAMPLE).logical_index
        assert index.count(LogicalUnitKind.TITLE) == 1
        assert index.count(LogicalUnitKind.ABSTRACT) == 1
        assert index.count(LogicalUnitKind.CHAPTER) == 1
        assert index.count(LogicalUnitKind.SECTION) == 1
        assert index.count(LogicalUnitKind.REFERENCES) == 1

    def test_paragraphs_nest_in_sections_and_chapters(self):
        index = parse_markup(SAMPLE).logical_index
        chapter = index.units(LogicalUnitKind.CHAPTER)[0]
        section = index.units(LogicalUnitKind.SECTION)[0]
        assert section in chapter.children
        # abstract(1) + chapter(2) + section(1) + post-image(1) + refs(1)
        assert index.count(LogicalUnitKind.PARAGRAPH) == 6

    def test_sentences_and_words(self):
        doc = parse_markup("One two. Three four five!")
        index = doc.logical_index
        assert index.count(LogicalUnitKind.SENTENCE) == 2
        assert index.count(LogicalUnitKind.WORD) == 5

    def test_word_offsets_match_plain_text(self):
        doc = parse_markup("alpha beta gamma.")
        for word in doc.logical_index.units(LogicalUnitKind.WORD):
            assert (
                doc.plain_text[int(word.start): int(word.end)] == word.label
            )

    def test_chapter_spans_to_next_chapter(self):
        doc = parse_markup(
            "@chapter{A}\nfirst text here\n@chapter{B}\nsecond text here"
        )
        chapters = doc.logical_index.units(LogicalUnitKind.CHAPTER)
        assert chapters[0].end == chapters[1].start
        assert chapters[1].end == len(doc.plain_text)

    def test_document_without_structure_has_only_flat_units(self):
        doc = parse_markup("just a paragraph of plain prose.")
        kinds = doc.logical_index.kinds_present()
        assert LogicalUnitKind.CHAPTER not in kinds
        assert LogicalUnitKind.PARAGRAPH in kinds


_FINE_KINDS = {LogicalUnitKind.SENTENCE, LogicalUnitKind.WORD}


def _assert_structural_kinds_exact(document):
    kinds = document.structural_kinds
    assert "logical_index" not in document.__dict__  # read off the blocks
    assert kinds == document.logical_index.kinds_present() - _FINE_KINDS


def _scenario_objects():
    subway, overlays = build_subway_map_with_relevants()
    return [
        *build_object_library(Archiver(), visual_count=8, audio_count=1, seed=3),
        build_office_document(),
        build_visual_report_with_xray(),
        build_xray_transparency_object(),
        build_audio_mode_report(),
        subway,
        *overlays,
        build_city_walk_simulation(IdGenerator("walk")),
        build_map_tour_object(),
        *build_engineering_design(),
        build_big_map_object(size=256),
    ]


class TestStructuralKinds:
    """The menu's unit kinds, read off the blocks, equal the index's."""

    def test_sample_and_empty_documents(self):
        _assert_structural_kinds_exact(parse_markup(SAMPLE))
        _assert_structural_kinds_exact(parse_markup(""))
        assert parse_markup(SAMPLE).structural_kinds == {
            LogicalUnitKind.TITLE,
            LogicalUnitKind.ABSTRACT,
            LogicalUnitKind.CHAPTER,
            LogicalUnitKind.SECTION,
            LogicalUnitKind.PARAGRAPH,
            LogicalUnitKind.REFERENCES,
        }

    def test_every_library_and_scenario_document(self):
        segments = [
            segment for obj in _scenario_objects() for segment in obj.text_segments
        ]
        assert len(segments) >= 10
        for segment in segments:
            _assert_structural_kinds_exact(segment.document)

    @settings(max_examples=300)
    @given(
        lines=st.lists(
            st.sampled_from(
                [
                    "@title{T}",
                    "@abstract",
                    "@chapter{C}",
                    "@section{S}",
                    "@references",
                    "@image{img}",
                    "@indent{4}",
                    "",
                    "   ",
                ]
            )
            | st.text(st.sampled_from(list("ab .!?'-*_")), max_size=12).filter(
                lambda line: not line.strip().startswith("@")
            ),
            max_size=25,
        )
    )
    def test_random_markup(self, lines):
        _assert_structural_kinds_exact(parse_markup("\n".join(lines)))
