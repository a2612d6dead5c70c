"""Browse's row-string frames and regex word split against their oracles.

``tests/browse_reference.py`` keeps the per-character frame, its
renderer and the per-character word split that browse ran before.
Every frame, clipped write and word list must come out identical,
degenerate layouts included: a menu as wide as the frame, a pinned
region taller than it, writes that start left of column 0.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text.formatter import FormattedLine, LineKind, _words_with_offsets
from repro.text.markup import Block, BlockKind, StyledRun, TextStyle
from repro.text.pagination import PageElement, PageElementKind, VisualPage
from repro.workstation.framebuffer import CharacterFrame, FrameLayout, render_frame
from repro.workstation.menus import Menu, MenuOption
from tests import browse_reference as reference

# Text that exercises the clipping and the word split: spaces in runs,
# tabs and newlines (not word breaks), accents, CJK and an emoji.
_CHARS = st.sampled_from(list("ab Z.,- \t\né漢😀"))
_TEXT = st.text(_CHARS, max_size=40)

_layouts = st.builds(
    FrameLayout,
    width=st.integers(-3, 48),
    height=st.integers(-2, 24),
    menu_width=st.integers(-3, 60),
    pinned_rows=st.integers(-2, 30),
)

_menus = st.lists(
    st.builds(MenuOption, command=st.text(max_size=5), label=_TEXT), max_size=30
).map(Menu)

_elements = st.one_of(
    st.builds(
        PageElement,
        kind=st.just(PageElementKind.LINE),
        line=st.builds(FormattedLine, kind=st.just(LineKind.TEXT), text=_TEXT),
    ),
    st.builds(
        PageElement,
        kind=st.just(PageElementKind.IMAGE),
        image_tag=st.text(_CHARS, max_size=12),
        height_lines=st.integers(0, 8),
    ),
)

_pages = st.none() | st.builds(
    VisualPage, number=st.just(1), elements=st.lists(_elements, max_size=40)
)


def _rows(frame, layout: FrameLayout) -> list[str]:
    return [frame.row(i) for i in range(max(layout.height, 0))]


@settings(max_examples=300)
@given(
    page=_pages,
    menu=_menus,
    pinned_text=_TEXT,
    pinned_image=st.booleans(),
    layout=st.none() | _layouts,
)
def test_render_frame_matches_per_character_frame(
    page, menu, pinned_text, pinned_image, layout
):
    expected = reference.render_frame(page, menu, pinned_text, pinned_image, layout)
    actual = render_frame(page, menu, pinned_text, pinned_image, layout)
    assert actual.render() == expected.render()
    assert _rows(actual, actual.layout) == _rows(expected, expected.layout)
    assert actual.layout == expected.layout


@settings(max_examples=300)
@given(
    layout=_layouts,
    writes=st.lists(
        st.tuples(st.integers(-3, 26), st.integers(-60, 60), _TEXT), max_size=12
    ),
)
def test_put_matches_per_character_put(layout, writes):
    expected = reference.CharacterFrame(layout)
    actual = CharacterFrame(layout)
    for row, column, text in writes:
        expected.put(row, column, text)
        actual.put(row, column, text)
        assert _rows(actual, layout) == _rows(expected, layout)
    assert actual.render() == expected.render()


_runs = st.lists(
    st.tuples(_TEXT, st.sampled_from(list(TextStyle)), st.integers(0, 500)),
    max_size=6,
)


@settings(max_examples=300)
@given(runs=_runs)
def test_word_split_matches_per_character_split(runs):
    block = Block(
        kind=BlockKind.PARAGRAPH,
        runs=[StyledRun(text=t, style=s, offset=o) for t, s, o in runs],
    )
    assert _words_with_offsets(block) == reference._words_with_offsets(block)


def test_word_split_on_awkward_spacing():
    runs = [
        StyledRun("  lead and  double  ", TextStyle.PLAIN, 0),
        StyledRun("bold\tword\nnext ", TextStyle.BOLD, 20),
        StyledRun("    ", TextStyle.ITALIC, 35),
        StyledRun("", TextStyle.PLAIN, 39),
        StyledRun("café 漢字  end", TextStyle.UNDERLINE, 39),
    ]
    block = Block(kind=BlockKind.PARAGRAPH, runs=runs)
    words = _words_with_offsets(block)
    assert words == reference._words_with_offsets(block)
    assert [w for w, _, _ in words] == [
        "lead", "and", "double", "bold\tword\nnext", "café", "漢字", "end"
    ]
    assert [o for _, o, _ in words] == [2, 7, 12, 20, 39, 44, 48]
