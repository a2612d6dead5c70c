"""The virtual workstation: screen, audio output, menus."""

import pytest

from repro.audio.signal import synthesize_speech
from repro.images.bitmap import Bitmap
from repro.trace import EventKind
from repro.workstation.menus import Menu, MenuOption
from repro.workstation.station import Workstation


class TestScreen:
    def test_show_page(self, workstation):
        workstation.screen.show_page(3, "hello")
        assert workstation.screen.page_number == 3
        assert workstation.screen.page_text == "hello"

    def test_pin_unpin(self, workstation):
        workstation.screen.pin("msg-1", text="hint")
        assert workstation.screen.pinned.name == "msg-1"
        workstation.screen.unpin()
        assert workstation.screen.pinned is None
        workstation.screen.unpin()  # idempotent, no extra event
        unpins = workstation.trace.of_kind(EventKind.UNPIN_MESSAGE)
        assert len(unpins) == 1

    def test_image_page_resets_compositing(self, workstation):
        base = Bitmap.blank(10, 10, fill=50)
        workstation.screen.show_image_page(1, base)
        overlay = Bitmap.blank(10, 10)
        overlay.pixels[0, 0] = 255
        workstation.screen.superimpose(overlay, "t1")
        assert workstation.screen.transparency_depth == 1
        workstation.screen.show_image_page(2, base)
        assert workstation.screen.transparency_depth == 0
        assert int(workstation.screen.composite.pixels[0, 0]) == 50

    def test_ensure_canvas_grows(self, workstation):
        workstation.screen.ensure_canvas(10, 10)
        workstation.screen.ensure_canvas(20, 5)
        assert workstation.screen.composite.width == 20

    def test_clear(self, workstation):
        workstation.screen.show_page(1, "x")
        workstation.screen.pin("m")
        workstation.screen.clear()
        assert workstation.screen.page_number is None
        assert workstation.screen.pinned is None
        assert workstation.screen.composite is None

    def test_indicators_traced(self, workstation):
        workstation.screen.show_indicators([{"indicator": "i1", "label": "L"}])
        assert workstation.screen.indicators == [
            {"indicator": "i1", "label": "L"}
        ]
        assert workstation.trace.of_kind(EventKind.SHOW_INDICATOR)


class TestAudioOutput:
    def test_play_to_end_advances_clock(self, workstation):
        recording = synthesize_speech("short clip", seed=1)
        duration = workstation.audio.play_to_end(recording, "clip")
        assert workstation.clock.now == pytest.approx(duration)

    def test_play_message_traced(self, workstation):
        recording = synthesize_speech("note", seed=2)
        workstation.audio.play_message(recording, "msg-9")
        event = workstation.trace.last(EventKind.PLAY_MESSAGE)
        assert event.detail["message"] == "msg-9"
        assert workstation.clock.now == pytest.approx(recording.duration)

    def test_play_label_traced(self, workstation):
        recording = synthesize_speech("label", seed=3)
        workstation.audio.play_label(recording, "harbour")
        event = workstation.trace.last(EventKind.PLAY_LABEL)
        assert event.detail["label"] == "harbour"


class TestMenu:
    def test_lookup_and_contains(self):
        menu = Menu([MenuOption("next_page", "next"), MenuOption("find", "find")])
        assert "next_page" in menu
        assert "quit" not in menu
        assert menu.option("find").label == "find"
        assert menu.option("quit") is None
        assert len(menu) == 2
        assert menu.commands == ["next_page", "find"]
        assert [o.command for o in menu] == ["next_page", "find"]


class TestCharacterFrame:
    def test_put_clips_like_a_write_per_character(self):
        from repro.workstation.framebuffer import CharacterFrame, FrameLayout

        layout = FrameLayout(width=10, height=3, menu_width=2, pinned_rows=1)
        for row in (-1, 0, 2, 3):
            for column in (-12, -3, 0, 4, 9, 10, 15):
                for text in ("", "a", "abcdef", "x" * 14):
                    frame = CharacterFrame(layout)
                    frame.put(row, column, text)
                    grid = [[" "] * layout.width for _ in range(layout.height)]
                    for col, char in enumerate(text, start=column):
                        if 0 <= row < layout.height and 0 <= col < layout.width:
                            grid[row][col] = char
                    assert [frame.row(i) for i in range(layout.height)] == [
                        "".join(cells) for cells in grid
                    ], (row, column, text)
