"""What a session builds to offer its menu and to run a command.

A visual menu learns which logical-unit commands to offer from the
unit kinds the parsed blocks name, so a cold open builds no sentence or
word unit; the logical index is built on the first logical-unit
command.  Each session class runs its commands from one module-level
table of method names.
"""

from __future__ import annotations

import inspect
import re

import pytest

from repro.core import audio, visual
from repro.core.audio import AudioSession
from repro.core.browsing import BrowseCommand
from repro.core.manager import PresentationManager
from repro.core.visual import VisualSession
from repro.objects.model import DrivingMode
from repro.scenarios import build_object_library
from repro.server import Archiver
from repro.text import markup
from repro.trace import EventKind
from repro.workstation.station import Workstation
from repro.workstation.stats import summarize


@pytest.fixture(scope="module")
def library():
    archiver = Archiver()
    objects = build_object_library(archiver, visual_count=3, audio_count=1, seed=5)
    return archiver, objects


def _cold_session(archiver, object_id):
    manager = PresentationManager(archiver, Workstation())
    session = manager.open(object_id)
    session.render_screen()
    return session, manager.workstation


def test_cold_open_builds_no_sentence_or_word_unit(library, monkeypatch):
    archiver, objects = library
    document = objects[0]
    assert document.driving_mode is DrivingMode.VISUAL
    built = []
    real = markup._sentence_units

    def counting(block):
        units = real(block)
        built.extend(units)
        return units

    monkeypatch.setattr(markup, "_sentence_units", counting)
    session, workstation = _cold_session(archiver, document.object_id)
    assert BrowseCommand.NEXT_PARAGRAPH.value in session.menu
    assert built == []
    for segment in session.object.text_segments:
        assert "logical_index" not in segment.__dict__
        assert "logical_index" not in segment.document.__dict__

    # The first logical-unit command builds the index, and each one lands
    # where it lands in a session whose index was built before the open.
    eager, eager_workstation = _cold_session(archiver, document.object_id)
    for segment in eager.object.text_segments:
        segment.logical_index
    opened = len(workstation.trace), len(eager_workstation.trace)
    landings = []
    for _ in range(4):
        for each in (session, eager):
            each.execute(BrowseCommand.NEXT_PARAGRAPH)
        assert session.current_page_number == eager.current_page_number
        assert session._offset_cursor == eager._offset_cursor
        assert session.render_screen().render() == eager.render_screen().render()
        landings.append((session.current_page_number, session._offset_cursor))
    assert built
    lazy_events, eager_events = (
        [(event.kind, event.detail) for event in list(trace)[start:]]
        for trace, start in zip((workstation.trace, eager_workstation.trace), opened)
    )
    assert lazy_events == eager_events
    cursors = [cursor for _page, cursor in landings]
    assert cursors == sorted(set(cursors)) and cursors[0] > 0


def test_logical_unit_commands_are_traced_like_every_command(library):
    archiver, objects = library
    session, workstation = _cold_session(archiver, objects[0].object_id)
    opened = len(workstation.trace)
    session.execute(BrowseCommand.NEXT_PARAGRAPH)
    session.execute(BrowseCommand.NEXT_PARAGRAPH)
    events = list(workstation.trace)[opened:]
    # Recorded before the command's handler runs, as for the others.
    assert events[0].kind is EventKind.COMMAND
    assert [e.detail for e in events if e.kind is EventKind.COMMAND] == [
        {"command": "next_paragraph"}
    ] * 2
    assert summarize(workstation.trace).commands == 2


def _commands_named_in(source: str) -> set[BrowseCommand]:
    return {BrowseCommand[name] for name in re.findall(r"BrowseCommand\.(\w+)", source)}


@pytest.mark.parametrize(
    "module, session_class, menu_code",
    [
        (
            visual,
            VisualSession,
            [VisualSession.menu.fget, VisualSession._object_menu_options.func],
        ),
        (audio, AudioSession, [AudioSession.menu.fget]),
    ],
    ids=["visual", "audio"],
)
def test_every_menu_command_has_a_handler(module, session_class, menu_code):
    offered = set()
    for function in menu_code:
        offered |= _commands_named_in(inspect.getsource(function))
    offered |= set(module._UNIT_COMMANDS)  # offered by unit kind
    assert offered
    assert not set(module._HANDLERS) & set(module._UNIT_COMMANDS)
    assert offered == set(module._HANDLERS) | set(module._UNIT_COMMANDS)
    for command, name in module._HANDLERS.items():
        assert callable(getattr(session_class, name, None)), (command, name)

