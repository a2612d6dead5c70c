"""Audio sessions over multi-segment voice parts."""

import pytest

from repro.audio.recognition import VocabularyRecognizer
from repro.audio.signal import synthesize_speech
from repro.core.audio import AudioSession
from repro.core.browsing import BrowseCommand
from repro.core.manager import LocalStore, PresentationManager
from repro.errors import BrowsingError
from repro.ids import IdGenerator
from repro.objects import DrivingMode, MultimediaObject, PresentationSpec
from repro.objects.logical import LogicalIndex, LogicalUnit, LogicalUnitKind
from repro.objects.parts import VoiceSegment
from repro.trace import EventKind
from repro.workstation.station import Workstation
from repro.workstation.stats import summarize


@pytest.fixture
def multi_segment_object():
    generator = IdGenerator("multi")
    obj = MultimediaObject(
        object_id=generator.object_id(), driving_mode=DrivingMode.AUDIO
    )
    scripts = [
        "first segment speaks about the budget on optical storage",
        "second segment covers the fracture in the radiograph",
        "third segment closes with recommendations and follow up",
    ]
    recognizer = VocabularyRecognizer(
        ["budget", "fracture", "recommendations"],
        miss_rate=0.0,
        confusion_rate=0.0,
    )
    segments = []
    for index, script in enumerate(scripts):
        recording = synthesize_speech(script, seed=60 + index)
        segment = VoiceSegment(
            segment_id=generator.segment_id(),
            recording=recording,
            logical_index=LogicalIndex(
                [
                    LogicalUnit(
                        LogicalUnitKind.CHAPTER,
                        0.0,
                        recording.duration,
                        f"part-{index}",
                    )
                ]
            ),
            utterances=recognizer.recognize(recording),
        )
        obj.add_voice_segment(segment)
        segments.append(segment)
    obj.presentation = PresentationSpec(
        audio_order=[s.segment_id for s in segments], audio_page_seconds=4.0
    )
    return obj.archive(), segments


@pytest.fixture
def session(multi_segment_object):
    obj, segments = multi_segment_object
    workstation = Workstation()
    store = LocalStore()
    store.add(obj)
    session = PresentationManager(store, workstation).open(obj.object_id)
    session.interrupt()
    return session, segments, workstation


class TestGlobalTimeline:
    def test_duration_is_sum_of_segments(self, session):
        browsing, segments, _ = session
        total = sum(s.duration for s in segments)
        assert browsing.duration == pytest.approx(total)

    def test_locate_maps_global_to_segment(self, session):
        browsing, segments, _ = session
        first_end = segments[0].duration
        segment, local = browsing.locate(first_end + 0.5)
        assert segment is segments[1]
        assert local == pytest.approx(0.5)

    def test_locate_at_zero(self, session):
        browsing, segments, _ = session
        segment, local = browsing.locate(0.0)
        assert segment is segments[0]
        assert local == 0.0

    def test_pages_span_segments(self, session):
        browsing, segments, _ = session
        # 4-second pages over the whole timeline.
        assert browsing.page_count >= 2
        last = browsing._pager.page(browsing.page_count)
        assert last.end == pytest.approx(browsing.duration, abs=0.05)


class TestCrossSegmentNavigation:
    def test_next_chapter_crosses_segments(self, session):
        browsing, segments, _ = session
        # Chapter 1 starts at position 0, so the first "next chapter"
        # already crosses into segment 1.
        first = browsing.goto_unit(LogicalUnitKind.CHAPTER, +1)
        assert first == pytest.approx(segments[0].duration, abs=0.01)
        browsing.interrupt()
        second = browsing.goto_unit(LogicalUnitKind.CHAPTER, +1)
        assert second == pytest.approx(
            segments[0].duration + segments[1].duration, abs=0.01
        )
        assert second > first

    def test_chapter_command_is_traced_like_every_command(self, session):
        browsing, segments, workstation = session
        commands = summarize(workstation.trace).commands
        opened = len(workstation.trace)
        browsing.execute(BrowseCommand.NEXT_CHAPTER)
        events = list(workstation.trace)[opened:]
        # Recorded before the seek it causes, as for the other commands.
        assert events[0].kind is EventKind.COMMAND
        assert events[0].detail == {"command": "next_chapter"}
        assert summarize(workstation.trace).commands == commands + 1
        assert browsing.position == pytest.approx(segments[0].duration, abs=0.01)

    def test_previous_chapter_crosses_back(self, session):
        browsing, segments, _ = session
        browsing.goto_page(browsing.page_count)
        browsing.interrupt()
        target = browsing.goto_unit(LogicalUnitKind.CHAPTER, -1)
        assert target < browsing.duration

    def test_search_crosses_segments(self, session):
        browsing, segments, _ = session
        page = browsing.find_pattern("fracture")
        assert page is not None
        # 'fracture' is spoken in segment 1.
        offset = segments[0].duration
        hit_time = browsing._last_find[1]
        assert hit_time >= offset
        browsing.interrupt()
        page2 = browsing.find_pattern("recommendations")
        assert page2 is not None

    def test_playback_crosses_segment_boundary(self, session):
        browsing, segments, _ = session
        boundary = segments[0].duration
        browsing.resume()
        browsing.play_for(boundary + 1.0)
        assert browsing.position == pytest.approx(boundary + 1.0)
        segment, local = browsing.locate(browsing.position)
        assert segment is segments[1]

    def test_rewind_uses_local_segment_pauses(self, session):
        browsing, segments, _ = session
        boundary = segments[0].duration
        browsing.resume()
        browsing.play_for(boundary + 2.0)
        browsing.interrupt()
        target = browsing.rewind_short_pauses(1)
        # Rewind stays within/near the current segment's timeline.
        assert 0 <= target <= boundary + 2.0


class TestSessionGuards:
    def test_audio_session_requires_audio_mode(self, generator):
        obj = MultimediaObject(
            object_id=generator.object_id(), driving_mode=DrivingMode.VISUAL
        )
        with pytest.raises(BrowsingError):
            AudioSession(obj, Workstation())

    def test_audio_session_requires_voice_part(self, generator):
        obj = MultimediaObject(
            object_id=generator.object_id(), driving_mode=DrivingMode.AUDIO
        )
        with pytest.raises(BrowsingError):
            AudioSession(obj, Workstation())
