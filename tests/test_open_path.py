"""The fast object-open path: batching, decoded cache, lazy decode.

Pins the three layers of the open-path overhaul end to end through the
presentation manager: (1) a cold open issues ONE scatter-gather server
request where the sequential baseline issues one round-trip per piece,
at identical bytes shipped and no more simulated seek time; (2) a warm
re-open is served from the workstation's decoded-object cache with
zero server requests and zero bytes shipped, and is invalidated by
idle-time recognition updates rather than serving stale utterances;
(3) every voice waveform (segments, messages and labels) ships companded
and expands only when its samples are first read (a segment's first
playback, an edit), never at open time; a re-store ships the codes.
"""

import pytest

from repro.audio.recognition import RecognizedUtterance
from repro.core.browsing import BrowseCommand
from repro.core.manager import DecodedObjectCache, PresentationManager
from repro.errors import BrowsingError
from repro.formatter.builder import ObjectFormatter
from repro.scenarios import build_big_map_object, build_object_library
from repro.scenarios.city import build_city_walk_simulation
from repro.server import Archiver
from repro.trace import EventKind
from repro.workstation.station import Workstation


def _library_archiver():
    archiver = Archiver()
    build_object_library(archiver, visual_count=3, audio_count=2)
    return archiver


def _visual_id(archiver):
    for object_id in archiver.object_ids():
        if archiver.record(object_id).descriptor.driving_mode == "visual":
            return object_id
    raise AssertionError("library has no visual object")


def _audio_id(archiver):
    for object_id in archiver.object_ids():
        if archiver.record(object_id).descriptor.driving_mode == "audio":
            return object_id
    raise AssertionError("library has no audio object")


class TestBatchedOpen:
    def test_cold_open_issues_one_batched_request(self):
        archiver = _library_archiver()
        manager = PresentationManager(archiver, Workstation())
        object_id = _visual_id(archiver)
        pieces = len(archiver.record(object_id).descriptor.locations)
        assert pieces >= 2
        archiver.op_counts.clear()
        manager.open(object_id)
        assert archiver.op_counts["read_scattered"] == 1
        assert archiver.op_counts["read_absolute"] == 0
        assert sum(archiver.op_counts.values()) <= 2

    def test_sequential_baseline_issues_one_request_per_piece(self):
        archiver = _library_archiver()
        manager = PresentationManager(
            archiver, Workstation(), batch_open=False
        )
        object_id = _visual_id(archiver)
        pieces = len(archiver.record(object_id).descriptor.locations)
        archiver.op_counts.clear()
        manager.open(object_id)
        assert archiver.op_counts["read_scattered"] == 0
        assert archiver.op_counts["read_absolute"] >= pieces

    def test_batched_open_ships_identical_bytes_at_no_more_cost(self):
        sequential_archiver = _library_archiver()
        sequential_ws = Workstation()
        sequential = PresentationManager(
            sequential_archiver, sequential_ws, batch_open=False
        )
        batched_archiver = _library_archiver()
        batched_ws = Workstation()
        batched = PresentationManager(batched_archiver, batched_ws)
        object_id = _visual_id(sequential_archiver)
        sequential.open(object_id)
        batched.open(object_id)
        assert batched.bytes_shipped == sequential.bytes_shipped
        seq_transfer = sequential_ws.trace.last(EventKind.TRANSFER).detail
        bat_transfer = batched_ws.trace.last(EventKind.TRANSFER).detail
        assert bat_transfer["bytes"] == seq_transfer["bytes"]
        assert bat_transfer["service_s"] <= seq_transfer["service_s"]

    def test_deferred_bitmap_behaviour_preserved(self):
        archiver = Archiver()
        big = build_big_map_object(size=512, miniature_scale=8)
        archiver.store(big)
        manager = PresentationManager(archiver, Workstation())
        session = manager.open(big.object_id)
        # The source bitmap stays on the server even under batching...
        assert manager.bytes_shipped < 512 * 512
        assert session.object.images[0].bitmap is None
        # ...and views still fetch exactly their window's rows.
        before = manager.bytes_shipped
        session.define_view(x=16, y=16, width=64, height=32)
        assert manager.bytes_shipped - before == 64 * 32

    def test_open_cost_recorded_on_session(self):
        archiver = _library_archiver()
        manager = PresentationManager(archiver, Workstation())
        session = manager.open(_visual_id(archiver))
        transfer = manager.workstation.trace.last(EventKind.TRANSFER).detail
        assert session.open_cost_s > 0.0
        assert session.open_cost_s == pytest.approx(
            transfer["service_s"] + transfer["network_s"], abs=1e-3
        )


class TestDecodedObjectCache:
    def test_warm_reopen_ships_zero_bytes(self):
        archiver = _library_archiver()
        manager = PresentationManager(archiver, Workstation())
        object_id = _visual_id(archiver)
        first = manager.open(object_id)
        shipped_after_cold = manager.bytes_shipped
        archiver.op_counts.clear()
        second = manager.open(object_id)
        assert manager.bytes_shipped == shipped_after_cold
        assert sum(archiver.op_counts.values()) == 0
        assert second.open_cost_s == 0.0
        assert second.object is first.object
        assert manager.decoded_cache.hits == 1

    def test_recognition_update_invalidates_not_stale(self):
        # An object whose voice segment carries NO insertion-time
        # utterances: idle-time recognition is its only content index.
        from repro.audio.signal import synthesize_speech
        from repro.ids import IdGenerator
        from repro.objects.model import DrivingMode, MultimediaObject
        from repro.objects.parts import VoiceSegment
        from repro.objects.presentation import PresentationSpec

        generator = IdGenerator("open-path")
        archiver = Archiver()
        obj = MultimediaObject(
            object_id=generator.object_id(), driving_mode=DrivingMode.AUDIO
        )
        segment = VoiceSegment(
            segment_id=generator.segment_id(),
            recording=synthesize_speech("A short bare dictation.", seed=9),
        )
        obj.add_voice_segment(segment)
        obj.presentation = PresentationSpec(audio_order=[segment.segment_id])
        archiver.store(obj.archive())

        manager = PresentationManager(archiver, Workstation())
        session = manager.open(obj.object_id)
        assert not session.object.voice_segments[0].utterances
        # Idle-time recognition lands at the server after the open.
        archiver.attach_recognition(
            obj.object_id,
            {segment.segment_id: [RecognizedUtterance("freshterm", 0.5)]},
        )
        reopened = manager.open(obj.object_id)
        assert reopened.object is not session.object
        terms = reopened.object.voice_segments[0].utterance_terms()
        assert "freshterm" in terms
        assert manager.decoded_cache.invalidations >= 1

    def test_lru_eviction_respects_byte_budget(self):
        archiver = _library_archiver()
        ids = archiver.object_ids()
        sizes = {
            object_id: sum(
                loc.length
                for loc in archiver.record(object_id).descriptor.locations
            )
            for object_id in ids
        }
        # Budget fits roughly one object: opening a second evicts the first.
        budget = max(sizes.values()) + 1
        manager = PresentationManager(
            archiver, Workstation(), decoded_cache_bytes=budget
        )
        manager.open(ids[0])
        manager.open(ids[1])
        assert len(manager.decoded_cache) <= 2
        assert manager.decoded_cache.used_bytes <= budget

    def test_oversized_objects_not_admitted(self):
        cache = DecodedObjectCache(capacity_bytes=10)
        cache.put("obj", object(), version=1, nbytes=11)
        assert len(cache) == 0

    def test_invalid_capacity_rejected(self):
        with pytest.raises(BrowsingError):
            DecodedObjectCache(capacity_bytes=0)


class TestComputedOncePerObject:
    """Sessions on one cached object share its pure results read-only."""

    def test_two_sessions_share_program_and_navigate_independently(self):
        archiver = _library_archiver()
        manager = PresentationManager(archiver, Workstation())
        object_id = _visual_id(archiver)
        first = manager.open(object_id)
        first_frame = first.render_screen().render()
        first.next_page()
        second = manager.open(object_id)
        assert second.program is first.program
        segment = first.object.text_segments[0]
        assert second.object.text_segments[0].search_index is segment.search_index
        assert (first.current_page_number, second.current_page_number) == (2, 1)
        assert second.render_screen().render() == first_frame
        second.next_page()
        first.previous_page()
        assert (first.current_page_number, second.current_page_number) == (1, 2)
        assert first.render_screen().render() == first_frame
        assert manager.decoded_cache.hits == 1

    def test_version_bump_compiles_a_new_program(self):
        archiver = _library_archiver()
        manager = PresentationManager(archiver, Workstation())
        object_id = _visual_id(archiver)
        before = manager.open(object_id)
        archiver.attach_recognition(object_id, {})
        after = manager.open(object_id)
        assert after.object is not before.object
        assert after.program is not before.program
        assert [p.kind for p in after.program.pages] == [
            p.kind for p in before.program.pages
        ]

    def test_object_outside_the_cache_compiles_its_own_program(self):
        archiver = _library_archiver()
        manager = PresentationManager(
            archiver, Workstation(), decoded_cache_bytes=1
        )
        object_id = _visual_id(archiver)
        first = manager.open(object_id)
        second = manager.open(object_id)
        assert len(manager.decoded_cache) == 0
        assert second.object is not first.object
        assert second.program is not first.program

    def test_program_lookup_moves_no_counter(self):
        archiver = _library_archiver()
        manager = PresentationManager(archiver, Workstation())
        session = manager.open(_visual_id(archiver))
        cache = manager.decoded_cache
        counters = (cache.hits, cache.misses, cache.used_bytes, cache.evictions)
        page_height = manager.workstation.screen.text_lines
        assert cache.program(session.object, page_height) is session.program
        assert (cache.hits, cache.misses, cache.used_bytes, cache.evictions) == counters


class TestLazyVoiceDecode:
    def test_no_decode_at_open_of_visual_object(self):
        archiver = _library_archiver()
        workstation = Workstation()
        manager = PresentationManager(archiver, workstation)
        manager.open(_visual_id(archiver))
        assert not workstation.trace.of_kind(EventKind.DECODE_VOICE)

    def test_fetch_keeps_segments_companded(self):
        archiver = _library_archiver()
        manager = PresentationManager(archiver, Workstation())
        obj, _cost = manager._fetch(_audio_id(archiver))
        for segment in obj.voice_segments:
            assert not segment.recording.is_materialized
            # Duration and size are known without decoding.
            assert segment.duration > 0.0
            assert segment.nbytes > 0

    def test_first_play_decodes_exactly_once(self):
        archiver = _library_archiver()
        workstation = Workstation()
        manager = PresentationManager(archiver, workstation)
        object_id = _audio_id(archiver)
        # Opening an audio object starts playback, which is the first
        # (and only) decode of its segment.
        session = manager.open(object_id)
        decodes = workstation.trace.of_kind(EventKind.DECODE_VOICE)
        plays = workstation.trace.of_kind(EventKind.PLAY_VOICE)
        assert len(decodes) == 1
        assert plays
        assert decodes[0].time >= plays[0].time  # decode AT play, not open
        session.play_for(0.5)
        session.interrupt()
        session.resume()
        session.interrupt()
        assert len(workstation.trace.of_kind(EventKind.DECODE_VOICE)) == 1

    def test_decode_event_names_segment_and_samples(self):
        archiver = _library_archiver()
        workstation = Workstation()
        manager = PresentationManager(archiver, workstation)
        session = manager.open(_audio_id(archiver))
        segment = session.object.voice_segments[0]
        detail = workstation.trace.last(EventKind.DECODE_VOICE).detail
        assert detail["segment"] == str(segment.segment_id)
        assert detail["samples"] == segment.recording.n_samples

    def test_walk_messages_stay_companded_until_touched(self):
        walk = build_city_walk_simulation()
        archiver = Archiver()
        archiver.store(walk)
        workstation = Workstation()
        session = PresentationManager(archiver, workstation).open(walk.object_id)
        messages = session.object.voice_messages
        assert len(messages) == 5
        assert not any(m.recording.is_materialized for m in messages)
        # Each step's message plays from its byte count alone.
        for _ in range(session.page_count - 1):
            session.execute(BrowseCommand.NEXT_PAGE)
        played = [
            (event.detail["message"], event.detail["duration_s"])
            for event in workstation.trace.of_kind(EventKind.PLAY_MESSAGE)
        ]
        assert played == [
            (str(m.message_id), round(m.recording.duration, 3))
            for m in walk.voice_messages
        ]
        assert not any(m.recording.is_materialized for m in messages)
        assert not workstation.trace.of_kind(EventKind.DECODE_VOICE)
        # Re-forming the rebuilt walk ships each message's codes as
        # fetched: nothing expands, and the bytes are the source's.
        assert (
            ObjectFormatter().form(session.object).composition
            == ObjectFormatter().form(walk).composition
        )
        assert not any(m.recording.is_materialized for m in messages)
