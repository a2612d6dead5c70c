"""Scenario builders: structural sanity of each figure's workload."""

import pytest

from repro.audio.pauses import PauseIndex, PauseKind
from repro.objects import (
    DrivingMode,
    ImagePage,
    ObjectState,
    ProcessSimulation,
    Tour,
    TransparencySet,
)
from repro.scenarios import (
    LECTURE_SCRIPT,
    build_audio_mode_report,
    build_big_map_object,
    build_city_walk_simulation,
    build_lecture_recording,
    build_map_tour_object,
    build_object_library,
    build_office_document,
    build_subway_map_with_relevants,
    build_visual_report_with_xray,
    build_xray_transparency_object,
)
from repro.scenarios.speech import FAST_SPEAKER, SLOW_SPEAKER
from repro.server import Archiver


class TestOffice:
    def test_structure(self):
        obj = build_office_document()
        assert obj.state is ObjectState.ARCHIVED
        assert obj.driving_mode is DrivingMode.VISUAL
        assert len(obj.images) == 2
        assert obj.text_segments[0].document.image_tags()

    def test_deterministic(self):
        a = build_office_document()
        b = build_office_document()
        assert a.text_segments[0].markup == b.text_segments[0].markup


class TestMedical:
    def test_fig34_message_spans_findings(self):
        obj = build_visual_report_with_xray()
        message = obj.visual_messages[0]
        anchor = message.anchors[0]
        plain = obj.text_segments[0].plain_text
        assert 0 < anchor.start < anchor.end <= len(plain)
        assert message.content.image_ids == [obj.images[0].image_id]

    def test_fig56_presentation_shape(self):
        obj = build_xray_transparency_object(overlays=4)
        items = obj.presentation.items
        assert isinstance(items[0], ImagePage)
        assert isinstance(items[1], TransparencySet)
        assert len(items[1].members) == 4

    def test_audio_report_recognized_terms(self):
        obj = build_audio_mode_report()
        terms = obj.voice_segments[0].utterance_terms()
        assert "fracture" in terms

    def test_audio_report_anchor_matches_paragraph(self):
        obj = build_audio_mode_report()
        recording = obj.voice_segments[0].recording
        anchor = obj.visual_messages[0].anchors[0]
        assert anchor.start == pytest.approx(
            recording.paragraph_ends[0], abs=0.1
        )
        assert anchor.end == pytest.approx(recording.paragraph_ends[1], abs=0.1)


class TestCity:
    def test_map_and_relevants(self):
        parent, overlays = build_subway_map_with_relevants()
        assert len(parent.relevant_links) == 2
        for overlay in overlays:
            assert isinstance(overlay.presentation.items[0], TransparencySet)
        targets = {l.target_object_id for l in parent.relevant_links}
        assert targets == {o.object_id for o in overlays}

    def test_walk_simulation_steps(self):
        obj = build_city_walk_simulation()
        sim = obj.presentation.items[1]
        assert isinstance(sim, ProcessSimulation)
        assert len(sim.steps) == 5
        assert all(s.message_id is not None for s in sim.steps)
        assert len(obj.voice_messages) == 5

    def test_tour_stops_inside_image(self):
        obj = build_map_tour_object()
        tour = obj.presentation.items[0]
        assert isinstance(tour, Tour)
        image = obj.image(tour.image_id)
        for stop in tour.stops:
            assert 0 <= stop.x < image.width
            assert 0 <= stop.y < image.height


class TestSpeech:
    def test_lecture_has_eight_paragraphs(self):
        assert LECTURE_SCRIPT.count("\n\n") == 7
        recording = build_lecture_recording()
        assert len(recording.paragraph_ends) == 8

    def test_speaker_profiles_differ_measurably(self):
        fast = build_lecture_recording(FAST_SPEAKER)
        slow = build_lecture_recording(SLOW_SPEAKER)
        assert slow.duration > fast.duration * 1.3

    def test_long_pauses_detectable_for_both_speakers(self):
        for profile in (FAST_SPEAKER, SLOW_SPEAKER):
            recording = build_lecture_recording(profile)
            index = PauseIndex.build(recording)
            assert len(index.of_kind(PauseKind.LONG)) >= 4


class TestBigMap:
    def test_representation_pairs_with_source(self):
        obj = build_big_map_object(size=512, miniature_scale=8)
        full, mini = obj.images
        assert mini.is_representation
        assert mini.source_image_id == full.image_id
        assert mini.nbytes < full.nbytes / 30
        assert isinstance(obj.presentation.items[0], ImagePage)
        assert obj.presentation.items[0].image_id == mini.image_id

    def test_voice_labels_optional(self):
        silent = build_big_map_object(size=512, voice_labels=False)
        spoken = build_big_map_object(size=512, voice_labels=True)
        assert not silent.images[0].voice_labelled_objects()
        assert spoken.images[0].voice_labelled_objects()


class TestLibrary:
    def test_mixed_modes_and_topics(self):
        archiver = Archiver()
        objects = build_object_library(archiver, visual_count=5, audio_count=3)
        assert len(objects) == 8
        assert len(archiver) == 8
        modes = [o.driving_mode for o in objects]
        assert modes.count(DrivingMode.VISUAL) == 5
        assert modes.count(DrivingMode.AUDIO) == 3

    def test_topics_queryable(self):
        archiver = Archiver()
        build_object_library(archiver, visual_count=5, audio_count=0)
        assert archiver.archive_index.search_terms(["radiology"])
