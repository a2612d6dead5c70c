"""Idle-time recognition over the archiver."""

import pytest

from repro.audio.recognition import VocabularyRecognizer
from repro.audio.signal import synthesize_speech
from repro.core.manager import PresentationManager
from repro.ids import IdGenerator
from repro.objects import DrivingMode, MultimediaObject, PresentationSpec
from repro.objects.parts import TextSegment, VoiceSegment
from repro.objects.presentation import TextFlow
from repro.server import Archiver, IdleRecognizer, QueryInterface
from repro.workstation.station import Workstation


def _unrecognized_dictation(generator, script, seed):
    """An audio object archived *without* insertion-time recognition."""
    obj = MultimediaObject(
        object_id=generator.object_id(), driving_mode=DrivingMode.AUDIO
    )
    segment = VoiceSegment(
        segment_id=generator.segment_id(),
        recording=synthesize_speech(script, seed=seed),
    )
    obj.add_voice_segment(segment)
    obj.presentation = PresentationSpec(audio_order=[segment.segment_id])
    return obj.archive()


@pytest.fixture
def archive():
    generator = IdGenerator("idle")
    archiver = Archiver()
    raw = _unrecognized_dictation(
        generator, "urgent fracture case in the east clinic", seed=90
    )
    recognized_at_insertion = _unrecognized_dictation(
        generator, "routine budget review for the archive", seed=91
    )
    # Give the second object insertion-time utterances before archiving
    # is impossible (already archived) — emulate by attaching through
    # the recognizer path on a fresh object instead.
    archiver.store(raw)
    archiver.store(recognized_at_insertion)
    return archiver, raw, recognized_at_insertion


class TestIdleRecognizer:
    def test_sweep_recognizes_pending_objects(self, archive):
        archiver, raw, other = archive
        worker = IdleRecognizer(
            archiver,
            VocabularyRecognizer(
                ["fracture", "budget"], miss_rate=0.0, confusion_rate=0.0
            ),
        )
        assert len(worker.pending) == 2
        report = worker.run()
        assert report.objects_scanned == 2
        assert report.segments_recognized == 2
        assert report.utterances_found >= 2
        assert worker.pending == []

    def test_terms_become_queryable(self, archive):
        archiver, raw, _ = archive
        interface = QueryInterface(archiver)
        assert interface.select(terms=["fracture"]) == []  # not yet
        worker = IdleRecognizer(
            archiver,
            VocabularyRecognizer(["fracture"], miss_rate=0.0, confusion_rate=0.0),
        )
        worker.run()
        assert interface.select(terms=["fracture"]) == [raw.object_id]

    def test_rebuilt_objects_carry_idle_utterances(self, archive):
        archiver, raw, _ = archive
        IdleRecognizer(
            archiver,
            VocabularyRecognizer(["fracture"], miss_rate=0.0, confusion_rate=0.0),
        ).run()
        rebuilt, _ = archiver.fetch_object(raw.object_id)
        terms = rebuilt.voice_segments[0].utterance_terms()
        assert "fracture" in terms

    def test_browse_time_search_works_after_idle_sweep(self, archive):
        archiver, raw, _ = archive
        IdleRecognizer(
            archiver,
            VocabularyRecognizer(["fracture"], miss_rate=0.0, confusion_rate=0.0),
        ).run()
        manager = PresentationManager(archiver, Workstation())
        session = manager.open(raw.object_id)
        session.interrupt()
        assert session.find_pattern("fracture") is not None

    def test_max_objects_bounds_the_sweep(self, archive):
        archiver, _, _ = archive
        worker = IdleRecognizer(
            archiver, VocabularyRecognizer(["fracture"], miss_rate=0.0)
        )
        report = worker.run(max_objects=1)
        assert report.objects_scanned == 1
        assert len(worker.pending) == 1

    def test_sweep_is_idempotent(self, archive):
        archiver, _, _ = archive
        worker = IdleRecognizer(
            archiver, VocabularyRecognizer(["fracture"], miss_rate=0.0)
        )
        worker.run()
        second = worker.run()
        assert second.objects_scanned == 0

    def test_insertion_time_recognition_never_redone(self, generator):
        archiver = Archiver()
        obj = MultimediaObject(
            object_id=generator.object_id(), driving_mode=DrivingMode.AUDIO
        )
        recording = synthesize_speech("budget meeting today", seed=92)
        recognizer = VocabularyRecognizer(["budget"], miss_rate=0.0)
        segment = VoiceSegment(
            segment_id=generator.segment_id(),
            recording=recording,
            utterances=recognizer.recognize(recording),
        )
        obj.add_voice_segment(segment)
        obj.presentation = PresentationSpec(audio_order=[segment.segment_id])
        archiver.store(obj.archive())
        worker = IdleRecognizer(archiver, recognizer)
        report = worker.run()
        assert report.objects_scanned == 1
        assert report.segments_recognized == 0  # already recognized


    def test_sweep_fetches_only_objects_with_unrecognized_voice(
        self, generator
    ):
        recognizer = VocabularyRecognizer(
            ["budget", "fracture"], miss_rate=0.0, confusion_rate=0.0
        )

        def memo(voice=None, utterances=()):
            obj = MultimediaObject(
                object_id=generator.object_id(),
                driving_mode=DrivingMode.VISUAL,
            )
            text = TextSegment(
                segment_id=generator.segment_id(), markup="A budget memo."
            )
            obj.add_text_segment(text)
            audio_order = []
            if voice is not None:
                segment = VoiceSegment(
                    segment_id=generator.segment_id(),
                    recording=synthesize_speech(voice, seed=94),
                    utterances=list(utterances),
                )
                obj.add_voice_segment(segment)
                audio_order.append(segment.segment_id)
            obj.presentation = PresentationSpec(
                items=[TextFlow(text.segment_id)], audio_order=audio_order
            )
            return obj.archive()

        text_only = memo()
        raw = _unrecognized_dictation(
            generator, "urgent fracture case in the east clinic", seed=93
        )
        spoken = synthesize_speech("budget meeting today", seed=92)
        recognized = memo(
            "budget meeting today", recognizer.recognize(spoken)
        )
        mixed = memo("fracture follow up")
        archiver = Archiver()
        for obj in (text_only, raw, recognized, mixed):
            archiver.store(obj)
        fetched = []
        fetch_object = archiver.fetch_object

        def spy(object_id, **kwargs):
            fetched.append(object_id)
            return fetch_object(object_id, **kwargs)

        archiver.fetch_object = spy
        report = IdleRecognizer(archiver, recognizer).run()
        assert fetched == [raw.object_id, mixed.object_id]
        assert report.objects_scanned == 4
        assert report.processed_object_ids == [raw.object_id, mixed.object_id]


class TestFramebuffer:
    def test_frame_shows_menu_and_content(self):
        from repro.core.manager import LocalStore
        from repro.scenarios import build_office_document

        obj = build_office_document()
        store = LocalStore()
        store.add(obj)
        session = PresentationManager(store, Workstation()).open(obj.object_id)
        frame = session.render_screen()
        rendered = frame.render()
        assert "[next page]" in rendered
        assert "Office Filing in MINOS" in rendered

    def test_pinned_region_occupies_top(self):
        from repro.core.manager import LocalStore
        from repro.scenarios import build_visual_report_with_xray

        obj = build_visual_report_with_xray()
        store = LocalStore()
        store.add(obj)
        session = PresentationManager(store, Workstation()).open(obj.object_id)
        pinned_pages = [
            p.number for p in session.program.pages if p.pinned_message_id
        ]
        session.goto_page(pinned_pages[0])
        frame = session.render_screen()
        assert "[IMAGE]" in frame.row(0)
        rule_row = frame.layout.pinned_rows - 1
        assert "-" * 10 in frame.row(rule_row)
        # Content flows below the pinned region.
        below = "\n".join(
            frame.row(i) for i in range(frame.layout.pinned_rows, frame.layout.height)
        )
        assert below.strip()

    def test_unpinned_page_uses_full_height(self):
        from repro.core.manager import LocalStore
        from repro.scenarios import build_visual_report_with_xray

        obj = build_visual_report_with_xray()
        store = LocalStore()
        store.add(obj)
        session = PresentationManager(store, Workstation()).open(obj.object_id)
        frame = session.render_screen()  # page 1: no pin
        assert "[IMAGE]" not in frame.row(0)
        assert frame.row(0).strip().startswith("Radiology Report") or frame.row(
            0
        ).strip()


class TestIdleCrashRecovery:
    """A crash mid-sweep must leave the sweep resumable.

    Regression: objects used to join the sweep's done-set *before*
    their recognition committed, so a sweep interrupted inside
    ``attach_recognition`` silently skipped the half-done object on
    retry and its speech stayed unsearchable forever.
    """

    def _bundle_with_pending_voice(self, plan):
        from tests.fault_workload import build_bundle, make_voice_object

        bundle = build_bundle(plan)
        for units in ([["alpha", "beta"]], [["gamma"]]):
            bundle.archiver.store(make_voice_object(bundle.generator, units))
        bundle.archiver.archive_index.flush()
        return bundle

    def _worker(self, bundle):
        from tests.fault_workload import WORDS

        return IdleRecognizer(
            bundle.archiver,
            VocabularyRecognizer(WORDS, miss_rate=0.0, confusion_rate=0.0),
            compact_index=True,
        )

    def test_crash_mid_attach_leaves_object_pending(self):
        from repro.errors import SimulatedCrash
        from repro.faults import FaultKind, FaultPlan, FaultSpec
        from repro.faults.registry import RECOGNIZE_APPLY
        from tests.fault_workload import assert_index_matches_scan

        plan = FaultPlan(
            [FaultSpec(site=RECOGNIZE_APPLY, kind=FaultKind.CRASH)]
        )
        bundle = self._bundle_with_pending_voice(plan)
        worker = self._worker(bundle)
        pending_before = set(worker.pending)
        with pytest.raises(SimulatedCrash):
            worker.run()
        # The interrupted object was *not* marked done: retry sees it.
        assert set(worker.pending) == pending_before
        second = worker.run()
        assert second.objects_scanned == len(pending_before)
        assert not second.failures
        assert worker.pending == []
        assert_index_matches_scan(bundle.archiver)

    def test_recovery_rolls_forward_journaled_recognition(self):
        from repro.errors import SimulatedCrash
        from repro.faults import FaultKind, FaultPlan, FaultSpec
        from repro.faults.registry import RECOGNIZE_APPLY
        from repro.index import VOICE
        from tests.fault_workload import assert_index_matches_scan

        plan = FaultPlan(
            [FaultSpec(site=RECOGNIZE_APPLY, kind=FaultKind.CRASH)]
        )
        bundle = self._bundle_with_pending_voice(plan)
        with pytest.raises(SimulatedCrash):
            self._worker(bundle).run()
        # The journal intent (written before apply) carries the complete
        # merged side table, so the pending recognition rolls *forward*.
        report = bundle.archiver.recover()
        assert report.recognitions_rolled_forward == 1
        interface = QueryInterface(bundle.archiver)
        assert interface.select(terms=["alpha"], channel=VOICE) != []
        # A fresh sweep converges: the rolled-forward object's segments
        # already carry utterances, only the untouched one is recognized.
        rerun = self._worker(bundle).run()
        assert rerun.segments_recognized == 1
        assert not rerun.failures
        assert_index_matches_scan(bundle.archiver)

    def test_crash_mid_compaction_rerun_converges(self):
        from repro.errors import SimulatedCrash
        from repro.faults import FaultKind, FaultPlan, FaultSpec
        from repro.faults.registry import IDLE_COMPACT
        from tests.fault_workload import assert_index_matches_scan

        plan = FaultPlan([FaultSpec(site=IDLE_COMPACT, kind=FaultKind.CRASH)])
        bundle = self._bundle_with_pending_voice(plan)
        worker = self._worker(bundle)
        with pytest.raises(SimulatedCrash):
            worker.run()
        # Every recognition committed before the compaction crash …
        assert worker.pending == []
        assert bundle.plan.fired(IDLE_COMPACT) == 1
        # … so the retry re-sweeps nothing and just redoes the idle work.
        second = worker.run()
        assert second.objects_scanned == 0
        assert_index_matches_scan(bundle.archiver)

    def test_crash_mid_segment_swap_preserves_queryability(self):
        from repro.errors import SimulatedCrash
        from repro.faults import FaultKind, FaultPlan, FaultSpec
        from repro.faults.registry import LSM_COMPACT_SWAP
        from tests.fault_workload import assert_index_matches_scan

        plan = FaultPlan(
            [FaultSpec(site=LSM_COMPACT_SWAP, kind=FaultKind.CRASH)]
        )
        bundle = self._bundle_with_pending_voice(plan)
        worker = self._worker(bundle)
        with pytest.raises(SimulatedCrash):
            worker.run()
        # The swap is the atomic commit point: a crash before it leaves
        # the old segments fully readable.
        assert_index_matches_scan(bundle.archiver)
        worker.run()  # the retry merges the same runs again
        assert_index_matches_scan(bundle.archiver)
