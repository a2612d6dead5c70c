"""Ablations of the design choices DESIGN.md calls out.

* audio page length — navigation granularity vs paging overhead;
* server cache size — hit rate vs staging budget;
* presentation style — the paper's claim that transparency/voice
  composition "is a much more effective way of presentation of
  information than just reading sequential text.  The result may be
  increased man-machine communication bandwidth."
"""

import numpy as np
import pytest

from repro.audio.pages import AudioPager
from repro.core.manager import LocalStore, PresentationManager
from repro.scenarios import (
    build_lecture_recording,
    build_object_library,
    build_xray_transparency_object,
)
from repro.scenarios._textgen import paragraphs
from repro.server import Archiver, CachingArchiver
from repro.storage.cache import LRUCache
from repro.workstation.station import Workstation
from repro.workstation.stats import summarize


class TestAudioPageLength:
    """Shorter pages navigate more precisely but need more page turns."""

    @pytest.fixture(scope="class")
    def recording(self):
        return build_lecture_recording()

    @pytest.mark.parametrize("page_seconds", [5.0, 10.0, 20.0, 40.0])
    def test_page_length_tradeoff(self, recording, page_seconds, results):
        pager = AudioPager(recording, page_seconds=page_seconds)
        # Precision: average distance from a random target to the start
        # of its page (what a goto-page browse overshoots by).
        rng = np.random.default_rng(1)
        targets = rng.uniform(0, recording.duration, size=200)
        overshoot = float(
            np.mean([t - pager.page_at(t).start for t in targets])
        )
        results.record(
            "ABL audio page length",
            f"{page_seconds:.0f}s pages: {len(pager)} pages, mean "
            f"overshoot {overshoot:.1f}s when jumping to a position",
        )
        assert overshoot <= page_seconds

    def test_shorter_pages_are_more_precise(self, recording, results):
        short = AudioPager(recording, page_seconds=5.0)
        long = AudioPager(recording, page_seconds=40.0)
        rng = np.random.default_rng(2)
        targets = rng.uniform(0, recording.duration, size=200)
        short_err = float(np.mean([t - short.page_at(t).start for t in targets]))
        long_err = float(np.mean([t - long.page_at(t).start for t in targets]))
        results.record(
            "ABL audio page length",
            f"precision: 5s pages overshoot {short_err:.1f}s vs 40s pages "
            f"{long_err:.1f}s — but need {len(short)} vs {len(long)} pages",
        )
        assert short_err < long_err
        assert len(short) > len(long)


class TestCacheSizeSweep:
    """Staging budget vs hit rate for a skewed fetch pattern."""

    @pytest.fixture(scope="class")
    def archiver_and_ids(self):
        archiver = Archiver()
        build_object_library(archiver, visual_count=10, audio_count=0)
        return archiver, archiver.object_ids()

    @pytest.mark.parametrize("budget_objects", [1, 3, 6, 12])
    def test_hit_rate_vs_budget(self, archiver_and_ids, budget_objects, results):
        base, ids = archiver_and_ids
        object_size = base.record(ids[0]).extent.length
        cached = CachingArchiver(
            Archiver(), LRUCache(object_size * budget_objects + 1024)
        )
        build_object_library(cached, visual_count=10, audio_count=0, seed=50)
        cache_ids = cached.object_ids()
        # Zipf-ish access: object i fetched ~ 1/(i+1) of the time.
        rng = np.random.default_rng(3)
        weights = 1.0 / np.arange(1, len(cache_ids) + 1)
        weights /= weights.sum()
        for _ in range(200):
            index = int(rng.choice(len(cache_ids), p=weights))
            cached.fetch(cache_ids[index])
        hit_rate = cached.cache.stats.hit_rate
        results.record(
            "ABL cache size",
            f"budget ~{budget_objects} objects: hit rate {hit_rate:.2f}",
        )
        assert 0.0 <= hit_rate <= 1.0

    def test_hit_rate_monotone_in_budget(self, archiver_and_ids, results):
        base, _ = archiver_and_ids
        object_size = base.record(base.object_ids()[0]).extent.length
        rates = []
        for budget in (1, 4, 12):
            cached = CachingArchiver(
                Archiver(), LRUCache(object_size * budget + 1024)
            )
            build_object_library(cached, visual_count=10, audio_count=0, seed=60)
            ids = cached.object_ids()
            rng = np.random.default_rng(4)
            weights = 1.0 / np.arange(1, len(ids) + 1)
            weights /= weights.sum()
            for _ in range(200):
                cached.fetch(ids[int(rng.choice(len(ids), p=weights))])
            rates.append(cached.cache.stats.hit_rate)
        results.record(
            "ABL cache size",
            f"hit rates at budgets 1/4/12 objects: "
            f"{rates[0]:.2f} / {rates[1]:.2f} / {rates[2]:.2f}",
        )
        assert rates[0] < rates[2]


class TestPresentationBandwidth:
    """Transparency composition vs sequential text (§3's bandwidth claim).

    The same three findings are presented (a) as a transparency set
    over the x-ray and (b) as plain sequential text pages; the
    trace-derived media-event rate is the bandwidth proxy.
    """

    def _transparency_session(self):
        obj = build_xray_transparency_object(overlays=3)
        workstation = Workstation()
        store = LocalStore()
        store.add(obj)
        session = PresentationManager(store, workstation).open(obj.object_id)
        return session, workstation

    def _text_session(self):
        from repro.ids import IdGenerator
        from repro.objects import (
            DrivingMode,
            MultimediaObject,
            PresentationSpec,
            TextFlow,
            TextSegment,
        )

        generator = IdGenerator("seqtext")
        markup = "\n\n".join(paragraphs(24, sentences_each=5, seed=70))
        obj = MultimediaObject(
            object_id=generator.object_id(), driving_mode=DrivingMode.VISUAL
        )
        segment = TextSegment(segment_id=generator.segment_id(), markup=markup)
        obj.add_text_segment(segment)
        obj.presentation = PresentationSpec(items=[TextFlow(segment.segment_id)])
        obj.archive()
        workstation = Workstation()
        store = LocalStore()
        store.add(obj)
        session = PresentationManager(store, workstation).open(obj.object_id)
        return session, workstation

    def test_transparencies_raise_media_event_rate(self, results):
        # Browse both presentations end to end, charging 20 simulated
        # seconds of reading per displayed page (the human constant).
        reading_s = 20.0

        def browse(session, workstation):
            workstation.clock.advance(reading_s)  # read the first page
            for _ in range(session.page_count - 1):
                session.next_page()
                workstation.clock.advance(reading_s)
            stats = summarize(workstation.trace)
            rate = stats.media_events / (workstation.clock.now / 60.0)
            return stats, rate, workstation.clock.now

        transparency_stats, transparency_rate, transparency_time = browse(
            *self._transparency_session()
        )
        text_stats, text_rate, text_time = browse(*self._text_session())

        results.record(
            "ABL presentation bandwidth",
            f"transparency walkthrough: {transparency_stats.media_events} "
            f"media events in {transparency_time:.0f}s "
            f"({transparency_rate:.1f}/min) vs sequential text: "
            f"{text_stats.media_events} events in {text_time:.0f}s "
            f"({text_rate:.1f}/min)",
        )
        assert transparency_rate > text_rate
