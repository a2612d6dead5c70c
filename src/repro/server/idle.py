"""Idle-time voice recognition.

"Voice recognition is not taking place at the time of browsing.
Instead, some voice segments have been recognized at the time of voice
insertion, **or at machine's idle time**, from the digitized voice."

The :class:`IdleRecognizer` is that background worker: it scans the
archiver for audio content whose voice segments carry no recognized
utterances, runs the recognizer over them, stores the results in a
side table (the optical platter is write-once, so the stored bytes are
never touched), and folds the new terms into the archive-wide
:class:`~repro.index.ArchiveIndex`, whose voice channel is re-versioned
per object.  The archiver consults the side table when
rebuilding objects, so browsing sessions opened afterwards can
pattern-search the newly recognized speech.

A failing object (e.g. a recording with no recognizable content) does
not abort the sweep: the failure is recorded per object in the
:class:`IdleRunReport` and the sweep continues — idle work must drain
the whole backlog, not stop at the first bad recording.

The sweep ends with the other idle-time duty of the index: segment
compaction, which merges each shard's runs and physically drops voice
postings superseded by the sweep's own re-recognitions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.audio.recognition import RecognizedUtterance, VocabularyRecognizer
from repro.errors import RecognitionError
from repro.faults.registry import IDLE_COMPACT
from repro.ids import ObjectId, SegmentId
from repro.server.archiver import Archiver


@dataclass
class IdleRunReport:
    """What one idle-time sweep accomplished."""

    objects_scanned: int = 0
    segments_recognized: int = 0
    utterances_found: int = 0
    terms_indexed: int = 0
    processed_object_ids: list[ObjectId] = field(default_factory=list)
    # Per-object recognition failures: (object_id, reason).  A failure
    # never aborts the sweep.
    failures: list[tuple[ObjectId, str]] = field(default_factory=list)
    # Idle-time index compaction run at the end of the sweep.
    index_segments_merged: int = 0
    index_postings_dropped: int = 0

    @property
    def failed_object_ids(self) -> list[ObjectId]:
        """Objects whose recognition failed this sweep."""
        return [object_id for object_id, _ in self.failures]


class IdleRecognizer:
    """Background recognition over stored voice segments."""

    def __init__(
        self,
        archiver: Archiver,
        recognizer: VocabularyRecognizer,
        compact_index: bool = True,
    ) -> None:
        self._archiver = archiver
        self._recognizer = recognizer
        self._compact_index = compact_index
        self._done: set[ObjectId] = set()

    @property
    def pending(self) -> list[ObjectId]:
        """Stored objects not yet swept."""
        return [
            object_id
            for object_id in self._archiver.object_ids()
            if object_id not in self._done
        ]

    def run(self, max_objects: int | None = None) -> IdleRunReport:
        """Sweep up to ``max_objects`` stored objects (all by default).

        Only voice segments with no recognized utterances are
        processed — insertion-time recognition is never redone.  A
        :class:`~repro.errors.RecognitionError` on one object is
        recorded in the report and the sweep moves on to the next.

        The sweep is crash-idempotent: an object joins ``_done`` only
        once its recognition has committed (or terminally failed), so a
        sweep interrupted by a crash — including one injected inside
        :meth:`Archiver.attach_recognition` or at the ``idle.compact``
        site — can simply be re-run.  Re-running converges: committed
        recognitions are skipped (their segments already carry
        utterances), the interrupted object is re-recognized from
        scratch, and compaction's commit point is the atomic segment
        swap, so a half-done compaction leaves the old segments fully
        readable and the retry merges them again.
        """
        report = IdleRunReport()
        for object_id in self.pending:
            if max_objects is not None and report.objects_scanned >= max_objects:
                break
            report.objects_scanned += 1
            try:
                self._sweep_object(object_id, report)
            except RecognitionError as exc:
                report.failures.append((object_id, str(exc)))
            # Marked done only now: a crash mid-sweep leaves the object
            # pending, so the next run retries instead of skipping it.
            self._done.add(object_id)
        self._compact(report)
        return report

    def _sweep_object(self, object_id: ObjectId, report: IdleRunReport) -> None:
        # The stored descriptor lists each voice segment with its
        # insertion-time utterances: with none left to recognize, skip.
        voice = self._archiver.record(object_id).descriptor.extra.get(
            "voice_segments", []
        )
        if all(payload.get("utterances") for payload in voice):
            return
        obj, _ = self._archiver.fetch_object(object_id)
        side_table: dict[SegmentId, list[RecognizedUtterance]] = {}
        terms: set[str] = set()
        for segment in obj.voice_segments:
            if segment.utterances:
                continue  # recognized at insertion time
            try:
                utterances = self._recognizer.recognize(segment.recording)
            except RecognitionError as exc:
                report.failures.append(
                    (object_id, f"{segment.segment_id}: {exc}")
                )
                continue
            if not utterances:
                continue
            side_table[segment.segment_id] = utterances
            report.segments_recognized += 1
            report.utterances_found += len(utterances)
            terms.update(u.term for u in utterances)
        if side_table:
            self._archiver.attach_recognition(object_id, side_table)
            report.terms_indexed += len(terms)
            report.processed_object_ids.append(object_id)

    def _compact(self, report: IdleRunReport) -> None:
        archive_index = getattr(self._archiver, "archive_index", None)
        if not self._compact_index or archive_index is None:
            return
        fault_plan = getattr(self._archiver, "fault_plan", None)
        if fault_plan is not None:
            fault_plan.fire(IDLE_COMPACT)
        for result in archive_index.compact():
            report.index_segments_merged += result.segments_merged
            report.index_postings_dropped += result.postings_dropped
