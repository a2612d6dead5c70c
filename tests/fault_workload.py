"""Shared harness for fault-injection and crash-recovery tests.

A bundle is one archive under test: an optical platter behind a
:class:`FaultyDevice`, a journal and a small-budget archive index,
fronted by a :class:`CachingArchiver` and its staging cache, all
consulting a single :class:`FaultPlan`.  The
canonical workload (:func:`run_workload`) exercises every registered
fault site — stores, flushes, reads, idle recognition, compaction — and
records which operations were *acknowledged* (returned to the caller),
since acknowledged work is exactly what must survive a crash.

After a crash, :func:`reopen_and_verify` re-opens the archive from
device bytes alone and checks the recovery invariants:

* no unaccounted platter bytes (owned + dead extents tile the platter);
* every acknowledged store present and rebuildable;
* every acknowledged recognition searchable on the voice channel;
* index answers identical to the ``use_index=False`` scan oracle;
* no orphan index segments;
* both cache tiers hold only bytes owned by recovered objects, equal
  to the platter's (decoded, for the decoded tier).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.audio.recognition import VocabularyRecognizer
from repro.audio.signal import Recording, TimedWord
from repro.errors import SimulatedCrash, TornWriteError, TransientIOError
from repro.faults import FaultPlan, FaultyDevice
from repro.ids import IdGenerator, ObjectId
from repro.index import BOTH, TEXT, VOICE, ArchiveIndex
from repro.objects import DrivingMode, MultimediaObject, PresentationSpec
from repro.objects.parts import TextSegment, VoiceSegment
from repro.objects.presentation import TextFlow
from repro.server import (
    Archiver,
    CachingArchiver,
    IdleRecognizer,
    QueryInterface,
)
from repro.server.recovery import RecoveryReport
from repro.sim.checker import stale_cache_entry
from repro.storage.cache import LRUCache
from repro.storage.journal import Journal
from repro.storage.optical import OpticalDisk

WORDS = ["alpha", "beta", "gamma", "delta", "epsilon"]

#: Queries the oracle check runs on every verified archive.
ORACLE_QUERIES = [
    "alpha",
    "alpha AND beta",
    "alpha OR gamma",
    "alpha NOT (beta OR gamma)",
    '"alpha beta"',
]

#: Everything the harness treats as an injected failure.
INJECTED_ERRORS = (SimulatedCrash, TransientIOError, TornWriteError)


def make_text_object(
    generator: IdGenerator, units: list[list[str]]
) -> MultimediaObject:
    """An archived visual object with one text segment per unit."""
    obj = MultimediaObject(
        object_id=generator.object_id(), driving_mode=DrivingMode.VISUAL
    )
    flows = []
    for unit in units:
        segment = TextSegment(
            segment_id=generator.segment_id(), markup=" ".join(unit)
        )
        obj.add_text_segment(segment)
        flows.append(TextFlow(segment.segment_id))
    obj.presentation = PresentationSpec(items=flows)
    return obj.archive()


def make_voice_object(
    generator: IdGenerator, units: list[list[str]], *, recognized: bool = False
) -> MultimediaObject:
    """An archived audio object whose transcript is exactly ``units``.

    With ``recognized=False`` the segments carry no utterances, leaving
    the recognition to an idle sweep.
    """
    from repro.audio.recognition import RecognizedUtterance

    obj = MultimediaObject(
        object_id=generator.object_id(), driving_mode=DrivingMode.AUDIO
    )
    order = []
    for unit in units:
        timed = [
            TimedWord(word, float(i), float(i) + 0.5)
            for i, word in enumerate(unit)
        ]
        recording = Recording(
            samples=np.zeros(8000 * len(unit), dtype=np.float32),
            sample_rate=8000,
            words=timed,
        )
        utterances = (
            [
                RecognizedUtterance(term=word, time=float(i))
                for i, word in enumerate(unit)
            ]
            if recognized
            else []
        )
        segment = VoiceSegment(
            segment_id=generator.segment_id(),
            recording=recording,
            utterances=utterances,
        )
        obj.add_voice_segment(segment)
        order.append(segment.segment_id)
    obj.presentation = PresentationSpec(audio_order=order)
    return obj.archive()


@dataclass
class ArchiveBundle:
    """One archive under fault injection, plus its acknowledgement log."""

    plan: FaultPlan
    disk: FaultyDevice
    journal: Journal
    cache: LRUCache
    archiver: CachingArchiver
    generator: IdGenerator
    #: Stores that returned to the caller: object id → indexed terms.
    acked_stores: dict[ObjectId, set[str]] = field(default_factory=dict)
    #: Recognitions that committed: object id → voice terms attached.
    acked_recognitions: dict[ObjectId, set[str]] = field(default_factory=dict)


def build_bundle(plan: FaultPlan | None = None, *, seed: int = 0) -> ArchiveBundle:
    """A fresh archive wired to ``plan`` at every fault site."""
    if plan is None:
        plan = FaultPlan()
    disk = FaultyDevice(OpticalDisk(), plan)
    journal = Journal()
    cache = LRUCache(1 << 16, fault_plan=plan)
    index = ArchiveIndex(
        n_shards=2, memtable_budget_bytes=256, fault_plan=plan
    )
    archiver = CachingArchiver(
        Archiver(
            disk=disk, archive_index=index, journal=journal, fault_plan=plan
        ),
        cache,
    )
    return ArchiveBundle(
        plan=plan,
        disk=disk,
        journal=journal,
        cache=cache,
        archiver=archiver,
        generator=IdGenerator(f"faults-{seed}"),
    )


def run_workload(
    bundle: ArchiveBundle,
    spec: list[tuple[str, list[list[str]]]] | None = None,
) -> None:
    """Drive the bundle through every fault site, logging acked work.

    The default spec stores two text objects and one unrecognized voice
    object, flushes the index, reads everything back (device reads +
    cache puts), then runs an idle sweep (recognition commit protocol +
    index compaction).  Any injected error propagates to the caller
    with the acknowledgement log reflecting exactly the completed work.
    """
    archiver = bundle.archiver
    if spec is None:
        spec = [
            ("text", [["alpha", "beta"], ["gamma"]]),
            ("text", [["delta", "alpha", "epsilon"]]),
            ("voice", [["epsilon", "alpha"]]),
        ]
    voice_ids: list[ObjectId] = []
    for kind, units in spec:
        if kind == "text":
            obj = make_text_object(bundle.generator, units)
        else:
            obj = make_voice_object(bundle.generator, units)
        archiver.store(obj)
        terms = {word for unit in units for word in unit}
        bundle.acked_stores[obj.object_id] = terms
        if kind == "voice":
            voice_ids.append(obj.object_id)
    archiver.archive_index.flush()
    for object_id in list(bundle.acked_stores):
        archiver.fetch_object(object_id)
    worker = IdleRecognizer(
        archiver,
        VocabularyRecognizer(WORDS, miss_rate=0.0, confusion_rate=0.0),
        compact_index=True,
    )
    report = worker.run()
    assert not report.failures
    for object_id in voice_ids:
        bundle.acked_recognitions[object_id] = set(
            bundle.acked_stores[object_id]
        )


def run_workload_catching(
    bundle: ArchiveBundle,
    spec: list[tuple[str, list[list[str]]]] | None = None,
) -> BaseException | None:
    """Run the workload, returning the injected error (None if clean)."""
    try:
        run_workload(bundle, spec)
        return None
    except INJECTED_ERRORS as exc:
        return exc


def assert_index_matches_scan(archiver) -> None:
    """Index-served answers must equal the scan oracle's, per channel."""
    interface = QueryInterface(archiver)
    for word in WORDS:
        for channel in (BOTH, TEXT, VOICE):
            assert interface.select(
                terms=[word], channel=channel
            ) == interface.select(
                terms=[word], channel=channel, use_index=False
            )
    for query in ORACLE_QUERIES:
        for channel in (BOTH, TEXT, VOICE):
            assert interface.search(query, channel=channel) == interface.search(
                query, channel=channel, use_index=False
            )


def assert_cache_owned(archiver: CachingArchiver) -> None:
    """Every ``abs/…`` entry of both tiers is owned and platter-equal."""
    stale = stale_cache_entry(archiver)
    assert stale is None, stale


def reopen_and_verify(
    bundle: ArchiveBundle,
) -> tuple[CachingArchiver, RecoveryReport]:
    """Re-open the archive from device bytes alone and check invariants."""
    reopened, report = Archiver.reopen(
        bundle.disk.inner, Journal(bundle.journal.device)
    )
    archiver = CachingArchiver(reopened, LRUCache(1 << 16))
    # Tiling: owned + dead extents cover the platter exactly.
    assert report.unaccounted_bytes == 0
    assert archiver.archive_index.orphan_segments == 0
    # Byte identity: what recovery republished is exactly what the
    # crashed process journaled (recover() crc-checks every extent
    # against the journal intent; re-verify here independently).
    journaled = {
        entry.payload["object_id"]: entry.payload["crc"]
        for entry in archiver.journal.replay().entries
        if entry.kind == "store"
    }
    # Durability: acknowledged work survives.
    for object_id, terms in bundle.acked_stores.items():
        assert object_id in archiver, f"acked store {object_id} lost"
        obj, _ = archiver.fetch_object(object_id)
        assert obj.object_id == object_id
        platter, _ = reopened.read_raw(archiver.record(object_id).extent)
        assert zlib.crc32(platter) == journaled[str(object_id)]
    for object_id, terms in bundle.acked_recognitions.items():
        for term in terms:
            assert object_id in archiver.archive_index.query(
                term, channel=VOICE
            ), f"acked recognition term {term!r} of {object_id} lost"
    # Symmetry: the rebuilt index agrees with the scan oracle.
    assert_index_matches_scan(archiver)
    # Both tiers serve only owned bytes (the fetches above filled them).
    assert_cache_owned(archiver)
    return archiver, report


def verify_recover_idempotent(archiver: CachingArchiver) -> None:
    """A second recover() must land on the same state."""
    before = set(archiver.object_ids())
    report = archiver.recover()
    assert set(archiver.object_ids()) == before
    assert report.unaccounted_bytes == 0
    assert_index_matches_scan(archiver)
