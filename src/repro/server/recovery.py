"""Crash recovery: rebuild a consistent archive from device bytes.

``Archiver.recover()`` delegates here.  Recovery trusts exactly two
things: the bytes on the optical platter and the journal on the
magnetic disk (see :mod:`repro.storage.journal`).  Everything volatile
— record tables, recognition side tables, version tokens, the content
indexes — is discarded and reconstructed (``CachingArchiver.recover()``
also drops its cache tiers), so the outcome is identical whether the
process died at the first or the last instruction of a commit
protocol.

The decision procedure per journaled transaction:

========== ===================== =====================================
status     evidence              outcome
========== ===================== =====================================
sealed     (trusted)             republish (``stores_recovered``)
pending    platter crc matches   roll forward: publish + seal
pending    platter crc mismatch  roll back: dead extent + abort
aborted    —                     dead extent only
========== ===================== =====================================

After recovery every crash point lands in one of exactly two states:
*object fully archived and indexed* or *object absent with its space
accounted as reclaimable* — never in between.  ``unaccounted_bytes``
is the tiling check: owned extents plus dead extents must cover the
platter's allocated bytes exactly.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import RecoveryError
from repro.formatter.archive import archive_postings, unpack_archived
from repro.ids import ObjectId, SegmentId
from repro.server.access import ContentIndex
from repro.storage.blockdev import Extent
from repro.storage.journal import ABORTED, PENDING, SEALED

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.audio.recognition import RecognizedUtterance
    from repro.server.archiver import Archiver, StoredObjectRecord
    from repro.server.metrics import ServerMetrics


@dataclass
class RecoveryReport:
    """What one :meth:`Archiver.recover` call reconstructed."""

    journal_records_read: int = 0
    torn_journal_records: int = 0
    stores_recovered: int = 0
    stores_rolled_forward: int = 0
    stores_rolled_back: int = 0
    stores_aborted: int = 0
    recognitions_recovered: int = 0
    recognitions_rolled_forward: int = 0
    recognitions_rolled_back: int = 0
    recognitions_aborted: int = 0
    objects_recovered: int = 0
    index_postings: int = 0
    orphan_index_segments: int = 0
    cache_entries_dropped: int = 0
    #: Platter extents owned by no recovered object: reclaimable space
    #: left behind by rolled-back or aborted stores (WORM media cannot
    #: be rewritten, but allocators may skip over these).
    dead_extents: list[Extent] = field(default_factory=list)
    #: Allocated platter bytes neither owned nor dead — must be 0.
    unaccounted_bytes: int = 0

    @property
    def dead_bytes(self) -> int:
        """Total reclaimable bytes across all dead extents."""
        return sum(extent.length for extent in self.dead_extents)


def encode_side_table(side_table: dict) -> dict:
    """Serialize a recognition side table for the journal payload."""
    return {
        str(segment_id): [[u.term, u.time] for u in utterances]
        for segment_id, utterances in side_table.items()
    }


def decode_side_table(encoded: dict) -> dict:
    """Rebuild a recognition side table from a journal payload."""
    from repro.audio.recognition import RecognizedUtterance

    return {
        SegmentId(key): [
            RecognizedUtterance(term=term, time=time) for term, time in pairs
        ]
        for key, pairs in encoded.items()
    }


def _emit(metrics: "ServerMetrics | None", outcome: str) -> None:
    if metrics is not None:
        metrics.on_recovery(outcome)


def _merge(intervals: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Coalesce half-open ``(start, end)`` intervals into a sorted union."""
    merged: list[tuple[int, int]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def dead_extent_union(
    candidates: list[Extent], owned: list[Extent]
) -> list[Extent]:
    """Candidate dead extents, unioned and with owned bytes carved out.

    The result is a disjoint, sorted list of extents covering exactly
    the bytes that some failed intent claims and no live record owns —
    the space an allocator may reclaim.
    """
    dead = _merge([(e.offset, e.end) for e in candidates])
    walls = _merge([(e.offset, e.end) for e in owned])
    result: list[Extent] = []
    for start, end in dead:
        cursor = start
        for w_start, w_end in walls:
            if w_end <= cursor or w_start >= end:
                continue
            if w_start > cursor:
                result.append(Extent(cursor, w_start - cursor))
            cursor = max(cursor, w_end)
            if cursor >= end:
                break
        if cursor < end:
            result.append(Extent(cursor, end - cursor))
    return result


def tiling_gap(archiver: "Archiver") -> int:
    """Allocated platter bytes with no journal evidence (0 when healthy).

    The read-only, any-time form of the recovery tiling check: every
    allocated byte must be owned by a live record or covered by some
    journaled store intent (a failed store's reclaimable remainder).  A
    positive gap means bytes reached the platter that no recovery could
    ever account for — a write-ahead violation (data appended without
    its journal intent), exactly the class of commit-protocol bug the
    simulation harness exists to catch.  Quiesce-time checkers call
    this on live nodes without disturbing them.
    """
    with archiver._lock:
        used = archiver._disk.used_bytes
        owned = [record.extent for record in archiver._records.values()]
        candidates: list[Extent] = []
        for entry in archiver._journal.replay().entries:
            if entry.kind != "store":
                continue
            offset = entry.payload["offset"]
            end = min(offset + entry.payload["length"], used)
            if end > offset:
                candidates.append(Extent(offset, end - offset))
        dead = dead_extent_union(candidates, owned)
        owned_total = sum(extent.length for extent in owned)
        return used - owned_total - sum(extent.length for extent in dead)


def recover_archiver(
    archiver: "Archiver", metrics: "ServerMetrics | None" = None
) -> RecoveryReport:
    """Rebuild ``archiver``'s volatile state from its devices + journal.

    Raises
    ------
    RecoveryError
        If a *sealed* transaction's platter bytes fail their checksum —
        sealed means durable, so this indicates real media corruption
        (or a commit-protocol bug), not an interrupted write.
    """
    from repro.server.archiver import StoredObjectRecord

    report = RecoveryReport()

    # ------------------------------------------------------------------
    # 1. Discard everything volatile.  A crash wiped main memory.
    # ------------------------------------------------------------------
    with archiver._lock:
        archiver._records.clear()
        archiver._recognition_table.clear()
        archiver._versions.clear()
        archiver.index = ContentIndex()
        report.orphan_index_segments = archiver.archive_index.drop_orphans()
        archiver.archive_index.reset()

        # --------------------------------------------------------------
        # 2. Replay the journal in txid order.  A recognition always
        #    carries a larger txid than the store it extends, so a
        #    single ordered pass resolves every dependency.
        # --------------------------------------------------------------
        replay = archiver._journal.replay()
        report.journal_records_read = replay.records_read
        report.torn_journal_records = replay.torn_records_skipped
        used = archiver._disk.used_bytes
        dead: list[Extent] = []

        def clamp(offset: int, length: int) -> Extent | None:
            """The allocated part of an intended extent (None if none)."""
            end = min(offset + length, used)
            if end <= offset:
                return None
            return Extent(offset, end - offset)

        for entry in replay.entries:
            _emit(metrics, "replay")
            if entry.kind == "store":
                payload = entry.payload
                object_id = ObjectId(payload["object_id"])
                offset, length = payload["offset"], payload["length"]
                extent = Extent(offset, length)
                data: bytes | None = None
                if extent.end <= used:
                    data, _ = archiver.read_raw(extent)
                valid = (
                    data is not None
                    and zlib.crc32(data) == payload["crc"]
                )
                if entry.status == ABORTED:
                    report.stores_aborted += 1
                    partial = clamp(offset, length)
                    if partial is not None:
                        dead.append(partial)
                    continue
                if entry.status == SEALED and not valid:
                    raise RecoveryError(
                        f"sealed store of {object_id} fails its checksum "
                        f"at {extent}: media corruption"
                    )
                if valid:
                    descriptor, _composition = unpack_archived(data)
                    archiver._records[object_id] = StoredObjectRecord(
                        object_id=object_id,
                        extent=extent,
                        composition_base=payload["composition_base"],
                        descriptor=descriptor,
                    )
                    archiver._versions[object_id] = 1
                    if entry.status == PENDING:
                        archiver._journal.seal(entry.txid)
                        report.stores_rolled_forward += 1
                        _emit(metrics, "rollforward")
                    else:
                        report.stores_recovered += 1
                else:
                    archiver._journal.abort(entry.txid)
                    report.stores_rolled_back += 1
                    partial = clamp(offset, length)
                    if partial is not None:
                        dead.append(partial)
                    _emit(metrics, "rollback")
            elif entry.kind == "recognize":
                payload = entry.payload
                object_id = ObjectId(payload["object_id"])
                if entry.status == ABORTED:
                    report.recognitions_aborted += 1
                    continue
                if object_id not in archiver._records:
                    # The store this recognition extends rolled back.
                    if entry.status == PENDING:
                        archiver._journal.abort(entry.txid)
                    report.recognitions_rolled_back += 1
                    _emit(metrics, "rollback")
                    continue
                # The journal carries the *complete merged* side table,
                # so assignment is idempotent and later records win.
                archiver._recognition_table[object_id] = decode_side_table(
                    payload["side_table"]
                )
                archiver._versions[object_id] = max(
                    archiver._versions[object_id], int(payload["version"])
                )
                if entry.status == PENDING:
                    archiver._journal.seal(entry.txid)
                    report.recognitions_rolled_forward += 1
                    _emit(metrics, "rollforward")
                else:
                    report.recognitions_recovered += 1

        # --------------------------------------------------------------
        # 3. Rebuild the attribute and archive indexes from the
        #    recovered objects.  Iteration order is txid order, which
        #    is platter (storage) order, so query result ordering
        #    survives recovery.
        # --------------------------------------------------------------
        for object_id in list(archiver._records):
            obj, _ = archiver.fetch_object(object_id, _count=False)
            archiver.index.index_object(obj)
            report.index_postings += archiver.archive_index.insert_object(
                object_id,
                archive_postings(obj),
                version=archiver._versions[object_id],
            )
        report.objects_recovered = len(archiver._records)

        # --------------------------------------------------------------
        # 4. Tiling check: every allocated platter byte is owned by a
        #    recovered object or accounted as dead (reclaimable).
        #    Candidate dead extents are *intents*, and an intent may
        #    overstate what was written: a store that aborted before
        #    (or partway through) its platter append journals a full
        #    extent whose offsets a later successful store legitimately
        #    reuses.  Dead space is therefore the interval union of the
        #    candidates minus the owned extents — never bytes a live
        #    record owns, and never double-counted.
        # --------------------------------------------------------------
        owned_extents = [
            record.extent for record in archiver._records.values()
        ]
        owned = sum(extent.length for extent in owned_extents)
        report.dead_extents = dead_extent_union(dead, owned_extents)
        report.unaccounted_bytes = used - owned - report.dead_bytes

    _emit(metrics, "complete")
    return report
