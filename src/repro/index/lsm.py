"""LSM-shaped storage of one index shard.

Insertion-time indexing must never block queries for long, and the
paper moves all expensive work (recognition, index building) to
insertion or idle time.  Each shard therefore has the standard
log-structured merge shape:

* a mutable **memtable** absorbing inserts in O(1);
* immutable sorted **segments**, flushed whenever the memtable exceeds
  its byte budget;
* idle-time **compaction** that merges all segments into one and drops
  postings superseded by the archiver's version tokens.

Queries read the memtable plus every segment (newest first) and filter
dead postings on the way out, so correctness never depends on when
compaction last ran — compaction only reclaims space and shortens the
read path.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.errors import TransientIOError
from repro.faults.registry import LSM_COMPACT_SWAP, LSM_FLUSH
from repro.index.postings import Posting

LiveFn = Callable[[Posting], bool]


class Memtable:
    """Mutable term → postings map with byte accounting."""

    def __init__(self) -> None:
        self._postings: dict[str, list[Posting]] = {}
        self.nbytes = 0
        self.posting_count = 0

    def add(self, term: str, posting: Posting) -> None:
        """Absorb one posting."""
        bucket = self._postings.get(term)
        if bucket is None:
            bucket = self._postings[term] = []
            self.nbytes += len(term)
        bucket.append(posting)
        self.nbytes += posting.nbytes
        self.posting_count += 1

    def get(self, term: str) -> list[Posting]:
        """Postings of ``term`` in insertion order (empty if absent)."""
        return list(self._postings.get(term, ()))

    def items(self) -> Iterable[tuple[str, list[Posting]]]:
        return self._postings.items()

    def __len__(self) -> int:
        return self.posting_count


class Segment:
    """An immutable, term-sorted run of postings."""

    _ids = iter(range(1, 1 << 62))

    def __init__(self, postings: dict[str, Iterable[Posting]]) -> None:
        self.segment_id = next(Segment._ids)
        self._postings: dict[str, tuple[Posting, ...]] = {
            term: tuple(postings[term]) for term in sorted(postings)
        }
        self.posting_count = sum(len(p) for p in self._postings.values())
        self.nbytes = sum(
            len(term) + sum(p.nbytes for p in bucket)
            for term, bucket in self._postings.items()
        )

    def get(self, term: str) -> tuple[Posting, ...]:
        """Postings of ``term`` (empty if absent)."""
        return self._postings.get(term, ())

    def terms(self) -> list[str]:
        """All terms of the segment, sorted."""
        return list(self._postings)

    def items(self) -> Iterable[tuple[str, tuple[Posting, ...]]]:
        return self._postings.items()

    def __len__(self) -> int:
        return self.posting_count


@dataclass
class CompactionResult:
    """What one shard compaction accomplished."""

    shard_id: int
    segments_merged: int
    postings_dropped: int
    postings_kept: int


class IndexShard:
    """One shard: memtable + segments + compaction, thread-safe.

    The segment list doubles as the shard's **manifest**: a segment is
    visible to readers only once it is registered there, and
    registration happens *after* the segment run is fully built (the
    ``lsm.flush.segment`` fault site sits between the two).  A flush
    that dies in the gap leaves an orphan run — tracked in
    ``orphan_segments`` and discarded by :meth:`recover` on reopen —
    while the memtable keeps its postings, so a failed flush never
    loses or duplicates data.

    Parameters
    ----------
    shard_id:
        Identity on the hash ring.
    memtable_budget_bytes:
        Flush threshold; the memtable is flushed into a fresh segment
        as soon as its accounted size exceeds this budget.
    fault_plan:
        Optional :class:`~repro.faults.FaultPlan` consulted at the
        ``lsm.flush.segment`` and ``lsm.compact.swap`` sites.
    """

    def __init__(
        self,
        shard_id: int,
        memtable_budget_bytes: int = 64 * 1024,
        fault_plan=None,
    ) -> None:
        if memtable_budget_bytes <= 0:
            raise ValueError(
                f"memtable budget must be positive: {memtable_budget_bytes}"
            )
        self.shard_id = shard_id
        self._budget = memtable_budget_bytes
        self._memtable = Memtable()
        self._segments: list[Segment] = []
        self._orphans: list[Segment] = []
        self._fault_plan = fault_plan
        self.flush_failures = 0
        self._lock = threading.Lock()

    def _fire(self, site: str) -> None:
        if self._fault_plan is not None:
            self._fault_plan.fire(site)

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------

    def add(self, term: str, posting: Posting) -> None:
        """Insert one posting, flushing the memtable if over budget.

        A *transient* flush failure is absorbed here: the posting is
        already durable in the memtable, so the flush simply retries at
        the next over-budget insert.  Crashes propagate.
        """
        with self._lock:
            self._memtable.add(term, posting)
            if self._memtable.nbytes > self._budget:
                try:
                    self._flush_locked()
                except TransientIOError:
                    self.flush_failures += 1

    def flush(self) -> Segment | None:
        """Force the memtable into a segment (None if it was empty)."""
        with self._lock:
            return self._flush_locked()

    def _flush_locked(self) -> Segment | None:
        if not len(self._memtable):
            return None
        # Build the run first ("write the segment file"), then register
        # it in the manifest.  A fault in the gap orphans the run; the
        # memtable is left intact so nothing is lost.
        segment = Segment(dict(self._memtable.items()))
        try:
            self._fire(LSM_FLUSH)
        except BaseException:
            self._orphans.append(segment)
            raise
        self._segments.append(segment)
        self._memtable = Memtable()
        return segment

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def postings(self, term: str, live: LiveFn | None = None) -> list[Posting]:
        """All live postings of ``term``, newest write first."""
        with self._lock:
            found: list[Posting] = list(self._memtable.get(term))
            for segment in reversed(self._segments):
                found.extend(segment.get(term))
        if live is None:
            return found
        return [posting for posting in found if live(posting)]

    # ------------------------------------------------------------------
    # compaction
    # ------------------------------------------------------------------

    def compact(self, live: LiveFn | None = None) -> CompactionResult:
        """Merge memtable + all segments into one, dropping dead postings.

        Safe to call at any time; queries running concurrently see
        either the old segment list or the merged one, never a torn
        state, and dead postings are filtered at read time anyway.
        """
        with self._lock:
            self._flush_locked()
            merged_from = len(self._segments)
            kept: dict[str, list[Posting]] = {}
            dropped = 0
            for segment in self._segments:
                for term, bucket in segment.items():
                    for posting in bucket:
                        if live is None or live(posting):
                            kept.setdefault(term, []).append(posting)
                        else:
                            dropped += 1
            # The swap is the commit point: a fault here leaves the old
            # segment list fully intact, so re-running compaction after
            # a crash converges to the same merged state (idempotent).
            self._fire(LSM_COMPACT_SWAP)
            if merged_from:
                self._segments = [Segment(kept)] if kept else []
            return CompactionResult(
                shard_id=self.shard_id,
                segments_merged=merged_from,
                postings_dropped=dropped,
                postings_kept=sum(len(b) for b in kept.values()),
            )

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------

    def recover(self) -> int:
        """Discard orphan (half-flushed, unmanifested) segment runs.

        Returns the number of runs dropped.  Readers never saw them —
        :meth:`postings` walks only the manifest — so this is pure
        space reclamation, mirroring how a real LSM discards segment
        files absent from its manifest on reopen.
        """
        with self._lock:
            dropped = len(self._orphans)
            self._orphans.clear()
            return dropped

    def reset(self) -> None:
        """Drop all state (memtable, segments, orphans) for a rebuild."""
        with self._lock:
            self._memtable = Memtable()
            self._segments = []
            self._orphans.clear()

    @property
    def orphan_segments(self) -> int:
        """Half-flushed runs awaiting :meth:`recover` (never readable)."""
        with self._lock:
            return len(self._orphans)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def segment_count(self) -> int:
        """Number of immutable segments currently on disk (modelled)."""
        with self._lock:
            return len(self._segments)

    @property
    def posting_count(self) -> int:
        """Total stored postings, live or not (memtable + segments)."""
        with self._lock:
            return len(self._memtable) + sum(
                len(segment) for segment in self._segments
            )

    @property
    def nbytes(self) -> int:
        """Accounted size of memtable + segments."""
        with self._lock:
            return self._memtable.nbytes + sum(
                segment.nbytes for segment in self._segments
            )
