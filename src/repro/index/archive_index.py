"""The archive-wide symmetric content index.

:class:`ArchiveIndex` is the per-object ``TextSearchIndex`` access
method lifted to the whole archive: one sharded inverted index mapping
terms to ``(object_id, channel, position)`` postings, where the channel
is ``text`` or ``voice`` and the position is a character offset or a
time in seconds.  It is built at insertion time (the archiver feeds it
from :meth:`Archiver.store`) and extended at idle time (recognition
sweeps feed the voice channel through
:meth:`Archiver.attach_recognition`), so browse-time queries never scan
the archive — the paper's Section 5 design point, made to hold at
archive scale.

Consistency with re-recognition follows the archiver's version tokens:
voice postings carry the version current when they were indexed, and a
posting is *live* only while its version matches the latest voice
indexing of its object.  Stale postings are filtered on every read and
physically dropped by idle-time compaction, so a re-recognized object
never serves stale utterances — with or without compaction.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Iterable

from repro.errors import QueryError
from repro.ids import ObjectId
from repro.index.lsm import CompactionResult, IndexShard
from repro.index.planner import (
    Node,
    contains_not,
    evaluate,
    leaf_terms,
    parse_query,
    terms_query,
)
from repro.index.postings import BOTH, VOICE, Posting, validate_channel
from repro.index.sharding import HashRing
from repro.obs.context import bind as bind_span
from repro.obs.context import current as current_span
from repro.obs.spans import SpanKind as ObsSpanKind

RawPosting = tuple[str, str, float, int]  # (term, channel, position, ordinal)


class ArchiveIndex:
    """Sharded LSM inverted index over every archived object.

    Parameters
    ----------
    n_shards:
        Number of independent LSM shards; terms are spread over them by
        consistent hashing.
    memtable_budget_bytes:
        Per-shard memtable flush threshold.
    parallel_lookup:
        Look terms up across shards concurrently when a query needs
        more than one term.  Results are identical either way.
    """

    def __init__(
        self,
        n_shards: int = 4,
        memtable_budget_bytes: int = 64 * 1024,
        replicas: int = 64,
        parallel_lookup: bool = True,
        fault_plan=None,
    ) -> None:
        if n_shards < 1:
            raise ValueError(f"index needs at least one shard: {n_shards}")
        self._ring = HashRing(list(range(n_shards)), replicas=replicas)
        self._shards = {
            shard_id: IndexShard(
                shard_id,
                memtable_budget_bytes=memtable_budget_bytes,
                fault_plan=fault_plan,
            )
            for shard_id in range(n_shards)
        }
        self._parallel = parallel_lookup
        self._executor: ThreadPoolExecutor | None = None
        #: Optional span recorder (set by the owning archiver/frontend):
        #: queries emit an ``index:query`` span with one ``index:shard``
        #: child per term lookup, fanned out across executor threads.
        self.obs = None
        # Object tables: storage ordinal (insertion order, which is
        # storage order on the append-only platter) and the latest
        # voice-channel indexing version per object.
        self._ordinals: dict[ObjectId, int] = {}
        self._voice_version: dict[ObjectId, int] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # build side
    # ------------------------------------------------------------------

    def insert_object(
        self,
        object_id: ObjectId,
        postings: Iterable[RawPosting],
        version: int = 1,
    ) -> int:
        """Index a freshly archived object; returns postings added.

        ``postings`` is the insertion-time extraction
        (:func:`repro.formatter.archive.archive_postings`).  The object
        is assigned the next storage ordinal.
        """
        with self._lock:
            if object_id not in self._ordinals:
                self._ordinals[object_id] = len(self._ordinals)
            self._voice_version.setdefault(object_id, version)
        return self._add_postings(object_id, postings, version)

    def update_voice(
        self,
        object_id: ObjectId,
        postings: Iterable[RawPosting],
        version: int,
    ) -> int:
        """Re-index the voice channel of an object at a new version.

        ``postings`` must be the object's *complete* current voice
        posting set (insertion-time utterances plus the merged
        recognition side table): bumping the version retires every
        voice posting of an older version.

        Raises
        ------
        QueryError
            If the object was never inserted.
        """
        with self._lock:
            if object_id not in self._ordinals:
                raise QueryError(
                    f"cannot reindex voice of unindexed object {object_id}"
                )
            if version < self._voice_version.get(object_id, 0):
                return 0  # stale update raced a newer reindex
            self._voice_version[object_id] = version
        return self._add_postings(
            object_id, postings, version, voice_only=True
        )

    def _add_postings(
        self,
        object_id: ObjectId,
        postings: Iterable[RawPosting],
        version: int,
        voice_only: bool = False,
    ) -> int:
        added = 0
        for term, channel, position, ordinal in postings:
            if voice_only and channel != VOICE:
                continue
            posting = Posting(
                object_id=object_id,
                channel=channel,
                position=position,
                ordinal=ordinal,
                version=version,
            )
            self._shards[self._ring.shard_for(term)].add(term, posting)
            added += 1
        return added

    # ------------------------------------------------------------------
    # liveness
    # ------------------------------------------------------------------

    def _live(self, posting: Posting) -> bool:
        if posting.channel != VOICE:
            return True  # platter text is write-once, never superseded
        # Lock-free read: dict.get is atomic under the GIL and the
        # stored version is monotone, so the worst case is observing a
        # version one update old — the same race any reindex that lands
        # just after the lookup would win anyway.
        latest = self._voice_version.get(posting.object_id, posting.version)
        return posting.version == latest

    # ------------------------------------------------------------------
    # query side
    # ------------------------------------------------------------------

    def lookup(self, terms: set[str]) -> dict[str, list[Posting]]:
        """Live postings of every term, looked up shard-parallel.

        The ambient span context is captured *here*, on the submitting
        thread, and handed to each shard lookup explicitly — executor
        threads have their own (empty) ambient context, so the fan-out
        would otherwise orphan the per-shard spans.
        """
        term_list = sorted(terms)
        parent = current_span()
        if self._parallel and len(term_list) > 1:
            executor = self._ensure_executor()
            futures = {
                term: executor.submit(self._lookup_one, term, parent)
                for term in term_list
            }
            return {term: future.result() for term, future in futures.items()}
        return {term: self._lookup_one(term, parent) for term in term_list}

    def _lookup_one(self, term: str, span_parent=None) -> list[Posting]:
        shard_id = self._ring.shard_for(term)
        obs = self.obs
        if obs is None:
            return self._shards[shard_id].postings(term, live=self._live)
        start = time.perf_counter()
        postings = self._shards[shard_id].postings(term, live=self._live)
        elapsed = time.perf_counter() - start
        now = obs.now()
        obs.emit(
            span_parent, "index:shard", ObsSpanKind.INDEX,
            now, now + elapsed, shard=shard_id, term=term,
            postings=len(postings),
        )
        return postings

    def _ensure_executor(self) -> ThreadPoolExecutor:
        if self._executor is None:
            with self._lock:
                if self._executor is None:
                    self._executor = ThreadPoolExecutor(
                        max_workers=min(8, len(self._shards)),
                        thread_name_prefix="index-shard",
                    )
        return self._executor

    def query(self, query: str | Node, channel: str = BOTH) -> list[ObjectId]:
        """Objects matching a term/phrase/boolean query, in storage order.

        Raises
        ------
        QueryError
            On malformed queries.
        ValueError
            On an unknown channel filter.
        """
        validate_channel(channel)
        node = parse_query(query) if isinstance(query, str) else query
        obs = self.obs
        if obs is None:
            return self.in_storage_order(self._evaluate(node, channel))
        text = query if isinstance(query, str) else repr(node)
        active = obs.start(
            current_span(), "index:query", ObsSpanKind.INDEX,
            obs.now(), query=text, channel=channel,
        )
        start = time.perf_counter()
        with bind_span(active.context):
            matched = self._evaluate(node, channel)
        ordered = self.in_storage_order(matched)
        elapsed = time.perf_counter() - start
        active.finish(active.start_s + elapsed, results=len(ordered))
        return ordered

    def search_terms(
        self, terms: list[str], channel: str = BOTH
    ) -> set[ObjectId]:
        """Objects containing *all* the given terms (conjunctive).

        Raises
        ------
        QueryError
            If no terms are given.
        """
        validate_channel(channel)
        node = terms_query(terms)
        obs = self.obs
        if obs is None:
            return self._evaluate(node, channel)
        active = obs.start(
            current_span(), "index:query", ObsSpanKind.INDEX,
            obs.now(), query=" AND ".join(terms), channel=channel,
        )
        start = time.perf_counter()
        with bind_span(active.context):
            matched = self._evaluate(node, channel)
        elapsed = time.perf_counter() - start
        active.finish(active.start_s + elapsed, results=len(matched))
        return matched

    def _evaluate(self, node: Node, channel: str) -> set[ObjectId]:
        postings_by_term = self.lookup(leaf_terms(node))
        # The full id set (O(archive)) is only materialized when the
        # query actually negates — everything else stays ~flat in
        # archive size.
        universe = self.universe() if contains_not(node) else set()
        return evaluate(node, channel, postings_by_term, universe)

    def universe(self) -> set[ObjectId]:
        """Every indexed object id."""
        with self._lock:
            return set(self._ordinals)

    def in_storage_order(self, object_ids: Iterable[ObjectId]) -> list[ObjectId]:
        """Sort ids by storage ordinal — no archive scan required.

        Ids the index has never seen (possible only if a caller mixes
        indexes) sort last, deterministically.
        """
        with self._lock:
            ordinals = self._ordinals
            fallback = len(ordinals)
            return sorted(
                object_ids,
                key=lambda oid: (ordinals.get(oid, fallback), str(oid)),
            )

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------

    def flush(self) -> int:
        """Force every shard's memtable into a segment; returns flushes."""
        return sum(
            1 for shard in self._shards.values() if shard.flush() is not None
        )

    def compact(self) -> list[CompactionResult]:
        """Idle-time compaction of every shard.

        Merges each shard's segments into one and physically drops
        postings superseded by newer voice versions.  Queries before,
        during and after return identical results — liveness is also
        enforced at read time.
        """
        return [shard.compact(self._live) for shard in self._shards.values()]

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------

    def drop_orphans(self) -> int:
        """Discard half-flushed segment runs on every shard.

        Returns the total number of orphan runs dropped — the LSM
        manifest duty of reopen.
        """
        return sum(shard.recover() for shard in self._shards.values())

    def reset(self) -> None:
        """Drop all postings and object tables for a rebuild from scratch.

        Crash recovery reconstructs the index by re-inserting every
        recovered object's postings; configuration (shards, budgets,
        fault plan) is preserved.
        """
        for shard in self._shards.values():
            shard.reset()
        with self._lock:
            self._ordinals.clear()
            self._voice_version.clear()

    @property
    def orphan_segments(self) -> int:
        """Half-flushed runs across all shards (never readable)."""
        return sum(shard.orphan_segments for shard in self._shards.values())

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._ordinals)

    def __contains__(self, object_id: ObjectId) -> bool:
        with self._lock:
            return object_id in self._ordinals

    @property
    def shard_count(self) -> int:
        return len(self._shards)

    @property
    def segment_count(self) -> int:
        """Immutable segments across all shards."""
        return sum(shard.segment_count for shard in self._shards.values())

    @property
    def posting_count(self) -> int:
        """Stored postings across all shards (live or not)."""
        return sum(shard.posting_count for shard in self._shards.values())

    @property
    def nbytes(self) -> int:
        """Accounted index size across all shards."""
        return sum(shard.nbytes for shard in self._shards.values())

    def voice_version_of(self, object_id: ObjectId) -> int:
        """Latest voice-channel indexing version of an object (0 if none)."""
        with self._lock:
            return self._voice_version.get(object_id, 0)
