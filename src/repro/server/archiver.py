"""The object archiver: archived objects on the optical disk.

Each stored object occupies one extent holding its archived form
(descriptor ‖ composition).  Following the paper, the stored
descriptor's composition offsets are *rebased to archiver-absolute
offsets* ("the offsets of the descriptor have to be incremented by the
offset where the composition file is placed within the archiver"), so
any data piece — of this object or of another object that shares it —
can be read directly with :meth:`Archiver.read_absolute`.

Partial reads matter: the presentation manager "requests the
appropriate pieces of information" — a view fetches a byte range of an
image piece, not the object.
"""

from __future__ import annotations

import threading
import zlib
from collections import Counter
from dataclasses import dataclass, field

from repro.compress import codec_name, decode_frame, is_framed
from repro.errors import ArchiverError, MinosError, ObjectNotFoundError
from repro.faults.registry import (
    COMPRESS_DECODE,
    RECOGNIZE_APPLY,
    RECOGNIZE_JOURNAL,
    RECOGNIZE_SEAL,
    STORE_DATA,
    STORE_DESCRIPTOR,
    STORE_JOURNAL,
    STORE_SEAL,
)
from repro.formatter.archive import (
    _HEADER,
    archive_postings,
    pack_archived,
    unpack_archived,
)
from repro.formatter.builder import ObjectFormatter, rebuild_object
from repro.ids import ObjectId
from repro.index import VOICE, ArchiveIndex
from repro.objects.descriptor import DataLocation, DataSource, Descriptor
from repro.objects.model import MultimediaObject, ObjectState
from repro.obs.context import current as current_span
from repro.obs.spans import SpanKind as ObsSpanKind
from repro.server.access import ContentIndex
from repro.server.recovery import (
    RecoveryReport,
    encode_side_table,
    recover_archiver,
)
from repro.storage.blockdev import Extent, SimulatedDisk
from repro.storage.cache import LRUCache
from repro.storage.journal import Journal
from repro.storage.optical import OpticalDisk
from repro.storage.scatter import gather, plan_scatter


@dataclass
class StoredObjectRecord:
    """Book-keeping for one stored object."""

    object_id: ObjectId
    extent: Extent
    composition_base: int
    descriptor: Descriptor  # with archiver-absolute offsets


@dataclass
class FetchResult:
    """Outcome of fetching an object's stored form."""

    descriptor: Descriptor
    composition: bytes
    service_time_s: float


#: Read operations a server request may name: methods that every
#: archiver stack (:class:`Archiver`, :class:`CachingArchiver`) serves.
#: ``read_scattered`` serves a whole batch of ``(offset, length)``
#: ranges as one request, so an object open costs one round-trip
#: instead of one per data piece.  The ``read_piece*`` reads name a
#: piece by object id and tag, so a cluster routes them to any replica.
READ_OPS = (
    "fetch",
    "fetch_object",
    "read_absolute",
    "read_piece_range",
    "read_scattered",
    "read_pieces",
    "read_piece_rows",
)


def serve_read(archiver, op: str, *params) -> tuple[object, float]:
    """Run one of :data:`READ_OPS`; returns ``(payload, service_s)``.

    ``fetch`` carries its service time inside its :class:`FetchResult`;
    every other read already returns the pair.
    """
    result = getattr(archiver, op)(*params)
    if op == "fetch":
        return result, result.service_time_s
    return result


class Archiver:
    """The optical-disk-based store of archived objects.

    Parameters
    ----------
    disk:
        Backing device (defaults to a fresh :class:`OpticalDisk`).
        Every read goes to it; :class:`CachingArchiver` is the byte
        cache in front of an archiver.
    archive_index:
        The archive-wide symmetric content index fed at insertion time
        (a default-configured one is created if not given).
    journal:
        Write-ahead journal backing the commit protocol of
        :meth:`store` and :meth:`attach_recognition` (a dedicated
        magnetic-disk journal is created if not given).  Pass the
        surviving journal (or a :class:`Journal` re-opened on its
        device) together with the surviving ``disk`` to model a
        process restart, then call :meth:`recover`.
    fault_plan:
        Optional :class:`~repro.faults.FaultPlan` consulted at the
        ``archiver.store.*``, ``archiver.recognize.*`` and
        ``compress.decode`` sites (and threaded into a
        default-constructed ``archive_index``).
    compression:
        When true (the default), data pieces are stored as compressed
        frames (:mod:`repro.compress`): the platter extents and every
        byte that leaves this archiver hold *stored* bytes, and
        :meth:`decode_piece` unwraps them on the open path.
        When false, the archive is byte-identical to the historical
        uncompressed format.
    """

    def __init__(
        self,
        disk: SimulatedDisk | None = None,
        archive_index: ArchiveIndex | None = None,
        journal: Journal | None = None,
        fault_plan=None,
        *,
        compression: bool = True,
    ) -> None:
        self._disk = disk or OpticalDisk()
        self._journal = journal if journal is not None else Journal()
        self._fault_plan = fault_plan
        self._compression = compression
        self._records: dict[ObjectId, StoredObjectRecord] = {}
        # One lock serializes record-table mutation and device access:
        # the simulated disk tracks a head position, so concurrent reads
        # from server worker threads must not interleave.
        self._lock = threading.RLock()
        self.index = ContentIndex()
        # The archive-wide (object, channel, position) index; built at
        # insertion time by store(), extended by attach_recognition(),
        # compacted at idle time.
        self.archive_index = (
            archive_index
            if archive_index is not None
            else ArchiveIndex(fault_plan=fault_plan)
        )
        # Idle-time recognition results: the platter is write-once, so
        # utterances recognized after archiving live in this side table
        # and are injected when objects are rebuilt.
        self._recognition_table: dict[ObjectId, dict] = {}
        # Monotone per-object version tokens: bumped whenever the
        # *rebuilt* form of an object changes (today: recognition-table
        # updates; the platter bytes themselves are write-once).
        # Workstation-side decoded-object caches revalidate against
        # these tokens instead of refetching.
        self._versions: dict[ObjectId, int] = {}
        # Round-trip accounting: one increment per public read request,
        # so benchmarks can compare batched vs piecewise open paths.
        self.op_counts: Counter[str] = Counter()
        self._obs = None

    @property
    def obs(self):
        """Optional span recorder for codec/index leaf spans."""
        return self._obs

    @obs.setter
    def obs(self, recorder) -> None:
        self._obs = recorder
        self.archive_index.obs = recorder

    @property
    def disk(self) -> SimulatedDisk:
        """The backing device."""
        return self._disk

    @property
    def journal(self) -> Journal:
        """The write-ahead journal behind the commit protocol."""
        return self._journal

    @property
    def fault_plan(self):
        """The fault plan threaded through this archiver (or None)."""
        return self._fault_plan

    @property
    def compression(self) -> bool:
        """Whether new stores write compressed piece frames."""
        return self._compression

    def _fire(self, site: str) -> None:
        if self._fault_plan is not None:
            self._fault_plan.fire(site)

    def _journal_abort(self, txid: int) -> None:
        # Best effort: if the abort record itself cannot be written,
        # the transaction stays pending and recovery decides it by
        # evidence, which reaches the same end state.
        try:
            self._journal.abort(txid)
        except MinosError:
            pass

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, object_id: ObjectId) -> bool:
        return object_id in self._records

    def object_ids(self) -> list[ObjectId]:
        """Identifiers of all stored objects, in storage order."""
        with self._lock:
            return list(self._records)

    # ------------------------------------------------------------------
    # storing
    # ------------------------------------------------------------------

    def store(
        self,
        obj: MultimediaObject,
        shared_archiver_data: dict[str, tuple[int, int]] | None = None,
    ) -> StoredObjectRecord:
        """Archive an object onto the optical disk and index its content.

        ``shared_archiver_data`` maps data tags to archiver-absolute
        extents of pieces that already exist in the archiver (avoiding
        duplication).

        The write follows the commit protocol (journal BEGIN → data
        blocks → descriptor/index publish → journal SEAL), so a crash
        at any point leaves the object either fully archived and
        indexed after :meth:`recover`, or absent with its platter
        extent accounted as dead — never in between.  When ``store``
        returns, the object is sealed: recovery preserves it.

        Raises
        ------
        ArchiverError
            If the object is not in the archived state or is already
            stored.
        """
        if obj.state is not ObjectState.ARCHIVED:
            raise ArchiverError(
                f"object {obj.object_id} must be archived before storing"
            )
        formed = ObjectFormatter(
            shared_archiver_data, compression=self._compression
        ).form(obj)
        descriptor, composition = formed.descriptor, formed.composition

        with self._lock:
            if obj.object_id in self._records:
                raise ArchiverError(f"object {obj.object_id} is already stored")

            # Rebase composition offsets to archiver-absolute coordinates.
            # The descriptor is JSON, so growing offsets can grow its byte
            # length; iterate to the (monotone) fixed point.
            base = self._disk.used_bytes + _HEADER.size
            for _ in range(20):
                rebased = descriptor.rebased(base)
                blob = rebased.to_bytes()
                new_base = self._disk.used_bytes + _HEADER.size + len(blob)
                if new_base == base:
                    break
                base = new_base
            else:  # pragma: no cover - the fixed point converges in practice
                raise ArchiverError("descriptor rebasing did not converge")

            packed = pack_archived(rebased, composition)
            self._fire(STORE_JOURNAL)
            txid = self._journal.begin(
                "store",
                {
                    "object_id": str(obj.object_id),
                    "offset": self._disk.used_bytes,
                    "length": len(packed.data),
                    "composition_base": base,
                    "crc": zlib.crc32(packed.data),
                },
            )
            try:
                self._fire(STORE_DATA)
                extent, _ = self._disk.append(packed.data)
                self._fire(STORE_DESCRIPTOR)
                record = StoredObjectRecord(
                    object_id=obj.object_id,
                    extent=extent,
                    composition_base=base,
                    descriptor=rebased,
                )
                self._records[obj.object_id] = record
                self._versions[obj.object_id] = 1
                self._fire(STORE_SEAL)
                self._journal.seal(txid)
            except MinosError:
                # Clean in-process failure (torn write, transient I/O):
                # unpublish and abandon.  The platter extent, if any
                # bytes landed, becomes dead space on recovery.  The
                # indexes have not been touched yet, so live state and
                # post-recovery state agree: object absent.
                self._records.pop(obj.object_id, None)
                self._versions.pop(obj.object_id, None)
                self._journal_abort(txid)
                raise
            # Compression accounting happens only once the store is
            # durable: an aborted store contributes no media bytes.
            self._account_compression(formed.pieces)
            # Index publishes happen after the seal: the transaction is
            # already durable, and recovery rebuilds both indexes from
            # the recovered records anyway, so a crash mid-publish
            # (e.g. at a faulted LSM flush) converges to the same state.
            self.index.index_object(obj)
            self.archive_index.insert_object(
                obj.object_id, archive_postings(obj)
            )
            return record

    def _account_compression(self, pieces) -> None:
        """Advance the disk's media byte counters for one durable store."""
        if not pieces:
            return
        stats = getattr(self._disk, "stats", None)
        if stats is not None:
            for piece in pieces:
                stats.media_raw_bytes += piece.raw_len
                stats.media_stored_bytes += piece.stored_len
        if self._obs is not None:
            # One instant marker per store: encode cost is not part of
            # the simulated device model, so the span carries byte
            # accounting rather than duration.
            now = self._obs.now()
            self._obs.emit(
                current_span(), "encode", ObsSpanKind.COMPRESS, now, now,
                pieces=len(pieces),
                raw_len=sum(p.raw_len for p in pieces),
                stored_len=sum(p.stored_len for p in pieces),
            )

    def decode_piece(self, data: bytes) -> bytes:
        """Decode one stored piece back to raw media bytes.

        Framed pieces are strictly decoded (firing the
        ``compress.decode`` fault site first); raw pieces — windowed
        bitmaps and pre-compression archives — pass through untouched.

        Raises
        ------
        MediaCodecError
            If the frame is corrupt or truncated (hard: retries cannot
            help, the stored bytes themselves are bad).
        TransientIOError
            When an armed fault plan injects a transient at the
            ``compress.decode`` site.
        """
        if not is_framed(data):
            return data
        self._fire(COMPRESS_DECODE)
        raw, codec_id = decode_frame(data)
        if self._obs is not None:
            now = self._obs.now()
            self._obs.emit(
                current_span(), f"decode:{codec_name(codec_id)}",
                ObsSpanKind.COMPRESS, now, now,
                raw_len=len(raw), stored_len=len(data),
            )
        return raw

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------

    def recover(self, metrics=None) -> RecoveryReport:
        """Rebuild all volatile state from device bytes + journal.

        Call after constructing an archiver over devices that survived
        a crash (see :meth:`reopen`).  Safe — and idempotent — on a
        healthy archive: every sealed transaction republishes to the
        same state.  See :func:`repro.server.recovery.recover_archiver`
        for the decision procedure.
        """
        return recover_archiver(self, metrics=metrics)

    @classmethod
    def reopen(
        cls,
        disk: SimulatedDisk,
        journal: Journal,
        archive_index: ArchiveIndex | None = None,
        fault_plan=None,
        metrics=None,
        *,
        compression: bool = True,
    ) -> tuple["Archiver", RecoveryReport]:
        """Re-open an archive after a (simulated) crash.

        ``disk`` and ``journal`` are the surviving devices — typically
        the same objects the crashed archiver held, since a
        :class:`~repro.errors.SimulatedCrash` kills the process, not
        the platter.  Returns the recovered archiver and the report.
        ``compression`` governs *new* stores only; existing extents are
        self-describing, so recovery and reads need no setting.
        """
        archiver = cls(
            disk=disk,
            archive_index=archive_index,
            journal=journal,
            fault_plan=fault_plan,
            compression=compression,
        )
        report = archiver.recover(metrics=metrics)
        return archiver, report

    # ------------------------------------------------------------------
    # fetching
    # ------------------------------------------------------------------

    def record(self, object_id: ObjectId) -> StoredObjectRecord:
        """The storage record of an object.

        Raises
        ------
        ObjectNotFoundError
            If the object is not stored here.
        """
        with self._lock:
            record = self._records.get(object_id)
        if record is None:
            raise ObjectNotFoundError(f"archiver has no object {object_id}")
        return record

    def version_of(self, object_id: ObjectId) -> int:
        """Monotone version token of an object's *rebuilt* form.

        Bumped by :meth:`attach_recognition` (and by any future
        re-archive path); a workstation's decoded-object cache entry is
        valid exactly while its token matches.

        Raises
        ------
        ObjectNotFoundError
            If the object is not stored here.
        """
        self.record(object_id)  # existence check
        with self._lock:
            return self._versions[object_id]

    def _count(self, op: str) -> None:
        with self._lock:
            self.op_counts[op] += 1

    def fetch(self, object_id: ObjectId) -> FetchResult:
        """Fetch an object's stored form (descriptor + composition).

        The returned descriptor's composition offsets are rebased back
        to composition-relative coordinates, so the pair is a
        self-contained unit (ready to mail or rebuild); only shared
        ARCHIVER-source pointers still reference this archiver.
        """
        self._count("fetch")
        record = self.record(object_id)
        data, service = self.read_raw(record.extent)
        descriptor, composition = unpack_archived(data)
        relative = descriptor.rebased(-record.composition_base)
        return FetchResult(
            descriptor=relative, composition=composition, service_time_s=service
        )

    def fetch_object(
        self, object_id: ObjectId, *, _count: bool = True
    ) -> tuple[MultimediaObject, float]:
        """Fetch and rebuild a complete multimedia object.

        The in-memory record's descriptor already holds every piece's
        archiver-absolute extent, so only the pieces are read (as
        :meth:`CachingArchiver.fetch_object` reads them on a cold
        cache), never the whole stored extent; pieces shared with other
        objects are resolved transparently.
        """
        if _count:
            self._count("fetch_object")
        return self._rebuild_with_table(
            object_id, self._recognition_table.get(object_id)
        )

    def _rebuild_with_table(
        self, object_id: ObjectId, side_table: dict | None, read=None
    ) -> tuple[MultimediaObject, float]:
        """Rebuild an object, injecting an explicit recognition table.

        The stored descriptor has archiver-absolute offsets; every piece
        is read through ``read(offset, length)``, which returns it
        decoded with its service time (:meth:`_read_decoded` unless a
        caching front passes its own).  ``attach_recognition`` uses this
        to preview the rebuilt form against a *candidate* merged table
        before committing it.
        """
        record = self.record(object_id)
        read = read or self._read_decoded
        service = 0.0

        def archiver_read(offset: int, length: int) -> bytes:
            nonlocal service
            raw, extra = read(offset, length)
            service += extra
            return raw

        obj = rebuild_object(
            _all_archiver(record.descriptor),
            b"",
            archiver_read=archiver_read,
            decoder=lambda raw: raw,  # ``read`` already decoded
            recognized=side_table,
        )
        return obj, service

    def _read_decoded(self, offset: int, length: int) -> tuple[bytes, float]:
        data, service = self.read_raw(Extent(offset, length))
        return self.decode_piece(data), service

    def recognition_for(self, object_id: ObjectId) -> dict:
        """Idle-time recognition side table of an object (may be empty).

        Callers that rebuild objects themselves (e.g. the presentation
        manager's selective fetch) pass it to ``rebuild_object``.
        """
        with self._lock:
            return {
                segment_id: list(utterances)
                for segment_id, utterances in self._recognition_table.get(
                    object_id, {}
                ).items()
            }

    def attach_recognition(self, object_id: ObjectId, side_table: dict) -> None:
        """Record idle-time recognition results for a stored object.

        ``side_table`` maps segment ids to recognized-utterance lists.
        The new terms become content-addressable immediately: the
        archive-wide index re-derives the object's *complete* voice
        posting set from the rebuilt form at the bumped version token,
        retiring every voice posting of the previous version (so a
        re-recognized object never serves stale utterances).

        The update follows the same commit protocol as :meth:`store`
        (journal BEGIN with the *complete merged* side table → apply →
        journal SEAL): after a crash at any point, :meth:`recover`
        either replays the full recognition or drops it entirely —
        voice queries never see a half-applied side table.

        Raises
        ------
        ObjectNotFoundError
            If the object is not stored here.
        """
        self.record(object_id)  # existence check
        with self._lock:
            # Preview the commit: merge into a candidate table and
            # rebuild the object against it.  All device reads happen
            # here, before the journal intent or any state mutation.
            merged = {
                segment_id: list(utterances)
                for segment_id, utterances in self._recognition_table.get(
                    object_id, {}
                ).items()
            }
            for segment_id, utterances in side_table.items():
                merged[segment_id] = list(utterances)
            version = self._versions[object_id] + 1
            # Index maintenance, not a client round-trip: rebuild
            # without touching the op counters benchmarks compare on.
            obj, _ = self._rebuild_with_table(object_id, merged)
            postings = archive_postings(obj, channels=(VOICE,))

            self._fire(RECOGNIZE_JOURNAL)
            txid = self._journal.begin(
                "recognize",
                {
                    "object_id": str(object_id),
                    "version": version,
                    "side_table": encode_side_table(merged),
                },
            )
            previous = self._recognition_table.get(object_id)
            try:
                self._fire(RECOGNIZE_APPLY)
                self._recognition_table[object_id] = merged
                # The rebuilt form of the object just changed:
                # invalidate every decoded copy cached against the old
                # token.
                self._versions[object_id] = version
                self._fire(RECOGNIZE_SEAL)
                self._journal.seal(txid)
            except MinosError:
                # Unwind the volatile apply so live state matches what
                # recovery would produce: recognition absent.
                if previous is None:
                    self._recognition_table.pop(object_id, None)
                else:
                    self._recognition_table[object_id] = previous
                self._versions[object_id] = version - 1
                self._journal_abort(txid)
                raise
            # Index publishes after the seal, as in store(): the
            # transaction is durable and recovery rebuilds the indexes
            # from the journaled side table anyway.
            self.archive_index.update_voice(object_id, postings, version)

    def read_absolute(self, offset: int, length: int) -> tuple[bytes, float]:
        """Read an archiver-absolute byte range (shared-data pointers)."""
        self._count("read_absolute")
        return self.read_raw(Extent(offset, length))

    def read_scattered(
        self, ranges: list[tuple[int, int]]
    ) -> tuple[list[bytes], float]:
        """Read many archiver-absolute ``(offset, length)`` ranges at once.

        One server round-trip replaces N: ranges are coalesced and
        sorted into a minimal-seek sweep (see
        :mod:`repro.storage.scatter`) and the whole batch is served
        under a single lock acquisition.  Payloads come back in request
        order, byte-identical to piecewise :meth:`read_absolute` calls.
        """
        self._count("read_scattered")
        return self.read_scattered_raw(ranges)

    def read_scattered_raw(
        self, ranges: list[tuple[int, int]]
    ) -> tuple[list[bytes], float]:
        """Batch-read ranges from the device without counting a request.

        The planning (coalesce + sweep order) and every device read
        happen under one archiver lock acquisition, so the head moves
        through the batch without interleaving from other requests.
        This is the hook :class:`CachingArchiver` and the delivery
        prefetcher build on.
        """
        if not ranges:
            return [], 0.0
        with self._lock:
            plan = plan_scatter(
                ranges, self._disk.head_position, self._disk.geometry
            )
            payloads: dict[Extent, bytes] = {}
            service = 0.0
            for extent in plan.reads:
                data, extra = self._disk.read(extent)
                payloads[extent] = data
                service += extra
            return gather(plan, payloads), service

    def read_pieces(
        self, object_id: ObjectId, tags: list[str]
    ) -> tuple[list[bytes], float]:
        """Read whole pieces of one object, by tag, as one
        :meth:`read_scattered` request; payloads come back in tag order,
        as stored.  Tags name a piece on every replica; offsets do not.
        """
        descriptor = self.record(object_id).descriptor
        return self.read_scattered([
            (location.offset, location.length)
            for location in map(descriptor.location, tags)
        ])

    def data_extent(self, object_id: ObjectId, tag: str) -> Extent:
        """Archiver-absolute extent of one data piece of an object.

        This is what a reader asks for before issuing archiver-absolute
        byte-range reads (e.g. the delivery pipeline's audio extents).
        """
        record = self.record(object_id)
        location = record.descriptor.location(tag)
        return Extent(location.offset, location.length)

    def read_piece_range(
        self, object_id: ObjectId, tag: str, start: int, length: int
    ) -> tuple[bytes, float]:
        """Read ``length`` bytes at offset ``start`` *within* a data piece.

        Raises
        ------
        ArchiverError
            If the range exceeds the piece.
        """
        self._count("read_piece_range")
        piece = self.data_extent(object_id, tag)
        return self.read_raw(_within(piece, tag, start, length))

    def read_piece_rows(
        self, object_id: ObjectId, tag: str, ranges: list[tuple[int, int]]
    ) -> tuple[list[bytes], float]:
        """Scatter-read several ``(start, length)`` ranges of one piece.

        Models a view window over a stored raster: one seek positions
        the head at the first row slice, the remaining slices stream
        with transfer cost only (rows of a window are nearly
        sequential on the platter).  Returns the row payloads and the
        total service time.

        Raises
        ------
        ArchiverError
            If any range exceeds the piece.
        """
        self._count("read_piece_rows")
        if not ranges:
            return [], 0.0
        piece = self.data_extent(object_id, tag)
        rows: list[bytes] = []
        total_service = 0.0
        with self._lock:
            for index, (start, length) in enumerate(ranges):
                extent = _within(piece, tag, start, length)
                data, service = self._disk.read(extent)
                if index:
                    # Subsequent window rows are near-sequential: charge
                    # transfer only, not a fresh seek, and take the
                    # seek the read charged off the device's busy time.
                    transfer = length / self._disk.geometry.transfer_bytes_per_s
                    self._disk.stats.busy_time_s -= service - transfer
                    service = transfer
                rows.append(data)
                total_service += service
        return rows, total_service

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def read_raw(self, extent: Extent) -> tuple[bytes, float]:
        """Read an extent from the backing device.

        Head movement is serialized under the archiver lock.  This is
        also the hook :class:`CachingArchiver` misses read through: the
        wrapper owns the shared cache and single-flight table.
        """
        with self._lock:
            return self._disk.read(extent)


class _Flight:
    """State of one in-progress device fetch (single-flight).

    ``data`` holds bytes for single-extent flights and a list of
    payloads for scatter-gather batch flights.  ``span_id`` is the
    leader's flight span: set before the completion event so joiners
    can link their piggyback spans to the read that actually served
    them (it may belong to a *different* request's trace).
    """

    __slots__ = ("event", "data", "service_time_s", "error", "span_id")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.data: bytes | list[bytes] | None = None
        self.service_time_s = 0.0
        self.error: BaseException | None = None
        self.span_id: int | None = None


@dataclass
class FlightStats:
    """Single-flight effectiveness counters."""

    device_fetches: int = 0
    piggybacks: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def snapshot(self) -> "FlightStats":
        """A coherent point-in-time copy of the counters."""
        with self._lock:
            return FlightStats(
                device_fetches=self.device_fetches, piggybacks=self.piggybacks
            )


class CachingArchiver:
    """Thread-safe read front for an :class:`Archiver`.

    Wraps an archiver with a *shared* :class:`LRUCache` and a per-key
    single-flight table: when N workstations request the same data piece
    concurrently, exactly one thread (the leader) performs the optical
    read; the others piggyback on the in-flight fetch and receive the
    same bytes with zero device service time — the paper's queueing
    concern attacked at the source, by never queueing duplicate work.

    Piggybacked requests report a service time of 0.0 because they add
    no device busy time; the leader's read is the only one charged.

    :meth:`fetch_object` reads through a second tier in front of that
    cache: decoded pieces, keyed by platter range and sized like the
    staging cache.  The platter is write-once, so a range never changes
    and neither tier needs invalidation.
    """

    def __init__(self, archiver: Archiver, cache: LRUCache) -> None:
        self._archiver = archiver
        self._cache = cache
        self._decoded = LRUCache(cache.capacity_bytes)
        self._flights: dict[str, _Flight] = {}
        self._lock = threading.Lock()
        self.flight_stats = FlightStats()

    @property
    def archiver(self) -> Archiver:
        """The wrapped archiver."""
        return self._archiver

    @property
    def obs(self):
        """Span recorder, shared with the wrapped archiver."""
        return self._archiver.obs

    @obs.setter
    def obs(self, recorder) -> None:
        self._archiver.obs = recorder

    def _flight_span(self, name, *, links=(), **attrs):
        """Instant marker span for single-flight bookkeeping.

        Parented on the ambient context (the worker's ``server`` span)
        and stamped with the recorder's clock; returns ``None`` with no
        recorder attached.
        """
        obs = self._archiver.obs
        if obs is None:
            return None
        now = obs.now()
        return obs.emit(
            current_span(), name, ObsSpanKind.CACHE, now, now,
            links=links, **attrs,
        )

    @property
    def index(self) -> ContentIndex:
        """The wrapped archiver's attribute index."""
        return self._archiver.index

    @property
    def archive_index(self) -> ArchiveIndex:
        """The wrapped archiver's archive-wide symmetric index."""
        return self._archiver.archive_index

    @property
    def cache(self) -> LRUCache:
        """The shared staging cache."""
        return self._cache

    @property
    def decoded_pieces(self) -> LRUCache:
        """The decoded tier :meth:`fetch_object` reads through."""
        return self._decoded

    @property
    def disk(self) -> SimulatedDisk:
        """The backing device of the wrapped archiver."""
        return self._archiver.disk

    @property
    def journal(self) -> Journal:
        """The write-ahead journal of the wrapped archiver."""
        return self._archiver.journal

    @property
    def fault_plan(self):
        """The fault plan of the wrapped archiver (or None)."""
        return self._archiver.fault_plan

    def recover(self, metrics=None) -> RecoveryReport:
        """Recover the wrapped archiver, dropping this wrapper's caches.

        The shared cache and the decoded tier may hold bytes keyed by
        pre-crash state, so both are cleared along with the inner
        archiver's volatile state.  So is the single-flight table: a
        leader that died mid-read never retired its flight, and a later
        read of its key would wait on it forever.
        """
        report = self._archiver.recover(metrics=metrics)
        report.cache_entries_dropped += len(self._cache) + len(self._decoded)
        self._cache.clear()
        self._decoded.clear()
        with self._lock:
            self._flights.clear()
        return report

    def __len__(self) -> int:
        return len(self._archiver)

    def __contains__(self, object_id: ObjectId) -> bool:
        return object_id in self._archiver

    def object_ids(self) -> list[ObjectId]:
        """Identifiers of all stored objects, in storage order."""
        return self._archiver.object_ids()

    def record(self, object_id: ObjectId) -> StoredObjectRecord:
        """The storage record of an object (see :meth:`Archiver.record`)."""
        return self._archiver.record(object_id)

    def data_extent(self, object_id: ObjectId, tag: str) -> Extent:
        """Archiver-absolute extent of one data piece of an object."""
        return self._archiver.data_extent(object_id, tag)

    def version_of(self, object_id: ObjectId) -> int:
        """Version token of an object (see :meth:`Archiver.version_of`)."""
        return self._archiver.version_of(object_id)

    def recognition_for(self, object_id: ObjectId) -> dict:
        """Recognition side table (see :meth:`Archiver.recognition_for`)."""
        return self._archiver.recognition_for(object_id)

    def attach_recognition(self, object_id: ObjectId, side_table: dict) -> None:
        """Record recognition results (see :meth:`Archiver.attach_recognition`).

        Delegated as-is: the side table lives outside the byte cache
        (platter bytes are immutable), so cached reads stay valid; the
        version bump performed by the inner archiver is what invalidates
        workstation-side decoded-object caches.
        """
        self._archiver.attach_recognition(object_id, side_table)

    @property
    def op_counts(self) -> Counter[str]:
        """Round-trip counters of the wrapped archiver."""
        return self._archiver.op_counts

    def store(
        self,
        obj: MultimediaObject,
        shared_archiver_data: dict[str, tuple[int, int]] | None = None,
    ) -> StoredObjectRecord:
        """Archive an object (delegated; the platter is append-only, so
        stores never invalidate cached reads)."""
        return self._archiver.store(obj, shared_archiver_data)

    # ------------------------------------------------------------------
    # cached, single-flight reads
    # ------------------------------------------------------------------

    def fetch(self, object_id: ObjectId) -> FetchResult:
        """Fetch an object's stored form through the shared cache."""
        self._archiver._count("fetch")
        record = self._archiver.record(object_id)
        data, service = self._read(f"obj/{object_id}", record.extent)
        descriptor, composition = unpack_archived(data)
        relative = descriptor.rebased(-record.composition_base)
        return FetchResult(
            descriptor=relative, composition=composition, service_time_s=service
        )

    def fetch_object(self, object_id: ObjectId) -> tuple[MultimediaObject, float]:
        """Fetch and rebuild a complete object from decoded pieces.

        Each piece is looked up by its platter range in the decoded
        tier first.  A hit is charged 0.0 service and touches neither
        the staging cache nor the device nor
        :meth:`Archiver.decode_piece`, so it fires no
        ``compress.decode`` fault and emits no decode marker.  A miss
        reads the stored piece through the staging cache and
        single-flight, decodes it and fills the tier.  Two concurrent
        misses on one piece may both decode it: both produce the same
        bytes, and the second ``put`` only replaces an equal entry.
        """
        self._archiver._count("fetch_object")
        return self._archiver._rebuild_with_table(
            object_id, self._archiver.recognition_for(object_id),
            self._read_decoded,
        )

    def _read_decoded(self, offset: int, length: int) -> tuple[bytes, float]:
        key = f"abs/{offset}/{length}"
        raw = self._decoded.get(key)
        if raw is not None:
            return raw, 0.0
        data, service = self.read_absolute(offset, length)
        raw = self._archiver.decode_piece(data)
        self._decoded.put(key, raw)
        return raw, service

    def read_absolute(self, offset: int, length: int) -> tuple[bytes, float]:
        """Read an archiver-absolute byte range through the shared cache."""
        self._archiver._count("read_absolute")
        return self._read(f"abs/{offset}/{length}", Extent(offset, length))

    def read_scattered(
        self, ranges: list[tuple[int, int]]
    ) -> tuple[list[bytes], float]:
        """Batch-read archiver-absolute ranges through the shared cache.

        Per-range cache hits are served immediately; the remaining
        misses form one scatter-gather batch executed under a single
        *batch* flight, so N workstations opening the same object
        concurrently trigger exactly one device sweep — the others
        piggyback and are charged zero service time.  Every fetched
        range is published under the same ``abs/{offset}/{length}`` key
        :meth:`read_absolute` uses, so piecewise and batched readers
        share one cache population.
        """
        self._archiver._count("read_scattered")
        if not ranges:
            return [], 0.0
        return self._read_batch(ranges)

    #: Whole pieces by tag, through this front's :meth:`read_scattered`.
    read_pieces = Archiver.read_pieces

    def read_piece_range(
        self, object_id: ObjectId, tag: str, start: int, length: int
    ) -> tuple[bytes, float]:
        """Read a byte range within a data piece through the shared cache.

        Raises
        ------
        ArchiverError
            If the range exceeds the piece.
        """
        self._archiver._count("read_piece_range")
        piece = self._archiver.data_extent(object_id, tag)
        return self._read(
            f"piece/{object_id}/{tag}/{start}/{length}",
            _within(piece, tag, start, length),
        )

    def read_piece_rows(
        self, object_id: ObjectId, tag: str, ranges: list[tuple[int, int]]
    ) -> tuple[list[bytes], float]:
        """View window rows (see :meth:`Archiver.read_piece_rows`).

        Delegated as-is: a window is small and seldom read twice, and
        its rows are not whole pieces, so they bypass both caches.
        """
        return self._archiver.read_piece_rows(object_id, tag, ranges)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _read(self, key: str, extent: Extent) -> tuple[bytes, float]:
        with self._lock:
            # One lookup per read, under the flight lock: a leader
            # publishes to the cache before it retires its flight, so
            # this finds the bytes, the flight, or neither (lead).
            cached = self._cache.get(key)
            if cached is not None:
                return cached, 0.0
            flight = self._flights.get(key)
            leader = flight is None
            if leader:
                flight = _Flight()
                self._flights[key] = flight
        if not leader:
            flight.event.wait()
            if flight.error is not None:
                raise flight.error
            with self.flight_stats._lock:
                self.flight_stats.piggybacks += 1
            assert flight.data is not None
            self._flight_span(
                "flight:join", key=key,
                links=(flight.span_id,) if flight.span_id else (),
            )
            return flight.data, 0.0
        try:
            data, service = self._archiver.read_raw(extent)
        except BaseException as exc:
            flight.error = exc
            with self._lock:
                self._flights.pop(key, None)
            flight.event.set()
            raise
        # Publish to the cache BEFORE retiring the flight so the lookup
        # under the flight lock always finds either the flight or the
        # cached bytes — never neither (which would duplicate the read).
        self._cache.put(key, data)
        flight.data = data
        flight.service_time_s = service
        lead = self._flight_span(
            "flight:lead", key=key, service_s=round(service, 9)
        )
        if lead is not None:
            flight.span_id = lead.span_id
        with self._lock:
            self._flights.pop(key, None)
        with self.flight_stats._lock:
            self.flight_stats.device_fetches += 1
        flight.event.set()
        return data, service

    def _read_batch(
        self, ranges: list[tuple[int, int]]
    ) -> tuple[list[bytes], float]:
        """Single-flight scatter-gather batch over the missing ranges.

        Each range is looked up once, under the flight lock, as in
        :meth:`_read`.  The missing ranges canonically name the batch,
        so identical concurrent batches collapse onto one leader's
        device sweep.  Payloads are published per range under the
        ``abs/…`` keys before the flight retires, preserving the lookup
        invariant of :meth:`_read`.
        """
        with self._lock:
            results = [
                self._cache.get(f"abs/{offset}/{length}")
                for offset, length in ranges
            ]
            missing = [i for i, data in enumerate(results) if data is None]
            if not missing:
                return results, 0.0  # type: ignore[return-value]
            wanted = [ranges[index] for index in missing]
            key = "scatter/" + ";".join(
                f"{offset}+{length}" for offset, length in wanted
            )
            flight = self._flights.get(key)
            leader = flight is None
            if leader:
                flight = _Flight()
                self._flights[key] = flight
        if not leader:
            flight.event.wait()
            if flight.error is not None:
                raise flight.error
            with self.flight_stats._lock:
                self.flight_stats.piggybacks += 1
            assert isinstance(flight.data, list)
            self._flight_span(
                "flight:join", key=key, ranges=len(wanted),
                links=(flight.span_id,) if flight.span_id else (),
            )
            for index, data in zip(missing, flight.data):
                results[index] = data
            return results, 0.0  # type: ignore[return-value]
        try:
            payloads, service = self._archiver.read_scattered_raw(wanted)
        except BaseException as exc:
            flight.error = exc
            with self._lock:
                self._flights.pop(key, None)
            flight.event.set()
            raise
        for (offset, length), data in zip(wanted, payloads):
            self._cache.put(f"abs/{offset}/{length}", data)
        flight.data = payloads
        flight.service_time_s = service
        lead = self._flight_span(
            "flight:lead", key=key, ranges=len(wanted),
            service_s=round(service, 9),
        )
        if lead is not None:
            flight.span_id = lead.span_id
        with self._lock:
            self._flights.pop(key, None)
        with self.flight_stats._lock:
            self.flight_stats.device_fetches += 1
        flight.event.set()
        for index, data in zip(missing, payloads):
            results[index] = data
        return results, service  # type: ignore[return-value]


def _within(piece: Extent, tag: str, start: int, length: int) -> Extent:
    """The platter extent of ``length`` bytes at ``start`` in a piece.

    Raises
    ------
    ArchiverError
        If the range exceeds the piece.
    """
    if start < 0 or start + length > piece.length:
        raise ArchiverError(
            f"range [{start}, {start + length}) exceeds piece "
            f"{tag!r} of length {piece.length}"
        )
    return Extent(piece.offset + start, length)


def _all_archiver(descriptor: Descriptor) -> Descriptor:
    """A copy of ``descriptor`` whose COMPOSITION locations are recast as
    ARCHIVER locations (they already hold archiver-absolute offsets)."""
    locations = [
        DataLocation(
            tag=loc.tag,
            kind=loc.kind,
            source=DataSource.ARCHIVER,
            offset=loc.offset,
            length=loc.length,
        )
        for loc in descriptor.locations
    ]
    return Descriptor(
        object_id=descriptor.object_id,
        driving_mode=descriptor.driving_mode,
        locations=locations,
        attributes=dict(descriptor.attributes),
        extra=dict(descriptor.extra),
    )
