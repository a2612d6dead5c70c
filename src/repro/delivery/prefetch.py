"""Read-ahead of the next visual/audio pages, with cancellation.

"While the next visual/audio pages are prefetched in the background"
— the presentation manager knows which way the user is browsing, so
the next pages in that direction are very likely to be requested.  The
:class:`Prefetcher` watches page views per station, infers the browse
direction from consecutive page numbers, and plans read-ahead of the
next ``depth`` pages through the *shared* staging cache: a prefetched
page costs the device once and every later on-demand read — this
station's or anyone else's — is a cache hit.

Cancellation.  When the user jumps (a non-adjacent page, another
object, a search hit), queued predictions are wrong.  Each station
carries a *generation*; a jump bumps it, and a prefetch task only
publishes into the cache if its generation is still current.  A
cancelled prefetch therefore never publishes a stale entry, no matter
when its device read would have completed — the invariant pinned by
``tests/test_property_cache.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import DeliveryError
from repro.ids import ObjectId
from repro.server.archiver import Archiver, CachingArchiver
from repro.storage.blockdev import Extent
from repro.storage.cache import LRUCache


def piece_range_key(object_id: ObjectId, tag: str, start: int, length: int) -> str:
    """The shared-cache key of a byte range within a data piece.

    Must match :meth:`CachingArchiver.read_piece_range`'s key format
    exactly: a prefetched range is useful *because* the later on-demand
    read looks up the same key.
    """
    return f"piece/{object_id}/{tag}/{start}/{length}"


@dataclass(frozen=True)
class PrefetchTask:
    """One planned read-ahead of a byte range of a page."""

    station: str
    generation: int
    object_id: ObjectId
    tag: str
    start: int
    length: int
    page: int

    def cache_key(self) -> str:
        """Shared-cache key this task publishes under."""
        return piece_range_key(self.object_id, self.tag, self.start, self.length)


@dataclass
class PrefetchStats:
    """Read-ahead effectiveness counters."""

    issued: int = 0
    executed: int = 0
    cancelled: int = 0
    already_cached: int = 0
    jumps: int = 0
    directions: dict[str, int] = field(default_factory=dict)


class Prefetcher:
    """Predicts and stages the next pages of each station's browse.

    Parameters
    ----------
    archiver:
        Where the bytes live.  A :class:`CachingArchiver` is unwrapped
        to its inner archiver — prefetch reads go to the raw device and
        publish *explicitly*, so cancellation can intervene between
        read and publish.
    cache:
        The shared staging cache read-ahead publishes into.
    depth:
        How many pages ahead of the current view to stage.
    """

    def __init__(
        self,
        archiver: Archiver | CachingArchiver,
        cache: LRUCache,
        *,
        depth: int = 2,
    ) -> None:
        if depth < 1:
            raise DeliveryError(f"prefetch depth must be positive: {depth}")
        self._archiver = (
            archiver.archiver if isinstance(archiver, CachingArchiver) else archiver
        )
        self._cache = cache
        self._depth = depth
        self._last_page: dict[tuple[str, str], int] = {}
        self._generation: dict[str, int] = {}
        self.stats = PrefetchStats()

    @property
    def depth(self) -> int:
        """Configured read-ahead depth, in pages."""
        return self._depth

    def generation(self, station: str) -> int:
        """Current prefetch generation of a station."""
        return self._generation.get(station, 0)

    def is_current(self, task: PrefetchTask) -> bool:
        """Whether ``task`` survived every jump since it was planned."""
        return task.generation == self.generation(task.station)

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------

    def observe_view(
        self,
        station: str,
        object_id: ObjectId,
        page: int,
        page_extents: list[tuple[str, int, int]],
    ) -> list[PrefetchTask]:
        """Record a page view; plan read-ahead in the browse direction.

        ``page_extents`` maps every page of the object (0-based) to its
        ``(tag, start, length)`` byte range; the returned tasks cover
        the next ``depth`` pages in the inferred direction that exist
        and are not already staged.  The first view of an object
        defaults to forward browsing (the overwhelmingly common case).
        """
        if not 0 <= page < len(page_extents):
            raise DeliveryError(
                f"page {page} out of range for {len(page_extents)}-page object"
            )
        key = (station, str(object_id))
        previous = self._last_page.get(key)
        direction = 1
        if previous is not None and page < previous:
            direction = -1
        self._last_page[key] = page
        label = "forward" if direction > 0 else "backward"
        self.stats.directions[label] = self.stats.directions.get(label, 0) + 1
        generation = self.generation(station)
        tasks: list[PrefetchTask] = []
        for step in range(1, self._depth + 1):
            target = page + step * direction
            if not 0 <= target < len(page_extents):
                break
            tag, start, length = page_extents[target]
            task = PrefetchTask(
                station=station, generation=generation, object_id=object_id,
                tag=tag, start=start, length=length, page=target,
            )
            tasks.append(task)
            self.stats.issued += 1
        return tasks

    def jump(self, station: str) -> int:
        """The user went somewhere unpredicted: revoke planned read-ahead.

        Returns the new generation; every outstanding task of an older
        generation is now cancelled and will refuse to publish.
        """
        new = self.generation(station) + 1
        self._generation[station] = new
        self.stats.jumps += 1
        return new

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def execute(self, task: PrefetchTask) -> tuple[bytes | None, float]:
        """Run one read-ahead: device read, then gated cache publish.

        Returns ``(data, device_service_s)``; ``data`` is None — and
        nothing is published — when the task was cancelled by a jump,
        either before the read (no device work at all) or between the
        read and the publish (the race the generation gate closes).
        A range someone else already staged is served from the cache
        with zero device service (the read-ahead still matters: the
        caller ships the bytes on to the station).
        """
        if not self.is_current(task):
            self.stats.cancelled += 1
            return None, 0.0
        cached = self._cache.get(task.cache_key())
        if cached is not None:
            self.stats.already_cached += 1
            self.stats.executed += 1
            return cached, 0.0
        extent = self._archiver.data_extent(task.object_id, task.tag)
        if task.start < 0 or task.start + task.length > extent.length:
            raise DeliveryError(
                f"prefetch range [{task.start}, {task.start + task.length}) "
                f"exceeds piece {task.tag!r} of length {extent.length}"
            )
        data, service = self._archiver.read_raw(
            Extent(extent.offset + task.start, task.length)
        )
        # The gate: a jump may have landed while the device was busy.
        if not self.is_current(task):
            self.stats.cancelled += 1
            return None, service
        self._cache.put(task.cache_key(), data)
        self.stats.executed += 1
        return data, service
