"""C-COMPRESS — per-piece compression pays on every bottleneck path.

Section 5 names the optical device and the network as the scarce
resources on the open path; transparent per-piece compression shrinks
what crosses both without changing a single caller.  Four claims, each
against a ``compression=False`` twin that takes the exact pre-change
code path:

1. **Cold open** — bitmap-heavy objects (the library's 192x192
   rasters) ship compressed extents off the platter, cutting the
   simulated optical service time of a cold open by >= 1.5x at
   identical rebuilt content.
2. **Cache residency** — at a fixed cache byte budget, compressed
   objects are smaller, so more of the working set stays resident and
   the hit rate on a cyclic re-open workload rises.
3. **Cluster replication** — a 3-node R=2 cluster fans every store to
   two replicas; compressed stores write strictly fewer bytes across
   the member devices.
4. **Off switch** — with ``compression=False`` the platter carries raw
   (unframed) pieces at raw lengths and two independent archivers
   produce byte-identical platter images for the same library.

Rows go to ``bench_results.txt`` (quoted by EXPERIMENTS.md) and the
machine-readable summary to ``BENCH_COMPRESS.json``.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.cluster import ClusterNode, ClusterRouter
from repro.compress import is_framed
from repro.core.manager import PresentationManager
from repro.server import Archiver, CachingArchiver, NetworkLink
from repro.scenarios import build_object_library
from repro.storage.cache import LRUCache
from repro.trace import EventKind
from repro.workstation.station import Workstation

_JSON = pathlib.Path(__file__).resolve().parent.parent / "BENCH_COMPRESS.json"
_BENCH: dict = {}

REPLICATION = 2
CLUSTER_NODES = 3
#: Fixed cache budget for claim (2): holds the whole compressed visual
#: working set but only a sliver of the raw one.
CACHE_BYTES = 100_000


@pytest.fixture(scope="module", autouse=True)
def _write_json():
    """Emit whatever this run measured as BENCH_COMPRESS.json."""
    yield
    if _BENCH:
        _JSON.write_text(json.dumps(_BENCH, indent=2, sort_keys=True) + "\n")


def _library_archiver(*, compression, visual=6, audio=2):
    archiver = Archiver(compression=compression)
    build_object_library(archiver, visual_count=visual, audio_count=audio)
    return archiver


def _visual_ids(archiver):
    return [
        object_id
        for object_id in archiver.object_ids()
        if archiver.record(object_id).descriptor.driving_mode == "visual"
    ]


def _cold_open(archiver, object_id):
    """Batched cold open on a fresh workstation: (bytes, service_s)."""
    workstation = Workstation()
    manager = PresentationManager(
        archiver, workstation, link=NetworkLink(), batch_open=True
    )
    manager.open(object_id)
    transfer = workstation.trace.last(EventKind.TRANSFER).detail
    return transfer["bytes"], transfer["service_s"]


def _measure_cold_opens(visual=6, audio=2):
    """Cold-open every visual object on compressed and raw twins."""
    on = _library_archiver(compression=True, visual=visual, audio=audio)
    off = _library_archiver(compression=False, visual=visual, audio=audio)
    assert on.object_ids() == off.object_ids()
    totals = {True: [0, 0.0], False: [0, 0.0]}
    opened = 0
    for object_id in _visual_ids(on):
        for compressed, archiver in ((True, on), (False, off)):
            shipped, service = _cold_open(archiver, object_id)
            totals[compressed][0] += shipped
            totals[compressed][1] += service
        rebuilt_on, _ = on.fetch_object(object_id)
        rebuilt_off, _ = off.fetch_object(object_id)
        assert rebuilt_on.images[0].bitmap.equals(rebuilt_off.images[0].bitmap)
        assert (
            rebuilt_on.text_segments[0].markup
            == rebuilt_off.text_segments[0].markup
        )
        opened += 1
    return opened, totals


def test_cold_open_service_time(results):
    """Claim (1): >= 1.5x less optical service time on bitmap objects."""
    opened, totals = _measure_cold_opens()
    (on_bytes, on_service), (off_bytes, off_service) = (
        totals[True],
        totals[False],
    )
    speedup = off_service / on_service
    assert on_bytes < off_bytes
    assert speedup >= 1.5
    results.record(
        "C-COMPRESS transparent compression",
        f"cold open, {opened} bitmap objects: compressed "
        f"{on_service * 1000:.1f}ms / {on_bytes:,}B vs raw "
        f"{off_service * 1000:.1f}ms / {off_bytes:,}B "
        f"({speedup:.2f}x less optical service time)",
    )
    _BENCH["cold_open"] = {
        "objects": opened,
        "compressed": {"bytes": on_bytes, "service_s": on_service},
        "raw": {"bytes": off_bytes, "service_s": off_service},
        "speedup": speedup,
    }


def _hit_rate(*, compression, passes=4, visual=8):
    cache = LRUCache(CACHE_BYTES)
    archiver = CachingArchiver(
        _library_archiver(compression=compression, visual=visual, audio=0),
        cache,
    )
    ids = archiver.object_ids()
    for _ in range(passes):
        for object_id in ids:
            archiver.fetch(object_id)
    stats = cache.stats
    return stats.hits / (stats.hits + stats.misses), len(ids) * passes


def test_cache_hit_rate_at_fixed_bytes(results):
    """Claim (2): same byte budget, more resident objects, more hits."""
    on_rate, lookups = _hit_rate(compression=True)
    off_rate, _ = _hit_rate(compression=False)
    assert on_rate > off_rate
    # The compressed working set fits outright: every pass after the
    # first hits, so the rate approaches (passes - 1) / passes.
    assert on_rate >= 0.7
    results.record(
        "C-COMPRESS transparent compression",
        f"cache hit rate at {CACHE_BYTES:,}B budget over {lookups} "
        f"cyclic opens: compressed {on_rate:.0%} vs raw {off_rate:.0%}",
    )
    _BENCH["cache_hit_rate"] = {
        "cache_bytes": CACHE_BYTES,
        "lookups": lookups,
        "compressed": on_rate,
        "raw": off_rate,
    }


def _replication_bytes(library, *, compression):
    members = [
        ClusterNode(i, archiver=Archiver(compression=compression))
        for i in range(CLUSTER_NODES)
    ]
    router = ClusterRouter(members, replication=REPLICATION)
    for obj in library:
        router.store(obj)
    return sum(
        node.archiver.disk.stats.bytes_written for node in members
    )


def test_cluster_replication_bytes(results):
    """Claim (3): quorum writes fan out compressed extents."""
    library = build_object_library(
        Archiver(), visual_count=8, audio_count=3
    )
    on_bytes = _replication_bytes(library, compression=True)
    off_bytes = _replication_bytes(library, compression=False)
    assert on_bytes < off_bytes
    results.record(
        "C-COMPRESS transparent compression",
        f"{CLUSTER_NODES}-node cluster, R={REPLICATION}, "
        f"{len(library)} objects: compressed replicas wrote "
        f"{on_bytes:,}B vs raw {off_bytes:,}B "
        f"({off_bytes / on_bytes:.2f}x fewer device bytes)",
    )
    _BENCH["cluster_replication"] = {
        "nodes": CLUSTER_NODES,
        "replication": REPLICATION,
        "objects": len(library),
        "compressed_bytes": on_bytes,
        "raw_bytes": off_bytes,
    }


def test_off_switch_preserves_raw_platter(results):
    """Claim (4): compression=False stores raw pieces, reproducibly."""
    first = _library_archiver(compression=False, visual=3, audio=1)
    second = _library_archiver(compression=False, visual=3, audio=1)
    assert bytes(first.disk._data) == bytes(second.disk._data)
    framed = 0
    for object_id in first.object_ids():
        record = first.record(object_id)
        for location in record.descriptor.locations:
            piece, _ = first.disk.read(
                type(record.extent)(location.offset, location.length)
            )
            framed += is_framed(piece)
    assert framed == 0
    assert first.disk.stats.media_raw_bytes == (
        first.disk.stats.media_stored_bytes
    )
    results.record(
        "C-COMPRESS transparent compression",
        f"compression=off: {len(first.object_ids())} objects archived "
        f"with 0 framed pieces, raw == stored media bytes, and a "
        f"byte-identical platter image across independent runs",
    )
    _BENCH["off_switch"] = {
        "objects": len(first.object_ids()),
        "framed_pieces": framed,
        "platter_identical": True,
    }


def test_cold_open_wall_clock(benchmark):
    """Wall-clock compressed open (decode included), cache defeated."""
    archiver = _library_archiver(compression=True, visual=4, audio=0)
    manager = PresentationManager(archiver, Workstation(), link=NetworkLink())
    object_id = _visual_ids(archiver)[0]

    def open_cold():
        manager.decoded_cache.invalidate(object_id)
        manager.open(object_id)

    benchmark(open_cold)


@pytest.mark.bench_smoke
def test_smoke_compress(results):
    """Reduced-size C-COMPRESS for the CI bench-smoke job.

    Two bitmap objects: compressed cold opens beat the raw twin by
    >= 1.5x optical service time at identical content, and a 3-node
    R=2 cluster writes strictly fewer replica bytes.
    """
    opened, totals = _measure_cold_opens(visual=2, audio=0)
    assert opened == 2
    (on_bytes, on_service), (off_bytes, off_service) = (
        totals[True],
        totals[False],
    )
    assert on_bytes < off_bytes
    assert off_service / on_service >= 1.5
    library = build_object_library(
        Archiver(), visual_count=2, audio_count=1
    )
    on_cluster = _replication_bytes(library, compression=True)
    off_cluster = _replication_bytes(library, compression=False)
    assert on_cluster < off_cluster
    results.record(
        "C-COMPRESS transparent compression",
        f"smoke: {opened} objects open {off_service / on_service:.2f}x "
        f"faster compressed; cluster replicas wrote {on_cluster:,}B "
        f"vs {off_cluster:,}B raw",
    )
