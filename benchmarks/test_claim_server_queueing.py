"""C-QUEUE — Section 5 claim: server performance is a queueing problem.

"The major concern in the server subsystem is performance.  Performance
may be crucial due to queueing delays that may be experienced when
several users try to access data from the same device.  The subsystem
provides access methods, scheduling, cashing, version control."

The experiment populates the optical archiver, generates Poisson
request streams at increasing load, and measures mean/p95 response
times under FCFS vs SCAN scheduling, and with a magnetic-staging cache
in front of the optical device.
"""

import numpy as np
import pytest

from repro.scenarios import build_object_library
from repro.server import Archiver, CachingArchiver
from repro.server.scheduler import (
    Discipline,
    poisson_requests,
    simulate_schedule,
)
from repro.storage.cache import LRUCache
from repro.storage.magnetic import MAGNETIC_GEOMETRY
from repro.storage.optical import OPTICAL_GEOMETRY


@pytest.fixture(scope="module")
def stored_extents():
    """Object extents of a *mature* archive.

    A freshly built library occupies one sequential run at the start of
    the platter, where seeks cost nothing and scheduling cannot matter.
    A production archiver accumulates objects over years across the
    whole platter, so the workload spreads the real object sizes
    uniformly over the device — the regime Section 5 worries about.
    """
    from repro.storage.blockdev import Extent

    archiver = Archiver()
    build_object_library(archiver, visual_count=12, audio_count=6)
    sizes = [
        archiver.record(object_id).extent.length
        for object_id in archiver.object_ids()
    ]
    rng = np.random.default_rng(17)
    capacity = OPTICAL_GEOMETRY.capacity_bytes
    extents = [
        Extent(int(rng.integers(0, capacity - size)), size) for size in sizes
    ]
    return archiver, extents


def _mean_response(completions):
    return float(np.mean([c.response_time_s for c in completions]))


def _p95_response(completions):
    return float(np.percentile([c.response_time_s for c in completions], 95))


def test_response_time_grows_with_load(stored_extents, results):
    _, extents = stored_extents
    rows = []
    for rate in (0.5, 2.0, 5.0, 8.0):
        requests = poisson_requests(rate, 120.0, extents, seed=3)
        completed = simulate_schedule(OPTICAL_GEOMETRY, requests, Discipline.FCFS)
        mean = _mean_response(completed)
        rows.append((rate, mean))
        results.record(
            "C-QUEUE server contention",
            f"FCFS, optical, {rate:.1f} req/s: mean response "
            f"{mean * 1000:.0f}ms, p95 {_p95_response(completed) * 1000:.0f}ms "
            f"({len(completed)} requests)",
        )
    means = [mean for _, mean in rows]
    assert means[0] < means[-1]
    assert means[-1] > 2 * means[0]  # contention bites


def test_scan_beats_fcfs_at_high_load(stored_extents, results):
    _, extents = stored_extents
    requests = poisson_requests(8.0, 120.0, extents, seed=4)
    fcfs = simulate_schedule(OPTICAL_GEOMETRY, requests, Discipline.FCFS)
    scan = simulate_schedule(OPTICAL_GEOMETRY, requests, Discipline.SCAN)
    fcfs_mean = _mean_response(fcfs)
    scan_mean = _mean_response(scan)
    results.record(
        "C-QUEUE server contention",
        f"at 8 req/s: FCFS mean {fcfs_mean * 1000:.0f}ms vs SCAN "
        f"{scan_mean * 1000:.0f}ms ({fcfs_mean / scan_mean:.2f}x)",
    )
    assert scan_mean < fcfs_mean


def test_scan_no_worse_at_low_load(stored_extents, results):
    _, extents = stored_extents
    requests = poisson_requests(0.5, 120.0, extents, seed=5)
    fcfs = simulate_schedule(OPTICAL_GEOMETRY, requests, Discipline.FCFS)
    scan = simulate_schedule(OPTICAL_GEOMETRY, requests, Discipline.SCAN)
    results.record(
        "C-QUEUE server contention",
        f"at 0.5 req/s: FCFS mean {_mean_response(fcfs) * 1000:.0f}ms vs "
        f"SCAN {_mean_response(scan) * 1000:.0f}ms (queue mostly empty)",
    )
    assert _mean_response(scan) <= _mean_response(fcfs) * 1.2


def test_magnetic_device_flattens_the_curve(stored_extents, results):
    """The same request stream served from the magnetic staging disk."""
    _, extents = stored_extents
    for rate in (2.0, 8.0):
        requests = poisson_requests(rate, 120.0, extents, seed=6)
        optical = simulate_schedule(OPTICAL_GEOMETRY, requests, Discipline.FCFS)
        magnetic = simulate_schedule(MAGNETIC_GEOMETRY, requests, Discipline.FCFS)
        ratio = _mean_response(optical) / _mean_response(magnetic)
        results.record(
            "C-QUEUE server contention",
            f"{rate:.0f} req/s: optical {_mean_response(optical) * 1000:.0f}ms "
            f"vs magnetic staging {_mean_response(magnetic) * 1000:.0f}ms "
            f"({ratio:.1f}x)",
        )
        assert ratio > 1.5


def test_cache_absorbs_repeated_fetches(stored_extents, results):
    archiver, _ = stored_extents
    cached = CachingArchiver(Archiver(), LRUCache(50_000_000))
    build_object_library(cached, visual_count=6, audio_count=0, seed=99)
    ids = cached.object_ids()
    cold = sum(cached.fetch(object_id).service_time_s for object_id in ids)
    warm = sum(cached.fetch(object_id).service_time_s for object_id in ids)
    results.record(
        "C-QUEUE server contention",
        f"fetching 6 objects: cold {cold * 1000:.0f}ms, warm (cached) "
        f"{warm * 1000:.0f}ms",
    )
    assert warm == 0.0
    assert cached.cache.stats.hit_rate > 0.0


def test_schedule_simulation_speed(benchmark, stored_extents):
    _, extents = stored_extents
    requests = poisson_requests(5.0, 60.0, extents, seed=7)
    benchmark(simulate_schedule, OPTICAL_GEOMETRY, requests, Discipline.SCAN)
