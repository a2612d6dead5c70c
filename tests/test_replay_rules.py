"""The staging rule of the virtual-time replays, on hand-built schedules.

Both public replays — :func:`replay_virtual` (C-CONC) and
:func:`replay_cluster` (C-CLUSTER) — charge one device model.  With a
staging cache, a request for a staged key is served when that key's
read lands: a piggyback while the read is still in flight, free once
it has landed.  A key evicted from the cache is not staged, even while
its read is still in flight, so it goes back to the device.

Each schedule is a few requests for two library objects, so the
expected latencies follow from the device geometry by hand.
"""

from __future__ import annotations

import pytest

from repro.cluster import ClusterNode, ClusterRouter, replay_cluster
from repro.scenarios import build_object_library
from repro.server import Archiver, LoadRequest, replay_virtual

REPLAYS = ("virtual", "cluster")


@pytest.fixture(scope="module")
def objects():
    return build_object_library(Archiver(), visual_count=2, audio_count=0)


def _replay(kind, objects, arrivals, cache_bytes):
    """Replay ``(arrival_s, object index)`` pairs through one device."""
    schedule = [
        LoadRequest(
            request_id=index, station="ws-0", arrival_s=arrival,
            object_id=objects[which].object_id,
        )
        for index, (arrival, which) in enumerate(arrivals)
    ]
    if kind == "virtual":
        archiver = Archiver()
        for obj in objects:
            archiver.store(obj)
        return replay_virtual(archiver, schedule, cache_bytes=cache_bytes)
    router = ClusterRouter([ClusterNode(0)], replication=1)
    for obj in objects:
        router.store(obj)
    return replay_cluster(router, schedule, cache_bytes=cache_bytes)


def _extents(objects):
    """The device geometry and both objects' extents, as stored."""
    archiver = Archiver()
    for obj in objects:
        archiver.store(obj)
    geometry = archiver.disk.geometry
    a, b = (archiver.record(obj.object_id).extent for obj in objects)
    return geometry, a, b


@pytest.mark.parametrize("kind", REPLAYS)
def test_in_flight_staged_key_is_served_at_its_ready_time(kind, objects):
    geometry, a, _ = _extents(objects)
    landed = geometry.access_time(0, a)
    follower = landed / 2  # arrives while the first read is on the device
    report = _replay(
        kind, objects, [(0.0, 0), (follower, 0)], cache_bytes=1 << 20
    )
    assert report.piggybacks == 1
    assert report.cache_hits == 0
    assert report.latencies == pytest.approx([landed, landed - follower])


@pytest.mark.parametrize("kind", REPLAYS)
def test_staged_key_past_its_ready_time_is_free(kind, objects):
    geometry, a, _ = _extents(objects)
    landed = geometry.access_time(0, a)
    report = _replay(
        kind, objects, [(0.0, 0), (landed + 1.0, 0)], cache_bytes=1 << 20
    )
    assert report.cache_hits == 1
    assert report.piggybacks == 0
    assert report.latencies == pytest.approx([landed, 0.0])


@pytest.mark.parametrize("kind", REPLAYS)
def test_key_evicted_during_its_flight_goes_back_to_the_device(
    kind, objects
):
    geometry, a, b = _extents(objects)
    # Room for either object, never both: staging B evicts A.
    cache_bytes = a.length + b.length - 1
    landed_a = geometry.access_time(0, a)
    landed_b = landed_a + geometry.access_time(a.end, b)
    again = landed_b + geometry.access_time(b.end, a)
    # B queues behind A and evicts it; A is asked for again while its
    # first read is still on the device.
    t_b, t_again = landed_a / 4, landed_a / 2
    report = _replay(
        kind, objects, [(0.0, 0), (t_b, 1), (t_again, 0)],
        cache_bytes=cache_bytes,
    )
    assert report.piggybacks == 0
    assert report.cache_hits == 0
    assert report.latencies == pytest.approx(
        [landed_a, landed_b - t_b, again - t_again]
    )
