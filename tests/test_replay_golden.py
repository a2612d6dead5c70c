"""Golden replays: the simulated-time device model must not drift.

C-CONC (:func:`replay_virtual`), C-CLUSTER (:func:`replay_cluster`) and
C-STREAM (:class:`DeliveryPipeline`) all answer Section 5's queueing
concern with the same simulated device: a FIFO queue, a head position,
and a staging cache whose keys carry the time their bytes land.  The
digests below pin the exact outcome of each benchmark's own workload —
every latency, hit, piggyback and busy second — so a change to the
model that moves any of them fails here, naming the run.

The delivery configuration is chosen so that some on-demand page fetch
finds its key staged but still in flight (it must wait for that fetch,
not read the device again); ``test_delivery_golden_exercises_piggyback``
checks that it still does.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.cluster import ClusterNode, ClusterRouter, replay_cluster
from repro.delivery import (
    DeliveryConfig,
    DeliveryPipeline,
    DeliveryPolicy,
    build_streaming_workload,
)
from repro.faults import FaultKind, FaultPlan, FaultSpec
from repro.obs.spans import SpanRecorder
from repro.scenarios import build_object_library
from repro.server import Archiver, build_schedule, replay_virtual, station_subset

#: C-CONC's shared-cache budget: large enough that nothing is evicted.
CACHE_BYTES = 50_000_000

GOLDEN = {
    "conc-cold-1": "f9011f089aca85b57c16814039d71f9c",
    "conc-cold-4": "8e5a4f7098a7fb8e3f3b2522a347b0ec",
    "conc-cold-16": "ba1186d4d2a1b1ec02cf3809b8b7cfeb",
    "conc-cached-1": "bc89ad639e6c347c279bf04e71cf913b",
    "conc-cached-4": "c0bb53f9ce51528b020644efec0af7ba",
    "conc-cached-16": "063138197de09a2daf0d66850e97d282",
    "cluster-1": "75b9a2fa8208ffbf5994db5bac5ec96a",
    "cluster-2": "0bf72f211436940845146e2a0c867939",
    "cluster-3": "a7e44827e1fe791c00e34871b5a71248",
    "cluster-4": "d4bcca0e29484d7e2808b8741b418839",
    "cluster-hedged": "a264f934c6b98aac111688cfca078e63",
    "cluster-crash": "bbde7a911c28305a28d17608d771656c",
    "stream-on_demand": "1cca85cf6305fc406c96da10a2ae66cb",
    "stream-deadline": "e15d43c1dfac391883042c7447934aa6",
}


def _digest(value) -> str:
    return hashlib.blake2b(repr(value).encode(), digest_size=16).hexdigest()


@pytest.fixture(scope="module")
def library():
    """C-CONC's and C-CLUSTER's library: 10 visual + 4 audio objects."""
    archiver = Archiver()
    objects = build_object_library(archiver, visual_count=10, audio_count=4)
    return archiver, objects


@pytest.fixture(scope="module")
def schedule(library):
    """The 16-station zipf schedule both benchmarks replay."""
    archiver, _ = library
    return build_schedule(
        archiver.object_ids(), stations=16, rate_per_station_s=2.0,
        duration_s=120.0, skew=1.1, seed=11,
    )


def _conc_outcome(archiver, schedule, users, cache_bytes):
    report = replay_virtual(
        archiver, station_subset(schedule, users), cache_bytes=cache_bytes
    )
    return (
        report.latencies, report.cache_hits, report.piggybacks,
        report.device_reads, report.device_busy_s,
    )


def _cluster_outcome(objects, schedule, case):
    nodes = 3 if case in ("hedged", "crash") else int(case)
    plans = {}
    if case == "crash":
        plans[0] = FaultPlan(
            [FaultSpec(site="cluster.node_crash", kind=FaultKind.CRASH, hit=200)]
        )
    members = [ClusterNode(i, fault_plan=plans.get(i)) for i in range(nodes)]
    router = ClusterRouter(
        members, replication=2, write_quorum=1 if case == "crash" else None
    )
    for obj in objects:
        router.store(obj)
    hedge = {"hedge_fraction": 1.0, "hedge_floor_s": 0.05}
    report = replay_cluster(router, schedule, **(hedge if case == "hedged" else {}))
    return (
        report.latencies, report.cache_hits, report.piggybacks,
        report.failovers, report.failed_reads, report.hedges,
        report.hedge_wins, report.node_reads, report.node_busy_s,
    )


def _stream_pipeline(policy):
    """A 16-station delivery replay on a small, contended library."""
    archiver = Archiver()
    objects = build_object_library(
        archiver, visual_count=4, audio_count=8, image_size=320
    )
    scripts = build_streaming_workload(
        archiver, objects, stations=16, duration_s=15.0, think_s=1.2,
        jump_probability=0.12, page_bytes=1_024, seed=3,
    )
    pipeline = DeliveryPipeline(
        archiver,
        DeliveryConfig(policy=policy, cache_bytes=512_000, page_bytes=1_024),
    )
    return pipeline, scripts


def _stream_outcome(policy):
    pipeline, scripts = _stream_pipeline(policy)
    report = pipeline.run(scripts)
    return (
        dataclasses.asdict(report),
        dataclasses.asdict(pipeline.prefetcher.stats),
    )


@pytest.mark.parametrize("users", [1, 4, 16])
@pytest.mark.parametrize("cached", [False, True], ids=["cold", "cached"])
def test_conc_replay_golden(library, schedule, users, cached):
    archiver, _ = library
    outcome = _conc_outcome(
        archiver, schedule, users, CACHE_BYTES if cached else None
    )
    name = f"conc-{'cached' if cached else 'cold'}-{users}"
    assert _digest(outcome) == GOLDEN[name], name


@pytest.mark.parametrize("case", ["1", "2", "3", "4", "hedged", "crash"])
def test_cluster_replay_golden(library, schedule, case):
    _, objects = library
    outcome = _cluster_outcome(objects, schedule, case)
    assert _digest(outcome) == GOLDEN[f"cluster-{case}"], case


@pytest.mark.parametrize("policy", list(DeliveryPolicy), ids=lambda p: p.value)
def test_delivery_replay_golden(policy):
    outcome = _stream_outcome(policy)
    assert _digest(outcome) == GOLDEN[f"stream-{policy.value}"], policy.value


def test_delivery_golden_exercises_piggyback():
    """Some on-demand page fetch in the golden run waits on a flight.

    A staging-cache span that ends after it starts is a page fetch
    that found its range staged but still on the device, and waited
    for that read instead of issuing its own.
    """
    pipeline, scripts = _stream_pipeline(DeliveryPolicy.ON_DEMAND)
    pipeline.obs = SpanRecorder()
    pipeline.run(scripts)
    waits = [
        span for span in pipeline.obs.spans()
        if span.name == "staging_cache" and span.end_s > span.start_s
    ]
    assert waits
