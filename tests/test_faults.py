"""Deterministic fault matrix: every site × kind, with typed errors.

One test per (site, kind) pair over the canonical workload of
:mod:`tests.fault_workload`: crashes at every registered site must be
recoverable, transients must surface as typed
:class:`~repro.errors.MinosError` subclasses (or be absorbed where the
design says so), and torn writes must be detected and rolled back.
Plus unit coverage of the journal framing, the fault plan, the faulty
device proxy, and the site registry.
"""

from __future__ import annotations

import pytest

from repro.errors import (
    FaultConfigError,
    JournalError,
    MinosError,
    SimulatedCrash,
    TornWriteError,
    TransientIOError,
)
from repro.faults import (
    TORN_FILL,
    FaultKind,
    FaultPlan,
    FaultSpec,
    FaultyDevice,
)
from repro.faults.registry import (
    CACHE_PUT,
    DEVICE_WRITE,
    FAULT_SITES,
    LSM_FLUSH,
    registered_sites,
    require_site,
)
from repro.server.metrics import ServerMetrics
from repro.storage.blockdev import Extent
from repro.storage.journal import (
    ABORTED,
    PENDING,
    SEALED,
    JOURNAL_GEOMETRY,
    Journal,
)
from repro.storage.magnetic import MagneticDisk
from repro.storage.optical import OpticalDisk
from tests.fault_workload import (
    build_bundle,
    reopen_and_verify,
    run_workload_catching,
    verify_recover_idempotent,
)

pytestmark = pytest.mark.faults

#: Sites of the replication layer.  The canonical single-archiver
#: workload never reaches them, and their transients are *absorbed* by
#: design (failover, quorum, re-queued migration), so they are excluded
#: from the generic sweeps and covered by :class:`TestClusterFaults`.
CLUSTER_SITES = {
    "cluster.node_crash",
    "cluster.replica_write",
    "cluster.migrate",
}

ALL_SITES = sorted(set(FAULT_SITES) - CLUSTER_SITES)


class TestWorkloadCoverage:
    def test_canonical_workload_reaches_every_registered_site(self):
        # The guarantee behind the sweeps below: a crash armed at any
        # registered single-node site will actually fire during the
        # workload.  Cluster sites live above the archiver and are
        # exercised by TestClusterFaults instead.
        bundle = build_bundle()
        assert run_workload_catching(bundle) is None
        missed = [
            site
            for site in FAULT_SITES
            if site not in CLUSTER_SITES and bundle.plan.arrivals(site) == 0
        ]
        assert not missed, f"workload never reaches: {missed}"
        assert CLUSTER_SITES <= set(FAULT_SITES)


class TestCrashSweep:
    @pytest.mark.parametrize(
        "site", [pytest.param(site, id=f"{site}-crash") for site in ALL_SITES]
    )
    def test_crash_at_site_recovers_consistent(self, site):
        plan = FaultPlan([FaultSpec(site=site, kind=FaultKind.CRASH)])
        bundle = build_bundle(plan)
        exc = run_workload_catching(bundle)
        assert isinstance(exc, SimulatedCrash), f"no crash fired at {site}"
        # A SimulatedCrash models process death: it must never be a
        # MinosError, or a library except-handler could absorb it.
        assert not isinstance(exc, MinosError)
        archiver, report = reopen_and_verify(bundle)
        verify_recover_idempotent(archiver)


class TestTransientSweep:
    @pytest.mark.parametrize(
        "site",
        [pytest.param(site, id=f"{site}-transient") for site in ALL_SITES],
    )
    def test_transient_at_site_is_typed_and_consistent(self, site):
        plan = FaultPlan([FaultSpec(site=site, kind=FaultKind.TRANSIENT)])
        bundle = build_bundle(plan)
        exc = run_workload_catching(bundle)
        if site == CACHE_PUT:
            # A cache-population failure must never fail the read it
            # piggybacks on: absorbed, counted, workload completes.
            assert exc is None
            assert bundle.cache.stats.put_failures >= 1
        else:
            assert isinstance(exc, TransientIOError), f"at {site}: {exc!r}"
            assert isinstance(exc, MinosError)
        assert bundle.plan.fired(site) == 1
        archiver, _ = reopen_and_verify(bundle)
        verify_recover_idempotent(archiver)

    def test_transient_store_is_retryable(self):
        # The transaction aborts cleanly; the same object stores fine
        # on the retry, with the failed attempt's bytes accounted dead.
        plan = FaultPlan(
            [FaultSpec(site="archiver.store.seal", kind=FaultKind.TRANSIENT)]
        )
        bundle = build_bundle(plan)
        from tests.fault_workload import make_text_object

        obj = make_text_object(bundle.generator, [["alpha", "beta"]])
        with pytest.raises(TransientIOError):
            bundle.archiver.store(obj)
        assert len(bundle.archiver) == 0
        bundle.archiver.store(obj)
        bundle.acked_stores[obj.object_id] = {"alpha", "beta"}
        archiver, report = reopen_and_verify(bundle)
        assert report.stores_aborted == 1
        assert report.dead_bytes > 0

    def test_transient_flush_keeps_memtable_and_orphans_run(self):
        plan = FaultPlan(
            [FaultSpec(site=LSM_FLUSH, kind=FaultKind.TRANSIENT)]
        )
        bundle = build_bundle(plan)
        exc = run_workload_catching(bundle)
        assert isinstance(exc, TransientIOError)
        # The half-built run is orphaned, never readable, and the
        # memtable still holds the postings: nothing lost.
        assert bundle.archiver.archive_index.orphan_segments >= 1
        # An in-process recover() discards the orphan run (the LSM
        # manifest duty); a cross-process reopen starts from a fresh
        # index and never sees it at all.
        report = bundle.archiver.recover()
        assert report.orphan_index_segments >= 1
        assert bundle.archiver.archive_index.orphan_segments == 0
        reopen_and_verify(bundle)


class TestTornWrites:
    @pytest.mark.parametrize(
        "tear_fraction,then_crash",
        [
            pytest.param(0.5, False, id=f"{DEVICE_WRITE}-torn_write"),
            pytest.param(0.5, True, id=f"{DEVICE_WRITE}-torn_write-crash"),
            pytest.param(0.0, True, id=f"{DEVICE_WRITE}-torn_write-empty"),
        ],
    )
    def test_torn_platter_write_rolls_back(self, tear_fraction, then_crash):
        plan = FaultPlan(
            [
                FaultSpec(
                    site=DEVICE_WRITE,
                    kind=FaultKind.TORN_WRITE,
                    hit=2,
                    tear_fraction=tear_fraction,
                    then_crash=then_crash,
                )
            ]
        )
        bundle = build_bundle(plan)
        exc = run_workload_catching(bundle)
        expected = SimulatedCrash if then_crash else TornWriteError
        assert isinstance(exc, expected)
        archiver, report = reopen_and_verify(bundle)
        # The torn store's intended extent is fully allocated (WORM:
        # nothing can be erased) and fully accounted as dead space.
        assert report.stores_rolled_back + report.stores_aborted == 1
        assert report.dead_bytes > 0
        assert len(archiver) == len(bundle.acked_stores)

    def test_torn_bytes_are_prefix_plus_fill(self):
        plan = FaultPlan(
            [
                FaultSpec(
                    site=DEVICE_WRITE,
                    kind=FaultKind.TORN_WRITE,
                    tear_fraction=0.5,
                )
            ]
        )
        device = FaultyDevice(OpticalDisk(), plan)
        payload = bytes(range(200)) * 5
        with pytest.raises(TornWriteError):
            device.append(payload)
        inner = device.inner
        assert inner.used_bytes == len(payload)  # allocated at full length
        data, _ = inner.read(Extent(0, len(payload)))
        cut = len(payload) // 2
        assert data[:cut] == payload[:cut]
        assert data[cut:] == TORN_FILL * (len(payload) - cut)
        assert data != payload


class TestJournal:
    def test_seal_and_abort_fold_into_status(self):
        journal = Journal()
        sealed = journal.begin("store", {"object_id": "a"})
        journal.seal(sealed)
        aborted = journal.begin("store", {"object_id": "b"})
        journal.abort(aborted)
        pending = journal.begin("store", {"object_id": "c"})
        statuses = {
            entry.txid: entry.status for entry in journal.replay().entries
        }
        assert statuses == {sealed: SEALED, aborted: ABORTED, pending: PENDING}

    def test_seal_is_final_over_abort(self):
        journal = Journal()
        txid = journal.begin("store", {})
        journal.seal(txid)
        journal.abort(txid)
        (entry,) = journal.replay().entries
        assert entry.status == SEALED

    def test_reserved_kinds_rejected(self):
        journal = Journal()
        for kind in ("seal", "abort", SEALED, ABORTED):
            with pytest.raises(JournalError):
                journal.begin(kind, {})

    def test_torn_record_resynchronizes_on_next_magic(self):
        device = MagneticDisk(JOURNAL_GEOMETRY, name="journal")
        plan = FaultPlan(
            [
                FaultSpec(
                    site=DEVICE_WRITE,
                    kind=FaultKind.TORN_WRITE,
                    hit=3,
                    tear_fraction=0.3,
                )
            ]
        )
        journal = Journal(FaultyDevice(device, plan))
        first = journal.begin("store", {"object_id": "a"})
        journal.seal(first)
        with pytest.raises(TornWriteError):
            journal.begin("store", {"object_id": "torn"})
        third = journal.begin("store", {"object_id": "b"})
        journal.seal(third)
        replay = Journal(device).replay()
        assert replay.torn_records_skipped >= 1
        assert replay.torn_tail
        survivors = {
            entry.payload.get("object_id"): entry.status
            for entry in replay.entries
        }
        # One torn record never hides the records appended after it.
        assert survivors == {"a": SEALED, "b": SEALED}

    def test_txid_numbering_resumes_after_reopen(self):
        journal = Journal()
        first = journal.begin("store", {})
        reopened = Journal(journal.device)
        assert reopened.begin("store", {}) > first


class TestFaultPlan:
    def test_same_seed_same_schedule(self):
        a = FaultPlan.random(seed=7, n_faults=4)
        b = FaultPlan.random(seed=7, n_faults=4)
        assert a.specs == b.specs
        assert a.specs != FaultPlan.random(seed=8, n_faults=4).specs

    def test_spec_validation(self):
        with pytest.raises(FaultConfigError):
            FaultSpec(site="no.such.site", kind=FaultKind.CRASH)
        with pytest.raises(FaultConfigError):
            FaultSpec(site=CACHE_PUT, kind=FaultKind.CRASH, hit=0)
        with pytest.raises(FaultConfigError):
            FaultSpec(
                site=DEVICE_WRITE, kind=FaultKind.TORN_WRITE, tear_fraction=1.0
            )
        with pytest.raises(FaultConfigError):
            # Torn writes only make sense where a payload hits a device.
            FaultSpec(site=CACHE_PUT, kind=FaultKind.TORN_WRITE)
        with pytest.raises(FaultConfigError):
            FaultSpec(site=CACHE_PUT, kind=FaultKind.TRANSIENT, then_crash=True)

    def test_transient_window_heals_after_count(self):
        plan = FaultPlan(
            [
                FaultSpec(
                    site=CACHE_PUT, kind=FaultKind.TRANSIENT, hit=2, count=2
                )
            ]
        )
        outcomes = []
        for _ in range(5):
            try:
                plan.fire(CACHE_PUT)
                outcomes.append("ok")
            except TransientIOError:
                outcomes.append("fault")
        assert outcomes == ["ok", "fault", "fault", "ok", "ok"]
        assert plan.arrivals(CACHE_PUT) == 5
        assert plan.fired(CACHE_PUT) == 2

    def test_fire_rejects_torn_specs(self):
        plan = FaultPlan(
            [FaultSpec(site=DEVICE_WRITE, kind=FaultKind.TORN_WRITE)]
        )
        with pytest.raises(FaultConfigError):
            plan.fire(DEVICE_WRITE)

    def test_faults_mirrored_into_metrics(self):
        metrics = ServerMetrics()
        plan = FaultPlan(
            [FaultSpec(site=CACHE_PUT, kind=FaultKind.TRANSIENT)],
            metrics=metrics,
        )
        with pytest.raises(TransientIOError):
            plan.fire(CACHE_PUT)
        snapshot = metrics.snapshot()
        assert snapshot.fault_counts.get((CACHE_PUT, "transient")) == 1


class TestRegistry:
    def test_require_site_rejects_unknown(self):
        with pytest.raises(FaultConfigError):
            require_site("definitely.not.registered")

    def test_registered_sites_are_described(self):
        sites = registered_sites()
        assert len(sites) == len(set(sites))
        assert all(FAULT_SITES[site] for site in sites)
        assert DEVICE_WRITE in sites and CACHE_PUT in sites


class TestRecoveryReporting:
    def test_recovery_counters_reach_metrics(self):
        plan = FaultPlan(
            [
                FaultSpec(
                    site="archiver.store.descriptor", kind=FaultKind.CRASH
                )
            ]
        )
        bundle = build_bundle(plan)
        exc = run_workload_catching(bundle)
        assert isinstance(exc, SimulatedCrash)
        from repro.server import Archiver
        from repro.storage.journal import Journal as _Journal

        metrics = ServerMetrics()
        archiver, report = Archiver.reopen(
            bundle.disk.inner,
            _Journal(bundle.journal.device),
            metrics=metrics,
        )
        # The crash hit after the platter write: evidence says complete,
        # so the pending store rolls forward.
        assert report.stores_rolled_forward == 1
        snapshot = metrics.snapshot()
        assert snapshot.recovery_counts.get("rollforward", 0) >= 1
        assert snapshot.recovery_counts.get("complete") == 1


def _build_cluster(node_plans=None, *, nodes=3, replication=2, objects=4,
                   write_quorum=None):
    """A small cluster with a replicated library and per-node plans."""
    from repro.cluster import ClusterNode, ClusterRouter
    from repro.server import Archiver
    from repro.scenarios import build_object_library

    node_plans = node_plans or {}
    members = [
        ClusterNode(i, fault_plan=node_plans.get(i)) for i in range(nodes)
    ]
    router = ClusterRouter(
        members, replication=replication, write_quorum=write_quorum
    )
    objs = build_object_library(
        Archiver(), visual_count=objects, audio_count=0
    )
    for obj in objs:
        router.store(obj)
    return router, members, objs


class TestClusterFaults:
    """The replication layer's sites: faults are absorbed, not fatal."""

    @pytest.mark.parametrize("kind", [
        pytest.param(FaultKind.CRASH, id="cluster.node_crash-crash"),
        pytest.param(FaultKind.TRANSIENT, id="cluster.node_crash-transient"),
    ])
    def test_node_crash_site_fails_over(self, kind):
        from repro.errors import NodeDownError
        from repro.cluster.node import NodeStatus

        plan = FaultPlan(
            [FaultSpec(site="cluster.node_crash", kind=kind)]
        )
        router, members, objs = _build_cluster({0: plan})
        # Every read must succeed: the faulted replica (if consulted)
        # is failed over, never surfaced — and a node's SimulatedCrash
        # must not escape the node boundary as a client crash.
        for obj in objs:
            fetched, _ = router.fetch_object(obj.object_id)
            assert fetched.object_id == obj.object_id
        assert plan.fired("cluster.node_crash") == 1
        snap = router.metrics.snapshot()
        assert snap.read_failures == 0
        if kind is FaultKind.CRASH:
            assert members[0].status is NodeStatus.DOWN
            assert snap.failovers >= 1
            with pytest.raises(NodeDownError):
                members[0].serve("fetch", objs[0].object_id)
            # Recovery follows the single-node contract: reopen from
            # surviving devices; every sealed object is intact.
            members[0].recover()
            assert members[0].status is NodeStatus.UP
            for obj in objs:
                if obj.object_id in members[0]:
                    members[0].serve("fetch", obj.object_id)

    @pytest.mark.parametrize("kind,quorum", [
        pytest.param(
            FaultKind.TRANSIENT, 1, id="cluster.replica_write-transient"
        ),
        pytest.param(
            FaultKind.TRANSIENT, None, id="cluster.replica_write-quorum"
        ),
        pytest.param(FaultKind.CRASH, 1, id="cluster.replica_write-crash"),
    ])
    def test_replica_write_site_degrades_to_quorum(self, kind, quorum):
        from repro.errors import QuorumWriteError
        from repro.cluster.node import NodeStatus
        from tests.fault_workload import make_text_object
        from repro.ids import IdGenerator

        router, members, _ = _build_cluster(objects=0, write_quorum=quorum)
        obj = make_text_object(IdGenerator("clw"), [["alpha"]])
        # Placement is deterministic, so arm the fault on exactly the
        # object's primary replica: that one write misses, the other
        # replica acks.
        primary = router.replica_set(obj.object_id)[0]
        router.node(primary).fault_plan = FaultPlan(
            [FaultSpec(site="cluster.replica_write", kind=kind)]
        )
        if quorum is None:
            # Default majority quorum of an effective R=2 set is 2:
            # one missed replica fails the store with a typed error...
            with pytest.raises(QuorumWriteError):
                router.store(obj)
        else:
            # ...while W=1 absorbs the miss as a degraded write.
            outcome = router.store(obj)
            assert len(outcome.acked) == 1
            assert len(outcome.missed) == 1
        # Either way the miss is repair debt, and catch-up repairs it
        # once the faults have burnt out (transient) or the node
        # recovered (crash).
        assert router.under_replicated
        if kind is FaultKind.CRASH:
            downed = [m for m in members if m.status is NodeStatus.DOWN]
            assert len(downed) == 1
            downed[0].recover()
        from repro.cluster import Rebalancer

        rebalancer = Rebalancer(router)
        assert rebalancer.catch_up() >= 1
        report = rebalancer.run()
        assert report.failed == 0
        assert not router.under_replicated
        holders = [m.node_id for m in members if obj.object_id in m]
        assert set(router.replica_set(obj.object_id)) <= set(holders)

    @pytest.mark.parametrize("kind", [
        pytest.param(FaultKind.TRANSIENT, id="cluster.migrate-transient"),
        pytest.param(FaultKind.CRASH, id="cluster.migrate-crash"),
    ])
    def test_migrate_site_requeues_and_retries(self, kind):
        from repro.cluster import ClusterNode, Rebalancer
        from repro.cluster.node import NodeStatus

        router, members, objs = _build_cluster()
        rebalancer = Rebalancer(router)
        plan = FaultPlan([FaultSpec(site="cluster.migrate", kind=kind)])
        joiner = ClusterNode(10, fault_plan=plan)
        queued = rebalancer.join(joiner)
        assert queued >= 1
        first = rebalancer.run()
        assert first.failed >= 1  # the armed step missed, re-queued
        assert plan.fired("cluster.migrate") == 1
        snap = router.metrics.snapshot()
        assert snap.migration_failures >= 1
        if kind is FaultKind.CRASH:
            assert joiner.status is NodeStatus.DOWN
            joiner.recover()
        second = rebalancer.run()
        assert second.failed == 0
        assert second.remaining == 0
        assert first.moved + second.moved + second.skipped >= queued
        # Post-rebalance, every replica-set member holds its copies.
        for obj in objs:
            for node_id in router.replica_set(obj.object_id):
                assert obj.object_id in router.node(node_id)
