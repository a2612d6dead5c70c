"""Online rebalancing: node join/leave with minimal-movement migration.

Membership changes are driven by *ring diffs*.  When a node joins or
leaves, the consistent-hash placement guarantees that each object's
replica set changes by at most the affected node
(see :mod:`repro.cluster.placement`), so the migration plan is exactly
the set of ``(object, new-owner)`` pairs the diff produces — no
wholesale reshuffle.

Migrations run *incrementally*: :meth:`Rebalancer.run` performs at
most ``max_steps`` moves per call, mirroring the
``IdleRecognizer.run(max_objects)`` idle-pass contract, so rebalancing
interleaves with serving instead of monopolising the devices.  A move
copies the object from a surviving replica (``fetch_object`` rebuilds
it in the ARCHIVED state) into the target node via
``receive_migration`` — the path that fires the ``cluster.migrate``
fault site.  Failed moves are re-queued and retried on the next pass.

The optical platters are write-once, so a *leaving* node's copies are
never erased — they simply stop being routed to (and are dead space if
the platter is ever re-mounted).  Minimal movement is therefore about
copies *added*, which is the only kind of movement that exists here.

:meth:`catch_up` converts the router's under-replication debt
(replicas that missed a quorum write) into migration steps, closing
the loop: a degraded write is repaired by the same machinery that
serves joins.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.node import ClusterNode
from repro.cluster.placement import Placement
from repro.cluster.router import ClusterRouter
from repro.obs.context import bind as bind_span
from repro.obs.context import current as current_span
from repro.obs.spans import SpanKind as ObsSpanKind
from repro.obs.spans import SpanStatus as ObsSpanStatus
from repro.errors import (
    ClusterError,
    NodeDownError,
    ObjectNotFoundError,
    TornWriteError,
    TransientIOError,
)

#: Per-step failures a rebalance pass absorbs by re-queuing the step.
#: A torn write on the target belongs here for the same reason it is a
#: missed replica write at the router: the target's own commit
#: protocol already rolled the partial copy back, so the step simply
#: has not happened yet.
STEP_RETRY_ERRORS = (
    TransientIOError,
    TornWriteError,
    NodeDownError,
    ObjectNotFoundError,
)


@dataclass(frozen=True)
class MigrationStep:
    """Copy ``object_id`` from ``source`` onto ``target``."""

    object_id: object
    source: int
    target: int


@dataclass
class RebalanceReport:
    """Outcome of one incremental rebalance pass."""

    moved: int = 0
    bytes_moved: int = 0
    skipped: int = 0
    #: Steps whose target already held the copy and only needed the
    #: recognition side table brought up to date (catch-up repair of a
    #: missed ``attach_recognition``).
    synced: int = 0
    failed: int = 0
    #: Steps still queued after the pass (failures re-queue here).
    remaining: int = 0
    failures: list[tuple[MigrationStep, str]] = field(default_factory=list)


def plan_migrations(
    old: Placement,
    new: Placement,
    holdings: dict[int, set],
    *,
    source_key=None,
) -> list[MigrationStep]:
    """Diff two rings into the minimal list of copy steps.

    ``holdings`` maps node id → the object ids physically present
    there.  For every known object, each node that the *new* placement
    makes an owner but that holds no copy gets one step, sourced from
    any current holder (preferring holders that remain owners, so
    sources stay valid if a pass is interrupted).  Objects whose new
    replica set is already satisfied produce no steps — that is the
    minimal-movement property, inherited directly from the ring.

    ``source_key`` optionally ranks candidate sources: a callable
    ``(node_id, object_id) -> comparable`` of which the maximum wins,
    with remain-owner status and node id breaking ties.  The
    rebalancer ranks by recognition richness: copies of a recognized
    object are not interchangeable — one replica may have missed the
    (write-quorum-1) ``attach_recognition`` — and migrating from the
    poorest holder while a richer one exists would silently shed the
    recognition from the serving set.  Richness *dominates* the
    remain-owner preference for the same reason: a stale-but-staying
    source loses data, a rich-but-leaving source merely needs its
    drain gated on the queue (which :meth:`Rebalancer.finish_leave`
    already enforces).
    """
    steps: list[MigrationStep] = []
    every_object = sorted(
        {oid for held in holdings.values() for oid in held}, key=str
    )
    for object_id in every_object:
        holders = [nid for nid, held in holdings.items() if object_id in held]
        if not holders:  # pragma: no cover - every_object came from holdings
            continue
        new_set = new.replica_set(object_id)
        if source_key is None:
            preferred = [nid for nid in new_set if nid in holders] or holders
            source = preferred[0]
        else:
            source = max(
                holders,
                key=lambda nid: (
                    source_key(nid, object_id), nid in new_set, -nid
                ),
            )
        for target in new_set:
            if target not in holders:
                steps.append(
                    MigrationStep(
                        object_id=object_id, source=source, target=target
                    )
                )
    return steps


class Rebalancer:
    """Drive membership changes and repair under-replication.

    Parameters
    ----------
    router:
        The cluster whose placement this rebalancer maintains.  The
        router's :class:`~repro.cluster.metrics.ClusterMetrics`
        records every migration.
    """

    def __init__(self, router: ClusterRouter) -> None:
        self._router = router
        self._pending: list[MigrationStep] = []
        #: Nodes removed from routing but still readable as migration
        #: sources (a leaving node serves reads while it drains).
        self._detached: dict[int, ClusterNode] = {}

    @property
    def pending(self) -> list[MigrationStep]:
        """Queued steps (copy; mutating it does not affect the queue)."""
        return list(self._pending)

    def _holdings(self) -> dict[int, set]:
        holdings = {
            node_id: set(node.object_ids())
            for node_id, node in self._router.nodes.items()
        }
        for node_id, node in self._detached.items():
            if node.serves_reads:
                holdings[node_id] = set(node.object_ids())
        return holdings

    def _enqueue(self, steps: list[MigrationStep]) -> int:
        queued = set(self._pending)
        fresh = [step for step in steps if step not in queued]
        self._pending.extend(fresh)
        return len(fresh)

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------

    def join(self, node: ClusterNode) -> int:
        """Admit ``node`` and queue the copies the ring diff demands.

        The node serves immediately; until its copies arrive, reads
        for them fail over to the old replicas.  Returns the number of
        steps queued.
        """
        holdings = self._holdings()
        holdings.setdefault(node.node_id, set(node.object_ids()))
        old = self._router.add_node(node)
        steps = plan_migrations(
            old, self._router.placement, holdings,
            source_key=self._source_rank,
        )
        return self._enqueue(steps)

    def leave(self, node_id: int) -> int:
        """Start removing ``node_id``; queue the copies that replace it.

        The node drains: it stops taking writes but keeps serving
        reads (and acts as a migration source) until its data has
        moved.  Call :meth:`run` until the queue empties, then
        :meth:`finish_leave`.  Returns the number of steps queued.
        """
        node = self._router.node(node_id)
        holdings = self._holdings()
        node.drain()
        old = self._router.remove_node(node_id)
        self._detached[node_id] = node
        steps = plan_migrations(
            old, self._router.placement, holdings,
            source_key=self._source_rank,
        )
        return self._enqueue(steps)

    def finish_leave(self, node_id: int) -> None:
        """Shut a drained node down once its data is safe elsewhere.

        Raises
        ------
        ClusterError
            If queued migrations still read from the node, or still
            concern objects it holds — until those copies land, the
            drained node is the fallback replica.
        """
        node = self._detached.get(node_id)
        held = (
            set(node.object_ids())
            if node is not None and node.serves_reads else set()
        )
        blocking = [
            step for step in self._pending
            if step.source == node_id or step.object_id in held
        ]
        if blocking:
            raise ClusterError(
                f"node {node_id} still backs {len(blocking)} queued "
                "migrations"
            )
        node = self._detached.pop(node_id, None)
        if node is not None:
            node.mark_down()

    def rejoin(self, node_id: int) -> int:
        """Bring a recovered node back into the ring.

        The node must already be UP (call
        :meth:`~repro.cluster.node.ClusterNode.recover` first).  Its
        surviving copies count as holdings, so the ring diff only
        queues what it missed while away.
        """
        node = self._detached.pop(node_id, None)
        if node is None:
            raise ClusterError(f"node {node_id} is not detached")
        if not node.is_up:
            raise ClusterError(
                f"node {node_id} must recover before rejoining"
            )
        return self.join(node)

    def crash_detach(self, node_id: int) -> int:
        """Take a crashed node out of routing and re-protect its data.

        The queued copies restore full replication on the surviving
        nodes; if the node later recovers, :meth:`rejoin` folds it
        back in.
        """
        node = self._router.node(node_id)
        holdings = self._holdings()
        holdings.pop(node_id, None)  # a DOWN node sources nothing
        old = self._router.remove_node(node_id)
        self._detached[node_id] = node
        steps = plan_migrations(
            old, self._router.placement, holdings,
            source_key=self._source_rank,
        )
        return self._enqueue(steps)

    # ------------------------------------------------------------------
    # repair + execution
    # ------------------------------------------------------------------

    def catch_up(self) -> int:
        """Queue repairs for writes that missed replicas.

        Drains the router's under-replicated list into migration
        steps (sourced from any live holder) and returns how many
        were queued; stale entries for nodes that have since left are
        dropped.  A debt entry whose target already holds the object
        is a missed *recognition*, not a missed store — it still
        queues a step, and :meth:`run` resolves it by syncing the
        recognition side table instead of copying bytes.  Among the
        candidate sources the holder with the richest recognition
        table wins, so a sync step always reads from a replica that
        actually has the terms to offer.
        """
        debt = self._router.under_replicated
        self._router.under_replicated = []
        holdings = self._holdings()
        steps: list[MigrationStep] = []
        for object_id, node_id in debt:
            if node_id not in self._router.nodes:
                continue
            holders = [
                nid for nid, held in holdings.items()
                if object_id in held and nid != node_id
            ]
            if not holders:
                # No surviving copy: leave the debt recorded.
                self._router.under_replicated.append((object_id, node_id))
                continue
            source = max(
                holders,
                key=lambda nid: (self._recognition_size(nid, object_id), -nid),
            )
            steps.append(
                MigrationStep(
                    object_id=object_id, source=source, target=node_id
                )
            )
        return self._enqueue(steps)

    def _source_rank(self, node_id: int, object_id) -> int:
        """Source-preference key: richest recognition table wins."""
        return self._recognition_size(node_id, object_id)

    def _recognition_size(self, node_id: int, object_id) -> int:
        """Utterances a node's copy carries (source-preference key)."""
        node = self._router.nodes.get(node_id) or self._detached.get(node_id)
        if node is None:
            return 0
        table = node.archiver.recognition_for(object_id)
        return sum(len(utterances) for utterances in table.values())

    def _source_node(self, node_id: int) -> ClusterNode | None:
        node = self._router.nodes.get(node_id)
        if node is None:
            node = self._detached.get(node_id)
        if node is None or not node.serves_reads:
            return None
        return node

    def run(
        self, max_steps: int | None = None, *, now_s: float = 0.0
    ) -> RebalanceReport:
        """Perform up to ``max_steps`` queued migrations (all if None).

        A step whose target already holds the copy carries no bytes:
        if a live source has a richer recognition side table the step
        *syncs* it across (counted in ``synced``), otherwise it is
        skipped.  A step that fails transiently (or whose source is
        momentarily unusable) is re-queued for the next pass and
        counted in ``failed``.  Each successful move records a
        ``CLUSTER_MIGRATE`` event with the bytes that crossed.
        """
        report = RebalanceReport()
        budget = len(self._pending) if max_steps is None else max_steps
        retry: list[MigrationStep] = []
        metrics = self._router.metrics
        obs = self._router.obs
        while self._pending and budget > 0:
            step = self._pending.pop(0)
            budget -= 1
            target = self._router.nodes.get(step.target)
            if target is None:
                report.skipped += 1
                continue
            if step.object_id in target:
                self._sync_recognition(step, target, retry, report)
                continue
            source = self._source_node(step.source)
            if source is None:
                self._requeue(step, "source unavailable", retry, report)
                continue
            active = None
            if obs is not None:
                active = obs.start(
                    current_span(), "migrate", ObsSpanKind.MIGRATE, now_s,
                    object=str(step.object_id), source=step.source,
                    target=step.target,
                )
            # The source read goes through the node's serve guard, not
            # the bare archiver: if the source process dies mid-read
            # (an armed crash deep in its stack), the boundary
            # translates it into NodeDownError and the step re-queues
            # against a surviving holder instead of killing the
            # rebalancer.
            try:
                if active is not None:
                    with bind_span(active.context):
                        obj, _ = source.serve("fetch_object", step.object_id)
                        record = target.receive_migration(obj)
                else:
                    obj, _ = source.serve("fetch_object", step.object_id)
                    record = target.receive_migration(obj)
            except STEP_RETRY_ERRORS as e:
                metrics.on_migrate(0, ok=False)
                if active is not None:
                    active.finish(
                        now_s, status=ObsSpanStatus.RETRIED,
                        error=type(e).__name__,
                    )
                self._requeue(step, type(e).__name__, retry, report)
                continue
            report.moved += 1
            report.bytes_moved += record.extent.length
            metrics.on_migrate(record.extent.length)
            if active is not None:
                active.finish(now_s, bytes=record.extent.length)
        self._pending.extend(retry)
        report.remaining = len(self._pending)
        return report

    def _sync_recognition(
        self,
        step: MigrationStep,
        target: ClusterNode,
        retry: list[MigrationStep],
        report: RebalanceReport,
    ) -> None:
        """Resolve a step whose target already holds the object.

        The copy is there; what may be missing is the recognition side
        table (the target missed an ``attach_recognition`` fan-out, or
        received its copy by migration before the source was
        recognized).  If the pinned source offers segments the target's
        table does not already agree on, attach them through the
        target's replica-write path — the same guarded, journaled
        commit a client fan-out uses — otherwise the step is a no-op
        skip.
        """
        source = self._source_node(step.source)
        if source is None:
            self._requeue(step, "source unavailable", retry, report)
            return
        table = source.archiver.recognition_for(step.object_id)
        current = target.archiver.recognition_for(step.object_id)
        if not table or all(
            current.get(segment_id) == utterances
            for segment_id, utterances in table.items()
        ):
            report.skipped += 1
            return
        try:
            target.attach_recognition(step.object_id, table)
        except STEP_RETRY_ERRORS as e:
            self._requeue(step, type(e).__name__, retry, report)
            return
        report.synced += 1

    def _requeue(
        self,
        step: MigrationStep,
        reason: str,
        retry: list[MigrationStep],
        report: RebalanceReport,
    ) -> None:
        report.failed += 1
        report.failures.append((step, reason))
        retry.append(step)
