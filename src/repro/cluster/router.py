"""Quorum writes, load-balanced failover reads, and the cluster replay.

The :class:`ClusterRouter` is the client-facing face of the replicated
object service.  It owns a :class:`~repro.cluster.placement.Placement`
over its member nodes and implements the paper-faithful request paths:

**Writes** fan out to all ``R`` replicas of the object's replica set
and succeed once ``W`` of them ack (default: a majority).  Replicas
that miss the write (transient fault, down node) are remembered as
*under-replicated* so the rebalancer's catch-up pass can repair them —
a degraded write is a repair obligation, not a lost one.

**Reads** are load-balanced across the replica set (deterministic
rotation) and fail over: :class:`~repro.errors.TransientIOError`,
:class:`~repro.errors.NodeDownError` and a replica that simply does
not hold the copy yet (mid-rebalance) all mean "try the next replica".
Only when every replica is exhausted does the client see an error —
and it sees a *retryable* one if any replica failed transiently, so
:func:`repro.delivery.pipeline.fetch_with_retry` composes unchanged.

:func:`replay_cluster` is the deterministic virtual-time replay behind
the C-CLUSTER benchmark, and through
:func:`repro.server.loadgen.replay_virtual` (its one-node case) behind
C-CONC: one :class:`~repro.storage.blockdev.DeviceTimeline` per node,
join-shortest-queue replica choice, optional per-node caches, and
optional hedged reads.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.metrics import ClusterMetrics
from repro.cluster.node import ClusterNode
from repro.cluster.placement import Placement
from repro.errors import (
    ClusterError,
    NodeDownError,
    ObjectNotFoundError,
    QuorumWriteError,
    TornWriteError,
    TransientIOError,
)
from repro.obs.context import bind as bind_span
from repro.obs.context import current as current_span
from repro.obs.spans import SpanKind as ObsSpanKind
from repro.obs.spans import SpanStatus as ObsSpanStatus
from repro.server.loadgen import LoadReport, LoadRequest
from repro.storage.blockdev import DeviceTimeline, Extent
from repro.storage.cache import LRUCache

#: Per-replica failures the read path fails over on.  A missing copy is
#: routable too: during a rebalance a replica may not hold the object
#: *yet*, and during catch-up repair it may not hold it *anymore* —
#: another replica does.
FAILOVER_ERRORS = (TransientIOError, NodeDownError, ObjectNotFoundError)

#: Per-replica failures the write fan-out absorbs as a missed replica.
#: A torn replica write belongs here: the replica's own commit
#: protocol already rolled the partial write back (dead extent, journal
#: abort), so from the cluster's point of view that replica simply
#: missed the write — the quorum decides the store's fate and catch-up
#: repair re-copies it, exactly as for a transient miss.
MISSED_WRITE_ERRORS = (TransientIOError, TornWriteError, NodeDownError)

#: A recognition can additionally miss a replica that does not hold the
#: copy yet (mid-rebalance): the later full-object copy bakes the
#: recognition in, so the miss is repairable the same way.
MISSED_RECOGNITION_ERRORS = MISSED_WRITE_ERRORS + (ObjectNotFoundError,)

#: Operations the router can place: the first parameter must be the
#: object id, and pieces are named by tag.  (Absolute/extent reads are
#: node-relative coordinates — the same object lives at different
#: platter offsets on each replica — so they cannot be routed.)
ROUTABLE_OPS = (
    "fetch", "fetch_object", "read_piece_range", "read_pieces", "read_piece_rows",
)


class RouterFuture:
    """Synchronous future satisfying the ``ServerFuture.result`` shape.

    The router serves requests inline (its queueing lives in the
    replay's virtual timeline, not in host threads), so the future is
    already resolved when :meth:`ClusterRouter.submit` returns it —
    but the ``result(timeout)`` protocol is what
    :func:`~repro.delivery.pipeline.fetch_with_retry` speaks, so the
    delivery pipeline drives a cluster exactly as it drives a
    :class:`~repro.server.frontend.ServerFrontend`.
    """

    def __init__(self, payload=None, service_s: float = 0.0, error=None):
        self._payload = payload
        self._service_s = service_s
        self._error = error

    def done(self) -> bool:
        return True

    def result(self, timeout: float | None = 30.0) -> tuple:
        if self._error is not None:
            raise self._error
        return self._payload, self._service_s


@dataclass
class StoreOutcome:
    """What happened to one fanned-out store."""

    object_id: object
    replicas: list[int]
    acked: list[int]
    missed: list[int]

    @property
    def fully_replicated(self) -> bool:
        return not self.missed


@dataclass
class RecognitionOutcome:
    """What happened to one fanned-out ``attach_recognition``."""

    object_id: object
    replicas: list[int]
    acked: list[int]
    missed: list[int]

    @property
    def fully_replicated(self) -> bool:
        return not self.missed


class ClusterRouter:
    """Route reads and writes over a set of :class:`ClusterNode` s.

    Parameters
    ----------
    nodes:
        Member nodes (at least one; ids must be unique).
    replication:
        Target copies per object (capped at the node count).
    write_quorum:
        Acks required for a store to succeed; defaults to a majority
        of the *effective* replication factor.
    vnodes:
        Virtual points per node on the placement ring.
    metrics:
        Shared :class:`ClusterMetrics` (a fresh one if omitted).
    hedge_after_s:
        If set, a successful read whose service time exceeds this
        deadline is hedged on the next replica and the faster response
        wins.  ``None`` (default) disables hedging.
    """

    def __init__(
        self,
        nodes: list[ClusterNode],
        *,
        replication: int = 2,
        write_quorum: int | None = None,
        vnodes: int = 64,
        metrics: ClusterMetrics | None = None,
        hedge_after_s: float | None = None,
        obs=None,
    ) -> None:
        if not nodes:
            raise ClusterError("a cluster needs at least one node")
        ids = [node.node_id for node in nodes]
        if len(set(ids)) != len(ids):
            raise ClusterError(f"duplicate node ids: {sorted(ids)}")
        self._nodes: dict[int, ClusterNode] = {n.node_id: n for n in nodes}
        self._placement = Placement(ids, replication=replication, vnodes=vnodes)
        self._replication = replication
        self._vnodes = vnodes
        effective = self._placement.effective_replication
        if write_quorum is None:
            write_quorum = effective // 2 + 1
        if not 1 <= write_quorum <= effective:
            raise ClusterError(
                f"write quorum {write_quorum} outside 1..{effective}"
            )
        self.write_quorum = write_quorum
        self.metrics = metrics if metrics is not None else ClusterMetrics()
        self.hedge_after_s = hedge_after_s
        #: ``(object_id, node_id)`` pairs that missed a write and await
        #: catch-up repair by the rebalancer.
        self.under_replicated: list[tuple[object, int]] = []
        self._rotation = 0
        #: Nodes whose DOWN state the read path has already reported,
        #: so a long outage is one status event, not one per failover.
        self._seen_down: set[int] = set()
        self._obs = None
        if obs is not None:
            self.obs = obs

    @property
    def obs(self):
        """Optional span recorder, shared with every member archiver."""
        return self._obs

    @obs.setter
    def obs(self, recorder) -> None:
        # One recorder spans the whole cluster: member archivers emit
        # their codec/index leaf spans into it, parented (ambiently) on
        # whichever replica-attempt span is being served.
        self._obs = recorder
        for node in self._nodes.values():
            node.archiver.obs = recorder

    # ------------------------------------------------------------------
    # membership + placement
    # ------------------------------------------------------------------

    @property
    def placement(self) -> Placement:
        return self._placement

    @property
    def nodes(self) -> dict[int, ClusterNode]:
        """Node id → node (live view; do not mutate)."""
        return self._nodes

    def node(self, node_id: int) -> ClusterNode:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise ClusterError(f"no node {node_id} in this cluster") from None

    def replica_set(self, object_id) -> list[int]:
        """The nodes holding (or owed) copies of ``object_id``."""
        return self._placement.replica_set(object_id)

    def add_node(self, node: ClusterNode) -> Placement:
        """Admit a node and swap in the grown placement.

        Returns the *previous* placement so the rebalancer can diff the
        rings.  The new node serves reads immediately; reads for copies
        it does not hold yet fail over to the old replicas until the
        rebalancer moves them.
        """
        if node.node_id in self._nodes:
            raise ClusterError(f"node {node.node_id} already in the cluster")
        old = self._placement
        self._placement = old.with_node(node.node_id)
        self._nodes[node.node_id] = node
        if self._obs is not None:
            node.archiver.obs = self._obs
        self._refresh_quorum()
        self.metrics.on_node_status(node.node_id, "joined")
        return old

    def remove_node(self, node_id: int) -> Placement:
        """Remove a node from routing; returns the previous placement."""
        if node_id not in self._nodes:
            raise ClusterError(f"no node {node_id} in this cluster")
        if len(self._nodes) == 1:
            raise ClusterError("cannot remove the last node")
        old = self._placement
        self._placement = old.without_node(node_id)
        del self._nodes[node_id]
        self._seen_down.discard(node_id)
        self._refresh_quorum()
        self.metrics.on_node_status(node_id, "left")
        return old

    def _refresh_quorum(self) -> None:
        # Keep the quorum a majority of the effective replication as
        # membership changes (a 1-node cluster must accept W=1).
        effective = self._placement.effective_replication
        self.write_quorum = min(self.write_quorum, effective)
        self.write_quorum = max(self.write_quorum, effective // 2 + 1)

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------

    def store(
        self, obj, shared_archiver_data=None, *, now_s: float = 0.0, ctx=None
    ) -> StoreOutcome:
        """Fan one store to all replicas; succeed on a write quorum.

        Raises
        ------
        QuorumWriteError
            If fewer than :attr:`write_quorum` replicas acked.  The
            replicas that did ack keep their copies (stores are
            idempotent per object id), so the under-replicated record
            still lets catch-up repair converge.
        """
        replicas = self._placement.replica_set(obj.object_id)
        active = None
        if self._obs is not None:
            active = self._obs.start(
                ctx if ctx is not None else current_span(),
                "cluster:write", ObsSpanKind.CLUSTER, now_s,
                object=str(obj.object_id), replicas=len(replicas),
            )
        acked: list[int] = []
        missed: list[int] = []
        ack_times: list[float] = []
        for node_id in replicas:
            node = self._nodes[node_id]
            try:
                if active is not None:
                    with bind_span(active.context):
                        record = node.store(obj, shared_archiver_data)
                else:
                    record = node.store(obj, shared_archiver_data)
            except MISSED_WRITE_ERRORS as error:
                missed.append(node_id)
                self.metrics.on_replica_write(False)
                if active is not None:
                    self._obs.emit(
                        active.context, f"replica:{node_id}",
                        ObsSpanKind.CLUSTER, now_s, now_s,
                        status=ObsSpanStatus.ERROR,
                        node=node_id, error=type(error).__name__,
                    )
                continue
            acked.append(node_id)
            self.metrics.on_replica_write(True)
            # Ack-time estimate for the quorum histogram: a cold seek
            # plus the transfer of the stored extent on that node's
            # device.  Replicas write in parallel, so the quorum is met
            # when the W-th fastest ack lands.
            geometry = node.archiver.disk.geometry
            ack_time = geometry.access_time(0, record.extent)
            ack_times.append(ack_time)
            if active is not None:
                self._obs.emit(
                    active.context, f"replica:{node_id}",
                    ObsSpanKind.CLUSTER, now_s, now_s + ack_time,
                    node=node_id,
                )
        quorum_met = len(acked) >= self.write_quorum
        if quorum_met:
            quorum_latency = sorted(ack_times)[self.write_quorum - 1]
        else:
            quorum_latency = max(ack_times, default=0.0)
        self.metrics.on_write(quorum_latency, quorum_met=quorum_met)
        if active is not None:
            active.finish(
                now_s + quorum_latency,
                status=(
                    ObsSpanStatus.OK if quorum_met else ObsSpanStatus.ERROR
                ),
                acked=len(acked), quorum=self.write_quorum,
            )
        for node_id in missed:
            self.under_replicated.append((obj.object_id, node_id))
        if not quorum_met:
            raise QuorumWriteError(
                f"store of {obj.object_id} acked by {len(acked)} of "
                f"{len(replicas)} replicas (need {self.write_quorum})"
            )
        return StoreOutcome(
            object_id=obj.object_id, replicas=replicas, acked=acked,
            missed=missed,
        )

    def attach_recognition(
        self, object_id, side_table, *, now_s: float = 0.0, ctx=None
    ) -> RecognitionOutcome:
        """Fan one recognition to all replicas; succeed on any ack.

        Recognition is derived data — recomputable from the archived
        media — so its write quorum is 1: a single durably journaled
        application is enough for the result to survive, and every
        replica that missed it (transient, torn, down, or simply not
        holding the copy yet mid-rebalance) is recorded as
        under-replicated so the rebalancer's catch-up pass syncs the
        side table (or copies the whole object, which bakes the
        recognition in).

        Raises
        ------
        QuorumWriteError
            If no replica applied the recognition.  The misses stay
            recorded, but with zero durable applications there is
            nothing for catch-up to sync *from*, so the caller must
            retry the recognition itself.
        """
        replicas = self._placement.replica_set(object_id)
        active = None
        if self._obs is not None:
            active = self._obs.start(
                ctx if ctx is not None else current_span(),
                "cluster:recognize", ObsSpanKind.CLUSTER, now_s,
                object=str(object_id), replicas=len(replicas),
            )
        acked: list[int] = []
        missed: list[int] = []
        for node_id in replicas:
            node = self._nodes[node_id]
            try:
                if active is not None:
                    with bind_span(active.context):
                        node.attach_recognition(object_id, side_table)
                else:
                    node.attach_recognition(object_id, side_table)
            except MISSED_RECOGNITION_ERRORS as error:
                missed.append(node_id)
                self.metrics.on_replica_write(False)
                if active is not None:
                    self._obs.emit(
                        active.context, f"replica:{node_id}",
                        ObsSpanKind.CLUSTER, now_s, now_s,
                        status=ObsSpanStatus.ERROR,
                        node=node_id, error=type(error).__name__,
                    )
                continue
            acked.append(node_id)
            self.metrics.on_replica_write(True)
            if active is not None:
                self._obs.emit(
                    active.context, f"replica:{node_id}",
                    ObsSpanKind.CLUSTER, now_s, now_s,
                    node=node_id,
                )
        if active is not None:
            active.finish(
                now_s,
                status=ObsSpanStatus.OK if acked else ObsSpanStatus.ERROR,
                acked=len(acked),
            )
        if acked:
            # Misses become repair debt only once one copy is durable.
            for node_id in missed:
                self.under_replicated.append((object_id, node_id))
            return RecognitionOutcome(
                object_id=object_id, replicas=replicas, acked=acked,
                missed=missed,
            )
        raise QuorumWriteError(
            f"recognition of {object_id} applied by no replica "
            f"(of {len(replicas)})"
        )

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------

    def _read_order(self, replicas: list[int]) -> list[int]:
        """Deterministic rotation over the replica set (load balance)."""
        start = self._rotation % len(replicas)
        self._rotation += 1
        return replicas[start:] + replicas[:start]

    def request(
        self,
        op: str,
        *params,
        station: str = "ws-0",
        arrival_s: float | None = None,
        ctx=None,
    ) -> tuple:
        """Serve one routable read with failover; ``(payload, service_s)``.

        When a span recorder is attached, the whole routed read is one
        ``route:<op>`` span (the router *is* the frontend protocol for
        its clients) with one ``cluster:read`` child per replica
        attempt: failed-over attempts finish ``retried``, hedge losers
        ``hedged_loser``, and the winning attempt carries the device /
        cache leaf spans plus whatever the member archiver emitted
        under it (codec decodes, index shard lookups).  Spans start at
        ``arrival_s``, else at the recorder's clock (a workstation's).

        Raises
        ------
        TransientIOError
            Every replica failed and at least one failure was
            transient — the request is retryable.
        ClusterError
            Every replica failed hard (down / missing copy).
        """
        if op not in ROUTABLE_OPS:
            raise ClusterError(
                f"operation {op!r} is not routable (needs an object id); "
                f"routable: {ROUTABLE_OPS}"
            )
        object_id = params[0]
        route = None
        if self._obs is not None:
            if arrival_s is None:
                arrival_s = self._obs.now()
            route = self._obs.start(
                ctx if ctx is not None else current_span(),
                f"route:{op}", ObsSpanKind.SERVER, arrival_s,
                baggage={"station": station},
                object=str(object_id), op=op,
            )
        order = self._read_order(self._placement.replica_set(object_id))
        errors: list[Exception] = []
        for position, node_id in enumerate(order):
            node = self._nodes[node_id]
            attempt = None
            if route is not None:
                attempt = self._obs.start(
                    route.context, "cluster:read", ObsSpanKind.CLUSTER,
                    arrival_s, node=node_id, op=op,
                )
            bound = current_span() if attempt is None else attempt.context
            try:
                with bind_span(bound):
                    payload, service = node.serve(op, *params)
            except FAILOVER_ERRORS as error:
                errors.append(error)
                if attempt is not None:
                    attempt.finish(
                        arrival_s, status=ObsSpanStatus.RETRIED,
                        error=type(error).__name__,
                    )
                if not node.is_up and node_id not in self._seen_down:
                    self._seen_down.add(node_id)
                    self.metrics.on_node_status(node_id, "down")
                self.metrics.on_failover()
                continue
            if node_id in self._seen_down:
                self._seen_down.discard(node_id)
                self.metrics.on_node_status(node_id, "up")
            primary_service = service
            payload, service, served_by = self._maybe_hedge(
                op, params, order, position, payload, service, arrival_s,
                parent=route.context if route is not None else None,
            )
            self.metrics.on_read(served_by, service)
            if attempt is not None:
                if served_by == node_id:
                    self._attempt_leaf(attempt.context, arrival_s, service)
                    attempt.finish(arrival_s + service)
                else:
                    attempt.finish(
                        arrival_s + primary_service,
                        status=ObsSpanStatus.HEDGED_LOSER,
                    )
                route.finish(arrival_s + service, served_by=served_by)
            return payload, service
        self.metrics.on_read_failed()
        if route is not None:
            route.finish(
                arrival_s, status=ObsSpanStatus.ERROR,
                attempts=len(order),
            )
        transient = [e for e in errors if isinstance(e, TransientIOError)]
        if transient:
            raise TransientIOError(
                f"all {len(order)} replicas of {object_id} failed "
                "transiently"
            ) from transient[-1]
        raise ClusterError(
            f"no replica of {object_id} could serve {op}: "
            + "; ".join(type(e).__name__ for e in errors)
        ) from (errors[-1] if errors else None)

    def _attempt_leaf(self, ctx, arrival_s: float, service: float) -> None:
        """Device/cache attribution under the winning replica attempt."""
        if service > 0.0:
            self._obs.emit(
                ctx, "device", ObsSpanKind.DEVICE,
                arrival_s, arrival_s + service,
            )
        else:
            self._obs.emit(
                ctx, "cache", ObsSpanKind.CACHE, arrival_s, arrival_s,
                hit=True,
            )

    def _maybe_hedge(
        self, op, params, order, position, payload, service, arrival_s,
        parent=None,
    ):
        """Hedge a slow read on the next replica; fastest response wins."""
        if self.hedge_after_s is None or service <= self.hedge_after_s:
            return payload, service, order[position]
        for hedge_id in order[position + 1:]:
            node = self._nodes[hedge_id]
            attempt = None
            if self._obs is not None and parent is not None:
                attempt = self._obs.start(
                    parent, "cluster:read", ObsSpanKind.CLUSTER,
                    arrival_s, node=hedge_id, op=op, hedge=True,
                )
            bound = current_span() if attempt is None else attempt.context
            try:
                with bind_span(bound):
                    hedge_payload, hedge_service = node.serve(op, *params)
            except FAILOVER_ERRORS as error:
                if attempt is not None:
                    attempt.finish(
                        arrival_s, status=ObsSpanStatus.HEDGED_LOSER,
                        error=type(error).__name__,
                    )
                continue
            won = hedge_service < service
            self.metrics.on_hedge(won)
            if attempt is not None:
                if won:
                    self._attempt_leaf(
                        attempt.context, arrival_s, hedge_service
                    )
                attempt.finish(
                    arrival_s + hedge_service,
                    status=(
                        ObsSpanStatus.OK if won
                        else ObsSpanStatus.HEDGED_LOSER
                    ),
                )
            if won:
                return hedge_payload, hedge_service, hedge_id
            return payload, service, order[position]
        return payload, service, order[position]

    def fetch_object(
        self, object_id, *, station: str = "ws-0", arrival_s: float | None = None
    ):
        """Rebuild the full object; ``(MultimediaObject, service_s)``."""
        return self.request(
            "fetch_object", object_id, station=station, arrival_s=arrival_s
        )

    def read_pieces(self, object_id, tags):
        """Whole stored pieces by tag; ``(payloads, service_s)``."""
        return self.request("read_pieces", object_id, tags)

    def read_piece_rows(self, object_id, tag, ranges):
        """Row slices of one piece; ``(rows, service_s)``."""
        return self.request("read_piece_rows", object_id, tag, ranges)

    def record(self, object_id):
        """The storage record held by a serving replica."""
        return self._holder(object_id).record(object_id)

    def version_of(self, object_id) -> int:
        """Version token of the object on a serving replica."""
        return self._holder(object_id).version_of(object_id)

    def recognition_for(self, object_id) -> dict:
        """Recognition side table of the object on a serving replica."""
        return self._holder(object_id).recognition_for(object_id)

    def _holder(self, object_id):
        """The archiver of the first replica, in ring order, that serves
        ``object_id``; :class:`ClusterError` when none does."""
        for node_id in self._placement.replica_set(object_id):
            node = self._nodes[node_id]
            try:
                node.record(object_id)
            except FAILOVER_ERRORS:
                continue
            return node.archiver
        raise ClusterError(f"no replica of {object_id} serves it")

    # ------------------------------------------------------------------
    # frontend protocol (what fetch_with_retry speaks)
    # ------------------------------------------------------------------

    def submit(
        self,
        op: str,
        *params,
        station: str = "ws-0",
        arrival_s: float | None = None,
        ctx=None,
    ) -> RouterFuture:
        """Admit one request; returns a resolved :class:`RouterFuture`.

        Validation errors (unroutable op) raise immediately, exactly as
        :meth:`ServerFrontend.submit` rejects unknown ops at admission;
        per-replica failures surface from ``result()`` so retry loops
        see them where they expect to.
        """
        if op not in ROUTABLE_OPS:
            raise ClusterError(
                f"operation {op!r} is not routable (needs an object id); "
                f"routable: {ROUTABLE_OPS}"
            )
        try:
            payload, service = self.request(
                op, *params, station=station, arrival_s=arrival_s, ctx=ctx
            )
        except (ClusterError, TransientIOError) as error:
            return RouterFuture(error=error)
        return RouterFuture(payload=payload, service_s=service)


# ----------------------------------------------------------------------
# deterministic virtual-time replay (the C-CLUSTER engine)
# ----------------------------------------------------------------------


def replay_cluster(
    router: ClusterRouter,
    schedule: list[LoadRequest],
    *,
    cache_bytes: int | None = None,
    hedge_fraction: float | None = None,
    hedge_floor_s: float = 0.05,
) -> LoadReport:
    """Replay a schedule against the cluster in virtual time.

    Each node is a :class:`~repro.storage.blockdev.DeviceTimeline`: an
    independent FIFO device with its own head position and, with
    ``cache_bytes`` set, its own staging LRU.  For every request the
    router's replica set is consulted; replicas that are down, faulted,
    or missing the copy are failed over (``cluster.node_crash`` fires
    on each considered node's own fault plan, so an armed crash kills
    exactly the node — and only the node — the plan targets).  A copy
    staged on a healthy replica serves first: the earliest ready one,
    free once its read has landed, a piggyback on that read while it is
    still in flight.  Otherwise the *shortest queue* among the healthy
    replicas serves — the load-balance rule that makes N nodes behave
    like an N-server queue instead of N/1 independent ones.

    With ``hedge_fraction`` set, a request whose predicted wait on the
    chosen node exceeds ``hedge_floor_s + hedge_fraction ×`` (its own
    service time) is also issued to the next-shortest replica; both
    devices are charged (hedges are not free) and the earlier finish
    wins.

    Fully deterministic for a given schedule and fault plan; the
    archiver is only consulted for extents, so the replay is
    O(requests).
    """
    devices = {
        node_id: DeviceTimeline(
            node.archiver.disk.geometry,
            LRUCache(cache_bytes) if cache_bytes else None,
        )
        for node_id, node in router.nodes.items()
    }
    report = LoadReport(node_reads=dict.fromkeys(devices, 0))
    metrics = router.metrics

    for request in sorted(schedule, key=lambda r: (r.arrival_s, r.request_id)):
        arrival = request.arrival_s
        key = f"obj/{request.object_id}"

        # Probe replicas in ring order: each probe passes the node's
        # serve guard, so an armed node crash fires here and the dead
        # replica is failed over, not counted as a failed read.
        candidates: list[tuple[int, Extent]] = []
        for node_id in router.placement.replica_set(request.object_id):
            node = router.nodes.get(node_id)
            if node is None:
                continue
            try:
                extent = node.record(request.object_id).extent
            except FAILOVER_ERRORS:
                if not node.is_up and node_id not in router._seen_down:
                    router._seen_down.add(node_id)
                    metrics.on_node_status(node_id, "down")
                report.failovers += 1
                metrics.on_failover()
                continue
            candidates.append((node_id, extent))

        if not candidates:
            report.failed_reads += 1
            metrics.on_read_failed()
            continue

        staged = min(
            (
                (ready, node_id) for node_id, _ in candidates
                if (ready := devices[node_id].staged(key, arrival)) is not None
            ),
            default=None,
        )
        if staged is not None:
            finish, served_by = staged
            service = 0.0
            if finish > arrival:
                report.piggybacks += 1
            else:
                report.cache_hits += 1
        else:
            # Join the shortest queue among healthy replicas.
            candidates.sort(key=lambda c: (devices[c[0]].free_s, c[0]))
            served_by, extent = candidates[0]
            device = devices[served_by]
            service = device.service_time(extent)
            _, finish = device.charge(arrival, service, extent)
            if device.cache is not None:
                device.stage(key, finish, bytes(extent.length))
            if hedge_fraction is not None and len(candidates) > 1:
                deadline = arrival + hedge_floor_s + hedge_fraction * service
                if finish > deadline:
                    # Hedges are not free: both devices do the work.
                    alt_id, alt_extent = candidates[1]
                    alt = devices[alt_id]
                    _, alt_finish = alt.charge(
                        arrival, alt.service_time(alt_extent), alt_extent
                    )
                    report.hedges += 1
                    won = alt_finish < finish
                    metrics.on_hedge(won)
                    if won:
                        report.hedge_wins += 1
                    finish = min(finish, alt_finish)
        latency = finish - arrival
        report.latencies.append(latency)
        report.service_s.append(service)
        report.node_reads[served_by] += 1
        metrics.on_read(served_by, latency)
    report.node_busy_s = {
        node_id: device.busy_s for node_id, device in devices.items()
    }
    report.device_busy_s = sum(report.node_busy_s.values())
    report.device_reads = sum(device.reads for device in devices.values())
    return report
