"""One member of the replicated object service.

A :class:`ClusterNode` wraps a full single-node archiver stack — an
:class:`~repro.server.archiver.Archiver` (optionally behind a
:class:`~repro.server.archiver.CachingArchiver`) with its own platter,
journal and fault plan — and adds the two things membership requires:

* a **lifecycle** (``UP`` → ``DRAINING`` → ``DOWN`` and back up via
  :meth:`recover`), and
* a **serve guard** that converts a node's death into a typed,
  routable error.

The serve guard is where the ``cluster.node_crash`` fault site lives.
A :class:`~repro.errors.SimulatedCrash` is deliberately not a
``MinosError`` — *process* death must never be absorbed by library
handlers.  But one node dying is not the client's process dying: the
whole point of replication is that the client survives it.  So the
guard catches the crash *at the node boundary*, marks the node
``DOWN`` (its volatile state is gone; the platter and journal
survive), and raises :class:`~repro.errors.NodeDownError` — a
``MinosError`` the router may legitimately catch and fail over on.
Recovery then follows the exact single-node contract:
:meth:`recover` recovers the held stack in place from its surviving
device bytes.
"""

from __future__ import annotations

import enum
import threading

from repro.errors import ClusterError, NodeDownError, SimulatedCrash
from repro.faults.plan import fire
from repro.faults.registry import (
    CLUSTER_MIGRATE,
    CLUSTER_NODE_CRASH,
    CLUSTER_REPLICA_WRITE,
)
from repro.server.archiver import (
    READ_OPS,
    Archiver,
    CachingArchiver,
    serve_read,
)
from repro.server.recovery import RecoveryReport


class NodeStatus(enum.Enum):
    """Lifecycle of a cluster node."""

    #: Serving reads and accepting writes.
    UP = "up"
    #: Serving reads; refusing new writes (about to leave the ring).
    DRAINING = "draining"
    #: Crashed or removed; serves nothing until :meth:`ClusterNode.recover`.
    DOWN = "down"


class ClusterNode:
    """A replica-holding archiver node.

    Parameters
    ----------
    node_id:
        Ring identity (an int, as for index shards).
    archiver:
        The wrapped stack; a fresh :class:`Archiver` (threaded with
        ``fault_plan``) is created if omitted.  A
        :class:`CachingArchiver` works identically.
    fault_plan:
        Per-node :class:`~repro.faults.FaultPlan` consulted at the
        ``cluster.*`` sites (falls back to the archiver's own plan).
        Giving each node its own plan is what lets a test kill exactly
        one replica deterministically.
    """

    def __init__(
        self,
        node_id: int,
        archiver: Archiver | CachingArchiver | None = None,
        *,
        fault_plan=None,
    ) -> None:
        if archiver is None:
            archiver = Archiver(fault_plan=fault_plan)
        self.node_id = int(node_id)
        self._archiver = archiver
        self._fault_plan = (
            fault_plan if fault_plan is not None else archiver.fault_plan
        )
        self._status = NodeStatus.UP
        self._lock = threading.Lock()
        #: Total requests served (reads + writes + migrations).
        self.served = 0

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def archiver(self) -> Archiver | CachingArchiver:
        """The wrapped archiver stack."""
        return self._archiver

    @property
    def fault_plan(self):
        """The node's fault plan (or None)."""
        return self._fault_plan

    @fault_plan.setter
    def fault_plan(self, plan) -> None:
        # Attachable after construction: a test computes placement
        # first, then arms exactly the replica it means to hurt.
        self._fault_plan = plan

    @property
    def status(self) -> NodeStatus:
        return self._status

    @property
    def is_up(self) -> bool:
        return self._status is NodeStatus.UP

    @property
    def serves_reads(self) -> bool:
        """DRAINING nodes keep serving reads until their data has moved."""
        return self._status in (NodeStatus.UP, NodeStatus.DRAINING)

    def __contains__(self, object_id) -> bool:
        return object_id in self._archiver

    def __len__(self) -> int:
        return len(self._archiver)

    def object_ids(self) -> list:
        """Ids of every object stored on this node."""
        return self._archiver.object_ids()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ClusterNode(id={self.node_id}, status={self._status.value}, "
            f"objects={len(self._archiver)})"
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def drain(self) -> None:
        """Stop accepting writes (the node is leaving the ring)."""
        if self._status is NodeStatus.DOWN:
            raise ClusterError(f"node {self.node_id} is down; cannot drain")
        self._status = NodeStatus.DRAINING

    def crash(self) -> None:
        """Kill the node's process between requests.

        The scheduled analogue of an armed ``cluster.node_crash``
        fault: volatile state is gone, the platter and journal survive,
        and the node serves nothing until :meth:`recover`.  Chaos
        schedules use this to crash a node *deterministically at a
        step boundary* rather than at the N-th serve arrival.
        """
        self._status = NodeStatus.DOWN

    def mark_down(self) -> None:
        """Administratively take the node out of service."""
        self._status = NodeStatus.DOWN

    def recover(self, metrics=None) -> RecoveryReport:
        """Bring a DOWN node back by recovering its stack in place.

        Exactly the single-node restart contract: the platter and
        journal survive a crash, and the held stack's own ``recover``
        rebuilds all volatile state from them (a
        :class:`CachingArchiver` also drops both cache tiers).  The
        stack keeps its index configuration, compression setting and
        span recorder.  The node returns UP with every sealed object
        intact.
        """
        report = self._archiver.recover(metrics=metrics)
        self._status = NodeStatus.UP
        return report

    # ------------------------------------------------------------------
    # the serve guard
    # ------------------------------------------------------------------

    def _died(self, doing: str) -> NodeDownError:
        """Mark the node dead and build the routable error.

        A :class:`SimulatedCrash` can surface *inside* the wrapped
        archiver (mid commit protocol: an armed ``archiver.store.*`` or
        journal-site crash), not only at the ``cluster.*`` sites.  The
        translation rule is the same wherever the process dies: one
        replica's death is not the client's death, so the boundary
        converts it into :class:`NodeDownError` and the router fails
        over or records the missed write.  The devices survive;
        :meth:`recover` replays the journal evidence exactly as for a
        single-node crash.
        """
        self._status = NodeStatus.DOWN
        return NodeDownError(f"node {self.node_id} crashed {doing}")

    def _guard(self) -> None:
        """Admission check + the ``cluster.node_crash`` site.

        Raises
        ------
        NodeDownError
            If the node is DOWN, or an armed CRASH fires here (the
            node dies and the error reports it).
        """
        if self._status is NodeStatus.DOWN:
            raise NodeDownError(f"node {self.node_id} is down")
        try:
            fire(self._fault_plan, CLUSTER_NODE_CRASH)
        except SimulatedCrash as crash:
            # The node process died; its devices survive.  Translate to
            # a routable error at the membership boundary.
            self._status = NodeStatus.DOWN
            raise NodeDownError(
                f"node {self.node_id} crashed while serving"
            ) from crash

    def serve(self, op: str, *params) -> tuple:
        """Execute one read operation; returns ``(payload, service_s)``.

        ``op`` must be one of :data:`~repro.server.archiver.READ_OPS`.
        Transient device faults (:class:`~repro.errors.TransientIOError`)
        propagate as themselves — the router treats them, like
        :class:`~repro.errors.NodeDownError`, as a cue to fail over.
        """
        if op not in READ_OPS:
            raise ClusterError(f"unknown node operation {op!r}")
        self._guard()
        try:
            return serve_read(self._archiver, op, *params)
        except SimulatedCrash as crash:
            raise self._died("serving a read") from crash
        finally:
            with self._lock:
                self.served += 1

    def record(self, object_id):
        """The storage record of a replica held here (read-side guard)."""
        self._guard()
        return self._archiver.record(object_id)

    # ------------------------------------------------------------------
    # write paths
    # ------------------------------------------------------------------

    def store(self, obj, shared_archiver_data=None):
        """Accept one replica of a fanned-out store.

        Fires ``cluster.replica_write`` before the underlying commit
        protocol runs; a transient there means this replica missed the
        write (the router's quorum decides whether the store as a
        whole succeeded).
        """
        if self._status is not NodeStatus.UP:
            raise NodeDownError(
                f"node {self.node_id} is {self._status.value}; "
                "not accepting writes"
            )
        try:
            fire(self._fault_plan, CLUSTER_REPLICA_WRITE)
        except SimulatedCrash as crash:
            self._status = NodeStatus.DOWN
            raise NodeDownError(
                f"node {self.node_id} crashed accepting a write"
            ) from crash
        with self._lock:
            self.served += 1
        try:
            return self._archiver.store(obj, shared_archiver_data)
        except SimulatedCrash as crash:
            raise self._died("mid store commit") from crash

    def attach_recognition(self, object_id, side_table) -> None:
        """Accept one replica's share of a fanned-out recognition.

        Recognition results follow the same replica-write discipline as
        :meth:`store`: the ``cluster.replica_write`` site fires first
        (a transient there means this replica missed the recognition
        and owes a catch-up sync), then the single-node commit protocol
        of :meth:`Archiver.attach_recognition` runs.
        """
        if self._status is not NodeStatus.UP:
            raise NodeDownError(
                f"node {self.node_id} is {self._status.value}; "
                "not accepting writes"
            )
        try:
            fire(self._fault_plan, CLUSTER_REPLICA_WRITE)
        except SimulatedCrash as crash:
            self._status = NodeStatus.DOWN
            raise NodeDownError(
                f"node {self.node_id} crashed accepting a recognition"
            ) from crash
        with self._lock:
            self.served += 1
        try:
            self._archiver.attach_recognition(object_id, side_table)
        except SimulatedCrash as crash:
            raise self._died("mid recognition commit") from crash

    def receive_migration(self, obj):
        """Accept an object copy moved here by the rebalancer.

        Distinct from :meth:`store` so that ``cluster.migrate`` is the
        *only* site on this path — a test can fail migrations without
        also failing client writes.  DRAINING nodes refuse (data is
        moving off them, not onto them).
        """
        if self._status is not NodeStatus.UP:
            raise NodeDownError(
                f"node {self.node_id} is {self._status.value}; "
                "not accepting migrations"
            )
        try:
            fire(self._fault_plan, CLUSTER_MIGRATE)
        except SimulatedCrash as crash:
            self._status = NodeStatus.DOWN
            raise NodeDownError(
                f"node {self.node_id} crashed receiving a migration"
            ) from crash
        with self._lock:
            self.served += 1
        try:
            result = self._archiver.store(obj)
            # A migrated copy of a recognized object carries its
            # utterances baked into the rebuilt voice segments.
            # Materialize them as a first-class side table (full
            # journal-backed attach protocol) so this copy is
            # indistinguishable from one recognized here directly:
            # ``recognition_for`` stays truthful, and repair source
            # ranking never mistakes this copy for an unrecognized one.
            side_table = {
                segment.segment_id: list(segment.utterances)
                for segment in obj.voice_segments
                if segment.utterances
            }
            if side_table:
                self._archiver.attach_recognition(obj.object_id, side_table)
            return result
        except SimulatedCrash as crash:
            raise self._died("mid migration commit") from crash
