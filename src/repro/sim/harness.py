"""The DES-driven whole-system simulation harness.

One :class:`SimWorld` is a complete MINOS deployment in miniature: a
replicated cluster of full archiver stacks (optical platter behind a
:class:`~repro.faults.FaultyDevice`, journal and sharded archive index,
fronted by a :class:`~repro.server.archiver.CachingArchiver` — each
node consulting its own :class:`FaultPlan`), a
:class:`~repro.cluster.router.ClusterRouter` with quorum writes and
failover reads, a :class:`~repro.cluster.rebalance.Rebalancer`, one
shared :class:`~repro.obs.spans.SpanRecorder`, and one
:class:`~repro.clock.SimClock` that every operation advances.

Clients are simulated through the router's frontend protocol
(:meth:`submit`/``RouterFuture`` — the same shape
:func:`repro.delivery.pipeline.fetch_with_retry` speaks), not through a
threaded :class:`~repro.server.frontend.ServerFrontend`: host threads
would re-introduce nondeterminism, and the router *is* the frontend
protocol for cluster clients.  Retry backoffs sleep by advancing the
virtual clock.

:func:`run_sim` drives one :class:`ChaosSchedule` through a world and
returns the first :class:`~repro.sim.model.Violation` found (or None).
Errors a real client could see mid-chaos — failed quorums, transient
reads, every replica down — are *tolerated* during chaos steps and
recorded; the invariants are asserted at quiescent points, after the
world has been healed (down nodes recovered, outstanding faults
disarmed, repair loops run to convergence).  An implicit final quiesce
closes every run, so even an all-chaos schedule is checked.

The ``bug`` config field compiles a deliberate regression into the
world for harness self-tests: ``"drop_intent"`` gives every node a
journal that silently drops store BEGIN records — acknowledged writes
then violate the write-ahead rule, and the tiling / durability /
replication checkers must catch it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.clock import SimClock
from repro.cluster.node import ClusterNode, NodeStatus
from repro.cluster.rebalance import Rebalancer
from repro.cluster.router import ClusterRouter
from repro.delivery.pipeline import fetch_with_retry
from repro.errors import (
    ClusterError,
    ObjectNotFoundError,
    QuorumWriteError,
    SimulatedCrash,
    TransientIOError,
)
from repro.faults import FaultPlan, FaultyDevice
from repro.ids import IdGenerator
from repro.index import ArchiveIndex, BOTH, TEXT, VOICE
from repro.obs import context as obs_context
from repro.obs.spans import SpanRecorder
from repro.server import Archiver, CachingArchiver, QueryInterface
from repro.sim.checker import check_world
from repro.sim.model import ModelArchive, ObjectSpec, Violation
from repro.sim.schedule import ChaosSchedule, SimStep
from repro.sim.workload import make_object
from repro.storage.cache import LRUCache
from repro.storage.journal import Journal
from repro.storage.optical import OpticalDisk

#: Failures a chaos-phase client is expected to absorb: failed quorums,
#: transient I/O after retries, every replica of an object down.
#: Anything outside this tuple escaping to a client is itself a
#: violation (``unexpected-error`` / ``crash-leak``).
EXPECTED_CLIENT_ERRORS = (
    QuorumWriteError,
    TransientIOError,
    ClusterError,
    ObjectNotFoundError,
)

_CHANNELS = {"both": BOTH, "text": TEXT, "voice": VOICE}


@dataclass(frozen=True)
class SimConfig:
    """Shape of the simulated deployment (fully serializable)."""

    n_nodes: int = 3
    replication: int = 2
    cache_bytes: int = 1 << 16
    memtable_budget_bytes: int = 256
    n_shards: int = 2
    max_nodes: int = 5
    max_convergence_passes: int = 12
    seed: int = 0
    #: Deliberate regression to compile in (harness self-test).
    bug: str | None = None

    def to_dict(self) -> dict:
        return {
            "n_nodes": self.n_nodes,
            "replication": self.replication,
            "cache_bytes": self.cache_bytes,
            "memtable_budget_bytes": self.memtable_budget_bytes,
            "n_shards": self.n_shards,
            "max_nodes": self.max_nodes,
            "max_convergence_passes": self.max_convergence_passes,
            "seed": self.seed,
            "bug": self.bug,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SimConfig":
        return cls(**{
            key: data[key]
            for key in cls.__dataclass_fields__
            if key in data
        })


@dataclass
class SimResult:
    """Outcome of one simulated run."""

    violation: Violation | None
    steps_run: int
    #: ``(step index, step kind, error type)`` for every tolerated
    #: client-visible failure during chaos.
    tolerated: list[tuple[int, str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.violation is None


class _AmnesicJournal(Journal):
    """A journal that forgets store intents (the ``drop_intent`` bug).

    The canonical write-ahead-logging regression: data reaches the
    platter and the client is acknowledged, but no BEGIN record backs
    the write, so the first crash silently loses the object and leaves
    allocated platter bytes no recovery can account for.
    """

    def __init__(self, device=None) -> None:
        super().__init__(device)
        self._fake_txid = 0

    def begin(self, kind: str, payload: dict) -> int:
        if kind == "store":
            self._fake_txid -= 1
            return self._fake_txid
        return super().begin(kind, payload)

    def seal(self, txid: int) -> None:
        if txid < 0:
            return
        super().seal(txid)

    def abort(self, txid: int) -> None:
        if txid < 0:
            return
        super().abort(txid)


class SimWorld:
    """One deployment under simulation; mutated step by step."""

    def __init__(self, config: SimConfig, *, clock: SimClock | None = None):
        self.config = config
        self.clock = clock if clock is not None else SimClock()
        self.clock.reset()
        obs_context.reset()
        self.recorder = SpanRecorder()
        self.generator = IdGenerator(f"sim-{config.seed}")
        self.model = ModelArchive()
        #: Every node ever created, including detached/left ones.
        self.nodes_by_id: dict[int, ClusterNode] = {}
        nodes = [self._build_node(i) for i in range(config.n_nodes)]
        self.router = ClusterRouter(
            nodes, replication=config.replication, obs=self.recorder
        )
        self.rebalancer = Rebalancer(self.router)
        #: object id → (archived object, recognition side table).
        self.objects: dict[object, tuple] = {}
        self.leaving: set[int] = set()
        self.left: set[int] = set()
        self._next_node_id = config.n_nodes
        self.tolerated: list[tuple[int, str, str]] = []

    # ------------------------------------------------------------------
    # world building
    # ------------------------------------------------------------------

    def _build_node(self, node_id: int) -> ClusterNode:
        plan = FaultPlan()
        disk = FaultyDevice(OpticalDisk(), plan)
        if self.config.bug == "drop_intent":
            journal: Journal = _AmnesicJournal()
        else:
            journal = Journal()
        archiver = CachingArchiver(
            Archiver(
                disk=disk,
                archive_index=ArchiveIndex(
                    n_shards=self.config.n_shards,
                    memtable_budget_bytes=self.config.memtable_budget_bytes,
                    fault_plan=plan,
                ),
                journal=journal,
                fault_plan=plan,
            ),
            LRUCache(self.config.cache_bytes, fault_plan=plan),
        )
        node = ClusterNode(node_id, archiver, fault_plan=plan)
        self.nodes_by_id[node_id] = node
        return node

    # ------------------------------------------------------------------
    # step dispatch
    # ------------------------------------------------------------------

    def apply(self, index: int, step: SimStep) -> Violation | None:
        """Execute one step; returns a violation if the step found one."""
        handler = getattr(self, f"_op_{step.kind}", None)
        if handler is None:
            return Violation(
                "unknown-step", f"no handler for {step.kind!r}", index
            )
        self.clock.advance(0.1)
        try:
            return handler(step.params, index)
        except EXPECTED_CLIENT_ERRORS as exc:
            self.tolerated.append((index, step.kind, type(exc).__name__))
            return None
        except SimulatedCrash as exc:
            # Post node-boundary translation, a raw crash reaching the
            # client means some layer failed to contain a process
            # death — exactly the bug class the sim exists to catch.
            return Violation(
                "crash-leak", f"{step.kind} leaked {exc}", index
            )
        except Exception as exc:  # noqa: BLE001 - any leak is a finding
            return Violation(
                "unexpected-error",
                f"{step.kind}: {type(exc).__name__}: {exc}",
                index,
            )

    # -- client operations ---------------------------------------------

    def _op_store(self, params: dict, index: int) -> Violation | None:
        obj, side_table = make_object(
            self.generator, params["media"], params["units"]
        )
        self.model.on_store_attempt(
            obj.object_id, ObjectSpec.make(params["media"], params["units"])
        )
        self.objects[obj.object_id] = (obj, side_table)
        self.router.store(obj, now_s=self.clock.now)
        self.model.on_store_ack(obj.object_id)
        return None

    def _op_recognize(self, params: dict, index: int) -> Violation | None:
        candidates = [
            object_id
            for object_id in self.model.acked_voice_ids()
            if object_id not in self.model.acked_recognitions
        ]
        if not candidates:
            return None
        object_id = candidates[params["pick"] % len(candidates)]
        _, side_table = self.objects[object_id]
        self.model.on_recognition_attempt(object_id)
        self.router.attach_recognition(
            object_id, side_table, now_s=self.clock.now
        )
        self.model.on_recognition_ack(object_id)
        return None

    def _op_open(self, params: dict, index: int) -> Violation | None:
        if not self.model.acked:
            return None
        object_id = self.model.acked[params["pick"] % len(self.model.acked)]
        payload, service = fetch_with_retry(
            self.router,
            "fetch_object",
            object_id,
            station=f"ws-{params['station'] % 4}",
            attempts=2,
            timeout_s=60.0,
            backoff_s=0.01,
            sleep=self.clock.advance,
        )
        if payload.object_id != object_id:
            return Violation(
                "read-integrity",
                f"open of {object_id} returned {payload.object_id}",
                index,
            )
        self.clock.advance(service)
        return None

    def _op_search(self, params: dict, index: int) -> Violation | None:
        serving = [
            node
            for _, node in sorted(self.router.nodes.items())
            if node.serves_reads
        ]
        if not serving:
            return None
        node = serving[params["pick"] % len(serving)]
        channel = _CHANNELS[params["channel"]]
        interface = QueryInterface(node.archiver)
        try:
            via_index = interface.select(terms=[params["term"]], channel=channel)
            via_scan = interface.select(
                terms=[params["term"]], channel=channel, use_index=False
            )
        except SimulatedCrash:
            # The query session runs inside the node's process; its
            # death is the node's death, not the client's.
            node.crash()
            return None
        if via_index != via_scan:
            return Violation(
                "index-scan",
                f"mid-run select({params['term']!r}, {params['channel']}) "
                f"on node {node.node_id}: index {via_index} != scan "
                f"{via_scan}",
                index,
                node_id=node.node_id,
            )
        return None

    def _op_browse(self, params: dict, index: int) -> Violation | None:
        if not self.model.acked:
            return None
        object_id = self.model.acked[params["pick"] % len(self.model.acked)]
        station = f"ws-{params['station'] % 4}"
        fetched, service = self.router.request(
            "fetch", object_id, station=station, arrival_s=self.clock.now
        )
        self.clock.advance(service)
        tags = fetched.descriptor.archiver_tags()
        if not tags:
            return None
        tag = tags[params["pick"] % len(tags)]
        _, service = self.router.request(
            "read_piece_range", object_id, tag, 0, 1,
            station=station, arrival_s=self.clock.now,
        )
        self.clock.advance(service)
        return None

    # -- chaos ----------------------------------------------------------

    def _live_nodes(self) -> list[ClusterNode]:
        return [
            node
            for _, node in sorted(self.router.nodes.items())
            if node.status is not NodeStatus.DOWN
        ]

    def _op_crash_node(self, params: dict, index: int) -> Violation | None:
        if "node_id" in params:
            node = self.nodes_by_id.get(params["node_id"])
            if node is None or node.status is NodeStatus.DOWN:
                return None
        else:
            candidates = self._live_nodes()
            if not candidates:
                return None
            node = candidates[params["pick"] % len(candidates)]
        node.crash()
        return None

    def _op_recover_node(self, params: dict, index: int) -> Violation | None:
        candidates = [
            node
            for _, node in sorted(self.router.nodes.items())
            if node.status is NodeStatus.DOWN
        ]
        if not candidates:
            return None
        node = candidates[params["pick"] % len(candidates)]
        try:
            node.recover()
        except SimulatedCrash:
            # Died again during restart (armed fault mid-replay); the
            # node stays down and the quiescent heal retries cleanly.
            pass
        return None

    def _op_join_node(self, params: dict, index: int) -> Violation | None:
        if len(self.router.nodes) >= self.config.max_nodes:
            return None
        node = self._build_node(self._next_node_id)
        self._next_node_id += 1
        self.rebalancer.join(node)
        return None

    def _op_leave_node(self, params: dict, index: int) -> Violation | None:
        if (
            len(self.router.nodes) < 3
            or len(self.router.nodes) - 1 < self.config.replication
        ):
            return None
        candidates = [
            node for node in self._live_nodes() if node.is_up
        ]
        if not candidates:
            return None
        node = candidates[params["pick"] % len(candidates)]
        self.rebalancer.leave(node.node_id)
        self.leaving.add(node.node_id)
        return None

    def _arm_target(self, pick: int) -> ClusterNode | None:
        nodes = [node for _, node in sorted(self.router.nodes.items())]
        if not nodes:
            return None
        return nodes[pick % len(nodes)]

    def _op_torn_write(self, params: dict, index: int) -> Violation | None:
        node = self._arm_target(params["pick"])
        if node is None or node.fault_plan is None:
            return None
        plan = node.fault_plan
        plan.arm(
            "device.write",
            "torn_write",
            hit=plan.arrivals("device.write") + 1 + params["delay"],
            tear_fraction=params["tear_fraction"],
            then_crash=params["then_crash"],
        )
        return None

    def _op_transient(self, params: dict, index: int) -> Violation | None:
        node = self._arm_target(params["pick"])
        if node is None or node.fault_plan is None:
            return None
        plan = node.fault_plan
        plan.arm(
            params["site"],
            "transient",
            hit=plan.arrivals(params["site"]) + 1 + params["delay"],
            count=params["count"],
        )
        return None

    def _op_crash_site(self, params: dict, index: int) -> Violation | None:
        node = self._arm_target(params["pick"])
        if node is None or node.fault_plan is None:
            return None
        plan = node.fault_plan
        plan.arm(
            params["site"],
            "crash",
            hit=plan.arrivals(params["site"]) + 1 + params["delay"],
        )
        return None

    def _op_catch_up(self, params: dict, index: int) -> Violation | None:
        self.rebalancer.catch_up()
        return None

    def _op_rebalance(self, params: dict, index: int) -> Violation | None:
        self.rebalancer.run(params["max_steps"], now_s=self.clock.now)
        return None

    # ------------------------------------------------------------------
    # quiescent points
    # ------------------------------------------------------------------

    def _op_quiesce(self, params: dict, index: int) -> Violation | None:
        return self.quiesce(index)

    def quiesce(self, index: int) -> Violation | None:
        """Heal the world, run repair to convergence, check invariants.

        The quiescent contract: chaos stops (every outstanding fault is
        disarmed), every crashed node restarts from its surviving
        devices, the repair machinery (catch-up + migrations) runs
        until it has nothing left to do, pending leaves complete — and
        *then* the global invariants must hold exactly.
        """
        for node in self.nodes_by_id.values():
            if node.fault_plan is not None:
                node.fault_plan.disarm()
        self.recorder.clear()
        for node_id, node in sorted(self.nodes_by_id.items()):
            if node_id in self.left:
                continue
            if node.status is NodeStatus.DOWN:
                try:
                    node.recover()
                except Exception as exc:  # noqa: BLE001 - a finding
                    return Violation(
                        "recovery",
                        f"node {node_id} failed to recover: "
                        f"{type(exc).__name__}: {exc}",
                        index,
                        node_id=node_id,
                    )
        for _ in range(self.config.max_convergence_passes):
            queued = self.rebalancer.catch_up()
            report = self.rebalancer.run(now_s=self.clock.now)
            stuck_debt = [
                (object_id, node_id)
                for object_id, node_id in self.router.under_replicated
                if self.model.is_acked(object_id)
            ]
            if queued == 0 and report.remaining == 0 and not stuck_debt:
                break
        else:
            return Violation(
                "convergence",
                f"repair did not converge in "
                f"{self.config.max_convergence_passes} passes: "
                f"{len(self.rebalancer.pending)} pending, "
                f"{len(self.router.under_replicated)} debts",
                index,
            )
        for node_id in sorted(self.leaving):
            try:
                self.rebalancer.finish_leave(node_id)
            except ClusterError as exc:
                return Violation(
                    "convergence",
                    f"leave of node {node_id} blocked: {exc}",
                    index,
                    node_id=node_id,
                )
            self.left.add(node_id)
        self.leaving.clear()
        return check_world(self, index)


def run_sim(
    schedule: ChaosSchedule | list[SimStep],
    config: SimConfig | None = None,
    *,
    clock: SimClock | None = None,
) -> SimResult:
    """Run one schedule through a fresh world; first violation wins.

    An implicit quiesce (attributed to index ``len(steps)``) closes the
    run, so every schedule ends with a full invariant check.
    """
    if config is None:
        config = SimConfig()
    steps = list(schedule)
    world = SimWorld(config, clock=clock)
    violation = None
    steps_run = 0
    for index, step in enumerate(steps):
        violation = world.apply(index, step)
        steps_run = index + 1
        if violation is not None:
            break
    if violation is None:
        violation = world.quiesce(len(steps))
    return SimResult(
        violation=violation, steps_run=steps_run, tolerated=world.tolerated
    )
