"""Quiescent-point invariant checks against the model oracle.

:func:`check_world` runs after the harness has healed the world (all
faults disarmed, crashed nodes recovered, repair converged) and holds
the real cluster to the model's sandwich invariant — acknowledged
history must be fully served, actual state must not exceed attempted
history — plus the structural invariants no history can excuse:
journal/extent tiling, WORM platter growth, index ≡ scan-oracle
equivalence, cache ownership and freshness (both tiers of each node's
:class:`~repro.server.archiver.CachingArchiver`), version-token
monotonicity, and one-connected-tree span attribution.

Checks are ordered cheapest-global first, then per-node; the first
violation wins, because after one broken invariant the rest are noise
(a lost object fails durability, replication *and* the index oracle —
the shrinker wants one stable label, not three).
"""

from __future__ import annotations

from repro.formatter.archive import object_token_units
from repro.index import BOTH, TEXT, VOICE
from repro.index.planner import matches_units, parse_query
from repro.server import QueryInterface
from repro.server.recovery import tiling_gap
from repro.sim.model import Violation
from repro.sim.workload import QUERY_BATTERY
from repro.storage.blockdev import Extent

#: Channel axes every index/scan comparison runs over.
_CHECK_CHANNELS = (BOTH, TEXT, VOICE)

#: How many acked objects the span-tree probe re-fetches.
_SPAN_PROBE_READS = 4


def check_world(world, step_index: int) -> Violation | None:
    """Assert every invariant; returns the first violation found."""
    for check in (
        _check_durability,
        _check_replication,
        _check_nodes,
        _check_recognition_durability,
        _check_span_trees,
    ):
        violation = check(world, step_index)
        if violation is not None:
            return violation
    return None


# ----------------------------------------------------------------------
# global checks
# ----------------------------------------------------------------------


def _check_durability(world, step_index: int) -> Violation | None:
    """Every acknowledged store must be readable and byte-faithful."""
    for object_id in world.model.acked:
        try:
            obj, _ = world.router.fetch_object(
                object_id, arrival_s=world.clock.now
            )
        except Exception as exc:  # noqa: BLE001 - any failure is the finding
            return Violation(
                "durability",
                f"acked object {object_id} unreadable at quiescence: "
                f"{type(exc).__name__}: {exc}",
                step_index,
            )
        if obj.object_id != object_id:
            return Violation(
                "read-integrity",
                f"fetch of {object_id} rebuilt {obj.object_id}",
                step_index,
            )
    return None


def _check_replication(world, step_index: int) -> Violation | None:
    """Post-repair, every acked object sits on its full replica set."""
    for object_id in world.model.acked:
        for node_id in world.router.replica_set(object_id):
            node = world.router.nodes.get(node_id)
            if node is None or object_id not in node:
                return Violation(
                    "replication",
                    f"acked object {object_id} missing from replica "
                    f"{node_id} after repair converged",
                    step_index,
                    node_id=node_id,
                )
    return None


def _check_recognition_durability(world, step_index: int) -> Violation | None:
    """An acked recognition's full term set survives on ≥1 live holder.

    Recognition writes at W=1, so only one durable application is
    promised — but that one must be complete (the per-node check
    already enforced all-or-nothing on each copy; this check enforces
    that the "all" copy exists somewhere).  "Serves" means the terms a
    client sees in the rebuilt object: a copy may carry its recognition
    either as a side table (direct ``attach_recognition``) or baked
    into the media pieces (a migration of an already-recognized copy)
    — both are durable, so the check reads through the rebuild path
    rather than the side table.
    """
    for object_id in sorted(world.model.acked_recognitions, key=str):
        expected = world.model.expected_channel_terms(object_id)["voice"]
        if not expected:
            continue
        served: list[set[str]] = []
        for node_id in world.router.replica_set(object_id):
            node = world.router.nodes.get(node_id)
            if node is None or object_id not in node:
                continue
            obj, _ = node.archiver.fetch_object(object_id)
            units = object_token_units(obj)
            served.append({
                word for tokens in units.get(VOICE, ()) for word in tokens
            })
        if not any(terms == expected for terms in served):
            return Violation(
                "recognition-durability",
                f"acked recognition of {object_id} not fully served by "
                f"any replica: expected {sorted(expected)}, holders serve "
                f"{[sorted(t) for t in served]}",
                step_index,
            )
    return None


# ----------------------------------------------------------------------
# per-node checks
# ----------------------------------------------------------------------


def _check_nodes(world, step_index: int) -> Violation | None:
    for _, node in sorted(world.router.nodes.items()):
        violation = _check_node(world, node, step_index)
        if violation is not None:
            return violation
    return None


def _check_node(world, node, step_index: int) -> Violation | None:
    front = node.archiver
    archiver = front.archiver
    model = world.model

    # Tiling: every allocated platter byte is owned by a live object or
    # journaled as dead.  A positive gap means bytes reached the
    # platter with no write-ahead evidence.
    gap = tiling_gap(archiver)
    if gap != 0:
        return Violation(
            "tiling",
            f"{gap} allocated bytes with no journal evidence",
            step_index,
            node_id=node.node_id,
        )

    # WORM: the platter prefix observed at the previous quiescent point
    # must be byte-identical now, and allocation must only grow.
    used = archiver.disk.used_bytes
    data = archiver.read_raw(Extent(0, used))[0] if used else b""
    worm_error = model.check_worm(node.node_id, data)
    if worm_error is not None:
        return Violation(
            "worm", worm_error, step_index, node_id=node.node_id
        )

    # Content of every held copy, against the attempted history.
    units_by_oid: dict[object, dict] = {}
    for object_id in archiver.object_ids():
        if object_id not in model.attempted:
            return Violation(
                "phantom-object",
                f"holds {object_id}, which no client ever stored",
                step_index,
                node_id=node.node_id,
            )
        obj, _ = front.fetch_object(object_id)
        units = object_token_units(obj)
        units_by_oid[object_id] = units
        expected = model.expected_channel_terms(object_id)
        text_terms = {
            word for tokens in units.get(TEXT, ()) for word in tokens
        }
        if text_terms != expected["text"]:
            return Violation(
                "content",
                f"{object_id} text terms {sorted(text_terms)} != stored "
                f"spec {sorted(expected['text'])}",
                step_index,
                node_id=node.node_id,
            )
        voice_terms = {
            word for tokens in units.get(VOICE, ()) for word in tokens
        }
        if voice_terms:
            if object_id not in model.attempted_recognitions:
                return Violation(
                    "phantom-recognition",
                    f"{object_id} serves voice terms "
                    f"{sorted(voice_terms)} but recognition was never "
                    "attempted",
                    step_index,
                    node_id=node.node_id,
                )
            if voice_terms != expected["voice"]:
                return Violation(
                    "recognition-atomicity",
                    f"{object_id} serves a partial recognition: "
                    f"{sorted(voice_terms)} of {sorted(expected['voice'])}",
                    step_index,
                    node_id=node.node_id,
                )
        version_error = model.check_version(
            node.node_id, object_id, archiver.version_of(object_id)
        )
        if version_error is not None:
            return Violation(
                "version", version_error, step_index, node_id=node.node_id
            )

    # Index ≡ scan oracle ≡ model units, per channel, over the full
    # query battery (terms, AND/OR/NOT, phrases).
    interface = QueryInterface(front)
    for query in QUERY_BATTERY:
        plan = parse_query(query)
        for channel in _CHECK_CHANNELS:
            via_index = set(interface.search(query, channel=channel))
            via_model = {
                object_id
                for object_id, units in units_by_oid.items()
                if matches_units(plan, channel, units)
            }
            if via_index != via_model:
                return Violation(
                    "index-scan",
                    f"search({query!r}, {channel}): index {sorted(map(str, via_index))} "
                    f"!= oracle {sorted(map(str, via_model))}",
                    step_index,
                    node_id=node.node_id,
                )

    stale = stale_cache_entry(front)
    if stale is not None:
        return Violation("cache", stale, step_index, node_id=node.node_id)
    return None


def stale_cache_entry(front) -> str | None:
    """Why an ``abs/…`` entry of a ``CachingArchiver`` is stale, or None.

    Each entry of either tier must lie inside a live object's extent
    and hold what the platter holds at the range it is keyed by: the
    staging cache the stored bytes, the decoded tier
    ``decode_piece`` of them.
    """
    archiver = front.archiver
    owned = [
        archiver.record(object_id).extent
        for object_id in archiver.object_ids()
    ]
    for tier, cache, decode in (
        ("cache", front.cache, None),
        ("decoded", front.decoded_pieces, archiver.decode_piece),
    ):
        for key in cache.keys():
            if not key.startswith("abs/"):
                continue
            _, offset, length = key.split("/")
            extent = Extent(int(offset), int(length))
            if not any(
                held.offset <= extent.offset and extent.end <= held.end
                for held in owned
            ):
                return f"{tier} entry {key} not owned by any live object"
            platter = archiver.read_raw(extent)[0]
            if cache.get(key) != (decode(platter) if decode else platter):
                return f"{tier} entry {key} diverges from the platter"
    return None


# ----------------------------------------------------------------------
# observability
# ----------------------------------------------------------------------


def _check_span_trees(world, step_index: int) -> Violation | None:
    """Probe reads must each produce one connected span tree.

    The recorder was cleared when quiescence began, so the only spans
    present are the probe's own: every trace must have exactly one
    root, and every parent id must resolve within its own trace — a
    span attributed to a missing or foreign parent means causal
    attribution broke somewhere in the read path.
    """
    recorder = world.recorder
    recorder.clear()
    for object_id in world.model.acked[:_SPAN_PROBE_READS]:
        world.router.fetch_object(object_id, arrival_s=world.clock.now)
    try:
        for trace_id, spans in world.recorder.traces().items():
            roots = [span for span in spans if span.parent_id is None]
            if len(roots) != 1:
                return Violation(
                    "span-tree",
                    f"trace {trace_id} has {len(roots)} roots "
                    f"({len(spans)} spans)",
                    step_index,
                )
            span_ids = {span.context.span_id for span in spans}
            for span in spans:
                if span.parent_id is not None and span.parent_id not in span_ids:
                    return Violation(
                        "span-tree",
                        f"trace {trace_id}: span {span.name!r} parent "
                        f"{span.parent_id} missing from its trace",
                        step_index,
                    )
    finally:
        recorder.clear()
    return None
