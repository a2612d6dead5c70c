"""The layer map: which entry points are wrapped, and the per-layer metrics.

Every wrapped entry point is patched where its caller looks it up:
class attributes for methods, and the importing module's global for
functions imported by name (``repro.formatter.builder.maybe_decode``,
``repro.server.archiver.plan_scatter``, ...).  A span's name is the
prefix of its metric: span ``core.open`` feeds ``core.open.self_ms``.
The layer of a span is the part of its name before the first dot.
"""

from __future__ import annotations

from perfbench.spans import NameStats, Patch

#: Per-layer metrics the traced run reports on every workload:
#: ``(name, unit, better)``.  Self times are summed over the traced
#: blocks; counts and bytes are deltas over the same blocks.
PER_LAYER = [
    ("core.open.self_ms", "ms", "lower"),
    ("core.browse.self_ms", "ms", "lower"),
    ("core.decoded_cache.hit_ratio", "ratio", "higher"),
    ("core.bytes_shipped", "bytes", "lower"),
    ("workstation.render.self_ms", "ms", "lower"),
    ("audio.decode.self_ms", "ms", "lower"),
    ("audio.pauses.self_ms", "ms", "lower"),
    ("audio.recognize.self_ms", "ms", "lower"),
    ("formatter.form.self_ms", "ms", "lower"),
    ("formatter.rebuild.calls", "count", "lower"),
    ("formatter.rebuild.self_ms", "ms", "lower"),
    ("compress.encode.self_ms", "ms", "lower"),
    ("compress.decode.calls", "count", "lower"),
    ("compress.decode.self_ms", "ms", "lower"),
    ("compress.decode.bytes_out", "bytes", "lower"),
    ("compress.ratio", "ratio", "higher"),
    ("storage.device.reads", "count", "lower"),
    ("storage.device.bytes_read", "bytes", "lower"),
    ("storage.device.bytes_written", "bytes", "lower"),
    ("storage.device.modeled_busy_s", "s", "lower"),
    ("storage.device.self_ms", "ms", "lower"),
    ("storage.cache.self_ms", "ms", "lower"),
    ("storage.bytes_written_per_user_byte", "ratio", "lower"),
    ("storage.journal.self_ms", "ms", "lower"),
    ("storage.scatter.self_ms", "ms", "lower"),
    ("server.read_scattered.self_ms", "ms", "lower"),
    ("server.fetch_object.self_ms", "ms", "lower"),
    ("server.store.self_ms", "ms", "lower"),
    ("server.query.self_ms", "ms", "lower"),
    ("server.idle.self_ms", "ms", "lower"),
    ("server.frontend.queue_wait_p50_ms", "ms", "lower"),
    ("server.frontend.queue_wait_p99_ms", "ms", "lower"),
    ("server.frontend.rejected", "count", "lower"),
    ("server.flight.piggyback_ratio", "ratio", "higher"),
    ("server.cache.hit_ratio", "ratio", "higher"),
    ("index.insert.self_ms", "ms", "lower"),
    ("index.query.self_ms", "ms", "lower"),
    ("index.compact.self_ms", "ms", "lower"),
    ("index.segments", "count", "lower"),
    ("index.postings", "count", "lower"),
    ("cluster.request.self_ms", "ms", "lower"),
    ("cluster.node_reads_max_over_mean", "ratio", "lower"),
    ("cluster.failovers", "count", "lower"),
    ("delivery.run.self_ms", "ms", "lower"),
    ("delivery.events", "count", "higher"),
    ("delivery.prefetch_hit_ratio", "ratio", "higher"),
    ("delivery.wasted_prefetch_ratio", "ratio", "lower"),
    ("delivery.underruns", "count", "lower"),
    ("obs.spans_per_request", "count", "lower"),
    ("obs.self_ms", "ms", "lower"),
    ("runtime.gc_pauses", "count", "lower"),
    ("runtime.gc_pause_ms", "ms", "lower"),
    ("bench.lag_p99_ms", "ms", "lower"),
    ("trace.ops_per_s_ratio", "ratio", "higher"),
    ("trace.attributed_fraction", "ratio", "higher"),
]

#: Span names whose self time is reported as ``<name>.self_ms``.
SELF_TIME_SPANS = [
    name[: -len(".self_ms")]
    for name, _unit, _better in PER_LAYER
    if name.endswith(".self_ms") and name != "obs.self_ms"
]


def _len(result) -> int:
    return len(result)


def patch_table() -> list[Patch]:
    """Every wrapped entry point, grouped by layer."""
    from repro.audio.pauses import PauseIndex
    from repro.audio.recognition import VocabularyRecognizer
    from repro.cluster.node import ClusterNode
    from repro.cluster.router import ClusterRouter
    from repro.core.audio import AudioSession
    from repro.core.manager import PresentationManager
    from repro.core.visual import VisualSession
    from repro.delivery.pipeline import DeliveryPipeline
    from repro.formatter import builder, serialize
    from repro.formatter.builder import ObjectFormatter
    from repro.index.archive_index import ArchiveIndex
    from repro.obs.spans import ActiveSpan, SpanRecorder
    from repro.server import archiver
    from repro.server.archiver import Archiver, CachingArchiver
    from repro.server.frontend import ServerFrontend
    from repro.server.idle import IdleRecognizer
    from repro.server.query import QueryInterface
    from repro.storage.blockdev import SimulatedDisk
    from repro.storage.cache import LRUCache
    from repro.storage.journal import Journal
    from repro.workstation.screen import Screen

    def request_id_of_future(_args, future):
        return None if future is None else future.request.request_id

    def request_id_of_request(args, _result):
        return args[1].request_id

    return [
        # core
        Patch(PresentationManager, "open", "core.open"),
        Patch(VisualSession, "execute", "core.browse"),
        Patch(AudioSession, "execute", "core.browse"),
        Patch(AudioSession, "play_for", "core.browse"),
        # workstation
        Patch(VisualSession, "render_screen", "workstation.render"),
        Patch(Screen, "show_page", "workstation.render"),
        Patch(Screen, "show_image_page", "workstation.render"),
        Patch(Screen, "superimpose", "workstation.render"),
        Patch(Screen, "overwrite", "workstation.render"),
        # audio
        Patch(serialize, "mu_law_decode", "audio.decode"),
        Patch(PauseIndex, "build", "audio.pauses"),
        Patch(VocabularyRecognizer, "recognize", "audio.recognize"),
        # formatter
        Patch(ObjectFormatter, "form", "formatter.form"),
        Patch(builder, "rebuild_object", "formatter.rebuild"),
        Patch(archiver, "rebuild_object", "formatter.rebuild"),
        # compress
        Patch(builder, "encode_piece", "compress.encode"),
        Patch(builder, "maybe_decode", "compress.decode", sizer=_len),
        Patch(Archiver, "decode_piece", "compress.decode", sizer=_len),
        # storage
        Patch(SimulatedDisk, "read", "storage.device"),
        Patch(SimulatedDisk, "write", "storage.device"),
        Patch(SimulatedDisk, "append", "storage.device"),
        Patch(Journal, "begin", "storage.journal"),
        Patch(Journal, "seal", "storage.journal"),
        Patch(Journal, "abort", "storage.journal"),
        Patch(LRUCache, "get", "storage.cache"),
        Patch(LRUCache, "put", "storage.cache"),
        Patch(archiver, "plan_scatter", "storage.scatter"),
        # server
        Patch(Archiver, "read_scattered", "server.read_scattered"),
        Patch(Archiver, "fetch_object", "server.fetch_object"),
        Patch(CachingArchiver, "fetch_object", "server.fetch_object"),
        Patch(Archiver, "store", "server.store"),
        Patch(Archiver, "attach_recognition", "server.attach_recognition"),
        Patch(QueryInterface, "search", "server.query"),
        Patch(IdleRecognizer, "run", "server.idle"),
        Patch(
            ServerFrontend, "submit", "server.submit",
            keyer=request_id_of_future,
        ),
        # Not a public entry point: the worker's first step after it
        # dequeues a request, wrapped only to timestamp worker entry
        # for the queue-wait metric.
        Patch(
            ServerFrontend, "_execute", "server.execute",
            keyer=request_id_of_request,
        ),
        # index
        Patch(ArchiveIndex, "insert_object", "index.insert"),
        Patch(ArchiveIndex, "update_voice", "index.insert"),
        Patch(ArchiveIndex, "query", "index.query"),
        Patch(ArchiveIndex, "search_terms", "index.query"),
        Patch(ArchiveIndex, "flush", "index.compact"),
        Patch(ArchiveIndex, "compact", "index.compact"),
        # cluster
        Patch(ClusterRouter, "request", "cluster.request"),
        Patch(ClusterRouter, "store", "cluster.store"),
        Patch(ClusterNode, "serve", "cluster.request"),
        # delivery
        Patch(DeliveryPipeline, "run", "delivery.run"),
        # obs
        Patch(SpanRecorder, "start", "obs.record"),
        Patch(SpanRecorder, "emit", "obs.record"),
        Patch(ActiveSpan, "finish", "obs.record"),
    ]


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def self_time_metrics(stats: dict[str, NameStats]) -> dict[str, float]:
    """``<span>.self_ms`` for every reported span, plus ``obs.self_ms``."""
    metrics = {
        f"{name}.self_ms": stats[name].self_s * 1e3 if name in stats else 0.0
        for name in SELF_TIME_SPANS
    }
    metrics["obs.self_ms"] = sum(
        entry.self_s for name, entry in stats.items() if layer_of(name) == "obs"
    ) * 1e3
    return metrics


def layer_self_ms(stats: dict[str, NameStats]) -> dict[str, float]:
    """Self time summed per layer, in ms (for the printed summary)."""
    totals: dict[str, float] = {}
    for name, entry in stats.items():
        layer = layer_of(name)
        totals[layer] = totals.get(layer, 0.0) + entry.self_s * 1e3
    return totals
