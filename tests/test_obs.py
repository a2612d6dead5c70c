"""End-to-end causal tracing: spans, critical path, exporters, SLOs.

The unit half exercises :mod:`repro.obs` in isolation — recorder
semantics, blocking-chain selection, Chrome-trace round-trips, SLO
burn math.  The integration half runs real stacks with a recorder
attached (frontend worker pool, cluster router, delivery replay,
presentation manager over a replicated cluster) and asserts the span
trees the layers produce, including the ISSUE-9 acceptance scenario:
one cold workstation open over a 3-node R=2 compressed cluster must
yield a single connected tree whose critical path reproduces the
user-visible latency within 1%.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.cluster import ClusterNode, ClusterRouter, Rebalancer
from repro.core.manager import LocalStore, PresentationManager
from repro.delivery import (
    DeliveryConfig,
    DeliveryPipeline,
    DeliveryPolicy,
    build_streaming_workload,
)
from repro.errors import TransientIOError
from repro.ids import IdGenerator
from repro.obs import (
    SLO,
    CriticalPath,
    SLOMonitor,
    Span,
    SpanContext,
    SpanKind,
    SpanRecorder,
    SpanStatus,
    bind,
    current,
    from_chrome_trace,
    render_text,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.scenarios.library import build_object_library
from repro.server.archiver import Archiver, CachingArchiver
from repro.server.frontend import ServerFrontend
from repro.workstation.station import Workstation


def _sorted(spans):
    return sorted(spans, key=lambda s: (s.trace_id, s.span_id))


def _span(
    recorder,
    parent,
    name,
    kind,
    start,
    end,
    status=SpanStatus.OK,
    **attrs,
):
    return recorder.emit(parent, name, kind, start, end, status=status, **attrs)


# ----------------------------------------------------------------------
# recorder + context
# ----------------------------------------------------------------------


class TestSpanRecorder:
    def test_ids_are_deterministic_and_sequential(self):
        r = SpanRecorder()
        a = r.emit(None, "a", SpanKind.REQUEST, 0.0, 1.0)
        b = r.emit(a.context, "b", SpanKind.DEVICE, 0.0, 0.5)
        c = r.emit(None, "c", SpanKind.REQUEST, 2.0, 3.0)
        assert (a.trace_id, a.span_id) == (1, 1)
        assert (b.trace_id, b.span_id, b.parent_id) == (1, 2, 1)
        assert (c.trace_id, c.span_id) == (2, 3)

    def test_baggage_merges_and_propagates(self):
        r = SpanRecorder()
        root = r.start(
            None, "open", SpanKind.REQUEST, 0.0,
            baggage={"station": "ws-1", "object": "o"},
        )
        child = r.start(
            root.context, "read", SpanKind.DEVICE, 0.0,
            baggage={"node": "3"},
        )
        assert child.context.item("station") == "ws-1"
        assert child.context.item("node") == "3"
        assert child.context.item("missing", "dflt") == "dflt"
        # parent baggage is untouched by the child's additions
        assert root.context.item("node") is None

    def test_finish_overrides_start_and_records_attrs(self):
        r = SpanRecorder()
        active = r.start(None, "work", SpanKind.SERVER, 5.0)
        active.annotate(queue_depth=4)
        span = active.finish(9.0, start_s=6.0, latency_s=3.0)
        assert span.start_s == 6.0 and span.end_s == 9.0
        assert span.attrs == {"queue_depth": 4, "latency_s": 3.0}
        assert r.spans() == [span]

    def test_listener_streams_finished_spans(self):
        r = SpanRecorder()
        seen = []
        r.add_listener(seen.append)
        span = r.emit(None, "x", SpanKind.CACHE, 0.0, 0.0)
        assert seen == [span]

    def test_clock_feeds_now(self):
        r = SpanRecorder(clock=lambda: 42.0)
        assert r.now() == 42.0
        assert SpanRecorder().now() == 0.0

    def test_traces_group_by_trace_id(self):
        r = SpanRecorder()
        a = r.emit(None, "a", SpanKind.REQUEST, 0.0, 1.0)
        b = r.emit(None, "b", SpanKind.REQUEST, 0.0, 1.0)
        assert r.trace_ids() == [a.trace_id, b.trace_id]
        assert r.traces()[b.trace_id] == [b]
        assert len(r) == 2


class TestAmbientContext:
    def test_bind_sets_and_restores(self):
        ctx = SpanContext(1, 1)
        assert current() is None
        with bind(ctx):
            assert current() is ctx
            inner = SpanContext(1, 2, 1)
            with bind(inner):
                assert current() is inner
            assert current() is ctx
        assert current() is None

    def test_ambient_does_not_cross_threads(self):
        ctx = SpanContext(7, 1)
        seen = {}

        def worker():
            seen["ctx"] = current()

        with bind(ctx):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert seen["ctx"] is None


# ----------------------------------------------------------------------
# critical path
# ----------------------------------------------------------------------


class TestCriticalPath:
    def _tree(self):
        r = SpanRecorder()
        root = r.start(None, "open", SpanKind.REQUEST, 0.0)
        queue = _span(r, root.context, "queue", SpanKind.QUEUE, 0.0, 0.030)
        device = _span(
            r, root.context, "device", SpanKind.DEVICE, 0.030, 0.100
        )
        loser = _span(
            r, root.context, "hedge", SpanKind.CLUSTER, 0.030, 0.200,
            status=SpanStatus.HEDGED_LOSER,
        )
        net = _span(r, root.context, "ship", SpanKind.NETWORK, 0.100, 0.114)
        root_span = root.finish(0.114)
        return r, root_span, queue, device, loser, net

    def test_chain_follows_last_finishing_blocking_child(self):
        r, root, queue, device, loser, net = self._tree()
        cp = CriticalPath.from_recorder(r)
        assert [s.name for s in cp.chain()] == ["open", "ship"]
        assert loser not in cp.chain()

    def test_end_to_end_and_attribution(self):
        r, root, *_ = self._tree()
        cp = CriticalPath.from_recorder(r)
        assert cp.end_to_end_s == pytest.approx(0.114)
        # queue+device+network tile the whole root window
        assert cp.attributed_fraction == pytest.approx(1.0)

    def test_self_time_excludes_blocking_children_only(self):
        r, root, queue, device, loser, net = self._tree()
        cp = CriticalPath.from_recorder(r)
        # the hedged loser covers [0.03, 0.2] but must not count
        assert cp.self_time_s(root) == pytest.approx(0.0)
        assert cp.self_time_s(device) == pytest.approx(0.070)

    def test_layer_breakdown_sums_to_root(self):
        r, *_ = self._tree()
        cp = CriticalPath.from_recorder(r)
        breakdown = {item.kind: item.seconds for item in cp.layer_breakdown()}
        assert breakdown[SpanKind.DEVICE] == pytest.approx(0.070)
        assert breakdown[SpanKind.QUEUE] == pytest.approx(0.030)
        assert breakdown[SpanKind.NETWORK] == pytest.approx(0.014)
        assert SpanKind.CLUSTER not in breakdown  # hedged loser excluded
        assert sum(breakdown.values()) == pytest.approx(0.114)
        fractions = [item.fraction for item in cp.layer_breakdown()]
        assert sum(fractions) == pytest.approx(1.0)

    def test_report_answers_where_the_time_went(self):
        r, *_ = self._tree()
        text = CriticalPath.from_recorder(r).report()
        assert "end-to-end 114.00ms" in text
        assert "attributed 100%" in text
        assert "device" in text

    def test_no_root_raises(self):
        r = SpanRecorder()
        with pytest.raises(ValueError):
            CriticalPath(r.spans())


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------


class TestExporters:
    def _recorder(self):
        r = SpanRecorder()
        root = r.start(
            None, "open", SpanKind.REQUEST, 0.0,
            baggage={"station": "ws-2"}, object="obj-1",
        )
        _span(r, root.context, "device", SpanKind.DEVICE, 0.0, 0.05, bytes=9)
        r.emit(
            root.context, "flight:join", SpanKind.CACHE, 0.01, 0.01,
            links=(2,),
        )
        root.finish(0.06)
        return r

    def test_chrome_round_trip_is_exact(self):
        r = self._recorder()
        payload = json.loads(json.dumps(to_chrome_trace(r.spans())))
        assert from_chrome_trace(payload) == _sorted(r.spans())

    def test_chrome_events_carry_station_rows_and_microseconds(self):
        r = self._recorder()
        events = to_chrome_trace(r.spans())["traceEvents"]
        assert all(e["ph"] == "X" for e in events)
        assert all(e["tid"] == "ws-2" for e in events)
        device = next(e for e in events if e["name"] == "device")
        assert device["ts"] == pytest.approx(0.0)
        assert device["dur"] == pytest.approx(50_000.0)

    def test_write_chrome_trace_round_trips_from_disk(self, tmp_path):
        r = self._recorder()
        path = tmp_path / "trace.json"
        write_chrome_trace(path, r.spans())
        assert from_chrome_trace(json.loads(path.read_text())) == _sorted(
            r.spans()
        )

    def test_render_text_is_deterministic_tree(self):
        r = self._recorder()
        text = render_text(r.spans())
        assert text == render_text(list(r.spans()))
        lines = text.splitlines()
        assert lines[0] == "trace 1"
        assert lines[1].startswith("  - open [request]")
        assert any("->2" in line for line in lines)  # the link marker


# ----------------------------------------------------------------------
# SLOs
# ----------------------------------------------------------------------


class TestSLO:
    def test_latency_objective_and_burn(self):
        slo = SLO(
            name="p75-page", span_name="page_turn",
            percentile=75, threshold_s=0.2,
        )
        r = SpanRecorder()
        monitor = SLOMonitor([slo]).attach(r)
        for end in (0.05, 0.06, 0.07, 0.5):  # one of four over threshold
            r.emit(None, "page_turn", SpanKind.DELIVERY, 0.0, end)
        (result,) = monitor.evaluate()
        assert result.ok  # p75 interpolates below the outlier
        assert result.sample_count == 4
        assert result.burn_rate == pytest.approx(0.25 / 0.25)
        assert "OK" in result.line()

    def test_count_objective_zero_budget(self):
        slo = SLO(name="no-underruns", span_name="underrun", max_count=0)
        monitor = SLOMonitor([slo])
        assert monitor.healthy
        r = SpanRecorder()
        monitor.attach(r)
        r.emit(
            None, "underrun", SpanKind.DELIVERY, 1.0, 1.0,
            status=SpanStatus.ERROR,
        )
        (result,) = monitor.evaluate()
        assert not result.ok
        assert result.burn_rate == float("inf")
        assert not monitor.healthy
        assert "MISS" in monitor.report()

    def test_status_filter_counts_only_matching(self):
        slo = SLO(
            name="retries", span_name="cluster:read", max_count=1,
            statuses=(SpanStatus.RETRIED,),
        )
        r = SpanRecorder()
        monitor = SLOMonitor([slo]).attach(r)
        r.emit(None, "cluster:read", SpanKind.CLUSTER, 0.0, 1.0)
        r.emit(
            None, "cluster:read", SpanKind.CLUSTER, 0.0, 1.0,
            status=SpanStatus.RETRIED,
        )
        (result,) = monitor.evaluate()
        assert result.measured == 1.0 and result.ok

    def test_invalid_objectives_raise(self):
        with pytest.raises(ValueError):
            SLO(name="x", span_name="s")
        with pytest.raises(ValueError):
            SLO(name="x", span_name="s", percentile=95)
        with pytest.raises(ValueError):
            SLO(
                name="x", span_name="s", percentile=95, threshold_s=1.0,
                max_count=2,
            )
        with pytest.raises(ValueError):
            SLO(name="x", span_name="s", percentile=150, threshold_s=1.0)
        with pytest.raises(ValueError):
            SLOMonitor([
                SLO(name="dup", span_name="s", max_count=1),
                SLO(name="dup", span_name="t", max_count=1),
            ])


# ----------------------------------------------------------------------
# layer integration
# ----------------------------------------------------------------------


@pytest.fixture()
def library_archiver():
    archiver = Archiver()
    objects = build_object_library(archiver, visual_count=4, audio_count=2)
    return archiver, objects


class TestFrontendSpans:
    def test_worker_requests_form_server_trees(self, library_archiver):
        archiver, objects = library_archiver
        obs = SpanRecorder()
        with ServerFrontend(archiver, workers=2, obs=obs) as frontend:
            obj, service = frontend.fetch_object(
                objects[0].object_id, station="ws-5"
            )
        assert obj.object_id == objects[0].object_id
        servers = [s for s in obs if s.name == "server:fetch_object"]
        assert len(servers) == 1
        server = servers[0]
        assert server.kind is SpanKind.SERVER
        assert server.context.item("station") == "ws-5"
        assert server.duration_s >= service
        children = [s for s in obs if s.parent_id == server.span_id]
        assert any(s.kind is SpanKind.DEVICE for s in children)

    def test_rejection_emits_error_span(self, library_archiver):
        from repro.errors import ServerBusyError

        archiver, objects = library_archiver
        obs = SpanRecorder()
        gate = threading.Event()
        entered = threading.Event()
        real = archiver.fetch_object

        def slow_fetch(object_id, **kwargs):
            entered.set()
            gate.wait(timeout=10)
            return real(object_id, **kwargs)

        archiver.fetch_object = slow_fetch
        try:
            with ServerFrontend(
                archiver, workers=1, queue_depth=1, obs=obs
            ) as frontend:
                first = frontend.submit("fetch_object", objects[0].object_id)
                assert entered.wait(timeout=10)  # worker is busy
                second = frontend.submit(
                    "fetch_object", objects[1].object_id
                )  # fills the only queue slot
                with pytest.raises(ServerBusyError):
                    frontend.submit("fetch_object", objects[2].object_id)
                gate.set()
                first.result()
                second.result()
        finally:
            archiver.fetch_object = real
        rejected = [s for s in obs if s.status is SpanStatus.ERROR]
        assert len(rejected) == 1
        assert rejected[0].attrs.get("error") == "ServerBusyError"


class TestCachingArchiverSpans:
    def test_flight_leader_and_joiner_link(self, library_archiver):
        import time

        from repro.storage.cache import LRUCache

        archiver, objects = library_archiver
        caching = CachingArchiver(archiver, LRUCache(50_000_000))
        obs = SpanRecorder()
        caching.obs = obs
        record = archiver.record(objects[0].object_id)
        location = record.descriptor.locations[0]
        gate = threading.Event()
        entered = threading.Event()
        real = archiver.read_raw

        def slow_read(extent):
            entered.set()
            gate.wait(timeout=10)
            return real(extent)

        archiver.read_raw = slow_read
        try:
            leader = threading.Thread(
                target=caching.read_absolute,
                args=(location.offset, location.length),
            )
            leader.start()
            assert entered.wait(timeout=10)
            joiner = threading.Thread(
                target=caching.read_absolute,
                args=(location.offset, location.length),
            )
            joiner.start()
            time.sleep(0.2)  # let the joiner reach the flight wait
            gate.set()
            leader.join(timeout=10)
            joiner.join(timeout=10)
        finally:
            archiver.read_raw = real
        leads = [s for s in obs if s.name == "flight:lead"]
        joins = [s for s in obs if s.name == "flight:join"]
        assert len(leads) == 1
        assert leads[0].kind is SpanKind.CACHE
        assert caching.flight_stats.snapshot().piggybacks >= 1
        assert len(joins) == caching.flight_stats.snapshot().piggybacks
        assert all(s.links == (leads[0].span_id,) for s in joins)

    def test_cache_hit_emits_no_flight_span(self, library_archiver):
        from repro.storage.cache import LRUCache

        archiver, objects = library_archiver
        caching = CachingArchiver(archiver, LRUCache(50_000_000))
        obs = SpanRecorder()
        caching.obs = obs
        record = archiver.record(objects[0].object_id)
        location = record.descriptor.locations[0]
        caching.read_absolute(location.offset, location.length)
        before = len(obs)
        caching.read_absolute(location.offset, location.length)  # warm
        flight_like = [
            s for s in obs.spans()[before:] if s.name.startswith("flight:")
        ]
        assert flight_like == []


class TestDeliverySpans:
    def _run(self, archiver, objects, obs, **config):
        pipeline = DeliveryPipeline(
            archiver,
            DeliveryConfig(
                policy=DeliveryPolicy.DEADLINE, prefetch_depth=1, **config
            ),
            obs=obs,
        )
        scripts = build_streaming_workload(
            archiver, objects, stations=2, duration_s=8.0, seed=3
        )
        return pipeline.run(scripts)

    def test_replay_emits_page_stream_and_prefetch_spans(
        self, library_archiver
    ):
        archiver, objects = library_archiver
        obs = SpanRecorder()
        report = self._run(archiver, objects, obs)
        names = {s.name for s in obs}
        assert {"stream", "page_turn", "device_read"} <= names
        streams = [s for s in obs if s.name == "stream"]
        assert len(streams) == 2
        assert all(s.kind is SpanKind.DELIVERY for s in streams)
        assert {s.context.item("station") for s in streams} == {"ws-0", "ws-1"}
        page_turns = [s for s in obs if s.name == "page_turn"]
        assert len(page_turns) == report.page_turns
        underruns = [s for s in obs if s.name == "underrun"]
        assert len(underruns) == report.underruns
        assert all(s.status is SpanStatus.ERROR for s in underruns)
        wasted = [
            s for s in obs
            if s.name == "prefetch" and s.status is SpanStatus.CANCELLED
        ]
        assert len(wasted) >= report.wasted_prefetches

    def test_slo_monitor_streams_from_replay(self, library_archiver):
        archiver, objects = library_archiver
        obs = SpanRecorder()
        monitor = SLOMonitor([
            SLO(
                name="p95-page-turn", span_name="page_turn",
                percentile=95, threshold_s=60.0,
            ),
            SLO(name="zero-underruns", span_name="underrun", max_count=0),
        ]).attach(obs)
        report = self._run(archiver, objects, obs)
        by_name = {res.slo.name: res for res in monitor.evaluate()}
        assert by_name["p95-page-turn"].sample_count == report.page_turns
        assert by_name["zero-underruns"].ok == (report.underruns == 0)

    def test_untraced_replay_is_unchanged(self, library_archiver):
        archiver, objects = library_archiver
        traced_archiver = Archiver()
        traced_objects = build_object_library(
            traced_archiver, visual_count=4, audio_count=2
        )
        obs = SpanRecorder()
        plain = self._run(archiver, objects, None)
        traced = self._run(traced_archiver, traced_objects, obs)
        assert traced.page_turns == plain.page_turns
        assert traced.underruns == plain.underruns
        assert traced.finished_s == pytest.approx(plain.finished_s)


class TestManagerSpans:
    def test_local_open_roots_a_request_span(self):
        store = LocalStore()
        generator = IdGenerator("loc")
        scratch = Archiver()
        objects = build_object_library(
            scratch, visual_count=1, audio_count=0, generator=generator
        )
        obj, _ = scratch.fetch_object(objects[0].object_id)
        store.add(obj)
        obs = SpanRecorder()
        ws = Workstation(name="ws-9")
        manager = PresentationManager(store, ws, obs=obs)
        manager.open(obj.object_id)
        roots = [s for s in obs if s.parent_id is None]
        assert [s.name for s in roots] == ["open"]
        assert roots[0].kind is SpanKind.REQUEST
        assert roots[0].context.item("station") == "ws-9"

    def test_archiver_open_attributes_device_and_network(self):
        archiver = Archiver()
        objects = build_object_library(archiver, visual_count=2, audio_count=0)
        obs = SpanRecorder()
        ws = Workstation()
        manager = PresentationManager(archiver, ws, obs=obs)
        session = manager.open(objects[0].object_id)
        cp = CriticalPath.from_recorder(obs)
        assert cp.end_to_end_s == pytest.approx(session.open_cost_s)
        kinds = {s.kind for s in cp.spans}
        assert SpanKind.DEVICE in kinds and SpanKind.NETWORK in kinds
        assert cp.attributed_fraction == pytest.approx(1.0, abs=0.01)

    def test_warm_open_is_a_cache_marker(self):
        archiver = Archiver()
        objects = build_object_library(archiver, visual_count=1, audio_count=0)
        obs = SpanRecorder()
        manager = PresentationManager(archiver, Workstation(), obs=obs)
        manager.open(objects[0].object_id)
        manager.open(objects[0].object_id)
        warm = [s for s in obs if s.name == "decoded_cache"]
        assert len(warm) == 1
        assert warm[0].attrs["hit"] is True
        opens = [s for s in obs if s.name == "open"]
        assert opens[1].duration_s == 0.0


# ----------------------------------------------------------------------
# acceptance: one traced request across the whole stack
# ----------------------------------------------------------------------


class TestAcceptanceColdOpenOverCluster:
    """ISSUE 9: workstation -> frontend -> cluster -> device -> decode."""

    @staticmethod
    def _cluster():
        scratch = Archiver()
        objects = build_object_library(scratch, visual_count=3, audio_count=1)
        nodes = [ClusterNode(i) for i in range(3)]
        router = ClusterRouter(nodes, replication=2)
        for obj in objects:
            router.store(obj)
        assert all(node.archiver.compression for node in nodes)
        return router, objects

    @classmethod
    def _cluster_open(cls, at_s=0.0, *, batch_open=True):
        router, objects = cls._cluster()
        obs = SpanRecorder()
        ws = Workstation(name="ws-0")
        ws.clock.advance_to(at_s)
        manager = PresentationManager(
            router, ws, obs=obs, batch_open=batch_open
        )
        session = manager.open(objects[0].object_id)
        return obs, session

    @pytest.fixture()
    def traced_open(self):
        return self._cluster_open()

    def test_single_connected_tree_crosses_every_layer(self, traced_open):
        obs, session = traced_open
        spans = obs.spans()
        assert len({s.trace_id for s in spans}) == 1
        by_id = {s.span_id: s for s in spans}
        roots = [s for s in spans if s.parent_id is None]
        assert len(roots) == 1 and roots[0].name == "open"
        for span in spans:
            if span.parent_id is not None:
                assert span.parent_id in by_id  # connected, no orphans
        kinds = {s.kind for s in spans}
        assert SpanKind.REQUEST in kinds  # workstation
        assert SpanKind.SERVER in kinds  # route:read_pieces frontend role
        assert SpanKind.CLUSTER in kinds  # replica attempt
        assert SpanKind.DEVICE in kinds  # winning replica's device time
        assert SpanKind.COMPRESS in kinds  # workstation decode marker
        assert SpanKind.NETWORK in kinds  # the pieces shipped
        stations = {s.context.item("station") for s in spans}
        assert stations == {"ws-0"}

    def test_critical_path_reproduces_latency_within_1pct(self, traced_open):
        obs, session = traced_open
        cp = CriticalPath.from_recorder(obs)
        assert session.open_cost_s > 0.0
        assert cp.end_to_end_s == pytest.approx(session.open_cost_s, rel=0.01)
        assert cp.attributed_fraction >= 0.95
        chain_kinds = [s.kind for s in cp.chain()]
        assert chain_kinds[0] is SpanKind.REQUEST
        assert SpanKind.DEVICE in chain_kinds

    def test_routed_reads_run_on_the_workstation_clock(self):
        obs, session = self._cluster_open(at_s=5.0)
        assert all(span.start_s >= 5.0 for span in obs)
        cp = CriticalPath.from_recorder(obs)
        assert cp.root.start_s == 5.0
        assert cp.end_to_end_s == pytest.approx(session.open_cost_s, rel=0.01)

    def test_sequential_routed_reads_run_back_to_back(self):
        obs, session = self._cluster_open(at_s=5.0, batch_open=False)
        routes = sorted(
            (s for s in obs if s.name == "route:read_pieces"),
            key=lambda s: s.start_s,
        )
        assert len(routes) > 1  # one request per piece
        assert routes[0].start_s == 5.0
        for before, after in zip(routes, routes[1:]):
            assert after.start_s == pytest.approx(before.end_s, abs=1e-12)
        cp = CriticalPath.from_recorder(obs)
        assert cp.end_to_end_s == pytest.approx(session.open_cost_s, rel=0.01)
        (read,) = [s for s in obs if s.name == "archiver_read"]
        assert cp.self_time_s(read) == pytest.approx(0.0, abs=1e-9)

    def test_failed_open_leaves_no_orphan_spans(self, monkeypatch):
        router, objects = self._cluster()

        def fail(*params):
            raise TransientIOError("injected")

        for node_id in range(3):
            monkeypatch.setattr(
                router.node(node_id).archiver, "read_pieces", fail
            )
        obs = SpanRecorder()
        manager = PresentationManager(
            router, Workstation(name="ws-0"), obs=obs
        )
        with pytest.raises(TransientIOError):
            manager.open(objects[0].object_id)
        spans = obs.spans()
        ids = {s.span_id for s in spans}
        assert all(
            s.parent_id in ids for s in spans if s.parent_id is not None
        )
        failed = {s.name for s in spans if s.status is SpanStatus.ERROR}
        assert {"open", "ship", "archiver_read", "route:read_pieces"} <= failed

    def test_exported_tree_round_trips(self, traced_open, tmp_path):
        obs, _ = traced_open
        path = tmp_path / "open.json"
        write_chrome_trace(path, obs.spans())
        restored = from_chrome_trace(json.loads(path.read_text()))
        assert restored == _sorted(obs.spans())
        assert "route:read_pieces" in render_text(restored)


class TestFailoverSpans:
    def test_down_primary_attempt_is_retried_then_next_replica_serves(self):
        scratch = Archiver()
        objects = build_object_library(scratch, visual_count=2, audio_count=0)
        router = ClusterRouter([ClusterNode(i) for i in range(3)], replication=2)
        for obj in objects:
            router.store(obj)
        obs = SpanRecorder()
        router.obs = obs
        object_id = objects[0].object_id
        primary, secondary = router.replica_set(object_id)
        router.node(primary).mark_down()
        # A fresh router's first read tries the replica set in ring
        # order, so the down primary is attempted first.
        router.fetch_object(object_id)
        (route,) = [s for s in obs if s.name == "route:fetch_object"]
        attempts = sorted(
            (s for s in obs if s.parent_id == route.span_id),
            key=lambda s: s.span_id,
        )
        assert [(s.name, s.attrs["node"], s.status) for s in attempts] == [
            ("cluster:read", primary, SpanStatus.RETRIED),
            ("cluster:read", secondary, SpanStatus.OK),
        ]
        assert route.status is SpanStatus.OK
        assert route.attrs["served_by"] == secondary


class TestRebalanceSpans:
    def test_migration_steps_emit_migrate_spans(self):
        scratch = Archiver()
        objects = build_object_library(scratch, visual_count=3, audio_count=1)
        nodes = [ClusterNode(i) for i in range(2)]
        router = ClusterRouter(nodes, replication=2)
        for obj in objects:
            router.store(obj)
        obs = SpanRecorder()
        router.obs = obs
        rebalancer = Rebalancer(router)
        queued = rebalancer.join(ClusterNode(2))
        report = rebalancer.run(now_s=5.0)
        migrations = [s for s in obs if s.kind is SpanKind.MIGRATE]
        assert queued > 0
        assert len(migrations) == report.moved
        assert all(s.attrs["target"] == 2 for s in migrations)
