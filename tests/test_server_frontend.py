"""The concurrent server frontend: worker pool, admission control, metrics."""

import pytest

from repro.errors import ArchiverError, ServerBusyError
from repro.scenarios import build_object_library
from repro.server import (
    Archiver,
    CachingArchiver,
    ServerFrontend,
    ServerMetrics,
)
from repro.storage.cache import LRUCache


@pytest.fixture(scope="module")
def library():
    archiver = Archiver()
    build_object_library(archiver, visual_count=3, audio_count=1)
    return archiver


@pytest.fixture
def frontend(library):
    caching = CachingArchiver(library, LRUCache(50_000_000))
    with ServerFrontend(caching, workers=3, queue_depth=16) as fe:
        yield fe


class TestServerFrontend:
    def test_fetch_matches_direct_archiver(self, library, frontend):
        object_id = library.object_ids()[0]
        direct = library.fetch(object_id)
        served = frontend.fetch(object_id)
        assert served.descriptor.object_id == direct.descriptor.object_id
        assert served.composition == direct.composition

    def test_piece_range_reads_through_pool(self, library, frontend):
        object_id = library.object_ids()[0]
        record = library.record(object_id)
        tag = record.descriptor.locations[0].tag
        direct, _ = library.read_piece_range(object_id, tag, 0, 16)
        served, service = frontend.read_piece_range(object_id, tag, 0, 16)
        assert served == direct
        assert service >= 0.0

    def test_submit_requires_started_frontend(self, library):
        fe = ServerFrontend(library)
        with pytest.raises(ArchiverError):
            fe.submit("fetch", library.object_ids()[0])

    def test_unknown_operation_rejected(self, frontend, library):
        with pytest.raises(ArchiverError):
            frontend.submit("drop_table", library.object_ids()[0])

    def test_worker_errors_flow_to_caller(self, frontend):
        from repro.ids import ObjectId

        future = frontend.submit("fetch", ObjectId("no-such-object"))
        with pytest.raises(ArchiverError):
            future.result()

    def test_stop_is_idempotent(self, library):
        fe = ServerFrontend(library).start()
        fe.stop()
        fe.stop()
        assert fe.start() is fe
        fe.stop()

    def test_invalid_pool_parameters(self, library):
        with pytest.raises(ArchiverError):
            ServerFrontend(library, workers=0)
        with pytest.raises(ArchiverError):
            ServerFrontend(library, queue_depth=0)


class TestAdmissionControl:
    def test_overflow_raises_typed_busy_error(self, library):
        # No workers running: the queue fills and overflows.
        fe = ServerFrontend(library, workers=1, queue_depth=2)
        fe._started = True  # admit without draining
        object_id = library.object_ids()[0]
        fe.submit("fetch", object_id)
        fe.submit("fetch", object_id)
        with pytest.raises(ServerBusyError):
            fe.submit("fetch", object_id)
        snap = fe.metrics.snapshot()
        assert snap.admitted == 2
        assert snap.rejected == 1

    def test_busy_error_is_archiver_error(self):
        assert issubclass(ServerBusyError, ArchiverError)


class TestScatteredOp:
    """``read_scattered``: one admission slot serves a whole batch."""

    def _piece_ranges(self, library):
        record = library.record(library.object_ids()[0])
        return [
            (loc.offset, loc.length) for loc in record.descriptor.locations
        ]

    def test_batch_matches_piecewise_reads(self, library, frontend):
        ranges = self._piece_ranges(library)
        batch, service = frontend.read_scattered(ranges)
        piecewise = [library.read_absolute(o, n)[0] for o, n in ranges]
        assert batch == piecewise
        assert service >= 0.0

    def test_batch_occupies_one_admission_slot(self, library):
        # A queue of depth 1 admits a many-range batch whole; the same
        # ranges submitted piecewise would need one slot each.
        caching = CachingArchiver(library, LRUCache(50_000_000))
        fe = ServerFrontend(caching, workers=1, queue_depth=1)
        fe._started = True  # admit without draining
        ranges = self._piece_ranges(library)
        assert len(ranges) > 1
        fe.submit("read_scattered", ranges)
        snap = fe.metrics.snapshot()
        assert snap.admitted == 1 and snap.rejected == 0

    def test_rejected_batch_leaves_cache_and_head_unchanged(self, library):
        # Admission rejection happens before the archiver is touched:
        # no plan, no seek, no cache population.
        caching = CachingArchiver(library, LRUCache(50_000_000))
        fe = ServerFrontend(caching, workers=1, queue_depth=1)
        fe._started = True  # fill the queue without draining it
        fe.submit("fetch", library.object_ids()[0])
        head_before = library.disk.head_position
        keys_before = caching.cache.keys()
        stats_before = caching.cache.stats.snapshot()
        with pytest.raises(ServerBusyError):
            fe.submit("read_scattered", self._piece_ranges(library))
        assert library.disk.head_position == head_before
        assert caching.cache.keys() == keys_before
        after = caching.cache.stats.snapshot()
        assert (after.hits, after.misses) == (
            stats_before.hits, stats_before.misses
        )

    def test_fetch_with_retry_covers_read_scattered(self, library, frontend):
        from repro.delivery.pipeline import fetch_with_retry

        ranges = self._piece_ranges(library)
        payload, service = fetch_with_retry(
            frontend, "read_scattered", ranges, station="ws-3"
        )
        assert payload == [library.read_absolute(o, n)[0] for o, n in ranges]

    def test_retry_after_rejection_succeeds(self, library):
        # First attempt hits a full queue; draining the pool lets the
        # retry of the *same* batch succeed with identical payloads.
        from repro.delivery.pipeline import fetch_with_retry

        caching = CachingArchiver(library, LRUCache(50_000_000))
        ranges = self._piece_ranges(library)
        fe = ServerFrontend(caching, workers=1, queue_depth=1)
        fe._started = True
        blocker = fe.submit("fetch", library.object_ids()[0])
        with pytest.raises(ServerBusyError):
            fe.submit("read_scattered", ranges)
        fe._started = False
        with fe:
            blocker.result()
            payload, _ = fetch_with_retry(fe, "read_scattered", ranges)
        assert payload == [library.read_absolute(o, n)[0] for o, n in ranges]


class TestMetricsWiring:
    def test_completions_recorded_in_trace(self, library):
        metrics = ServerMetrics()
        caching = CachingArchiver(library, LRUCache(50_000_000))
        with ServerFrontend(caching, workers=2, metrics=metrics) as fe:
            for object_id in library.object_ids():
                fe.fetch(object_id, station="ws-7")
        snap = metrics.snapshot()
        assert snap.admitted == snap.completed == len(library.object_ids())
        assert snap.latency.count == snap.completed

    def test_snapshot_counts_hits_and_misses(self, library):
        caching = CachingArchiver(library, LRUCache(50_000_000))
        with ServerFrontend(caching, workers=2) as fe:
            object_id = library.object_ids()[0]
            fe.fetch(object_id)  # cold: device read
            fe.fetch(object_id)  # warm: cache hit, zero service
            snap = fe.metrics.snapshot()
        assert snap.completed == 2
        assert snap.cache_hits == 1
        assert snap.cache_misses == 1
        assert snap.hit_rate == pytest.approx(0.5)
        assert snap.latency.count == 2

    def test_sim_time_accumulates_service(self, library):
        caching = CachingArchiver(library, LRUCache(50_000_000))
        with ServerFrontend(caching, workers=1) as fe:
            object_id = library.object_ids()[0]
            fe.fetch(object_id)
            after_cold = fe.sim_time_s
            fe.fetch(object_id)
            after_warm = fe.sim_time_s
        assert after_cold > 0.0
        assert after_warm == after_cold  # cache hit adds no device time


class TestHistogram:
    def test_percentiles_bracket_observations(self):
        from repro.server.metrics import Histogram

        histogram = Histogram(min_value=1e-3, max_value=10.0)
        for value in (0.01, 0.02, 0.05, 0.1, 1.0):
            histogram.record(value)
        snap = histogram.snapshot()
        assert snap.count == 5
        assert snap.percentile(0) <= 0.02
        assert snap.percentile(100) == pytest.approx(1.0)
        assert 0.05 <= snap.percentile(50) <= 0.1
        assert snap.mean == pytest.approx(sum((0.01, 0.02, 0.05, 0.1, 1.0)) / 5)

    def test_empty_and_invalid(self):
        from repro.server.metrics import Histogram

        histogram = Histogram()
        assert histogram.percentile(95) == 0.0
        with pytest.raises(ValueError):
            histogram.record(-1.0)
        with pytest.raises(ValueError):
            histogram.snapshot().percentile(101)
        with pytest.raises(ValueError):
            Histogram(min_value=0)


class _ScriptedFrontend:
    """Stand-in frontend whose submissions fail a scripted prefix.

    ``fetch_with_retry`` only needs ``submit(...).result(timeout)``;
    scripting the failures exercises the retry loop without racing a
    real worker pool.
    """

    def __init__(self, failures=(), payload=("payload", 0.25)):
        self.failures = list(failures)
        self.payload = payload
        self.submissions = 0

    def submit(self, op, *params, station="ws-0"):
        self.submissions += 1
        outer = self

        class _Future:
            def result(self, timeout=None):
                if outer.failures:
                    raise outer.failures.pop(0)
                return outer.payload

        return _Future()


class TestRetryBackoff:
    def test_backoff_schedule_is_monotone(self):
        from repro.delivery.pipeline import fetch_with_retry
        from repro.errors import TransientIOError

        fe = _ScriptedFrontend([TransientIOError("flaky")] * 3)
        sleeps = []
        payload, service = fetch_with_retry(
            fe, "fetch", "obj", attempts=4,
            backoff_s=0.5, backoff_factor=2.0, sleep=sleeps.append,
        )
        assert (payload, service) == ("payload", 0.25)
        assert fe.submissions == 4
        assert sleeps == [0.5, 1.0, 2.0]
        assert sleeps == sorted(sleeps)  # never decreasing

    def test_attempts_are_bounded(self):
        from repro.delivery.pipeline import fetch_with_retry

        fe = _ScriptedFrontend([ServerBusyError("full")] * 10)
        sleeps = []
        with pytest.raises(ServerBusyError):
            fetch_with_retry(
                fe, "fetch", "obj", attempts=3,
                backoff_s=0.1, sleep=sleeps.append,
            )
        # Exactly `attempts` submissions, with a wait between each pair.
        assert fe.submissions == 3
        assert len(sleeps) == 2

    def test_zero_backoff_never_sleeps(self):
        from repro.delivery.pipeline import fetch_with_retry
        from repro.errors import TransientIOError

        fe = _ScriptedFrontend([TransientIOError("flaky")])
        sleeps = []
        observed = []
        fetch_with_retry(
            fe, "fetch", "obj", attempts=2, backoff_s=0.0,
            sleep=sleeps.append,
            on_retry=lambda i, d, e: observed.append((i, d)),
        )
        assert sleeps == []  # immediate retry: no sleep call at all
        assert observed == [(0, 0.0)]

    def test_on_retry_observes_every_retryable_kind(self):
        from repro.delivery.pipeline import RETRYABLE_ERRORS, fetch_with_retry
        from repro.errors import RequestTimeoutError, TransientIOError

        failures = [
            ServerBusyError("full"),
            RequestTimeoutError("expired"),
            TransientIOError("flaky"),
        ]
        fe = _ScriptedFrontend(list(failures))
        observed = []
        fetch_with_retry(
            fe, "fetch", "obj", attempts=4, backoff_s=1.0,
            backoff_factor=3.0, sleep=lambda _d: None,
            on_retry=lambda i, d, e: observed.append((i, d, type(e))),
        )
        assert [kind for _, _, kind in observed] == [
            type(f) for f in failures
        ]
        assert all(isinstance(f, RETRYABLE_ERRORS) for f in failures)
        assert [d for _, d, _ in observed] == [1.0, 3.0, 9.0]

    def test_request_timeout_retried_then_reraised(self):
        from repro.delivery.pipeline import fetch_with_retry
        from repro.errors import RequestTimeoutError

        fe = _ScriptedFrontend([RequestTimeoutError("expired")] * 2)
        with pytest.raises(RequestTimeoutError):
            fetch_with_retry(fe, "fetch", "obj", attempts=2)
        assert fe.submissions == 2

    def test_non_retryable_errors_propagate_immediately(self):
        from repro.delivery.pipeline import fetch_with_retry

        fe = _ScriptedFrontend([ArchiverError("no such object")])
        sleeps = []
        with pytest.raises(ArchiverError):
            fetch_with_retry(
                fe, "fetch", "obj", attempts=5, backoff_s=0.1,
                sleep=sleeps.append,
            )
        assert fe.submissions == 1
        assert sleeps == []

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"attempts": 0},
            {"attempts": -1},
            {"backoff_s": -0.1},
            {"backoff_factor": 0.5},
        ],
        ids=["zero-attempts", "negative-attempts", "negative-backoff",
             "shrinking-factor"],
    )
    def test_invalid_retry_parameters_rejected(self, kwargs):
        from repro.delivery.pipeline import fetch_with_retry
        from repro.errors import DeliveryError

        fe = _ScriptedFrontend()
        with pytest.raises(DeliveryError):
            fetch_with_retry(fe, "fetch", "obj", **kwargs)
        assert fe.submissions == 0  # validated before any submission

    def test_transient_device_fault_retried_through_frontend(self):
        # End to end: a FaultPlan injects one transient read fault at
        # the device; the first frontend attempt fails (and is counted
        # in error_kinds), the retry succeeds against the healed device.
        from repro.delivery.pipeline import fetch_with_retry
        from repro.faults import FaultKind, FaultPlan, FaultSpec, FaultyDevice
        from repro.faults.registry import DEVICE_READ
        from repro.storage.optical import OpticalDisk
        from tests.fault_workload import make_text_object
        from repro.ids import IdGenerator

        plan = FaultPlan(
            [FaultSpec(site=DEVICE_READ, kind=FaultKind.TRANSIENT)]
        )
        archiver = Archiver(disk=FaultyDevice(OpticalDisk(), plan))
        obj = make_text_object(IdGenerator("retry"), [["alpha"]])
        archiver.store(obj)
        with ServerFrontend(archiver, workers=1) as fe:
            payload, _ = fetch_with_retry(
                fe, "fetch_object", obj.object_id, attempts=2
            )
            snap = fe.metrics.snapshot()
        assert payload.object_id == obj.object_id
        assert plan.fired(DEVICE_READ) == 1
        assert snap.error_kinds.get("TransientIOError") == 1
        assert snap.errors == 1


class TestRetryJitter:
    """Seeded jitter decorrelates stations failing over from one node."""

    def _delays(self, station, **kwargs):
        from repro.delivery.pipeline import fetch_with_retry
        from repro.errors import TransientIOError

        fe = _ScriptedFrontend([TransientIOError("flaky")] * 3)
        sleeps = []
        fetch_with_retry(
            fe, "fetch", "obj", station=station, attempts=4,
            backoff_s=0.5, backoff_factor=2.0, sleep=sleeps.append,
            **kwargs,
        )
        return sleeps

    def test_jitter_is_deterministic_per_station(self):
        first = self._delays("ws-3", jitter_fraction=0.5)
        second = self._delays("ws-3", jitter_fraction=0.5)
        assert first == second

    def test_stations_decorrelate(self):
        # The whole point: two stations that lost the same replica must
        # not retry in lockstep.
        a = self._delays("ws-0", jitter_fraction=0.5)
        b = self._delays("ws-1", jitter_fraction=0.5)
        assert a != b

    def test_jitter_bounded_and_monotone_in_expectation(self):
        base = [0.5, 1.0, 2.0]
        jittered = self._delays("ws-5", jitter_fraction=0.25)
        for expected, actual in zip(base, jittered):
            assert expected <= actual <= expected * 1.25

    def test_zero_jitter_keeps_exact_schedule(self):
        assert self._delays("ws-9") == [0.5, 1.0, 2.0]
        assert self._delays("ws-9", jitter_fraction=0.0) == [0.5, 1.0, 2.0]

    def test_explicit_rng_overrides_station_seed(self):
        import random

        a = self._delays("ws-0", jitter_fraction=0.5,
                         rng=random.Random(1234))
        b = self._delays("ws-1", jitter_fraction=0.5,
                         rng=random.Random(1234))
        assert a == b  # same rng, station no longer matters

    @pytest.mark.parametrize("bad", [-0.1, 1.5])
    def test_invalid_jitter_fraction_rejected(self, bad):
        from repro.delivery.pipeline import fetch_with_retry
        from repro.errors import DeliveryError

        fe = _ScriptedFrontend()
        with pytest.raises(DeliveryError):
            fetch_with_retry(fe, "fetch", "obj", jitter_fraction=bad)
        assert fe.submissions == 0
