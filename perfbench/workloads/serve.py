"""serve: open-loop object requests against a 3-node replicated cluster.

The main thread submits ``fetch_object`` requests to a
``ServerFrontend(workers=2)`` at Poisson arrival times, objects picked
by zipf popularity; one collector thread waits on the futures in
submission order.  The frontend serves a 3-node, R=2
``ClusterRouter`` whose nodes are ``CachingArchiver`` s with an LRU
large enough for the whole library, so after warm-up the hot set is
cached.  A ``SpanRecorder`` is attached, as an operator would run it,
and cleared between rate steps.

Three fixed rates (``--serve-rates``, written into BENCHMARK.json) run
for 15%, 70% and 15% of ``--seconds``.  Every request is
timed from when it was *due*, so a stalled generator or queue charges
the wait to every later request.  A ``ServerBusyError`` counts as
failed and as missing the latency limit (``--p99-limit-ms``).

A step is cut into ``SEGMENTS`` stretches.  Before each, the generator
waits until no request is in flight, digests the payloads collected so
far, probes the host's speed in a timed step (see
perfbench/hostspeed.py) and shifts the rest of the schedule by the
pause, so no request waits on a digest or a probe.
"""

from __future__ import annotations

import gc
import queue
import statistics
import threading
import time

import numpy as np

from repro.cluster import ClusterNode, ClusterRouter
from repro.errors import ServerBusyError
from repro.faults import FaultPlan
from repro.obs import SpanRecorder
from repro.scenarios import build_object_library
from repro.server import Archiver
from repro.server.archiver import CachingArchiver
from repro.server.frontend import ServerFrontend
from repro.server.metrics import percentile
from repro.storage.cache import LRUCache

from perfbench.harness import WINDOWS, Samples, Stack, role_metrics
from perfbench.hostspeed import probe, slowness
from perfbench.workloads.common import LIBRARY_SEED, object_digest, zipf_weights

clock = time.perf_counter

VISUAL_COUNT = 24
AUDIO_COUNT = 8
NODES = 3
REPLICATION = 2
WORKERS = 2
#: Per-node staging cache; the whole library's stored bytes fit.
CACHE_BYTES = 16 << 20
ZIPF_EXPONENT = 1.0
WARM_UP_REQUESTS = 300
#: Share of ``--seconds`` each of the three rate steps runs for.  The
#: middle step is long enough that the p99 over the fast half of its
#: windows has at least ten samples beyond it at 15 s.
STEP_SHARES = (0.15, 0.7, 0.15)
#: Serve's statistics pool the fastest ``1 / FAST_SHARE`` of a step's
#: windows: half, not the quarter the closed loops pool, so its p99
#: keeps enough samples beyond it.
FAST_SHARE = 2
#: Stretches a step is cut into, with a pause before each.
SEGMENTS = 8
#: The collector's wait for one result.
RESULT_TIMEOUT_S = 60.0


class _Step:
    """Outcome of one open-loop rate step."""

    def __init__(self, n: int) -> None:
        #: Due-to-done seconds per request; ``None`` if it failed.
        self.latency: list[float | None] = [None] * n
        self.completed = 0
        #: Requests the collector is done with, completed or failed.
        self.settled = 0
        self.lag = [0.0] * n
        #: ``(requested id, payload id, payload digest)`` per completion.
        self.payloads: list[tuple] = []
        #: ``(requested id, payload)`` not yet reduced to a digest.
        self.unchecked: list[tuple] = []
        self.failed = 0
        self.first_due = self.last_due = self.last_done = 0.0
        #: Seconds the schedule was paused after it began.
        self.paused_s = 0.0
        #: The object each request asked for.
        self.picks: list = []
        #: Host probes, as :attr:`Samples.probes`.
        self.probes: list[tuple] = []

    def reduce(self) -> None:
        """Digest the payloads collected so far, while none is in flight."""
        unchecked, self.unchecked = self.unchecked, []
        for object_id, payload in unchecked:
            self.payloads.append(
                (object_id, payload.object_id, object_digest(payload))
            )

    def samples(self, window_rank=statistics.median) -> Samples:
        """Completed requests, in windows of equal offered load."""
        samples = Samples(
            failed=self.failed, probes=self.probes, fast_share=FAST_SHARE,
            window_rank=window_rank,
        )
        n = len(self.latency)
        for index, (seconds, object_id) in enumerate(zip(self.latency, self.picks)):
            if seconds is not None:
                samples.window = index * WINDOWS // n
                samples.add("serve", seconds, kind=object_id)
        return samples

    def p99(self) -> float:
        """p99 over the fast half of the windows, which a step must keep
        within the limit to pass (see :class:`Samples`).  A stall of the
        shared host that the probes around it missed holds up the few
        requests queued behind it, so the windows rank by their slowest
        request here: a window's median does not see such a stall, but
        the p99 does.  Ranked so, the p99 spread over ten seeds fell
        from 0.26 to 0.11 of the median, while the p50's rose from 0.05
        to 0.20; the p50 keeps the median ranking."""
        return self.samples(window_rank=max).ms("serve", 99) / 1e3

    @property
    def drain_s(self) -> float:
        """How long after the last arrival the last request finished,
        scaled by the host slowness of the closing probe."""
        drain = max(self.last_done - self.last_due, 0.0)
        return drain / slowness(self.probes[-1][1]) if self.probes else drain

    @property
    def ops_per_s(self) -> float:
        span = self.last_done - self.first_due - self.paused_s
        return self.completed / span if span > 0 else 0.0


class Serve:
    name = "serve"

    def __init__(self, seed: int, options) -> None:
        self.seed = seed
        self.rates = list(options.serve_rates)
        self.limit_s = options.p99_limit_ms / 1e3
        library = build_object_library(
            Archiver(), visual_count=VISUAL_COUNT, audio_count=AUDIO_COUNT,
            seed=LIBRARY_SEED,
        )
        self.sources = {obj.object_id: object_digest(obj) for obj in library}
        self.ids = [obj.object_id for obj in library]
        self.weights = zipf_weights(len(self.ids), ZIPF_EXPONENT)
        # An explicit empty FaultPlan: ClusterNode reads
        # ``archiver.fault_plan`` when none is given, which a
        # CachingArchiver does not have (see README.md, known issues).
        self.nodes = [
            ClusterNode(
                index,
                archiver=CachingArchiver(Archiver(), LRUCache(CACHE_BYTES)),
                fault_plan=FaultPlan(),
            )
            for index in range(NODES)
        ]
        self.router = ClusterRouter(self.nodes, replication=REPLICATION)
        for obj in library:
            self.router.store(obj)
        self.obs = SpanRecorder()
        self.frontend = ServerFrontend(self.router, workers=WORKERS, obs=self.obs)
        rng = np.random.default_rng([seed, 5])
        self.steps = [
            self._schedule(rate, share * options.seconds, rng)
            for rate, share in zip(self.rates, STEP_SHARES)
        ]
        # Warm-up touches every object once, in a seeded order, from a
        # cold cache; then zipf picks.
        self.warm_up_picks = [
            self.ids[i] for i in rng.permutation(len(self.ids))
        ] + self._picks(WARM_UP_REQUESTS, rng)
        self.stack = Stack(
            platters=[node.archiver.disk for node in self.nodes],
            journals=[node.archiver.journal.device for node in self.nodes],
            caches=[node.archiver.cache for node in self.nodes],
            caching_archivers=[node.archiver for node in self.nodes],
            nodes=self.nodes,
            routers=[self.router],
            frontends=[self.frontend],
        )
        self.warm_up_service: list[float] = []
        self.results: list[_Step] = []
        self._blocks = 0

    def _picks(self, n: int, rng) -> list:
        return [self.ids[i] for i in rng.choice(len(self.ids), size=n, p=self.weights)]

    def _schedule(self, rate: float, duration_s: float, rng):
        """Poisson arrival offsets over ``duration_s`` and the objects asked.

        Exactly ``rate * duration_s`` arrivals, placed as a Poisson
        process conditioned on that count (exponential gaps normalized
        to the step), so every seed offers the same load.
        """
        count = max(int(round(rate * duration_s)), 1)
        gaps = np.cumsum(rng.exponential(size=count + 1))
        offsets = (gaps[:count] / gaps[count] * duration_s).tolist()
        return offsets, self._picks(count, rng)

    # ------------------------------------------------------------------
    # one open-loop step
    # ------------------------------------------------------------------

    def run_step(self, offsets, picks, probing: bool = False) -> _Step:
        """One open-loop step; a probing step probes between segments."""
        n = len(offsets)
        step = _Step(n)
        step.picks = list(picks)
        pending: queue.Queue = queue.Queue()

        def collect() -> None:
            while True:
                item = pending.get()
                if item is None:
                    return
                index, due, object_id, future = item
                try:
                    payload, _service = future.result(timeout=RESULT_TIMEOUT_S)
                except Exception:  # a failed request never meets the limit
                    step.failed += 1
                else:
                    done = clock()
                    step.latency[index] = done - due
                    step.completed += 1
                    step.last_done = done
                    # Digested later, so the collector holds no lock a
                    # worker needs while requests are in flight.
                    step.unchecked.append((object_id, payload))
                finally:
                    step.settled += 1

        collector = threading.Thread(target=collect, name="serve-collector")
        collector.start()
        submitted = 0
        segment = -1
        origin = clock() + 0.002
        try:
            for index, (offset, object_id) in enumerate(zip(offsets, picks)):
                if index * SEGMENTS // n != segment:
                    segment = index * SEGMENTS // n
                    paused = clock()
                    while step.settled < submitted:
                        time.sleep(0.0005)
                    step.reduce()
                    if probing:
                        step.probes.append((index * WINDOWS // n, probe()))
                    pause = clock() - paused
                    origin += pause
                    if index:
                        step.paused_s += pause
                due = origin + offset
                if index == 0:
                    step.first_due = due
                step.last_due = due
                wait = due - clock()
                if wait > 0:
                    time.sleep(wait)
                step.lag[index] = clock() - due
                try:
                    future = self.frontend.submit("fetch_object", object_id)
                except ServerBusyError:
                    step.failed += 1
                    continue
                submitted += 1
                pending.put((index, due, object_id, future))
        finally:
            pending.put(None)
            collector.join()
        step.reduce()
        if probing:
            step.probes.append((None, probe()))
        return step

    # ------------------------------------------------------------------
    # harness interface
    # ------------------------------------------------------------------

    def warm_up(self) -> None:
        """Sequential requests, then one open-loop step.

        The modeled cost is taken over the first, cold pass: one
        request per object, each paying its device reads.
        """
        self.frontend.start()
        for object_id in self.warm_up_picks:
            _payload, service = self.frontend.submit(
                "fetch_object", object_id
            ).result(timeout=RESULT_TIMEOUT_S)
            self.warm_up_service.append(service)
        del self.warm_up_service[len(self.ids):]
        offsets, picks = self.steps[1]
        count = min(len(offsets), 400)
        self.run_step(offsets[:count], picks[:count])
        self.obs.clear()

    def timed(self, seconds: float) -> Samples:
        ops = failed = 0
        for offsets, picks in self.steps:
            gc.collect()
            step = self.run_step(offsets, picks, probing=True)
            self.obs.clear()
            self.results.append(step)
            ops += step.completed
            failed += step.failed
        # Latencies of the middle step; counts over all three.
        samples = self.results[1].samples()
        samples.ops, samples.failed = ops, failed
        return samples

    def passes(self, step: _Step) -> bool:
        """Nothing failed or refused, p99 within the limit, and no
        backlog left growing at the end."""
        return (
            step.failed == 0
            and step.p99() <= self.limit_s
            and step.drain_s <= self.limit_s
        )

    def end_to_end(self, samples: Samples) -> dict[str, float]:
        middle = self.results[1]
        passing = [
            rate for rate, step in zip(self.rates, self.results) if self.passes(step)
        ]
        metrics = role_metrics(samples, "serve", "serve")
        for name in ("open", "browse", "store", "search", "serve"):
            metrics[f"{name}_p99_ms"] = middle.p99() * 1e3
        metrics.update(
            ops_per_s=middle.ops_per_s,
            serve_max_rate_per_s=max(passing, default=0.0),
            modeled_p95_s=percentile(self.warm_up_service, 95),
        )
        return metrics

    def summary(self, samples: Samples) -> dict:
        rows = {}
        for rate, step in zip(self.rates, self.results):
            every = [s for s in step.latency if s is not None]
            rows[f"{rate:g}/s"] = (
                f"n={len(step.latency)} fast-half "
                f"p50={step.samples().ms('serve', 50):.3f}ms "
                f"p99={step.p99() * 1e3:.3f}ms "
                f"(all windows, unscaled {percentile(every, 50) * 1e3:.3f}/"
                f"{percentile(every, 99) * 1e3:.3f}ms) "
                f"drain={step.drain_s * 1e3:.2f}ms "
                f"lag_p99={percentile(step.lag, 99) * 1e3:.3f}ms "
                f"failed={step.failed} pass={self.passes(step)}"
            )
        rows["p99 limit"] = f"{self.limit_s * 1e3:g}ms"
        return {"rate steps": rows}

    def trace_units(self, seconds: float) -> int:
        return int(seconds * self.rates[1])

    def block(self, requests: int):
        """One open-loop step at the middle rate, ``requests`` long."""
        self._blocks += 1
        rng = np.random.default_rng([self.seed, 6, self._blocks])
        offsets, picks = self._schedule(
            self.rates[1], requests / self.rates[1], rng
        )
        step = self.run_step(offsets, picks)
        spans = len(self.obs)
        self.obs.clear()
        self.results.append(step)
        return step.samples(), {
            "lag": step.lag, "requests": [len(offsets)], "obs_spans": [spans],
        }

    def block_metrics(self, extra: dict) -> dict[str, float]:
        requests = sum(extra.get("requests", ()))
        return {
            "bench.lag_p99_ms": percentile(extra.get("lag", ()), 99) * 1e3,
            "obs.spans_per_request": (
                sum(extra.get("obs_spans", ())) / requests if requests else 0.0
            ),
        }

    def check(self) -> tuple[int, int]:
        """Every payload carries the requested id and the source digest."""
        checked = failed = 0
        for step in self.results:
            for requested, got, digest in step.payloads:
                checked += 1
                failed += got != requested or digest != self.sources[requested]
        return checked, failed

    def close(self) -> None:
        self.frontend.stop()
