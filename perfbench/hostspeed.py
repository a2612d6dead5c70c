"""Reading the host's current speed with a fixed reference workload.

The benchmark runs on a shared machine whose speed drifts: for seconds
to minutes at a time the same Python runs up to 1.5-1.8x slower, with
no steal time to show for it.  Stretches that long outlast a whole
run, so no statistic taken inside one run removes them.

:func:`probe` times a fixed piece of work that never touches the
program: interpreter-bound dict, string and list work, small numpy
array arithmetic, zlib and blake2b, the same kinds of work the program
does.  It stays inside the CPU caches: a copy larger than them made
the probe read the memory traffic of whatever ran just before it,
which moved from run to run without moving the program's times.  A
run probes the host between
its windows of timed work, and each host-clock time is divided by the
*slowness* of its window: the probe time around it over
:data:`NOMINAL_S`.  A change that slows the program slows its ops but
not the probe, so it still shows; a host that slows everything is
divided out.
"""

from __future__ import annotations

import hashlib
import time
import zlib

import numpy as np

clock = time.perf_counter

#: Seconds :func:`reference_work` takes on the reference host, the
#: 2-core machine the benchmark was built on, at its full speed.
NOMINAL_S = 0.33e-3
#: Timings per probe.  The probe reads their minimum, so a preemption
#: during one of them does not read as a slow host.
PROBE_REPEATS = 8

_BLOB = bytes(range(256)) * 32
_ARRAY = (np.arange(96 * 96) % 251).astype(np.uint8).reshape(96, 96)


def reference_work() -> int:
    """A fixed mix of interpreter, numpy, zlib, hashing and memory work."""
    table: dict[str, int] = {}
    acc = 0
    for i in range(600):
        key = f"k{i % 53}"
        table[key] = table.get(key, 0) + i
        acc ^= len(key) * i
    words = sorted(" ".join(str(i * 7919 % 1000) for i in range(300)).split())
    acc += len(words) + sum(table.values())
    arr = _ARRAY
    for _ in range(6):
        arr = np.roll(arr, 1, axis=0) ^ (arr >> 1)
    acc += int(arr.sum())
    packed = zlib.compress(_BLOB, 6)
    acc += len(zlib.decompress(packed)) + zlib.crc32(packed)
    acc += hashlib.blake2b(_BLOB, digest_size=16).digest()[0]
    return acc


_EXPECTED = reference_work()


def probe() -> float:
    """Seconds the reference work takes now: the fastest of a few tries."""
    best = float("inf")
    for _ in range(PROBE_REPEATS):
        start = clock()
        result = reference_work()
        best = min(best, clock() - start)
        if result != _EXPECTED:
            raise AssertionError("the reference work gave another result")
    return best


def slowness(probe_s: float) -> float:
    """How many times slower than the reference host a probe ran."""
    return probe_s / NOMINAL_S
