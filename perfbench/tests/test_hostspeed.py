"""Host-speed probes and the scaling of timed-phase latencies."""

from __future__ import annotations

import pytest

from perfbench import harness
from perfbench.hostspeed import NOMINAL_S, probe


def samples_with(probes, records):
    samples = harness.Samples(probes=probes)
    for window, seconds in records:
        samples.window = window
        samples.add("op", seconds)
    return samples


def test_latencies_are_divided_by_the_probes_around_their_window():
    samples = samples_with(
        [(0, 2 * NOMINAL_S), (1, 4 * NOMINAL_S), (None, 4 * NOMINAL_S)],
        [(0, 0.003), (1, 0.008)],
    )
    assert samples.window_slowness() == pytest.approx({0: 3.0, 1: 4.0})
    assert [record[2] for record in samples.scaled()] == pytest.approx(
        [0.001, 0.002]
    )


def test_a_window_without_a_probe_takes_the_last_probed_slowness():
    samples = samples_with(
        [(0, 2 * NOMINAL_S), (None, 2 * NOMINAL_S)], [(0, 0.002), (5, 0.004)]
    )
    assert samples.window_slowness() == pytest.approx({0: 2.0, 5: 2.0})


def test_samples_without_probes_are_not_scaled():
    samples = samples_with([], [(0, 0.002)])
    assert [record[2] for record in samples.scaled()] == [0.002]


def test_probe_reads_a_positive_time():
    assert probe() > 0
