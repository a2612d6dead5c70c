"""Simulated disks."""

import pytest

from repro.errors import AllocationError, StorageError, WriteOnceViolationError
from repro.storage.blockdev import (
    DeviceTimeline,
    DiskGeometry,
    Extent,
    SimulatedDisk,
)
from repro.storage.cache import LRUCache
from repro.storage.magnetic import MAGNETIC_GEOMETRY, MagneticDisk
from repro.storage.optical import OPTICAL_GEOMETRY, OpticalDisk

SMALL = DiskGeometry(
    capacity_bytes=10_000,
    max_seek_s=0.1,
    rotational_latency_s=0.01,
    transfer_bytes_per_s=1_000_000,
)


class TestGeometry:
    def test_seek_grows_sublinearly(self):
        near = SMALL.seek_time(0, 100)
        far = SMALL.seek_time(0, 10_000)
        assert 0 < near < far
        assert far == pytest.approx(0.1)
        # sqrt model: 100x the distance is only 10x the seek.
        assert far / near == pytest.approx(10.0, rel=0.01)

    def test_zero_distance_zero_seek(self):
        assert SMALL.seek_time(500, 500) == 0.0

    def test_access_time_components(self):
        t = SMALL.access_time(0, Extent(0, 1_000_000))
        assert t == pytest.approx(0.005 + 1.0)

    def test_validation(self):
        with pytest.raises(StorageError):
            DiskGeometry(0, 0.1, 0.01, 1)


class TestSimulatedDisk:
    def test_append_read_roundtrip(self):
        disk = SimulatedDisk(SMALL)
        extent, _ = disk.append(b"hello world")
        data, service = disk.read(extent)
        assert data == b"hello world"
        assert service > 0

    def test_allocation_tracks_usage(self):
        disk = SimulatedDisk(SMALL)
        disk.append(b"x" * 100)
        assert disk.used_bytes == 100

    def test_capacity_enforced(self):
        disk = SimulatedDisk(SMALL)
        with pytest.raises(AllocationError):
            disk.allocate(20_000)

    def test_read_unallocated_rejected(self):
        disk = SimulatedDisk(SMALL)
        with pytest.raises(StorageError):
            disk.read(Extent(0, 10))

    def test_write_length_must_match_extent(self):
        disk = SimulatedDisk(SMALL)
        extent = disk.allocate(10)
        with pytest.raises(StorageError):
            disk.write(extent, b"short")

    def test_head_position_affects_service(self):
        disk = SimulatedDisk(SMALL)
        a, _ = disk.append(b"a" * 100)
        b, _ = disk.append(b"b" * 100)
        # Read b (head just after it), then a far... distances differ.
        disk.read(a)
        sequential = disk.service_time(Extent(a.end, b.length))
        disk.read(b)
        return_seek = disk.service_time(a)
        assert sequential < return_seek

    def test_stats_accumulate(self):
        disk = SimulatedDisk(SMALL)
        extent, _ = disk.append(b"abc")
        disk.read(extent)
        assert disk.stats.writes == 1
        assert disk.stats.reads == 1
        assert disk.stats.bytes_read == 3
        assert disk.stats.busy_time_s > 0


class TestDeviceTimeline:
    def test_reads_queue_fifo_in_issue_order(self):
        device = DeviceTimeline(SMALL)
        assert device.charge(1.0, 0.5) == (1.0, 1.5)
        # Issued while the first read holds the device: it waits.
        assert device.charge(1.2, 0.25) == (1.5, 1.75)
        # Issued after the device went idle: it starts at once.
        assert device.charge(3.0, 0.1) == (3.0, 3.1)
        assert device.busy_s == pytest.approx(0.85)
        assert device.reads == 3

    def test_head_moves_only_with_an_extent(self):
        device = DeviceTimeline(SMALL)
        far = Extent(9_000, 100)
        cold = device.service_time(far)
        assert cold == SMALL.access_time(0, far)
        device.charge(0.0, 0.3)  # a measured read: no head to move
        assert device.service_time(far) == cold
        device.charge(0.0, cold, far)
        assert device.head == far.end
        assert device.service_time(Extent(9_100, 100)) < cold

    def test_staged_key_waits_for_its_read_then_is_free(self):
        device = DeviceTimeline(SMALL, LRUCache(1_000))
        assert device.staged("k", 0.0) is None  # not staged: to the device
        device.stage("k", 2.0, b"x" * 10)
        assert device.staged("k", 1.0) == 2.0  # in flight: piggyback
        assert device.staged("k", 5.0) == 5.0  # landed: free
        assert device.ready_at("k", 1.5) == 2.0

    def test_evicted_key_goes_back_to_the_device(self):
        device = DeviceTimeline(SMALL, LRUCache(10))
        device.stage("a", 2.0, b"a" * 10)
        device.stage("b", 3.0, b"b" * 10)  # evicts "a" mid-flight
        assert device.staged("a", 1.0) is None

    def test_no_cache_stages_nothing(self):
        assert DeviceTimeline(SMALL).staged("k", 0.0) is None


class TestOpticalDisk:
    def test_write_once_enforced(self):
        disk = OpticalDisk(SMALL)
        extent, _ = disk.append(b"immutable")
        with pytest.raises(WriteOnceViolationError):
            disk.write(extent, b"overwrite")

    def test_appends_always_allowed(self):
        disk = OpticalDisk(SMALL)
        disk.append(b"first")
        disk.append(b"second")
        assert disk.used_bytes == 11

    def test_default_geometry_is_slower_than_magnetic(self):
        assert OPTICAL_GEOMETRY.max_seek_s > MAGNETIC_GEOMETRY.max_seek_s
        assert (
            OPTICAL_GEOMETRY.transfer_bytes_per_s
            < MAGNETIC_GEOMETRY.transfer_bytes_per_s
        )


class TestMagneticDisk:
    def test_rewritable(self):
        disk = MagneticDisk(SMALL)
        extent, _ = disk.append(b"12345")
        disk.write(extent, b"54321")
        data, _ = disk.read(extent)
        assert data == b"54321"
