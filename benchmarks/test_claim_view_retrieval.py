"""C-VIEW — Section 2/3 claim: views retrieve only the window's data.

"In very large images the user may want to see a small portion of the
image (window) at a time...  The system will only retrieve the relevant
data."  And for representations: "the system has to transfer only the
data of the view in main memory and not the whole image as in the case
that a user retrieves all the data of the image and then he zooms to
the desired data."

The experiment opens a large stored map through the server-backed
presentation manager and sweeps view windows of several sizes,
comparing bytes shipped and simulated time against fetching the whole
image.
"""

import pytest

from repro.cluster import ClusterNode, ClusterRouter
from repro.core.manager import PresentationManager
from repro.scenarios import build_big_map_object
from repro.server import Archiver, NetworkLink
from repro.workstation.station import Workstation

SIZE = 2048


@pytest.fixture(scope="module")
def archive():
    archiver = Archiver()
    big = build_big_map_object(size=SIZE, miniature_scale=16)
    archiver.store(big)
    return archiver, big


def _open(archive):
    archiver, big = archive
    workstation = Workstation()
    manager = PresentationManager(archiver, workstation, link=NetworkLink())
    session = manager.open(big.object_id)
    return manager, session, workstation


def test_open_ships_only_structure_and_miniature(archive, results):
    manager, session, _ = _open(archive)
    full_image_bytes = SIZE * SIZE
    results.record(
        "C-VIEW window retrieval",
        f"open: {manager.bytes_shipped:,}B shipped "
        f"(full image alone is {full_image_bytes:,}B, "
        f"{full_image_bytes / manager.bytes_shipped:.1f}x more)",
    )
    assert manager.bytes_shipped * 10 < full_image_bytes


@pytest.mark.parametrize("window", [64, 128, 256, 512])
def test_view_bytes_scale_with_window_area(archive, window, results):
    manager, session, workstation = _open(archive)
    before_bytes = manager.bytes_shipped
    before_time = workstation.clock.now
    session.define_view(x=256, y=256, width=window, height=window)
    shipped = manager.bytes_shipped - before_bytes
    elapsed = workstation.clock.now - before_time
    full = SIZE * SIZE
    results.record(
        "C-VIEW window retrieval",
        f"window {window}x{window}: {shipped:,}B in {elapsed * 1000:.1f}ms "
        f"simulated ({full / shipped:.0f}x less than the full image)",
    )
    assert shipped == window * window
    assert shipped < full


def test_cluster_open_and_views_ship_only_what_they_show(archive, results):
    """The same claims over a 3-node R=2 cluster.

    Pieces and windows are named by tag, so the replica that serves a
    read holds the map at its own platter offsets.
    """
    plain, _, _ = _open(archive)
    _, big = archive
    router = ClusterRouter([ClusterNode(i) for i in range(3)], replication=2)
    router.store(big)
    manager = PresentationManager(router, Workstation(), link=NetworkLink())
    session = manager.open(big.object_id)
    opened = manager.bytes_shipped
    assert opened == plain.bytes_shipped
    assert opened * 10 < SIZE * SIZE
    for window in (64, 128, 256, 512):
        before = manager.bytes_shipped
        session.define_view(x=256, y=256, width=window, height=window)
        assert manager.bytes_shipped - before == window * window
    results.record(
        "C-VIEW window retrieval",
        f"3-node R=2 cluster: open {opened:,}B shipped, as from one "
        "archiver; each window 64..512 ships its w*w bytes",
    )


def test_small_window_saving_factor(archive, results):
    manager, session, workstation = _open(archive)
    before = manager.bytes_shipped
    session.define_view(x=100, y=100, width=128, height=128)
    for _ in range(8):
        session.move_view(dx=96, dy=64)
    shipped = manager.bytes_shipped - before
    full = SIZE * SIZE
    factor = full / shipped
    results.record(
        "C-VIEW window retrieval",
        f"9-step browse with a 128x128 window: {shipped:,}B total; "
        f"still {factor:.0f}x less than one full-image fetch",
    )
    assert factor > 10


def test_window_fetch_latency(benchmark, archive):
    manager, session, _ = _open(archive)
    session.define_view(x=0, y=0, width=128, height=128)

    def move():
        session.jump_view(x=300, y=300)
        session.jump_view(x=0, y=0)

    benchmark(move)


@pytest.mark.bench_smoke
def test_smoke_window_retrieval(results):
    """Reduced-size C-VIEW for the CI bench-smoke job."""
    size = 256
    archiver = Archiver()
    big = build_big_map_object(size=size, miniature_scale=8)
    archiver.store(big)
    manager = PresentationManager(
        archiver, Workstation(), link=NetworkLink()
    )
    session = manager.open(big.object_id)
    assert manager.bytes_shipped * 4 < size * size
    before = manager.bytes_shipped
    session.define_view(x=16, y=16, width=64, height=64)
    shipped = manager.bytes_shipped - before
    assert shipped == 64 * 64
    results.record(
        "C-VIEW window retrieval",
        f"smoke ({size}px map): 64x64 view shipped {shipped:,}B "
        f"({size * size // shipped}x less than the full image)",
    )


def test_simulated_time_crossover(archive, results):
    """Find the window size where windowed retrieval stops paying.

    With a per-request seek overhead, very large windows approach the
    cost of a full-image fetch; the crossover should lie near the full
    image size, not near small windows.
    """
    archiver, big = archive
    tag = f"image/{big.images[0].image_id}"
    link = NetworkLink()
    full_extent = archiver.data_extent(big.object_id, tag)
    _, full_disk = archiver.read_absolute(full_extent.offset, full_extent.length)
    full_time = full_disk + link.transfer_time(full_extent.length)

    crossover = None
    for window in (64, 128, 256, 512, 1024, 2048):
        ranges = [
            ((0 + row) * SIZE + 0, window) for row in range(window)
        ]
        _, disk = archiver.read_piece_rows(big.object_id, tag, ranges)
        window_time = disk + link.transfer_time(window * window)
        if window_time >= full_time and crossover is None:
            crossover = window
        results.record(
            "C-VIEW window retrieval",
            f"window {window}: {window_time:.3f}s vs full fetch "
            f"{full_time:.3f}s",
        )
    results.record(
        "C-VIEW window retrieval",
        f"crossover (window no cheaper than full image): "
        f"{crossover if crossover else 'beyond'} {SIZE} full size",
    )
    # Small windows must beat the full fetch decisively.
    ranges = [(row * SIZE, 128) for row in range(128)]
    _, disk = archiver.read_piece_rows(big.object_id, tag, ranges)
    assert disk + link.transfer_time(128 * 128) < full_time / 5
