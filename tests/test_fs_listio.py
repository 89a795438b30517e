"""Scatter-gather list I/O (readv/writev) and the request-path bugfix sweep.

Covers the tentpole end-to-end — data-plane region-list mapping with
cross-region coalescing, the facade and client-session entry points, the
per-submission request header — plus the satellites: unified range
validation, write/read layout-accounting symmetry, and the fifo
scheduler's array path.  Data-plane cases run on both the production
plane and its scalar reference (``tests/reference.py``); the parameter ids
``batched``/``legacy`` name those two.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.config import DiskParams
from repro.disk.disk import SimulatedDisk
from repro.disk.model import BlockRequest
from repro.disk.scheduler import ElevatorScheduler, FifoScheduler
from repro.errors import ConfigError, ReproError
from repro.fs.client import ClientSession
from repro.fs.dataplane import DataPlane
from repro.fs.redbud import RedbudFileSystem
from repro.units import KiB

from tests.conftest import small_config
from tests.reference import ReferenceDataPlane

BS = 4 * KiB
PLANE_IDS = ["batched", "legacy"]


def _extent_tuples(f):
    """Every slot's extents as comparable tuples."""
    return [
        [(e.logical, e.physical, e.length, e.unwritten) for e in smap]
        for smap in f.maps
    ]


def _covered_blocks(requests):
    """The set of physical blocks a request list touches."""
    out: set[int] = set()
    for r in requests:
        out.update(range(r.start, r.end))
    return out


# ---------------------------------------------------------------------------
# Satellite: unified range validation
# ---------------------------------------------------------------------------

class TestUnifiedValidation:
    """All four data ops reject bad ranges with one exception type."""

    @pytest.fixture(params=[DataPlane, ReferenceDataPlane], ids=PLANE_IDS)
    def plane(self, request):
        return request.param(small_config())

    def test_zero_and_negative_lengths(self, plane):
        f = plane.create_file("/v")
        plane.write(f, 0, 0, BS)
        for nbytes in (0, -BS):
            with pytest.raises(ReproError):
                plane.write(f, 0, 0, nbytes)
            with pytest.raises(ReproError):
                plane.read(f, 0, nbytes)
            with pytest.raises(ReproError):
                plane.writev(f, 0, [(0, nbytes)])
            with pytest.raises(ReproError):
                plane.readv(f, [(0, nbytes)])

    def test_negative_offsets(self, plane):
        """The read path used to raise ValueError here; now ReproError."""
        f = plane.create_file("/v")
        plane.write(f, 0, 0, BS)
        with pytest.raises(ReproError):
            plane.write(f, 0, -BS, BS)
        with pytest.raises(ReproError):
            plane.read(f, -BS, BS)
        with pytest.raises(ReproError):
            plane.writev(f, 0, [(0, BS), (-BS, BS)])
        with pytest.raises(ReproError):
            plane.readv(f, [(0, BS), (-BS, BS)])

    def test_empty_region_lists(self, plane):
        f = plane.create_file("/v")
        with pytest.raises(ReproError):
            plane.writev(f, 0, [])
        with pytest.raises(ReproError):
            plane.readv(f, [])

    def test_rejected_lists_have_no_effect(self, plane):
        """A list with one bad region is rejected atomically, before any
        mapping: no extents appear, no counters move."""
        f = plane.create_file("/v")
        with pytest.raises(ReproError):
            plane.writev(f, 0, [(0, BS), (BS, 0)])
        assert f.mapped_blocks == 0
        assert plane.metrics.count("fs.writes") == 0
        assert plane.metrics.count("fs.listio_writes") == 0


# ---------------------------------------------------------------------------
# Tentpole: data-plane readv/writev
# ---------------------------------------------------------------------------

class TestDataPlaneListIO:
    @pytest.fixture(params=[DataPlane, ReferenceDataPlane], ids=PLANE_IDS)
    def plane_cls(self, request):
        return request.param

    def test_writev_equals_scalar_loop(self, plane_cls):
        """One writev maps exactly like the in-order loop of writes: same
        extents, same size, same per-byte counters."""
        regions = [(0, BS), (8 * BS, 2 * BS), (3 * BS, BS), (16 * BS, 3 * BS)]
        pa = plane_cls(small_config())
        pb = plane_cls(small_config())
        fa = pa.create_file("/a")
        fb = pb.create_file("/b")
        for off, n in regions:
            pa.write(fa, 7, off, n)
        reqs = pb.writev(fb, 7, regions)
        assert _extent_tuples(fa) == _extent_tuples(fb)
        assert fa.size_bytes == fb.size_bytes
        assert pa.metrics.count("fs.writes") == pb.metrics.count("fs.writes")
        assert pa.metrics.count("fs.bytes_written") == pb.metrics.count(
            "fs.bytes_written"
        )
        assert sum(r.nblocks for r in reqs) == 7
        assert all(r.is_write for r in reqs)
        assert pb.metrics.count("fs.listio_writes") == 1
        assert pb.metrics.count("fs.listio_regions") == len(regions)

    def test_readv_equals_scalar_loop(self, plane_cls):
        regions = [(0, 2 * BS), (10 * BS, BS), (4 * BS, 2 * BS)]
        plane = plane_cls(small_config())
        f = plane.create_file("/r")
        for off, n in regions:
            plane.write(f, 0, off, n)
        scalar = []
        for off, n in regions:
            scalar.extend(plane.read(f, off, n))
        vectored = plane.readv(f, regions)
        assert _covered_blocks(vectored) == _covered_blocks(scalar)
        assert not any(r.is_write for r in vectored)
        assert plane.metrics.count("fs.reads") == 2 * len(regions)
        assert plane.metrics.count("fs.listio_reads") == 1

    def test_readv_skips_holes(self, plane_cls):
        plane = plane_cls(small_config())
        f = plane.create_file("/h")
        plane.write(f, 0, 0, BS)
        reqs = plane.readv(f, [(0, BS), (100 * BS, 4 * BS)])
        assert sum(r.nblocks for r in reqs) == 1

    def test_cross_region_coalescing(self):
        """Physically adjacent runs merge across non-adjacent logical
        regions: the win PVFS list I/O gets from one request carrying the
        whole list."""
        plane = DataPlane(small_config())
        f = plane.create_file("/c", width=1)
        # Descending logical order: the stream's allocations chain
        # physically (each miss allocates right after the previous run), so
        # logical blocks 8..11 and 0..3 end up back to back on disk.
        regions = [(8 * BS, 4 * BS), (0, 4 * BS)]
        wrote = plane.writev(f, 0, regions)
        assert len(wrote) == 1  # even the write list merged into one request
        reqs = plane.readv(f, regions)
        assert len(reqs) == 1
        assert reqs[0].nblocks == 8
        # The scalar loop cannot merge across its two calls.
        scalar = plane.read(f, 8 * BS, 4 * BS) + plane.read(f, 0, 4 * BS)
        assert len(scalar) == 2
        assert plane.metrics.count("fs.coalesced_requests") >= 2

    def test_listio_on_deleted_file(self, plane_cls):
        plane = plane_cls(small_config())
        f = plane.create_file("/d")
        plane.write(f, 0, 0, BS)
        plane.close_file(f)
        plane.delete_file(f)
        with pytest.raises(ReproError):
            plane.writev(f, 0, [(0, BS)])
        with pytest.raises(ReproError):
            plane.readv(f, [(0, BS)])


# ---------------------------------------------------------------------------
# Facade and client session
# ---------------------------------------------------------------------------

class TestRedbudFacade:
    def test_writev_readv_round_trip(self):
        fs = RedbudFileSystem(small_config())
        fs.create("/f")
        regions = [(0, 4 * BS), (16 * BS, 4 * BS)]
        wrote = fs.writev("/f", regions)
        assert wrote > 0.0
        read = fs.readv("/f", regions)
        assert read > 0.0
        assert fs.file_handle("/f").size_bytes == 20 * BS

    def test_empty_list_rejected(self):
        fs = RedbudFileSystem(small_config())
        fs.create("/f")
        with pytest.raises(ReproError):
            fs.writev("/f", [])
        with pytest.raises(ReproError):
            fs.readv("/f", [])


class TestClientListIO:
    def test_one_layout_lookup_per_list(self):
        fs = RedbudFileSystem(small_config())
        client = ClientSession(fs, client_id=1)
        client.create("/f")
        base = client.stats.mds_requests
        regions = [(i * 8 * BS, BS) for i in range(16)]
        client.writev("/f", regions)  # one layout miss for the whole list
        assert client.stats.mds_requests == base + 1
        client.readv("/f", regions)  # extend bumped the generation: one miss
        assert client.stats.mds_requests == base + 2
        hits = client.stats.layout_cache_hits
        client.readv("/f", regions)  # cached: no MDS traffic at all
        assert client.stats.mds_requests == base + 2
        assert client.stats.layout_cache_hits == hits + 1

    def test_write_read_accounting_symmetry(self):
        """Satellite 3: a write performs the same layout lookup a read
        does, so hit/miss accounting is consistent across the two sides."""
        fs = RedbudFileSystem(small_config())
        client = ClientSession(fs, client_id=0)
        client.create("/f")
        client.write("/f", 0, BS)  # miss (first lookup), then generation bump
        client.write("/f", 0, BS)  # overwrite: miss again (bumped), no extend
        start_hits = client.stats.layout_cache_hits
        start_reqs = client.stats.mds_requests
        client.write("/f", 0, BS)
        client.read("/f", 0, BS)
        assert client.stats.layout_cache_hits == start_hits + 2
        assert client.stats.mds_requests == start_reqs


# ---------------------------------------------------------------------------
# Tentpole: per-submission request header billing
# ---------------------------------------------------------------------------

class TestRequestHeader:
    def _disk(self, header_s: float) -> SimulatedDisk:
        return SimulatedDisk(DiskParams(request_header_s=header_s))

    def test_default_is_inert(self):
        disk = self._disk(0.0)
        disk.submit_batch([BlockRequest(0, 8, is_write=True)])
        disk.submit_one(64, 8, False)
        assert disk.metrics.count("disk.request_headers") == 0
        assert disk.metrics.total("disk.header_s") == 0.0

    def test_one_header_per_submission(self):
        header = 1e-3
        batch = self._disk(header)
        loop = self._disk(header)
        requests = [BlockRequest(i * 512, 8, is_write=False) for i in range(10)]
        batched_s = batch.submit_batch(requests)
        loop_s = sum(loop.submit_batch([r]) for r in requests)
        assert batch.metrics.count("disk.request_headers") == 1
        assert loop.metrics.count("disk.request_headers") == 10
        # Same physical work, 9 extra headers on the loop side.
        assert loop_s - batched_s == pytest.approx(9 * header)
        assert loop.busy_s - batch.busy_s == pytest.approx(9 * header)

    def test_submit_one_and_arrays_bill_identically(self):
        header = 5e-4
        one = self._disk(header)
        arr = self._disk(header)
        t1 = one.submit_one(128, 16, True)
        t2 = arr.submit_arrays(
            np.array([128], dtype=np.int64),
            np.array([16], dtype=np.int64),
            np.array([True]),
        )
        assert t1 == t2
        assert one.busy_s == arr.busy_s
        assert one.metrics.count("disk.request_headers") == 1
        assert arr.metrics.count("disk.request_headers") == 1

    def test_negative_header_rejected(self):
        with pytest.raises(ConfigError):
            DiskParams(request_header_s=-1e-6)

    def test_header_charged_through_dataplane(self):
        cfg = small_config()
        cfg = replace(cfg, disk=replace(cfg.disk, request_header_s=1e-3))
        plane = DataPlane(cfg)
        f = plane.create_file("/h")
        requests = plane.write(f, 0, 0, 64 * BS)
        plane.array.submit_batch(requests)
        # One submission; one header per disk the batch touched.
        touched = len({r.start // cfg.disk.capacity_blocks for r in requests})
        assert plane.metrics.count("disk.request_headers") == touched


# ---------------------------------------------------------------------------
# Tentpole: fifo scheduler array path
# ---------------------------------------------------------------------------

class TestFifoArrangeArrays:
    def _requests(self):
        return [
            BlockRequest(0, 8, is_write=True),
            BlockRequest(8, 8, is_write=True),   # back-to-back: merges
            BlockRequest(16, 4, is_write=False),  # kind change: never merges
            BlockRequest(20, 4, is_write=False),  # merges with previous
            BlockRequest(100, 4, is_write=False),  # far away: new run
            BlockRequest(60, 4, is_write=False),  # arrival order kept: no sort
        ]

    def test_matches_object_path(self):
        from repro.config import SchedulerParams

        params = SchedulerParams(kind="fifo")
        sched = FifoScheduler(params)
        requests = self._requests()
        merged = sched.arrange(requests)
        s, b, w = sched.arrange_arrays(
            np.array([r.start for r in requests], dtype=np.int64),
            np.array([r.nblocks for r in requests], dtype=np.int64),
            np.array([r.is_write for r in requests]),
        )
        assert [(r.start, r.nblocks, r.is_write) for r in merged] == list(
            zip(s.tolist(), b.tolist(), w.tolist())
        )

    def test_fifo_disks_use_array_path(self):
        from repro.config import SchedulerParams

        cfg = replace(small_config(), scheduler=SchedulerParams(kind="fifo"))
        plane = DataPlane(cfg)
        # A 2-request batch on one disk (too far apart to merge) drives the
        # fifo scheduler's new arrange_arrays fast path.
        plane.array.submit_batch(
            [BlockRequest(0, 4, is_write=True), BlockRequest(4000, 4, is_write=True)]
        )
        assert plane.array.io_profile["batches_vectorized"] >= 1

    def test_elevator_and_fifo_differ_on_unsorted_batches(self):
        """Sanity: the fifo path must not silently sort (that would be the
        elevator)."""
        from repro.config import SchedulerParams

        params = SchedulerParams(kind="fifo")
        requests = [BlockRequest(1000, 4, False), BlockRequest(0, 4, False)]
        fifo = FifoScheduler(params).arrange(requests)
        elev = ElevatorScheduler(params).arrange(requests)
        assert [r.start for r in fifo] == [1000, 0]
        assert [r.start for r in elev] == [0, 1000]
