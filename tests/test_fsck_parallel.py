"""Parallel fsck: sharded checking equals the serial oracle, byte for byte.

The contract under test (docs/FSCK.md): the vectorized, sharded checkers
in :mod:`repro.fs.verify` render the same ordered findings as the
single-threaded reference walkers at any worker count, over arbitrary
seeded corruption; repair converges from a crashed image; and the online
scrubber drains live corruption while the service workload runs.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import baseline
from repro.config import ConfigError, FsckParams
from repro.core.run import run
from repro.fault import Corruptor, build_crashed_image
from repro.fs.dataplane import DataPlane
from repro.fs.stream import make_stream_id
from repro.fs.verify import (
    FsckReport,
    check_dataplane,
    check_mds,
    repair_dataplane,
    repair_mds,
    shard_work,
)
from repro.meta.mds import MetadataServer
from repro.units import KiB
from repro.workloads.service import ScrubSpec

from tests.conftest import small_config
from tests.reference import check_dataplane_reference, check_mds_reference


def populated_plane() -> DataPlane:
    plane = DataPlane(small_config())
    for i in range(4):
        f = plane.create_file(f"file{i}")
        for r in range(3):
            reqs = plane.write(f, make_stream_id(i, 0), r * 32 * KiB, 32 * KiB)
            plane.array.submit_batch(reqs)
    return plane


def populated_mds(layout: str) -> MetadataServer:
    mds = MetadataServer(small_config(layout=layout))
    d = mds.mkdir(mds.root, "work")
    sub = mds.mkdir(d, "sub")
    for i in range(25):
        mds.create(d, f"f{i:03d}")
    for i in range(8):
        mds.create(sub, f"g{i:03d}")
    mds.flush()
    return mds


def report_key(report: FsckReport) -> tuple:
    return (
        tuple((f.code, f.message) for f in report.findings),
        report.checked_extents,
        report.checked_inodes,
    )


class TestExtentMapsFreeFullRange:
    """Regression: the free-block check covers the extent's whole range,
    not just its first block."""

    def test_free_tail_block_is_detected(self):
        plane = DataPlane(small_config(policy="vanilla"))
        a = plane.create_file("/a")
        plane.write(a, 1, 0, 64 * KiB)
        ext = a.maps[0].extents()[0]
        assert ext.length >= 2
        # Corrupt the books for ONLY the last block of the extent.
        plane.fsm.free(ext.physical + ext.length - 1, 1)
        report = check_dataplane(plane, strict_accounting=False)
        assert report.has("extent-maps-free")

    def test_free_interior_block_matches_reference(self):
        plane = DataPlane(small_config(policy="vanilla"))
        a = plane.create_file("/a")
        plane.write(a, 1, 0, 64 * KiB)
        ext = a.maps[0].extents()[0]
        plane.fsm.free(ext.physical + ext.length // 2, 1)
        sharded = check_dataplane(plane, strict_accounting=False)
        oracle = check_dataplane_reference(plane, strict_accounting=False)
        assert sharded.has("extent-maps-free")
        assert report_key(sharded) == report_key(oracle)


class TestNormalLayoutCodes:
    """Every normal-layout corruption class maps to its stable code and
    repairs back to clean."""

    def _dir(self, mds):
        return next(
            d for d in mds.layout._dirs.values() if "f000" in d.entries or d.entries
        )

    def test_inode_home_mismatch(self):
        mds = populated_mds("normal")
        d = self._dir(mds)
        name = next(iter(d.entries))
        inode = mds.layout.inode_by_number(d.entries[name])
        inode.home_block += 1  # corrupt: itable home drifted
        report = check_mds(mds)
        assert report.has("inode-home-mismatch")
        assert repair_mds(mds).converged
        check_mds(mds).raise_if_dirty()

    def test_entry_unknown_dentry_block(self):
        mds = populated_mds("normal")
        d = self._dir(mds)
        name = next(iter(d.entries))
        d.entry_block[name] = 10**9  # corrupt: entry points nowhere
        report = check_mds(mds)
        assert report.has("entry-unknown-dentry-block")
        assert repair_mds(mds).converged

    def test_dentry_fill_mismatch(self):
        mds = populated_mds("normal")
        d = self._dir(mds)
        d.fill.append(0)  # corrupt: fill vector longer than block list
        report = check_mds(mds)
        assert report.has("dentry-fill-mismatch")
        assert repair_mds(mds).converged

    def test_entry_count_mismatch(self):
        mds = populated_mds("normal")
        d = self._dir(mds)
        d.fill[0] += 1  # corrupt: occupancy over-counts
        report = check_mds(mds)
        assert report.has("entry-count-mismatch")
        assert repair_mds(mds).converged


class TestShardedEqualsReference:
    """Property: sharded-merged reports equal the serial oracle over
    arbitrary Corruptor states, for both planes and both layouts."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), nfaults=st.integers(0, 5))
    def test_dataplane(self, seed, nfaults):
        plane = populated_plane()
        Corruptor(seed).corrupt_dataplane(plane, nfaults=nfaults)
        sharded = check_dataplane(plane, strict_accounting=False)
        oracle = check_dataplane_reference(plane, strict_accounting=False)
        assert report_key(sharded) == report_key(oracle)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), nfaults=st.integers(0, 5))
    @pytest.mark.parametrize("layout", ["embedded", "normal"])
    def test_mds(self, layout, seed, nfaults):
        mds = populated_mds(layout)
        Corruptor(seed).corrupt_mds(mds, nfaults=nfaults)
        sharded = check_mds(mds)
        oracle = check_mds_reference(mds)
        assert report_key(sharded) == report_key(oracle)


class TestWorkerProcesses:
    """jobs=2 really runs shards in worker processes and still merges to
    the identical report."""

    def test_crashed_image_check_identical_across_jobs(self):
        serial = build_crashed_image(scale=0.3, seed=5)
        workers = build_crashed_image(scale=0.3, seed=5)
        rep_1 = check_dataplane(serial.plane, strict_accounting=False).merge(
            check_mds(serial.mds)
        )
        rep_2 = check_dataplane(
            workers.plane, strict_accounting=False, jobs=2
        ).merge(check_mds(workers.mds, jobs=2))
        assert report_key(rep_1) == report_key(rep_2)
        assert not rep_1.clean

    def test_crashed_image_repair_identical_across_jobs(self):
        serial = build_crashed_image(scale=0.3, seed=5)
        workers = build_crashed_image(scale=0.3, seed=5)
        fix_1 = repair_dataplane(serial.plane).merge(repair_mds(serial.mds))
        fix_2 = repair_dataplane(workers.plane, jobs=2).merge(
            repair_mds(workers.mds, jobs=2)
        )
        assert fix_1.converged and fix_2.converged
        assert [(a.code, a.message) for a in fix_1.actions] == [
            (a.code, a.message) for a in fix_2.actions
        ]


class TestCrashedImage:
    def test_deterministic(self):
        a = build_crashed_image(scale=0.3, seed=9)
        b = build_crashed_image(scale=0.3, seed=9)
        assert a.injected == b.injected
        assert a.extents == b.extents and a.inodes == b.inodes
        rep_a = check_dataplane(a.plane, strict_accounting=False)
        rep_b = check_dataplane(b.plane, strict_accounting=False)
        assert report_key(rep_a) == report_key(rep_b)

    def test_shard_work_matches_topology(self):
        img = build_crashed_image(scale=0.3, seed=1)
        data, meta = shard_work(img.plane, img.mds)
        # One shard per populated PAG, never more than the PAG count.
        assert 0 < len(data) <= len(img.plane.fsm.groups)
        assert sum(data) == img.extents
        assert len(meta) >= 1 and sum(meta) > 0


class TestFigFsckRunner:
    def test_byte_identical_documents_across_jobs(self):
        kwargs = dict(scale=0.05, seed=0, multipliers=(1, 2), jobs_points=(1, 2))
        doc_1 = baseline.dumps(
            baseline.render(run("fig_fsck", jobs=1, **kwargs), scale=0.05, seed=0)
        )
        doc_2 = baseline.dumps(
            baseline.render(run("fig_fsck", jobs=2, **kwargs), scale=0.05, seed=0)
        )
        assert doc_1 == doc_2

    def test_modeled_makespan_shrinks_with_workers(self):
        result = run(
            "fig_fsck", scale=0.05, seed=0, multipliers=(1,), jobs_points=(1, 4)
        ).payload
        assert result.converged
        for r in result.runs:
            assert r.check_s[4] < r.check_s[1]
            assert r.speedup(4) > 1.0
            assert r.findings > 0


class TestReportPlumbing:
    """Reports cross process boundaries and merge deterministically."""

    def test_reports_pickle_roundtrip(self):
        img = build_crashed_image(scale=0.3, seed=2)
        report = check_dataplane(img.plane, strict_accounting=False)
        repair = repair_dataplane(img.plane)
        for obj in (report, repair):
            clone = pickle.loads(pickle.dumps(obj))
            assert clone == obj

    def test_merge_is_ordered_concatenation(self):
        img = build_crashed_image(scale=0.3, seed=2)
        data = check_dataplane(img.plane, strict_accounting=False)
        meta = check_mds(img.mds)
        merged = data.merge(meta)
        assert [f.code for f in merged.findings] == [
            f.code for f in data.findings
        ] + [f.code for f in meta.findings]
        assert merged.checked_extents == data.checked_extents
        assert merged.checked_inodes == meta.checked_inodes

    def test_fsck_params_validation(self):
        with pytest.raises(ConfigError):
            FsckParams(check_extent_s=-1.0)

    def test_scrub_spec_validation(self):
        with pytest.raises(ConfigError):
            ScrubSpec(interval_s=0.0)
        with pytest.raises(ConfigError):
            ScrubSpec(nfaults=0)


class TestOnlineScrub:
    def test_converges_under_live_corruption(self):
        result = run(
            "service",
            scale=0.2,
            seed=0,
            streams=200,
            telemetry=True,
            scrub=True,
            scrub_corrupt=5,
            scrub_faults=2,
        )
        cell = result.payload.cells[0]
        scrub = cell.scrub
        assert scrub is not None
        assert scrub.injected, "live corruptor never fired"
        assert scrub.findings > 0 and scrub.repairs > 0
        assert scrub.clean_after, "scrubber failed to drain to clean"
        windows = [
            fr for fr in cell.telemetry.frames
            if any(k.startswith("scrub.") for k in fr.counters)
        ]
        assert windows, "scrub findings never reached telemetry"

    def test_scrub_off_leaves_cell_untouched(self):
        result = run("service", scale=0.2, seed=0, streams=200)
        assert result.payload.cells[0].scrub is None
