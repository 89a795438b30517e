"""Deeper normal-layout behaviour: dentry hole reuse, inode placement
policy, mapping blocks, and lookup scan footprints."""

import pytest

from repro.config import DiskParams, MetaParams
from repro.meta.mfs import MetadataFS
from repro.meta.normal_layout import NormalLayout


def make_layout(**meta_kw) -> NormalLayout:
    params = MetaParams(
        layout="normal",
        block_groups=4,
        blocks_per_group=2048,
        inodes_per_group=256,
        journal_blocks=64,
        **meta_kw,
    )
    mfs = MetadataFS(params, DiskParams(capacity_blocks=16384))
    return NormalLayout(params, mfs)


class TestDentryManagement:
    def test_holes_from_deletes_are_reused(self):
        layout = make_layout()
        per_block = layout.dentries_per_block
        for i in range(per_block):
            layout.create_file(layout.root, f"f{i}", now=0.0)
        assert len(layout.root.dentry_blocks) == 1
        layout.delete_file(layout.root, "f3")
        layout.create_file(layout.root, "replacement", now=0.0)
        # The hole was reused: still one dentry block.
        assert len(layout.root.dentry_blocks) == 1
        assert layout.root.fill[0] == per_block

    def test_fill_tracks_entries(self):
        layout = make_layout()
        for i in range(10):
            layout.create_file(layout.root, f"f{i}", now=0.0)
        for i in range(0, 10, 2):
            layout.delete_file(layout.root, f"f{i}")
        assert sum(layout.root.fill) == len(layout.root.entries) == 5

    def test_dentry_blocks_allocated_in_home_group(self):
        layout = make_layout()
        d, _ = layout.create_dir(layout.root, "sub", now=0.0)
        per_block = layout.dentries_per_block
        for i in range(per_block * 3):
            layout.create_file(d, f"f{i}", now=0.0)
        mfs = layout.mfs
        for block in d.dentry_blocks:
            assert mfs.group_of_block(block) == d.group


class TestInodePlacement:
    def test_file_inodes_in_parent_group(self):
        layout = make_layout()
        d, _ = layout.create_dir(layout.root, "sub", now=0.0)
        inode, _ = layout.create_file(d, "f", now=0.0)
        group = inode.ino // layout.params.inodes_per_group
        assert group == d.group

    def test_directories_spread_by_rlov(self):
        layout = make_layout()
        groups = []
        for i in range(4):
            d, _ = layout.create_dir(layout.root, f"d{i}", now=0.0)
            groups.append(d.group)
        assert len(set(groups)) > 1  # rotated, not piled into one group

    def test_inode_numbers_are_stable_across_rename(self):
        layout = make_layout()
        inode, _ = layout.create_file(layout.root, "a", now=0.0)
        before = inode.ino
        layout.rename(layout.root, "a", layout.root, "b", now=1.0)
        after, _ = layout.stat(layout.root, "b")
        assert after.ino == before  # unlike the embedded layout


class TestMappingBlocks:
    def test_mapping_blocks_allocated_in_parent_group(self):
        layout = make_layout()
        d, _ = layout.create_dir(layout.root, "sub", now=0.0)
        layout.create_file(d, "f", now=0.0)
        layout.set_extent_records(d, "f", 10_000)
        inode, _ = layout.stat(d, "f")
        assert inode.spill_blocks
        for blk in inode.spill_blocks:
            assert layout.mfs.group_of_block(blk) == d.group

    def test_delete_releases_mapping_blocks(self):
        layout = make_layout()
        free0 = layout.mfs.free_data_blocks
        layout.create_file(layout.root, "f", now=0.0)
        layout.set_extent_records(layout.root, "f", 10_000)
        layout.delete_file(layout.root, "f")
        assert layout.mfs.free_data_blocks == free0


class TestLookupFootprints:
    def test_linear_scan_reads_prefix_only(self):
        layout = make_layout(htree_index=False)
        per_block = layout.dentries_per_block
        for i in range(per_block * 3):
            layout.create_file(layout.root, f"f{i:05d}", now=0.0)
        # A name in the first block reads one block; in the third, three.
        _, plan_first = layout.stat(layout.root, "f00000")
        _, plan_last = layout.stat(layout.root, f"f{per_block * 3 - 1:05d}")
        # stat appends one inode-block read on top of the scan.  Plans
        # arrive coalesced, so count blocks rather than spans.
        assert plan_first.read_block_count() == 1 + 1
        assert plan_last.read_block_count() == 3 + 1

    def test_absent_name_scans_everything(self):
        layout = make_layout(htree_index=False)
        per_block = layout.dentries_per_block
        for i in range(per_block * 2):
            layout.create_file(layout.root, f"f{i:05d}", now=0.0)
        from repro.errors import FileNotFound
        with pytest.raises(FileNotFound):
            layout.stat(layout.root, "missing")

    def test_readdir_reads_every_dentry_block(self):
        layout = make_layout()
        per_block = layout.dentries_per_block
        for i in range(per_block * 2 + 1):
            layout.create_file(layout.root, f"f{i:05d}", now=0.0)
        _, plan = layout.readdir(layout.root)
        assert len(plan.reads) == 3
