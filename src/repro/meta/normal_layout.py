"""Traditional directory placement (ext3-style; Redbud's original MFS and
Lustre's MDS both use it — §V.D notes their performance is "quite close"
because the organizations are similar).

On-disk shape per Figure 1(b):

- a directory's *entry blocks* live in its group's data area;
- file *inodes* live in the fixed inode table of the parent directory's
  group (classic ext3 placement), separate from the entry blocks;
- overflowing layout mappings go to *mapping blocks* in the data area.

A readdir-stat therefore alternates between the entry-block region and the
inode-table region, and a create dirties entry block + inode-table block +
inode bitmap — the footprints the embedded layout shrinks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import FileExists, FileNotFound, IsADirectory, MetadataError
from repro.meta.inode import Inode
from repro.meta.layout import AccessPlan, DirectoryLayout


@dataclass
class NormalDir:
    """Per-directory state for the traditional layout."""

    ino: int
    group: int
    dentry_blocks: list[int] = field(default_factory=list)
    fill: list[int] = field(default_factory=list)  # entries per dentry block
    entries: dict[str, int] = field(default_factory=dict)  # name -> ino
    entry_block: dict[str, int] = field(default_factory=dict)  # name -> abs block
    #: Folded reads of each scanned prefix of ``dentry_blocks``, by prefix
    #: length: (reads, raw spans seen).  Never stale, because
    #: ``dentry_blocks`` only grows at its end.
    scan_memo: dict[int, tuple[tuple[tuple[int, int], ...], frozenset]] = field(
        default_factory=dict, repr=False, compare=False
    )


class NormalLayout(DirectoryLayout):
    """Separate dentry blocks + fixed inode tables."""

    name = "normal"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._dirs: dict[int, NormalDir] = {}
        self.dentries_per_block = self.mfs.block_size // self.params.dentry_size
        self.records_per_block = self.mfs.block_size // self.params.extent_record_size
        self.root = self.make_root()

    # -- construction -----------------------------------------------------------
    def make_root(self) -> NormalDir:
        ino_index, _ = self.mfs.alloc_inode(0)
        home_block, home_slot = self.mfs.itable_block_of(ino_index)
        inode = Inode(
            ino=ino_index, is_dir=True, name="/", parent_dir_id=0,
            home_block=home_block, home_slot=home_slot,
        )
        self._inodes[ino_index] = inode
        d = NormalDir(ino=ino_index, group=0)
        self._dirs[ino_index] = d
        self._add_dentry_block(d)
        return d

    def create_dir(self, parent: NormalDir, name: str, now: float) -> tuple[NormalDir, AccessPlan]:
        plan = self._lookup_plan(parent, name, expect=None)
        self._require_absent(parent.entries, name)
        group = self.mfs.next_dir_group()  # rlov spreads directories
        ino_index, bitmap_dirty = self.mfs.alloc_inode(group)
        home_block, home_slot = self.mfs.itable_block_of(ino_index)
        inode = Inode(
            ino=ino_index, is_dir=True, name=name, parent_dir_id=parent.ino,
            home_block=home_block, home_slot=home_slot, mtime=now, ctime=now,
        )
        self._inodes[ino_index] = inode
        d = NormalDir(ino=ino_index, group=group)
        self._dirs[ino_index] = d
        plan.dirties += bitmap_dirty + [home_block]
        self._append_entry(plan, parent, name, ino_index)
        plan.dirties += self._add_dentry_block(d)
        parent_inode = self._inodes[parent.ino]
        parent_inode.touch(now)
        plan.dirties.append(parent_inode.home_block)
        return (d, plan)

    def create_file(self, parent: NormalDir, name: str, now: float) -> tuple[Inode, AccessPlan]:
        plan = self._lookup_plan(parent, name, expect=None)
        self._require_absent(parent.entries, name)
        # ext3 places file inodes in the parent directory's group.
        ino_index, bitmap_dirty = self.mfs.alloc_inode(parent.group)
        home_block, home_slot = self.mfs.itable_block_of(ino_index)
        inode = Inode(
            ino=ino_index, is_dir=False, name=name, parent_dir_id=parent.ino,
            home_block=home_block, home_slot=home_slot, mtime=now, ctime=now,
        )
        self._inodes[ino_index] = inode
        plan.dirties += bitmap_dirty + [home_block]
        self._append_entry(plan, parent, name, ino_index)
        parent_inode = self._inodes[parent.ino]
        parent_inode.touch(now)
        plan.dirties.append(parent_inode.home_block)
        return (inode, plan)

    # -- mutation ---------------------------------------------------------------
    def delete_file(self, parent: NormalDir, name: str) -> AccessPlan:
        plan = self._lookup_plan(parent, name, expect=True)
        ino = self._require_present(parent.entries, name)
        inode = self._inodes[ino]
        if inode.is_dir:
            raise IsADirectory(name)
        # Entry block, inode table block and inode bitmap all get dirtied;
        # mapping blocks (if any) are freed, dirtying the block bitmap too.
        plan.dirties.append(parent.entry_block[name])
        plan.dirties.append(inode.home_block)
        plan.dirties += self.mfs.free_inode(ino)
        for blk in inode.spill_blocks:
            plan.dirties += self.mfs.free_data(blk, 1)
        block = parent.entry_block.pop(name)
        idx = parent.dentry_blocks.index(block)
        parent.fill[idx] -= 1
        del parent.entries[name]
        del self._inodes[ino]
        parent_inode = self._inodes[parent.ino]
        plan.dirties.append(parent_inode.home_block)
        return plan

    def utime(self, parent: NormalDir, name: str, now: float) -> AccessPlan:
        plan = self._lookup_plan(parent, name, expect=True)
        ino = self._require_present(parent.entries, name)
        inode = self._inodes[ino]
        inode.touch(now)
        plan.add_read(inode.home_block, 1)
        plan.dirties.append(inode.home_block)
        return plan

    def set_extent_records(self, parent: NormalDir, name: str, count: int) -> AccessPlan:
        plan = self._lookup_plan(parent, name, expect=True)
        ino = self._require_present(parent.entries, name)
        inode = self._inodes[ino]
        if count < 0:
            raise MetadataError(f"negative extent record count: {count}")
        inode.extent_records = count
        plan.add_read(inode.home_block, 1)
        plan.dirties.append(inode.home_block)
        needed = self._mapping_blocks_needed(count)
        while len(inode.spill_blocks) < needed:
            block, _, dirty = self.mfs.alloc_data(parent.group, 1)
            inode.spill_blocks.append(block)
            plan.dirties += dirty + [block]
        while len(inode.spill_blocks) > needed:
            block = inode.spill_blocks.pop()
            plan.dirties += self.mfs.free_data(block, 1)
        return plan

    def rename(
        self, src_dir: NormalDir, src_name: str, dst_dir: NormalDir, dst_name: str, now: float
    ) -> AccessPlan:
        plan = self._lookup_plan(src_dir, src_name, expect=True)
        self._lookup_plan(dst_dir, dst_name, expect=None, plan=plan)
        ino = self._require_present(src_dir.entries, src_name)
        self._require_absent(dst_dir.entries, dst_name)
        inode = self._inodes[ino]
        # Inode number is stable in the traditional layout: only the two
        # entry blocks and the inode's backpointer change.
        plan.dirties.append(src_dir.entry_block[src_name])
        block = src_dir.entry_block.pop(src_name)
        idx = src_dir.dentry_blocks.index(block)
        src_dir.fill[idx] -= 1
        del src_dir.entries[src_name]
        self._append_entry(plan, dst_dir, dst_name, ino)
        inode.name = dst_name
        inode.parent_dir_id = dst_dir.ino
        inode.touch(now)
        plan.dirties.append(inode.home_block)
        for d in (src_dir, dst_dir):
            parent_inode = self._inodes[d.ino]
            parent_inode.touch(now)
            plan.dirties.append(parent_inode.home_block)
        return plan

    # -- queries ----------------------------------------------------------------
    def stat(self, parent: NormalDir, name: str) -> tuple[Inode, AccessPlan]:
        plan = self._lookup_plan(parent, name, expect=True)
        ino = self._require_present(parent.entries, name)
        inode = self._inodes[ino]
        plan.add_read(inode.home_block, 1)
        plan.journal_records = 0
        return (inode, plan)

    def readdir(self, parent: NormalDir) -> tuple[list[str], AccessPlan]:
        plan = AccessPlan(
            reads=[(b, 1) for b in parent.dentry_blocks],
            cpu_s=self._lookup_cpu(len(parent.entries)),
            journal_records=0,
        )
        return (list(parent.entries), plan)

    def readdir_stat(self, parent: NormalDir) -> tuple[list[Inode], AccessPlan]:
        """readdirplus: the access pattern alternates between the entry-block
        region and the inode-table region — the intra-directory interference
        embedded directories remove."""
        reads: list[tuple[int, int]] = []
        inodes: list[Inode] = []
        per_block: dict[int, list[str]] = {b: [] for b in parent.dentry_blocks}
        for name, block in parent.entry_block.items():
            per_block[block].append(name)
        for block in parent.dentry_blocks:
            reads.append((block, 1))
            for name in per_block[block]:
                inode = self._inodes[parent.entries[name]]
                inodes.append(inode)
                reads.append((inode.home_block, 1))
        plan = AccessPlan(
            reads=reads,
            cpu_s=self._lookup_cpu(len(parent.entries)),
            journal_records=0,
        )
        return (inodes, plan)

    def getlayout(self, parent: NormalDir, name: str) -> tuple[Inode, AccessPlan]:
        plan = self._lookup_plan(parent, name, expect=True)
        ino = self._require_present(parent.entries, name)
        inode = self._inodes[ino]
        plan.add_read(inode.home_block, 1)
        for blk in inode.spill_blocks:
            plan.add_read(blk, 1)
        plan.journal_records = 0
        return (inode, plan)

    # -- internals ----------------------------------------------------------------
    def dir_of(self, ino: int) -> NormalDir:
        try:
            return self._dirs[ino]
        except KeyError:
            raise FileNotFound(f"no directory inode {ino}") from None

    def _lookup_plan(
        self, d: NormalDir, name: str, expect: bool | None,
        plan: AccessPlan | None = None,
    ) -> AccessPlan:
        """Read footprint of a linear dentry scan for ``name``, folded into
        ``plan`` (a new plan when ``None``).

        ``expect`` asserts presence (True) or absence (None allows either);
        consistency errors raise before any state changes.
        """
        entries = d.entries
        present = name in entries
        if expect is True and not present:
            raise FileNotFound(name)
        if expect is None and present:
            raise FileExists(name)
        if present:
            # .index also rejects an entry whose block left the directory.
            scanned = d.dentry_blocks.index(d.entry_block[name]) + 1
            if self.params.htree_index:
                # Htree reads only the hashed bucket's block.
                if plan is None:
                    plan = AccessPlan()
                plan.add_read(d.entry_block[name], 1)
                plan.cpu_s += self._lookup_cpu(0)
                return plan
            scanned_entries = sum(d.fill[:scanned])
        else:
            scanned = len(d.dentry_blocks)
            scanned_entries = len(entries)
        if plan is None:
            memo = d.scan_memo.get(scanned)
            if memo is None:
                plan = AccessPlan(seen=set())
                for b in d.dentry_blocks[:scanned]:
                    plan.add_read(b, 1)
                d.scan_memo[scanned] = (tuple(plan.reads), frozenset(plan.seen))
            else:
                plan = AccessPlan(reads=list(memo[0]), seen=set(memo[1]))
        else:
            for b in d.dentry_blocks[:scanned]:
                plan.add_read(b, 1)
        plan.cpu_s += self._lookup_cpu(scanned_entries)
        return plan

    def _append_entry(
        self, plan: AccessPlan, d: NormalDir, name: str, ino: int
    ) -> None:
        # First block with room; holes left by deletes are reused.
        slot = next(
            (i for i, f in enumerate(d.fill) if f < self.dentries_per_block), None
        )
        if slot is None:
            plan.dirties += self._add_dentry_block(d)
            slot = len(d.dentry_blocks) - 1
        d.fill[slot] += 1
        block = d.dentry_blocks[slot]
        d.entries[name] = ino
        d.entry_block[name] = block
        plan.dirties.append(block)

    def _add_dentry_block(self, d: NormalDir) -> list[int]:
        hint = d.group
        block, _, dirty = self.mfs.alloc_data(hint, 1)
        d.dentry_blocks.append(block)
        d.fill.append(0)
        return dirty + [block]

    def _mapping_blocks_needed(self, records: int) -> int:
        overflow = records - self.params.inode_tail_extents
        if overflow <= 0:
            return 0
        return -(-overflow // self.records_per_block)
