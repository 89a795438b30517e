"""Data plane: striped, extent-mapped files over PAGs and a disk array.

The plane performs the *mapping* half of every data operation — allocation
policy calls, extent-map updates — and returns the physical
:class:`~repro.disk.model.BlockRequest` lists for the caller to time against
the disk array.  Separating mapping from timing keeps both halves
independently testable and lets experiment runners batch concurrent streams'
requests the way an I/O scheduler would see them.
"""

from __future__ import annotations

from repro.alloc.base import AllocTarget, PhysicalRun
from repro.alloc.registry import make_policy
from repro.block.extent import Extent, ExtentFlags
from repro.block.freespace import FreeSpaceManager
from repro.config import FSConfig
from repro.disk.array import DiskArray
from repro.disk.model import BlockRequest
from repro.errors import ConfigError, ReproError
from repro.fs.file import RedbudFile
from repro.fs.stream import StreamId
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer
from repro.sim.metrics import Metrics
from repro.units import bytes_to_blocks


class DataPlane:
    """File data path: create/write/read/fsync/delete over striped PAGs."""

    def __init__(
        self,
        config: FSConfig,
        metrics: Metrics | None = None,
        tracer: Tracer | NullTracer | None = None,
    ) -> None:
        self.config = config
        self.metrics = metrics if metrics is not None else Metrics()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # Untimed layers (allocator, free space) stamp events with the
        # array's elapsed time; an already-bound clock wins.
        self.tracer.bind_clock(lambda: self.array.elapsed_s)
        self.array = DiskArray(
            config.ndisks, config.disk, config.scheduler, self.metrics, self.tracer
        )
        self.fsm = FreeSpaceManager(
            config.ndisks,
            config.disk.capacity_blocks,
            config.pags_per_disk,
            self.metrics,
            self.tracer,
        )
        self.policy = make_policy(config.alloc, self.fsm, self.metrics, self.tracer)
        self._files: dict[int, RedbudFile] = {}
        self._next_file_id = 1
        # Per-op counter bumps inline on this mapping (see
        # Metrics.raw_counters); it survives Metrics.reset().
        self._counters = self.metrics.raw_counters()
        # Lazily-bound fs.extent_blocks histogram (one observe per inserted
        # run); bound on first use so an idle plane leaves no empty
        # histogram behind.
        self._extent_hist = None

    @property
    def block_size(self) -> int:
        return self.config.disk.block_size

    # -- lifecycle -----------------------------------------------------------
    def create_file(
        self,
        name: str,
        expected_bytes: int | None = None,
        width: int | None = None,
    ) -> RedbudFile:
        """Create a file striped over ``width`` disks (default: all).

        Under the static policy a declared ``expected_bytes`` is fallocated
        immediately, exactly like the paper's "static preallocation" mode.
        """
        file_id = self._next_file_id
        self._next_file_id += 1
        w = self.config.ndisks if width is None else width
        if not (1 <= w <= self.config.ndisks):
            raise ConfigError(f"stripe width out of range: {w}")
        first_disk = file_id % self.config.ndisks
        pag_rotor = file_id % self.config.pags_per_disk
        layout = [
            ((first_disk + j) % self.config.ndisks) * self.config.pags_per_disk + pag_rotor
            for j in range(w)
        ]
        f = RedbudFile(
            file_id=file_id,
            name=name,
            layout=layout,
            stripe_blocks=self.config.stripe_blocks,
            expected_bytes=expected_bytes,
        )
        self._files[file_id] = f
        self.metrics.incr("fs.files_created")
        if expected_bytes is not None:
            # Policies without persistent whole-file preallocation return
            # no runs from prepare(), making this a no-op for them.
            self.fallocate(f, expected_bytes)
        return f

    def fallocate(self, f: RedbudFile, nbytes: int) -> None:
        """Persistently preallocate ``nbytes`` (only meaningful for policies
        implementing :meth:`~repro.alloc.base.AllocationPolicy.prepare`)."""
        self._check_live(f)
        total_blocks = bytes_to_blocks(nbytes, self.block_size)
        for slot in range(f.width):
            dlocal_blocks = self._slot_share(f, total_blocks, slot)
            if dlocal_blocks == 0:
                continue
            runs = self.policy.prepare(f.file_id, self._target(f, slot), dlocal_blocks)
            for run in runs:
                f.maps[slot].insert(
                    Extent(run.dlocal, run.physical, run.length, ExtentFlags.UNWRITTEN)
                )

    def delete_file(self, f: RedbudFile) -> None:
        """Free all mapped blocks and drop reservations."""
        self._check_live(f)
        self.policy.on_delete(f.file_id)
        for m in f.maps:
            for ext in m.clear():
                self.fsm.free(ext.physical, ext.length)
        f.deleted = True
        del self._files[f.file_id]
        self.metrics.incr("fs.files_deleted")

    def close_file(self, f: RedbudFile) -> list[BlockRequest]:
        """Release temporary reservations; flush delayed writes."""
        self._check_live(f)
        requests = self.fsync(f)
        self.policy.release(f.file_id)
        return requests

    # -- I/O ----------------------------------------------------------------
    def _check_range(self, offset: int, nbytes: int, op: str) -> None:
        """Unified request-range validation for all four data operations.

        Every rejected range raises :class:`~repro.errors.ReproError` (the
        read path historically raised ``ValueError`` for negative offsets
        while zero-length requests raised ``ReproError``; callers now catch
        one type).
        """
        if nbytes <= 0:
            raise ReproError(f"{op} of {nbytes} bytes")
        if offset < 0:
            raise ReproError(f"negative {op} range: offset={offset} length={nbytes}")

    def _span(self, offset: int, nbytes: int) -> tuple[int, int]:
        """``(first logical block, block count)`` of a validated range."""
        bs = self.block_size
        lb = offset // bs
        return lb, (offset + nbytes - 1) // bs - lb + 1

    def write(
        self, f: RedbudFile, stream: StreamId, offset: int, nbytes: int
    ) -> list[BlockRequest]:
        """Map a write and return its physical requests.

        Under delayed allocation an extending write may return no requests
        (data buffered); :meth:`fsync` materializes it.
        """
        self._check_live(f)
        self._check_range(offset, nbytes, "write")
        lb, nb = self._span(offset, nbytes)
        runs_out: list[tuple[int, int]] = []
        self._map_write(f, stream, lb, nb, runs_out)
        requests = self._emit(runs_out, True)
        end = offset + nbytes
        if end > f.size_bytes:
            f.size_bytes = end
        counters = self._counters
        counters["fs.writes"] += 1
        counters["fs.bytes_written"] += nbytes
        return requests

    def writev(
        self,
        f: RedbudFile,
        stream: StreamId,
        regions: list[tuple[int, int]],
    ) -> list[BlockRequest]:
        """Map one scatter-gather write over ``(offset, nbytes)`` regions.

        Equivalent to the in-order loop of scalar :meth:`write` calls —
        same extents, same allocation decisions, same per-byte metrics —
        but the whole region list feeds one :meth:`_emit` pass, so
        physically adjacent runs coalesce *across* non-adjacent logical
        regions and the caller submits a single batch.
        """
        self._check_live(f)
        if not regions:
            raise ReproError("writev of an empty region list")
        for offset, nbytes in regions:
            self._check_range(offset, nbytes, "writev")
        runs_out: list[tuple[int, int]] = []
        for offset, nbytes in regions:
            lb, nb = self._span(offset, nbytes)
            self._map_write(f, stream, lb, nb, runs_out)
        requests = self._emit(runs_out, True)
        total = 0
        end_max = f.size_bytes
        for offset, nbytes in regions:
            total += nbytes
            end = offset + nbytes
            if end > end_max:
                end_max = end
        f.size_bytes = end_max
        counters = self._counters
        counters["fs.writes"] += len(regions)
        counters["fs.bytes_written"] += total
        counters["fs.listio_writes"] += 1
        counters["fs.listio_regions"] += len(regions)
        return requests

    def _map_write(
        self,
        f: RedbudFile,
        stream: StreamId,
        lb: int,
        nb: int,
        runs_out: list[tuple[int, int]],
    ) -> None:
        """Write mapping of one logical block range, with the common case
        short-circuited.

        A segment appended past its slot's EOF is one whole hole, so the
        hole scan, the unwritten conversion and the post-allocation range
        lookup are all skipped — the policy's runs *are* the written blocks.
        ``(physical, length)`` runs append onto ``runs_out`` for the caller
        to coalesce in one :meth:`_emit` pass (:meth:`writev` passes the
        accumulated runs of a whole region list).
        """
        policy = self.policy
        cow = policy.cow
        allocate = policy.allocate
        insert_runs = self._insert_runs
        target = self._target
        maps = f.maps
        file_id = f.file_id
        nbuffered = 0
        for slot, dstart, dcount in self._segments(f, lb, nb):
            smap = maps[slot]
            if not cow and dstart >= smap.size_blocks:
                runs = allocate(file_id, stream, target(f, slot), dstart, dcount)
                if not runs:
                    nbuffered += 1  # delayed allocation
                    continue
                insert_runs(smap, runs)
                for run in runs:
                    runs_out.append((run.physical, run.length))
                continue
            if cow:
                for ext in smap.remove_range(dstart, dcount):
                    self.fsm.free(ext.physical, ext.length)
                    self.metrics.incr("fs.cow_relocated_blocks", ext.length)
            holes, has_unwritten, written = smap.scan_write_range(dstart, dcount)
            if has_unwritten:
                smap.mark_written(dstart, dcount)
            buffered = False
            for h_start, h_count in holes:
                runs = allocate(file_id, stream, target(f, slot), h_start, h_count)
                if not runs:
                    buffered = True
                    continue
                insert_runs(smap, runs)
            if written is None:
                written = smap.physical_runs(dstart, dcount)
            runs_out.extend(written)
            if buffered:
                nbuffered += 1
        if nbuffered:
            self.metrics.incr("fs.buffered_writes", nbuffered)

    def read(self, f: RedbudFile, offset: int, nbytes: int) -> list[BlockRequest]:
        """Map a read and return its physical requests (holes read as zeros
        and cost nothing)."""
        self._check_live(f)
        self._check_range(offset, nbytes, "read")
        lb, nb = self._span(offset, nbytes)
        runs_out: list[tuple[int, int]] = []
        for slot, dstart, dcount in self._segments(f, lb, nb):
            runs_out.extend(f.maps[slot].physical_runs(dstart, dcount))
        requests = self._emit(runs_out, False)
        counters = self._counters
        counters["fs.reads"] += 1
        counters["fs.bytes_read"] += nbytes
        return requests

    def readv(
        self, f: RedbudFile, regions: list[tuple[int, int]]
    ) -> list[BlockRequest]:
        """Map one scatter-gather read over ``(offset, nbytes)`` regions.

        Equivalent to the in-order loop of scalar :meth:`read` calls, but
        the whole region list's physical runs feed one :meth:`_emit` pass —
        runs left physically adjacent by the allocator coalesce even when
        their logical regions are far apart, and the caller submits the
        list as a single batch (PVFS list I/O).
        """
        self._check_live(f)
        if not regions:
            raise ReproError("readv of an empty region list")
        for offset, nbytes in regions:
            self._check_range(offset, nbytes, "readv")
        total = 0
        runs_out: list[tuple[int, int]] = []
        for offset, nbytes in regions:
            lb, nb = self._span(offset, nbytes)
            for slot, dstart, dcount in self._segments(f, lb, nb):
                runs_out.extend(f.maps[slot].physical_runs(dstart, dcount))
            total += nbytes
        requests = self._emit(runs_out, False)
        counters = self._counters
        counters["fs.reads"] += len(regions)
        counters["fs.bytes_read"] += total
        counters["fs.listio_reads"] += 1
        counters["fs.listio_regions"] += len(regions)
        return requests

    def fsync(self, f: RedbudFile) -> list[BlockRequest]:
        """Materialize delayed-allocation buffers; returns their writes."""
        self._check_live(f)
        requests: list[BlockRequest] = []
        for target, runs in self.policy.flush(f.file_id):
            slot = self._slot_of_target(f, target)
            self._insert_runs(f.maps[slot], runs)
            for run in runs:
                requests.append(BlockRequest(run.physical, run.length, is_write=True))
        if requests:
            self.metrics.incr("fs.delayed_flush_requests", len(requests))
        return requests

    # -- crash recovery -----------------------------------------------------------
    def crash_recover(self) -> int:
        """Simulate a crash and recovery (§III.A durability semantics).

        Persistent state survives: extent maps (they live at the MDS) and
        the blocks they own.  *Volatile* allocator state dies: sequential
        windows' temporary reservations, per-inode reservation pools and
        delayed-allocation buffers are all in-memory, so recovery rebuilds
        the free-space books from the extent maps alone — any block not
        mapped by a file is free again.  Current-window blocks that were
        already handed to files are mapped, hence "persistent across
        reboots" as §III.A requires.

        Returns the number of blocks reclaimed from volatile state.
        """
        free_before = self.fsm.free_blocks
        # Rebuild free space: start fresh, then re-allocate exactly the
        # mapped extents.
        self.fsm = FreeSpaceManager(
            self.config.ndisks,
            self.config.disk.capacity_blocks,
            self.config.pags_per_disk,
            self.metrics,
            self.tracer,
        )
        for f in self._files.values():
            for smap in f.maps:
                for ext in smap:
                    self.fsm.allocate_exact(ext.physical, ext.length)
        # The allocator restarts cold: windows, pools and buffers are gone.
        self.policy = make_policy(self.config.alloc, self.fsm, self.metrics, self.tracer)
        reclaimed = self.fsm.free_blocks - free_before
        self.metrics.incr("fs.crash_recoveries")
        self.metrics.incr("fs.recovered_blocks", max(0, reclaimed))
        return reclaimed

    # -- introspection ----------------------------------------------------------
    def files(self) -> list[RedbudFile]:
        return list(self._files.values())

    def total_extents(self) -> int:
        """Sum of extent counts over live files (Table I)."""
        return sum(f.extent_count for f in self._files.values())

    @property
    def utilization(self) -> float:
        return self.fsm.utilization

    # -- internals ----------------------------------------------------------
    def _target(self, f: RedbudFile, slot: int) -> AllocTarget:
        return AllocTarget(
            group_index=f.layout[slot],
            slot=slot,
            width=f.width,
            stripe_blocks=f.stripe_blocks,
        )

    def _slot_of_target(self, f: RedbudFile, target: AllocTarget) -> int:
        return target.slot

    def _segments(
        self, f: RedbudFile, lb: int, nb: int
    ) -> list[tuple[int, int, int]]:
        """Stripe-unit segments of [lb, lb+nb), grouped per slot.

        Consecutive stripe units landing on the same slot (writes wider
        than one rotation) are dlocal-contiguous and are merged into one
        segment, so the allocation policy sees one large request per PAG
        instead of one per stripe unit — PVFS list I/O's "describe many
        pieces in one request".
        """
        sb = f.stripe_blocks
        stripe, off = divmod(lb, sb)
        if off + nb <= sb:  # inside one stripe unit: one segment, no loop
            return [(stripe % f.width, (stripe // f.width) * sb + off, nb)]
        grouped: list[tuple[int, int, int]] = []
        for slot, dstart, dcount in f.segments(lb, nb):
            if grouped:
                g_slot, g_start, g_count = grouped[-1]
                if g_slot == slot and g_start + g_count == dstart:
                    grouped[-1] = (g_slot, g_start, g_count + dcount)
                    continue
            grouped.append((slot, dstart, dcount))
        return grouped

    def _emit(self, runs: list[tuple[int, int]], is_write: bool) -> list[BlockRequest]:
        """Turn ``(physical, length)`` runs into coalesced requests.

        Physically adjacent runs on the same disk merge before any
        :class:`BlockRequest` exists (an allocator that extended a run
        leaves neighbours adjacent), so exactly one object is built per
        final request.  Never merges across a disk boundary; total blocks
        are preserved.
        """
        if not runs:
            return []
        bpd = self.config.disk.capacity_blocks
        out: list[BlockRequest] = []
        append = out.append
        cur_start, length = runs[0]
        cur_end = cur_start + length
        # First block beyond the current run's disk: one division per output
        # request instead of two per candidate merge.
        disk_end = (cur_start // bpd + 1) * bpd
        merged = 0
        for phys, length in runs[1:]:
            if phys == cur_end and phys + length <= disk_end:
                cur_end += length
                merged += 1
            else:
                append(BlockRequest(cur_start, cur_end - cur_start, is_write))
                cur_start, cur_end = phys, phys + length
                disk_end = (cur_start // bpd + 1) * bpd
        append(BlockRequest(cur_start, cur_end - cur_start, is_write))
        if merged:
            self._counters["fs.coalesced_requests"] += merged
        return out

    def _insert_runs(self, smap, runs: list[PhysicalRun]) -> None:
        hist = self._extent_hist
        if hist is None:
            hist = self._extent_hist = self.metrics.histogram_ref("fs.extent_blocks")
        insert = smap.insert
        for run in runs:
            hist.observe(run.length)
            insert(Extent(run.dlocal, run.physical, run.length, 1 if run.unwritten else 0))

    def _slot_share(self, f: RedbudFile, total_blocks: int, slot: int) -> int:
        """Blocks of a ``total_blocks``-file landing on rotation slot ``slot``."""
        sb = f.stripe_blocks
        full_stripes, tail = divmod(total_blocks, sb)
        rounds, extra = divmod(full_stripes, f.width)
        share = rounds * sb
        if slot < extra:
            share += sb
        elif slot == extra:
            share += tail
        return share

    def _check_live(self, f: RedbudFile) -> None:
        if f.deleted or f.file_id not in self._files:
            raise ReproError(f"operation on deleted file: {f.name!r}")
