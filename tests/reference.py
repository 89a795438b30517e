"""Straight-line reference oracles for the simulator's fast paths.

Each class or function here is the plain scalar form of one production
code path, kept only so tests can compare the production path against it:

- :class:`ReferenceDisk` — the per-request service loop for every
  submission, with an attached fault injector applied one request at a
  time by :func:`filter_request` (the production disk times one request
  with its scalar kernel and two or more with its numpy array kernel, and
  its injector filters a whole arranged batch at once);
- :class:`ReferenceDiskArray` — every batch split per disk through
  :class:`~repro.disk.model.BlockRequest` objects (the production array
  converts multi-request batches to parallel arrays once);
- :func:`coalesce_requests` — adjacent-request merging over request
  objects (the production data plane merges ``(physical, length)`` runs
  inline in ``DataPlane._emit``);
- :class:`ReferenceDataPlane` — per-stripe-unit mapping with one request
  per mapped extent and no coalescing, over a :class:`ReferenceDiskArray`
  of reference disks;
- :class:`ReferenceMetadataServer` — per-read, per-span, per-block plan
  execution, checkpoints and recovery over a :class:`ReferenceDisk`;
- :func:`check_dataplane_reference` / :func:`check_mds_reference` — the
  dict-based single-threaded fsck walks the sharded checkers in
  :mod:`repro.fs.verify` must match byte for byte;
- :class:`ReferenceEventLoop`, :class:`ReferenceStation` and
  :class:`ReferenceServiceEvents` — the open-loop engine with one
  scheduling call, one histogram observation per sample and one shared
  generator loop per event (the production engine inlines scheduling,
  tallies queue depths and runs one specialised loop per op kind).
"""

from __future__ import annotations

import heapq
from collections import deque
from collections.abc import Sequence

import numpy as np

from repro.config import DiskParams, FSConfig, SchedulerParams
from repro.disk.array import DiskArray
from repro.disk.cache import BufferCache
from repro.disk.disk import SimulatedDisk
from repro.disk.model import BlockRequest
from repro.errors import (
    ConfigError,
    CrashError,
    LatentSectorError,
    ReproError,
    SimulationError,
)
from repro.fault import FaultInjector
from repro.fs.dataplane import DataPlane
from repro.fs.file import RedbudFile
from repro.fs.stream import StreamId
from repro.fs.verify import FsckReport
from repro.meta.embedded_layout import EmbeddedLayout
from repro.meta.layout import AccessPlan
from repro.meta.mds import MetadataServer
from repro.meta.normal_layout import NormalLayout
from repro.obs.histogram import Histogram
from repro.obs.trace import NullTracer, Tracer
from repro.rng import derive_rng
from repro.sim.clock import SimClock
from repro.sim.metrics import Metrics
from repro.workloads.base import MetaOp, ReadOp, WriteOp
from repro.workloads.service import REGION_SLOTS

# ---------------------------------------------------------------------------
# Disk
# ---------------------------------------------------------------------------


def filter_request(injector: FaultInjector, req: BlockRequest) -> BlockRequest:
    """Apply ``injector``'s plan to one arranged request: returns the
    (possibly torn) request to service, or raises the injected fault."""
    if not injector.armed:
        return req
    crash_after = injector.plan.crash_after_requests
    if crash_after is not None and injector.requests_seen >= crash_after:
        injector.crashes += 1
        injector.disarm()
        injector._incr("fault.crashes")
        if injector.tracer.enabled:
            injector.tracer.emit(
                "fault", "crash", disk=injector.disk_name, after=injector.requests_seen
            )
        raise CrashError(
            f"{injector.disk_name}: injected crash after {injector.requests_seen} requests"
        )
    injector.requests_seen += 1
    injector._incr("fault.requests")

    if not req.is_write:
        bad = [b for b in range(req.start, req.end) if b in injector._bad_blocks]
        if bad:
            injector.lse_errors += 1
            injector._incr("fault.lse_errors")
            if injector.tracer.enabled:
                injector.tracer.emit("fault", "lse", disk=injector.disk_name, block=bad[0])
            raise LatentSectorError(
                f"{injector.disk_name}: latent sector error at block {bad[0]}"
            )
        return req

    healed = injector._bad_blocks.intersection(range(req.start, req.end))
    if healed:
        injector._bad_blocks -= healed
        injector._incr("fault.lse_healed", len(healed))
    if injector.plan.torn_every > 0 and req.nblocks >= 2:
        injector._writes_seen += 1
        if injector._writes_seen % injector.plan.torn_every == 0:
            keep = max(1, req.nblocks // 2)
            injector.torn_writes += 1
            injector._incr("fault.torn_writes")
            if injector.tracer.enabled:
                injector.tracer.emit(
                    "fault",
                    "torn_write",
                    disk=injector.disk_name,
                    start=req.start,
                    nblocks=req.nblocks,
                    kept=keep,
                )
            injector.written.update(range(req.start, req.start + keep))
            return BlockRequest(req.start, keep, is_write=True)
    injector.written.update(range(req.start, req.end))
    return req


class ReferenceDisk(SimulatedDisk):
    """A disk whose every submission — batch, array or single request —
    takes the per-request service loop, with an attached injector applied
    one request at a time by :func:`filter_request`."""

    def submit_batch(self, requests: Sequence[BlockRequest]) -> float:
        if not requests:
            return 0.0
        for req in requests:
            if req.end > self.params.capacity_blocks:
                raise SimulationError(
                    f"{self.name}: request [{req.start}, {req.end}) beyond capacity "
                    f"{self.params.capacity_blocks}"
                )
        header = self._charge_header()
        return self._service(self.scheduler.arrange(requests)) + header

    def submit_arrays(self, starts, nblocks, is_write) -> float:
        return self.submit_batch([
            BlockRequest(s, n, w)
            for s, n, w in zip(starts.tolist(), nblocks.tolist(), is_write.tolist())
        ])

    def submit_one(self, start: int, nblocks: int, is_write: bool) -> float:
        return self.submit_batch([BlockRequest(start, nblocks, is_write)])

    def _service(self, arranged: Sequence[BlockRequest]) -> float:
        """Time an arranged batch request by request; a fault still bills
        the requests serviced before it."""
        tracer = self.tracer
        total = 0.0
        try:
            for req in arranged:
                if self.injector is not None:
                    req = filter_request(self.injector, req)
                positioning = self.model.positioning_time(self._head, req.start)
                transfer = self.model.transfer_time(req.nblocks)
                if tracer.enabled:
                    tracer.emit(
                        "disk",
                        "write" if req.is_write else "read",
                        t=self._busy_s + total,
                        dur=positioning + transfer,
                        disk=self.name,
                        start=req.start,
                        nblocks=req.nblocks,
                        seek_s=positioning,
                        transfer_s=transfer,
                    )
                total += positioning + transfer
                self._head = req.end
                self.metrics.observe("disk.request_latency_s", positioning + transfer)
                self.metrics.observe("disk.request_blocks", req.nblocks)
                self.metrics.incr("disk.requests")
                self.metrics.incr("disk.blocks", req.nblocks)
                if positioning > 0.0:
                    self.metrics.incr("disk.positionings")
                self.metrics.add("disk.positioning_s", positioning)
                self.metrics.add("disk.transfer_s", transfer)
                if req.is_write:
                    self.metrics.incr("disk.write_requests")
                    self.metrics.incr("disk.write_blocks", req.nblocks)
                else:
                    self.metrics.incr("disk.read_requests")
                    self.metrics.incr("disk.read_blocks", req.nblocks)
        finally:
            self._busy_s += total
        return total


class ReferenceDiskArray(DiskArray):
    """A disk array that splits every batch per disk as request objects,
    submitted in ascending disk order as the production array does.

    With ``scalar=True`` its disks are :class:`ReferenceDisk` instances, so
    no numpy kernel runs anywhere beneath it.
    """

    def __init__(
        self,
        ndisks: int,
        disk_params: DiskParams,
        scheduler_params: SchedulerParams | None = None,
        metrics: Metrics | None = None,
        tracer: Tracer | NullTracer | None = None,
        scalar: bool = False,
    ) -> None:
        super().__init__(ndisks, disk_params, scheduler_params, metrics, tracer)
        if scalar:
            self.disks = [
                ReferenceDisk(
                    disk_params, scheduler_params, self.metrics,
                    name=f"disk{d}", tracer=self.tracer,
                )
                for d in range(ndisks)
            ]

    def submit_batch(self, requests: Sequence[BlockRequest]) -> float:
        if not requests:
            return 0.0
        self.io_profile["batches_scalar"] += 1
        per_disk: dict[int, list[BlockRequest]] = {}
        for req in requests:
            disk_idx, local = self.locate(req.start)
            if local + req.nblocks > self.blocks_per_disk:
                raise SimulationError(
                    f"request [{req.start}, {req.start + req.nblocks}) spans disks"
                )
            per_disk.setdefault(disk_idx, []).append(
                BlockRequest(local, req.nblocks, req.is_write)
            )
        return max(
            self.disks[idx].submit_batch(per_disk[idx]) for idx in sorted(per_disk)
        )


# ---------------------------------------------------------------------------
# Data plane
# ---------------------------------------------------------------------------


def coalesce_requests(
    requests: list[BlockRequest], blocks_per_disk: int
) -> list[BlockRequest]:
    """Merge physically adjacent same-direction requests on one disk.

    Never merges across a disk boundary or a read/write boundary; total
    blocks are preserved.
    """
    if len(requests) < 2:
        return requests
    bpd = blocks_per_disk
    out: list[BlockRequest] = []
    prev = requests[0]
    for req in requests[1:]:
        if (
            req.is_write == prev.is_write
            and prev.end == req.start
            and prev.start // bpd == (req.end - 1) // bpd
        ):
            prev = BlockRequest(prev.start, prev.nblocks + req.nblocks, prev.is_write)
        else:
            out.append(prev)
            prev = req
    out.append(prev)
    return out


class ReferenceDataPlane(DataPlane):
    """Per-stripe-unit data-plane mapping: one allocation call per stripe
    unit, one request per mapped extent, no coalescing, scalar disks."""

    def __init__(self, config: FSConfig, metrics=None, tracer=None) -> None:
        super().__init__(config, metrics, tracer)
        self.array = ReferenceDiskArray(
            config.ndisks, config.disk, config.scheduler, self.metrics,
            self.tracer, scalar=True,
        )

    def write(
        self, f: RedbudFile, stream: StreamId, offset: int, nbytes: int
    ) -> list[BlockRequest]:
        self._check_live(f)
        self._check_range(offset, nbytes, "write")
        lb, nb = self._span(offset, nbytes)
        requests: list[BlockRequest] = []
        self._map_write_scalar(f, stream, lb, nb, requests)
        f.size_bytes = max(f.size_bytes, offset + nbytes)
        self.metrics.incr("fs.writes")
        self.metrics.incr("fs.bytes_written", nbytes)
        return requests

    def writev(
        self, f: RedbudFile, stream: StreamId, regions: list[tuple[int, int]]
    ) -> list[BlockRequest]:
        self._check_live(f)
        if not regions:
            raise ReproError("writev of an empty region list")
        for offset, nbytes in regions:
            self._check_range(offset, nbytes, "writev")
        requests: list[BlockRequest] = []
        for offset, nbytes in regions:
            lb, nb = self._span(offset, nbytes)
            self._map_write_scalar(f, stream, lb, nb, requests)
            f.size_bytes = max(f.size_bytes, offset + nbytes)
            self.metrics.incr("fs.writes")
            self.metrics.incr("fs.bytes_written", nbytes)
        self.metrics.incr("fs.listio_writes")
        self.metrics.incr("fs.listio_regions", len(regions))
        return requests

    def read(self, f: RedbudFile, offset: int, nbytes: int) -> list[BlockRequest]:
        self._check_live(f)
        self._check_range(offset, nbytes, "read")
        lb, nb = self._span(offset, nbytes)
        requests: list[BlockRequest] = []
        self._map_read_scalar(f, lb, nb, requests)
        self.metrics.incr("fs.reads")
        self.metrics.incr("fs.bytes_read", nbytes)
        return requests

    def readv(
        self, f: RedbudFile, regions: list[tuple[int, int]]
    ) -> list[BlockRequest]:
        self._check_live(f)
        if not regions:
            raise ReproError("readv of an empty region list")
        for offset, nbytes in regions:
            self._check_range(offset, nbytes, "readv")
        requests: list[BlockRequest] = []
        for offset, nbytes in regions:
            lb, nb = self._span(offset, nbytes)
            self._map_read_scalar(f, lb, nb, requests)
            self.metrics.incr("fs.reads")
            self.metrics.incr("fs.bytes_read", nbytes)
        self.metrics.incr("fs.listio_reads")
        self.metrics.incr("fs.listio_regions", len(regions))
        return requests

    def _map_write_scalar(
        self,
        f: RedbudFile,
        stream: StreamId,
        lb: int,
        nb: int,
        requests: list[BlockRequest],
    ) -> None:
        for slot, dstart, dcount in f.segments(lb, nb):
            smap = f.maps[slot]
            if self.policy.cow:
                # Copy-on-write: overwrites are relocated — unmap and free
                # any written blocks in range so they reallocate below.
                for ext in smap.remove_range(dstart, dcount):
                    self.fsm.free(ext.physical, ext.length)
                    self.metrics.incr("fs.cow_relocated_blocks", ext.length)
            holes = smap.holes_in_range(dstart, dcount)
            smap.mark_written(dstart, dcount)
            buffered = False
            for h_start, h_count in holes:
                runs = self.policy.allocate(
                    f.file_id, stream, self._target(f, slot), h_start, h_count
                )
                if not runs:
                    buffered = True  # delayed allocation
                    continue
                self._insert_runs(smap, runs)
            for ext in smap.lookup_range(dstart, dcount):
                if not ext.unwritten:
                    requests.append(BlockRequest(ext.physical, ext.length, is_write=True))
            if buffered:
                self.metrics.incr("fs.buffered_writes")

    def _map_read_scalar(
        self, f: RedbudFile, lb: int, nb: int, requests: list[BlockRequest]
    ) -> None:
        for slot, dstart, dcount in f.segments(lb, nb):
            for ext in f.maps[slot].lookup_range(dstart, dcount):
                if not ext.unwritten:
                    requests.append(BlockRequest(ext.physical, ext.length, is_write=False))


# ---------------------------------------------------------------------------
# Metadata server
# ---------------------------------------------------------------------------


class ReferenceMetadataServer(MetadataServer):
    """Per-read, per-span, per-block metadata execution over a
    :class:`ReferenceDisk`."""

    def __init__(self, config: FSConfig, metrics=None, tracer=None) -> None:
        super().__init__(config, metrics, tracer)
        self.disk = ReferenceDisk(
            config.mds_disk, config.scheduler, self.metrics, name="mds",
            tracer=self.tracer,
        )
        self.cache = BufferCache(config.cache, self.disk, self.metrics, self.tracer)

    def _execute(self, plan: AccessPlan, op_name: str, requests: int = 1) -> None:
        plan = plan.coalesce()
        t0 = self.elapsed_s
        for block, count in plan.reads:
            self.cache.read(block, count)
        if plan.journal_records > 0 and self.config.meta.sync_writes:
            record, spans = self.journal.log(plan.dirties, plan.journal_records)
            torn_before = self.disk.torn_writes
            for start, nblocks in spans:
                self.disk.submit(BlockRequest(start, nblocks, is_write=True))
            self.metrics.incr("mds.journal_writes", plan.journal_records)
            if self.disk.torn_writes > torn_before:
                self.metrics.incr("mds.torn_journal_records")
                if self.tracer.enabled:
                    self.tracer.emit("meta", "journal_torn", seq=record.seq)
            else:
                self.journal.commit(record)
                if self.tracer.enabled:
                    self.tracer.emit(
                        "meta", "journal_commit", records=plan.journal_records
                    )
        if plan.dirties:
            self._dirty.update(plan.dirties)
        self._cpu_s += plan.cpu_s
        self._overhead_s += requests * self.config.mds_request_overhead_s
        self.ops += 1
        self.metrics.incr(f"mds.op.{op_name}")
        if plan.journal_records > 0:
            self._ops_since_ckpt += 1
            if self._ops_since_ckpt >= self.config.meta.journal_interval_ops:
                self.checkpoint()
        elapsed = self.elapsed_s - t0
        self.metrics.observe("mds.op_latency_s", elapsed)
        if self.tracer.enabled:
            self.tracer.emit("meta", op_name, t=t0, dur=elapsed)

    def checkpoint(self) -> int:
        self.disk.fold_samples()
        if not self._dirty:
            self._ops_since_ckpt = 0
            self.journal.truncate()
            return 0
        blocks = sorted(self._dirty)
        self.disk.submit_batch([BlockRequest(b, 1, is_write=True) for b in blocks])
        for b in blocks:
            self.cache._insert(b, 1)
        self._dirty.clear()
        self._ops_since_ckpt = 0
        self.journal.truncate()
        self.metrics.incr("mds.checkpoints")
        self.metrics.incr("mds.checkpoint_blocks", len(blocks))
        if self.tracer.enabled:
            self.tracer.emit("meta", "checkpoint", blocks=len(blocks))
        return len(blocks)

    def crash_recover(self) -> int:
        records = self.journal.replay()
        discarded = len(self.journal.pending_records())
        self.cache.drop()
        self._dirty.clear()
        for rec in records:
            self.cache.read(rec.block, 1)
            self._dirty.update(rec.dirties)
        self.checkpoint()
        self.metrics.incr("mds.crash_recoveries")
        self.metrics.incr("mds.replayed_records", len(records))
        if discarded:
            self.metrics.incr("mds.discarded_records", discarded)
        if self.tracer.enabled:
            self.tracer.emit(
                "meta", "crash_recover", replayed=len(records), discarded=discarded
            )
        return len(records)


# ---------------------------------------------------------------------------
# fsck
# ---------------------------------------------------------------------------


def check_dataplane_reference(
    plane: DataPlane, strict_accounting: bool = True
) -> FsckReport:
    """Single-threaded dict-based data-plane checker (equivalence oracle)."""
    report = FsckReport()
    owner: dict[int, str] = {}
    mapped_blocks = 0
    for f in plane.files():
        for slot, smap in enumerate(f.maps):
            try:
                smap.validate()
            except Exception as exc:  # structural corruption
                report.error(f"{f.name} slot {slot}: invalid extent map: {exc}", code="extent-map-invalid")
                continue
            for ext in smap:
                report.checked_extents += 1
                mapped_blocks += ext.length
                try:
                    group = plane.fsm.group_of(ext.physical)
                except Exception:
                    report.error(
                        f"{f.name} slot {slot}: extent {ext} outside the array",
                        code="extent-outside-array",
                    )
                    continue
                if ext.physical_end > group.end:
                    report.error(
                        f"{f.name} slot {slot}: extent {ext} crosses its PAG",
                        code="extent-crosses-pag",
                    )
                if group.index != f.layout[slot]:
                    report.error(
                        f"{f.name} slot {slot}: extent {ext} in PAG {group.index}, "
                        f"layout says {f.layout[slot]}",
                        code="extent-wrong-pag",
                    )
                for b in range(ext.physical, ext.physical_end):
                    prior = owner.get(b)
                    if prior is not None:
                        report.error(
                            f"block {b} owned by both {prior} and {f.name}#{slot}",
                            code="double-owned-block",
                        )
                        break
                    owner[b] = f"{f.name}#{slot}"
                if any(
                    group.free.is_free(b, 1)
                    for b in range(ext.physical, ext.physical_end)
                ):
                    report.error(
                        f"{f.name} slot {slot}: extent {ext} maps free blocks",
                        code="extent-maps-free",
                    )
    if strict_accounting:
        held = plane.fsm.used_blocks - mapped_blocks
        if held < 0:
            report.error(
                f"accounting: mapped {mapped_blocks} blocks exceed used "
                f"{plane.fsm.used_blocks}",
                code="accounting-overmapped",
            )
    return report


def check_mds_reference(mds: MetadataServer) -> FsckReport:
    """Single-threaded dict-based metadata checker (equivalence oracle)."""
    report = FsckReport()
    layout = mds.layout
    if isinstance(layout, EmbeddedLayout):
        _check_embedded(layout, report)
    elif isinstance(layout, NormalLayout):
        _check_normal(layout, report)
    return report


def _check_embedded(layout: EmbeddedLayout, report: FsckReport) -> None:
    content_owner: dict[int, int] = {}
    for d in layout._dirs.values():
        for start, count in d.content_runs:
            for b in range(start, start + count):
                prior = content_owner.get(b)
                if prior is not None:
                    report.error(
                        f"content block {b} owned by dirs {prior} and {d.dir_id}",
                        code="content-block-overlap",
                    )
                content_owner[b] = d.dir_id
        if d.dir_id not in layout.gdt:
            report.error(f"directory {d.dir_id} missing from the directory table",
                code="dir-missing-from-gdt",
            )
        for name, ino in d.entries.items():
            report.checked_inodes += 1
            try:
                inode = layout.inode_by_number(ino)
            except Exception:
                report.error(f"dir {d.dir_id}: entry {name!r} -> dangling inode {ino}",
                    code="dangling-inode",
                )
                continue
            if not inode.is_dir and inode.home_block not in content_owner:
                report.error(
                    f"inode {ino} ({name!r}) home block {inode.home_block} "
                    f"outside any directory content",
                    code="orphan-home-block",
                )
            if inode.name != name:
                report.error(
                    f"inode {ino}: name {inode.name!r} != entry name {name!r}",
                    code="inode-name-mismatch",
                )
    # Every live directory id must resolve through the table.
    for d in layout._dirs.values():
        try:
            layout.gdt.dir_ino_of(d.dir_id)
        except Exception:
            report.error(f"directory table cannot resolve dir {d.dir_id}",
                code="gdt-unresolvable",
            )


def _check_normal(layout: NormalLayout, report: FsckReport) -> None:
    mfs = layout.mfs
    for d in layout._dirs.values():
        if len(d.dentry_blocks) != len(d.fill):
            report.error(f"dir {d.ino}: dentry-block/fill length mismatch",
                code="dentry-fill-mismatch",
            )
        occupancy = sum(d.fill)
        if occupancy != len(d.entries):
            report.error(
                f"dir {d.ino}: fill says {occupancy} entries, map has {len(d.entries)}",
                code="entry-count-mismatch",
            )
        for name, ino in d.entries.items():
            report.checked_inodes += 1
            try:
                inode = layout.inode_by_number(ino)
            except Exception:
                report.error(f"dir {d.ino}: entry {name!r} -> dangling inode {ino}",
                    code="dangling-inode",
                )
                continue
            expected_block, expected_slot = mfs.itable_block_of(ino)
            if (inode.home_block, inode.home_slot) != (expected_block, expected_slot):
                report.error(
                    f"inode {ino}: home {inode.home_block}/{inode.home_slot} != "
                    f"itable {expected_block}/{expected_slot}",
                    code="inode-home-mismatch",
                )
            if d.entry_block.get(name) not in d.dentry_blocks:
                report.error(f"dir {d.ino}: entry {name!r} in unknown dentry block",
                    code="entry-unknown-dentry-block",
                )


# ---------------------------------------------------------------------------
# Open-loop event engine
# ---------------------------------------------------------------------------


class ReferenceEventLoop:
    """The per-event loop: pop, dispatch, draw the next event, push.

    Heap entries are ``(when, seq, source_id)`` with the op parked in a
    dict beside the heap; every event goes through one scheduling call.
    """

    def __init__(self, clock=None) -> None:
        self.clock = clock if clock is not None else SimClock()
        self._heap: list = []
        self._pending: dict = {}
        self._sources: dict = {}
        self._seq = 0
        self.processed = 0
        self.probe = None

    def __len__(self) -> int:
        return len(self._heap)

    def add_source(self, events, on_event) -> None:
        sid = len(self._sources)
        self._sources[sid] = (events, on_event)
        self._schedule_next(sid, self.clock.now)

    def _schedule_next(self, sid: int, after: float) -> None:
        events, _ = self._sources[sid]
        try:
            dt, op = next(events)
        except StopIteration:
            del self._sources[sid]
            return
        if dt < 0.0:
            raise ConfigError(f"negative inter-arrival time from source {sid}: {dt}")
        self._pending[sid] = op
        heapq.heappush(self._heap, (after + dt, self._seq, sid))
        self._seq += 1

    def run(self, until: float | None = None) -> int:
        processed = 0
        heap = self._heap
        probe = self.probe
        while heap:
            when, _, sid = heap[0]
            if until is not None and when > until:
                break
            heapq.heappop(heap)
            op = self._pending.pop(sid)
            self.clock.advance_to(when)
            if probe is not None:
                probe(when, op)
            _, on_event = self._sources[sid]
            on_event(when, op)
            self._schedule_next(sid, when)
            processed += 1
        if until is not None:
            self.clock.advance_to(until)
        self.processed += processed
        return processed


class ReferenceStation:
    """The per-arrival station: every counter kept eagerly, every
    queue-depth and sojourn sample observed into its histogram on the
    spot."""

    def __init__(self, name: str, execute, depth: int) -> None:
        if depth < 1:
            raise ConfigError(f"station queue depth must be >= 1: {depth}")
        self.name = name
        self.depth = depth
        self._execute = execute
        self.latency = Histogram()
        self.queue_depth = Histogram()
        self.offered = 0
        self.started = 0
        self.dropped = 0
        self.completed = 0
        self.busy_s = 0.0
        self.free_at = 0.0
        self._inflight: deque[float] = deque()
        self.probe = None

    def offer(self, now: float, op):
        inflight = self._inflight
        while inflight and inflight[0] <= now:
            inflight.popleft()
            self.completed += 1
        self.offered += 1
        q = len(inflight)
        self.queue_depth.observe(float(q))
        if q >= self.depth:
            self.dropped += 1
            if self.probe is not None:
                self.probe(now, op, q, None, 0.0)
            return None
        service = self._execute(op)
        if service < 0.0:
            raise ConfigError(f"negative service time at station {self.name}: {service}")
        start = now if now > self.free_at else self.free_at
        done = start + service
        self.free_at = done
        self.busy_s += service
        inflight.append(done)
        self.latency.observe(done - now)
        self.started += 1
        if self.probe is not None:
            self.probe(now, op, q, done, service)
        return done

    def drain(self) -> float:
        last = self._inflight[-1] if self._inflight else 0.0
        self.completed += len(self._inflight)
        self._inflight.clear()
        return last

    @property
    def in_flight(self) -> int:
        return len(self._inflight)


class ReferenceServiceEvents:
    """The superposed-Poisson generators over a set-up service workload:
    one shared loop for every kind, an op builder call per event, and an
    8-byte numpy op counter per stream."""

    def __init__(self, wl) -> None:
        self.wl = wl
        self._cursors = np.zeros(wl.regions, dtype=np.int64)
        self.ops_per_stream = np.zeros(wl.spec.streams, dtype=np.int64)
        self.pending_stream: dict[str, int] = {}

    def events(self, kind: str):
        spec = self.wl.spec
        lam = spec.kind_rate(kind)
        if lam <= 0.0:
            return
        rng = derive_rng(spec.seed, "service", kind)
        scale = 1.0 / lam
        build = {"write": self._write_op, "read": self._read_op, "meta": self._meta_op}[kind]
        counts = self.ops_per_stream
        while True:
            dt = float(rng.exponential(scale))
            s = int(rng.integers(spec.streams))
            counts[s] += 1
            self.pending_stream[kind] = s
            yield dt, build(s, rng)

    def _write_op(self, s: int, rng):
        wl = self.wl
        region = s % wl.regions
        slot = int(self._cursors[region])
        self._cursors[region] = (slot + 1) % REGION_SLOTS
        offset = region * wl.region_bytes + slot * wl.spec.request_bytes
        return WriteOp(wl.file, offset, wl.spec.request_bytes)

    def _read_op(self, s: int, rng):
        wl = self.wl
        region = s % wl.regions
        slot = int(rng.integers(REGION_SLOTS))
        offset = region * wl.region_bytes + slot * wl.spec.request_bytes
        return ReadOp(wl.file, offset, wl.spec.request_bytes)

    def _meta_op(self, s: int, rng):
        dirh, name = self.wl._pool[s % len(self.wl._pool)]
        method = "stat" if rng.random() < 0.5 else "utime"
        return MetaOp(method, (dirh, name))

    @property
    def active_streams(self) -> int:
        return int(np.count_nonzero(self.ops_per_stream))
