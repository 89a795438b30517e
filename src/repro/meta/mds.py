"""Metadata server.

Executes the directory layout's :class:`~repro.meta.layout.AccessPlan`
footprints against one MDS disk: reads go through the buffer cache (with
readahead), every mutating operation commits a journal record sequentially
(the paper's synchronous-writes Metarates configuration), and dirtied home
blocks are flushed by periodic checkpoints — "the reduction of disk access
counts mainly comes from the checkpoint operations" (§V.D.1).

The server is the unit of timing for all metadata benchmarks: its elapsed
time is disk busy time + per-operation CPU charges + per-request protocol
overhead (paid once for aggregated pairs like readdir-stat).
"""

from __future__ import annotations

import numpy as np

from repro.config import FSConfig
from repro.disk.cache import BufferCache
from repro.disk.disk import SimulatedDisk
from repro.errors import ConfigError
from repro.meta.embedded_layout import EmbeddedLayout
from repro.meta.inode import Inode
from repro.meta.journal import Journal
from repro.meta.layout import AccessPlan
from repro.meta.mfs import MetadataFS
from repro.meta.normal_layout import NormalLayout
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer
from repro.sim.metrics import Metrics


class MetadataServer:
    """One MDS: layout + MFS + journal + cache over a single disk."""

    def __init__(
        self,
        config: FSConfig,
        metrics: Metrics | None = None,
        tracer: Tracer | NullTracer | None = None,
    ) -> None:
        self.config = config
        self.metrics = metrics if metrics is not None else Metrics()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.tracer.bind_clock(lambda: self.elapsed_s)
        self.disk = SimulatedDisk(
            config.mds_disk, config.scheduler, self.metrics, name="mds",
            tracer=self.tracer,
        )
        self.cache = BufferCache(config.cache, self.disk, self.metrics, self.tracer)
        self.mfs = MetadataFS(config.meta, config.mds_disk)
        self.journal = Journal(self.mfs.journal_base, config.meta.journal_blocks)
        if config.meta.layout == "embedded":
            self.layout: EmbeddedLayout | NormalLayout = EmbeddedLayout(
                config.meta, self.mfs
            )
        elif config.meta.layout == "normal":
            self.layout = NormalLayout(config.meta, self.mfs)
        else:  # pragma: no cover - guarded by MetaParams validation
            raise ConfigError(f"unknown layout {config.meta.layout!r}")
        self.layout.metrics = self.metrics
        self.layout.tracer = self.tracer
        self._cpu_s = 0.0
        self._overhead_s = 0.0
        self._dirty: set[int] = set()
        self._ops_since_ckpt = 0
        self.ops = 0
        #: Embedded-directory metadata prefetch (docs/CACHE.md): under the
        #: adaptive cache profile, readdir/readdirplus against an embedded
        #: directory first pulls the whole contiguous inode+extent region
        #: with one batched, unbilled prefetch.
        self._dir_prefetch = (
            config.cache.profile == "adaptive"
            and hasattr(self.layout, "prefetch_region")
        )
        self._sync_writes = config.meta.sync_writes
        self._ckpt_interval = config.meta.journal_interval_ops
        self._req_overhead_s = config.mds_request_overhead_s
        self._counters = self.metrics.raw_counters()
        self._op_latency = self.metrics.histogram_ref("mds.op_latency_s")
        #: Defers a journaled op's latency sample; checkpoints fold them.
        self._op_latency_pending = self._op_latency.pending_append()
        self._op_keys: dict[str, str] = {}

    # -- timing --------------------------------------------------------------
    @property
    def elapsed_s(self) -> float:
        """Serialized MDS time: disk + CPU + protocol overhead."""
        return self.disk.busy_s + self._cpu_s + self._overhead_s

    @property
    def cpu_s(self) -> float:
        return self._cpu_s

    @property
    def root(self):
        return self.layout.root

    @property
    def _redo(self) -> list[list[int]]:
        """Compatibility view of the journal's committed redo records: home
        blocks dirtied by each record since the last checkpoint, in commit
        order (what crash recovery replays)."""
        return [list(r.dirties) for r in self.journal.replay()]

    # -- operations ---------------------------------------------------------
    def mkdir(self, parent, name: str):
        d, plan = self.layout.create_dir(parent, name, self._now())
        self._execute(plan, "mkdir")
        return d

    def create(self, parent, name: str) -> Inode:
        inode, plan = self.layout.create_file(parent, name, self._now())
        self._execute(plan, "create")
        return inode

    def delete(self, parent, name: str) -> None:
        plan = self.layout.delete_file(parent, name)
        self._execute(plan, "delete")

    def utime(self, parent, name: str) -> None:
        plan = self.layout.utime(parent, name, self._now())
        self._execute(plan, "utime")

    def stat(self, parent, name: str) -> Inode:
        inode, plan = self.layout.stat(parent, name)
        self._execute(plan, "stat")
        return inode

    def readdir(self, parent) -> list[str]:
        names, plan = self.layout.readdir(parent)
        if self._dir_prefetch:
            self.cache.prefetch_runs(self.layout.prefetch_region(parent))
        self._execute(plan, "readdir")
        return names

    def readdir_stat(self, parent) -> list[Inode]:
        """Aggregated readdirplus: one MDS request for the whole directory."""
        inodes, plan = self.layout.readdir_stat(parent)
        if self._dir_prefetch:
            self.cache.prefetch_runs(self.layout.prefetch_region(parent))
        self._execute(plan, "readdir_stat")
        return inodes

    def readdir_then_stats(self, parent) -> list[Inode]:
        """Non-aggregated baseline: a readdir followed by one stat request
        per entry (n+1 protocol round trips)."""
        names, plan = self.layout.readdir(parent)
        self._execute(plan, "readdir")
        out = []
        for name in names:
            out.append(self.stat(parent, name))
        return out

    def open_getlayout(self, parent, name: str) -> Inode:
        """Aggregated open+getlayout pair (pNFS/Lustre style): inode plus
        all mapping blocks in one request."""
        inode, plan = self.layout.getlayout(parent, name)
        self._execute(plan, "open_getlayout")
        return inode

    def set_extent_records(self, parent, name: str, count: int) -> None:
        plan = self.layout.set_extent_records(parent, name, count)
        self._execute(plan, "set_extent_records")

    def rename(self, src_dir, src_name: str, dst_dir, dst_name: str) -> None:
        plan = self.layout.rename(src_dir, src_name, dst_dir, dst_name, self._now())
        self._execute(plan, "rename")

    # -- maintenance -----------------------------------------------------------
    def checkpoint(self) -> int:
        """Flush dirty home blocks; returns the number of dirty blocks.

        Also folds the histogram samples the op pipeline left pending,
        which bounds them by the checkpoint interval.
        """
        self._op_latency.fold()
        self.disk.fold_samples()
        if not self._dirty:
            self._ops_since_ckpt = 0
            self.journal.truncate()  # nothing dirty: no record needs replay
            return 0
        blocks = sorted(self._dirty)
        flushed = len(blocks)
        if flushed == 1:
            self.disk.submit_one(blocks[0], 1, True)
        else:
            # The sorted dirty set goes down as parallel arrays — no
            # BlockRequest objects — and the scheduler coalesces adjacent
            # blocks into runs exactly as it arranges per-block requests.
            self.disk.submit_arrays(
                np.fromiter(blocks, dtype=np.int64, count=flushed),
                np.ones(flushed, dtype=np.int64),
                np.ones(flushed, dtype=bool),
            )
        self.cache.insert_blocks(blocks)
        self._dirty.clear()
        self._ops_since_ckpt = 0
        self.journal.truncate()  # checkpointed state needs no replay
        self.metrics.incr("mds.checkpoints")
        self.metrics.incr("mds.checkpoint_blocks", flushed)
        if self.tracer.enabled:
            self.tracer.emit("meta", "checkpoint", blocks=flushed)
        return flushed

    def flush(self) -> None:
        """Final checkpoint (end of a workload phase)."""
        self.checkpoint()

    def drop_caches(self) -> None:
        """Cold-cache boundary between experiment phases."""
        self.cache.drop()

    def crash_recover(self) -> int:
        """Simulate an MDS crash and journal-replay recovery.

        The buffer cache and the in-memory dirty set are lost; committed
        journal records since the last checkpoint are replayed — each
        replay reads the record's journal block and re-dirties its home
        blocks — followed by a recovery checkpoint.  Synchronous journaling
        means no committed operation is lost (the paper's Metarates
        configuration relies on exactly this).  Returns the number of
        records replayed.
        """
        records = self.journal.replay()
        discarded = len(self.journal.pending_records())
        replayed = len(records)
        self.cache.drop()
        self._dirty.clear()
        # Replay: sequential journal scan (one read per record's commit
        # block, cheap) re-establishes the dirty home blocks.  Uncommitted
        # (torn / crashed) records are discarded — their operations never
        # became durable.
        if records:
            self.cache.read_batch([(rec.block, 1) for rec in records])
            for rec in records:
                self._dirty.update(rec.dirties)
        self.checkpoint()  # truncates the journal, discarding torn records
        self.metrics.incr("mds.crash_recoveries")
        self.metrics.incr("mds.replayed_records", replayed)
        if discarded:
            self.metrics.incr("mds.discarded_records", discarded)
        if self.tracer.enabled:
            self.tracer.emit(
                "meta", "crash_recover", replayed=replayed, discarded=discarded
            )
        return replayed

    def reset_timeline(self) -> None:
        """Zero all timing accumulators (phase boundary); namespace and
        on-disk state are retained."""
        self.flush()
        self.disk.reset_timeline()
        self._cpu_s = 0.0
        self._overhead_s = 0.0

    # -- internals -----------------------------------------------------------
    def _now(self) -> float:
        return self.elapsed_s

    def _execute(self, plan: AccessPlan, op_name: str, requests: int = 1) -> None:
        """The per-op pipeline: the plan's reads go through
        :meth:`BufferCache.read_batch`, its journal record is logged and its
        commit spans written through :meth:`SimulatedDisk.submit_one`, its
        dirties join the checkpoint set, and the op latency lands in the
        histogram (journaled ops leave it pending until the next
        checkpoint).  Layout plans arrive coalesced (built through
        :meth:`AccessPlan.add_read`); only raw ones, such as readdir sweeps,
        are coalesced here.  An attached fault injector can tear the commit
        write: write-ahead rules then say the operation never committed,
        so replay skips its record.
        """
        if plan.seen is None:
            plan = plan.coalesce()
        disk = self.disk
        counters = self._counters
        t0 = disk.busy_s + self._cpu_s + self._overhead_s
        reads, dirties = plan.reads, plan.dirties
        if reads:
            self.cache.read_batch(reads)
        journal_records = plan.journal_records
        tracer = self.tracer
        if journal_records > 0 and self._sync_writes:
            record, spans = self.journal.log(dirties, journal_records)
            injector = disk.injector
            torn_before = 0 if injector is None else injector.torn_writes
            for start, nblocks in spans:
                disk.submit_one(start, nblocks, True)
            counters["mds.journal_writes"] += journal_records
            if injector is not None and injector.torn_writes > torn_before:
                counters["mds.torn_journal_records"] += 1
                if tracer.enabled:
                    tracer.emit("meta", "journal_torn", seq=record.seq)
            else:
                record.committed = True
                if tracer.enabled:
                    tracer.emit("meta", "journal_commit", records=journal_records)
        if dirties:
            self._dirty.update(dirties)
        self._cpu_s += plan.cpu_s
        self._overhead_s += requests * self._req_overhead_s
        self.ops += 1
        key = self._op_keys.get(op_name)
        if key is None:
            key = self._op_keys[op_name] = f"mds.op.{op_name}"
        counters[key] += 1
        if journal_records > 0:
            self._ops_since_ckpt += 1
            if self._ops_since_ckpt >= self._ckpt_interval:
                self.checkpoint()
            elapsed = disk.busy_s + self._cpu_s + self._overhead_s - t0
            # Left pending: the checkpoint folds them, so at most one
            # interval's worth wait.
            self._op_latency_pending(elapsed)
        else:
            elapsed = disk.busy_s + self._cpu_s + self._overhead_s - t0
            self._op_latency.observe(elapsed)
        if tracer.enabled:
            tracer.emit("meta", op_name, t=t0, dur=elapsed)
