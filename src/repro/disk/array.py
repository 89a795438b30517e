"""Striped disk array (the shared-disk JBOD behind Redbud's PAGs).

Global block address space is disk-major: disk ``d`` owns global blocks
``[d * blocks_per_disk, (d+1) * blocks_per_disk)``.  Parallel allocation
groups (PAGs) are carved out of this space so that each PAG lies entirely on
one spindle — a physically contiguous global run is then contiguous on its
disk, which is what makes contiguity matter.

Each disk keeps its own busy-time timeline; a phase's elapsed time is the
maximum over disks, modelling spindles that work in parallel.  A batch
takes one of two paths by its size alone: a single request goes to its
disk's scalar ``submit_one``, a larger batch is split per disk as parallel
arrays.  An attached fault injector filters inside each disk and never
picks the path.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.config import DiskParams, SchedulerParams
from repro.disk.disk import SimulatedDisk
from repro.disk.model import BlockRequest
from repro.errors import SimulationError
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer
from repro.sim.metrics import Metrics


class DiskArray:
    """N identical simulated disks behind one global block address space."""

    def __init__(
        self,
        ndisks: int,
        disk_params: DiskParams,
        scheduler_params: SchedulerParams | None = None,
        metrics: Metrics | None = None,
        tracer: Tracer | NullTracer | None = None,
    ) -> None:
        if ndisks <= 0:
            raise SimulationError(f"ndisks must be positive: {ndisks}")
        self.metrics = metrics if metrics is not None else Metrics()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.disk_params = disk_params
        self.disks = [
            SimulatedDisk(
                disk_params,
                scheduler_params,
                self.metrics,
                name=f"disk{d}",
                tracer=self.tracer,
            )
            for d in range(ndisks)
        ]
        self.blocks_per_disk = disk_params.capacity_blocks
        #: Which submit path serviced each batch: the array path for
        #: multi-request batches, a disk's scalar ``submit_one`` for
        #: single-request ones.  Kept off the Metrics bag on purpose — both
        #: paths report *identical* metrics, while these counters exist to
        #: tell them apart.
        self.io_profile: dict[str, int] = {
            "batches_vectorized": 0,
            "batches_scalar": 0,
        }

    @property
    def ndisks(self) -> int:
        return len(self.disks)

    @property
    def total_blocks(self) -> int:
        """Capacity of the whole array in global blocks."""
        return self.ndisks * self.blocks_per_disk

    def locate(self, global_block: int) -> tuple[int, int]:
        """Translate a global block number to ``(disk index, local block)``."""
        if not (0 <= global_block < self.total_blocks):
            raise SimulationError(f"global block out of range: {global_block}")
        return divmod(global_block, self.blocks_per_disk)

    def submit_batch(self, requests: Sequence[BlockRequest]) -> float:
        """Service a batch of concurrently outstanding global requests.

        Requests are split per disk and each disk services its share on its
        own timeline.  Returns the batch's wall time: the maximum per-disk
        batch time (disks run in parallel).  A single request goes to its
        disk's :meth:`~repro.disk.disk.SimulatedDisk.submit_one`; a larger
        batch is converted once into parallel numpy arrays, split per disk
        with integer arithmetic and handed to each disk's
        :meth:`~repro.disk.disk.SimulatedDisk.submit_arrays` in ascending
        disk order — no per-request ``locate`` calls and no local
        :class:`BlockRequest` copies.  Bounds and span checks fire before
        any disk services work; an injected fault on one disk leaves the
        disks after it unserviced.
        """
        if len(requests) == 1:
            self.io_profile["batches_scalar"] += 1
            req = requests[0]
            disk_idx, local = self.locate(req.start)
            if local + req.nblocks > self.blocks_per_disk:
                raise SimulationError(
                    f"request [{req.start}, {req.start + req.nblocks}) spans disks"
                )
            return self.disks[disk_idx].submit_one(local, req.nblocks, req.is_write)
        if not requests:
            return 0.0
        self.io_profile["batches_vectorized"] += 1
        n = len(requests)
        starts = np.fromiter((r.start for r in requests), dtype=np.int64, count=n)
        nblocks = np.fromiter((r.nblocks for r in requests), dtype=np.int64, count=n)
        writes = np.fromiter((r.is_write for r in requests), dtype=bool, count=n)
        bpd = self.blocks_per_disk
        disk_idx = starts // bpd
        local = starts - disk_idx * bpd
        out_of_range = (starts < 0) | (disk_idx >= len(self.disks))
        spans = local + nblocks > bpd
        bad = out_of_range | spans
        if bad.any():
            i = int(np.argmax(bad))
            if out_of_range[i]:
                raise SimulationError(f"global block out of range: {int(starts[i])}")
            raise SimulationError(
                f"request [{int(starts[i])}, {int(starts[i] + nblocks[i])}) spans disks"
            )
        total = 0.0
        disks = self.disks
        for d in np.unique(disk_idx).tolist():
            mask = disk_idx == d
            t = disks[d].submit_arrays(local[mask], nblocks[mask], writes[mask])
            if t > total:
                total = t
        return total

    @property
    def elapsed_s(self) -> float:
        """Wall time of all work so far: the busiest disk's timeline."""
        return max(d.busy_s for d in self.disks)

    @property
    def total_busy_s(self) -> float:
        """Sum of per-disk busy seconds (utilization accounting)."""
        return sum(d.busy_s for d in self.disks)

    def reset_timelines(self) -> None:
        """Zero all disk timelines (between experiment phases)."""
        for d in self.disks:
            d.reset_timeline()
