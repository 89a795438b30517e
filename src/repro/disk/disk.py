"""Simulated single-spindle disk.

A :class:`SimulatedDisk` owns its own timeline (busy time), a head position,
a scheduler, and metrics.  Callers submit *batches* of concurrently
outstanding requests; the scheduler arranges them and the disk accounts
positioning + transfer time per dispatched request.

Each arranged batch is timed by one of two kernels, chosen by its size: the
scalar kernel (:meth:`SimulatedDisk._service_one`) for a single request —
which never touches numpy — and the numpy array kernel
(:meth:`SimulatedDisk._service_arrays`) for two or more.  An attached fault
injector is a filter on the arranged batch: it says how many of the
requests to service, their (possibly torn) lengths, and the fault to raise
once those are billed, so it never selects a kernel either.  Neither does
tracing: both kernels emit the same per-request ``disk`` events.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.config import DiskParams, SchedulerParams
from repro.disk.model import BlockRequest, ServiceTimeModel
from repro.disk.scheduler import make_scheduler
from repro.errors import SimulationError
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer
from repro.sim.metrics import Metrics

#: Scalar-kernel requests whose histogram samples may wait unfolded.
_PENDING_LIMIT = 4096


class SimulatedDisk:
    """One disk: head position, busy-time accounting, attached scheduler."""

    def __init__(
        self,
        params: DiskParams,
        scheduler_params: SchedulerParams | None = None,
        metrics: Metrics | None = None,
        name: str = "disk",
        tracer: Tracer | NullTracer | None = None,
    ) -> None:
        self.params = params
        self.name = name
        self.metrics = metrics if metrics is not None else Metrics()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.model = ServiceTimeModel(params)
        self.scheduler = make_scheduler(
            scheduler_params if scheduler_params is not None else SchedulerParams(),
            self.metrics,
            self.tracer,
        )
        self._head = 0
        self._busy_s = 0.0
        # Hoisted metric handles for the scalar kernel (one journal commit
        # write per metadata op makes the per-call lookup cost visible).
        # All of them survive Metrics.reset().  The kernel leaves its
        # histogram samples pending; fold_samples() folds them, at the
        # latest after _PENDING_LIMIT scalar requests on this disk.
        self._counters = self.metrics.raw_counters()
        self._accumulators = self.metrics.raw_accumulators()
        self._h_latency = self.metrics.histogram_ref("disk.request_latency_s")
        self._h_blocks = self.metrics.histogram_ref("disk.request_blocks")
        self._latency_pending = self._h_latency.pending_append()
        self._blocks_pending = self._h_blocks.pending_append()
        self._pending_room = _PENDING_LIMIT
        #: Optional fault injector (see :mod:`repro.fault`); None when the
        #: disk runs clean.
        self.injector = None

    # -- properties ---------------------------------------------------------
    @property
    def head(self) -> int:
        """Current head position (block number)."""
        return self._head

    @property
    def busy_s(self) -> float:
        """Total seconds this disk has spent servicing requests."""
        return self._busy_s

    @property
    def capacity_blocks(self) -> int:
        return self.params.capacity_blocks

    @property
    def torn_writes(self) -> int:
        """Torn writes injected so far (0 without an injector)."""
        return 0 if self.injector is None else self.injector.torn_writes

    def _charge_header(self) -> float:
        """Bill one per-submission request header (0 when unconfigured).

        Charged once per submit call on this disk, regardless of how many
        runs the submission carries — which is exactly what makes one
        scatter-gather list request cheaper than the equivalent loop of
        scalar submissions when ``DiskParams.request_header_s`` is nonzero.
        """
        header = self.model.header_s
        if header > 0.0:
            self._busy_s += header
            self._counters["disk.request_headers"] += 1
            self.metrics.add("disk.header_s", header)
        return header

    def attach_injector(self, injector) -> None:
        """Install a :class:`~repro.fault.injector.FaultInjector` as the
        filter on every arranged batch, wired into this disk's metrics and
        tracer."""
        injector.bind(self.metrics, self.tracer, self.name)
        self.injector = injector

    def detach_injector(self) -> None:
        self.injector = None

    # -- operation ----------------------------------------------------------
    def submit_batch(self, requests: Sequence[BlockRequest]) -> float:
        """Service a batch of concurrently outstanding requests.

        Returns the seconds spent on the whole batch.  Requests are arranged
        by the scheduler first, so a batch of adjacent runs costs a single
        positioning operation.  A single request is :meth:`submit_one`.
        """
        if len(requests) == 1:
            req = requests[0]
            return self.submit_one(req.start, req.nblocks, req.is_write)
        if not requests:
            return 0.0
        for req in requests:
            if req.end > self.params.capacity_blocks:
                raise self._beyond_capacity(req.start, req.end)
        header = self._charge_header()
        arranged = self.scheduler.arrange(requests)
        n = len(arranged)
        starts = np.fromiter((r.start for r in arranged), dtype=np.int64, count=n)
        nblocks = np.fromiter((r.nblocks for r in arranged), dtype=np.int64, count=n)
        is_write = np.fromiter((r.is_write for r in arranged), dtype=bool, count=n)
        return self._dispatch(starts, nblocks, is_write) + header

    def submit_arrays(
        self, starts: np.ndarray, nblocks: np.ndarray, is_write: np.ndarray
    ) -> float:
        """Array-path submit: like :meth:`submit_batch`, but the batch
        arrives as parallel ``(starts, nblocks, is_write)`` arrays in arrival
        order and no :class:`BlockRequest` objects exist at any point.  The
        capacity check names the first request, in arrival order, that runs
        past the disk's end, before anything is billed.  Caller contract:
        ``nblocks > 0`` and ``starts >= 0``.
        """
        if starts.shape[0] == 0:
            return 0.0
        ends = starts + nblocks
        if int(ends.max()) > self.params.capacity_blocks:
            i = int(np.argmax(ends > self.params.capacity_blocks))
            raise self._beyond_capacity(int(starts[i]), int(ends[i]))
        header = self._charge_header()
        arranged = self.scheduler.arrange_arrays(starts, nblocks, is_write)
        return self._dispatch(*arranged) + header

    def submit(self, request: BlockRequest) -> float:
        """Service a single request (degenerate batch)."""
        return self.submit_one(request.start, request.nblocks, request.is_write)

    def submit_one(self, start: int, nblocks: int, is_write: bool) -> float:
        """Service one request: the effects of arranging and servicing a
        one-request batch — the scheduler's batch counters, the disk
        metrics, head movement, busy-time accounting and trace events —
        without building a request object or calling the scheduler (a
        one-request batch is a fixed point of every scheduler: nothing to
        sort, nothing to merge).  Caller contract: ``nblocks > 0`` and
        ``start >= 0``, as :class:`BlockRequest` validation would enforce.
        """
        end = start + nblocks
        if end > self.params.capacity_blocks:
            raise self._beyond_capacity(start, end)
        header = self._charge_header() if self.model.header_s > 0.0 else 0.0
        counters = self._counters
        counters["scheduler.batches"] += 1
        counters["scheduler.requests_in"] += 1
        counters["scheduler.requests_out"] += 1
        if self.tracer.enabled:
            self.tracer.emit("sched", "arrange", requests_in=1, requests_out=1)
        if self.injector is not None:
            # A lone request is either serviced (perhaps torn) or faults
            # before it reaches the platter.
            lengths, fault = self.injector.filter_batch([start], [nblocks], [is_write])
            if fault is not None:
                raise fault
            nblocks = lengths[0]
        return self._service_one(start, nblocks, is_write) + header

    def _beyond_capacity(self, start: int, end: int) -> SimulationError:
        return SimulationError(
            f"{self.name}: request [{start}, {end}) beyond capacity "
            f"{self.params.capacity_blocks}"
        )

    def _dispatch(
        self, starts: np.ndarray, nblocks: np.ndarray, is_write: np.ndarray
    ) -> float:
        """Time an arranged batch: the scalar kernel for one request, the
        array kernel for more.  An attached fault injector filters the
        batch first; the requests it lets through are timed and billed,
        then its fault, if any, is raised."""
        fault = None
        if self.injector is not None:
            lengths, fault = self.injector.filter_batch(
                starts.tolist(), nblocks.tolist(), is_write.tolist()
            )
            n = len(lengths)
            starts, is_write = starts[:n], is_write[:n]
            nblocks = np.array(lengths, dtype=np.int64)
        n = starts.shape[0]
        total = 0.0
        if n > 1:
            total = self._service_arrays(starts, nblocks, is_write)
        elif n:
            total = self._service_one(int(starts[0]), int(nblocks[0]), bool(is_write[0]))
        if fault is not None:
            raise fault
        return total

    def _service_one(self, start: int, nblocks: int, is_write: bool) -> float:
        """The scalar kernel: time and bill one dispatched request.  Its
        histogram samples are left pending (see :meth:`fold_samples`)."""
        model = self.model
        counters = self._counters
        if start == self._head:
            positioning = 0.0
        else:
            positioning = model.positioning_time(self._head, start)
            if positioning > 0.0:
                counters["disk.positionings"] += 1
        transfer = nblocks * model.transfer_s
        total = positioning + transfer
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(
                "disk",
                "write" if is_write else "read",
                t=self._busy_s,
                dur=total,
                disk=self.name,
                start=start,
                nblocks=nblocks,
                seek_s=positioning,
                transfer_s=transfer,
            )
        self._head = start + nblocks
        self._busy_s += total
        self._latency_pending(total)
        self._blocks_pending(nblocks)
        self._pending_room -= 1
        if not self._pending_room:
            self.fold_samples()
        counters["disk.requests"] += 1
        counters["disk.blocks"] += nblocks
        acc = self._accumulators
        acc["disk.positioning_s"] = acc.get("disk.positioning_s", 0.0) + positioning
        acc["disk.transfer_s"] = acc.get("disk.transfer_s", 0.0) + transfer
        if is_write:
            counters["disk.write_requests"] += 1
            counters["disk.write_blocks"] += nblocks
        else:
            counters["disk.read_requests"] += 1
            counters["disk.read_blocks"] += nblocks
        return total

    def _service_arrays(
        self, starts: np.ndarray, nblocks: np.ndarray, is_write: np.ndarray
    ) -> float:
        """The array kernel: time and bill an *arranged* batch given as
        parallel arrays.

        Per-request times come from the numpy model and the counters are
        committed once per batch.  ``busy_s`` is folded in request order
        (``np.add.accumulate`` is the same left-to-right IEEE fold as a
        loop of the scalar kernel), so timelines match that loop bit for
        bit.  An enabled tracer gets one ``disk`` event per serviced
        request, built from the same arrays after the fact.
        """
        n = starts.shape[0]
        positioning, transfer = self.model.time_batch_arrays(self._head, starts, nblocks)
        dur = positioning + transfer
        elapsed = np.add.accumulate(dur)
        total = float(elapsed[-1])
        if self.tracer.enabled:
            self._emit_requests(starts, nblocks, is_write, positioning, transfer, elapsed)
        self._busy_s += total
        self._head = int(starts[-1] + nblocks[-1])
        metrics = self.metrics
        metrics.observe_array("disk.request_latency_s", dur)
        metrics.observe_array("disk.request_blocks", nblocks)
        metrics.add("disk.positioning_s", float(positioning.sum()))
        metrics.add("disk.transfer_s", float(transfer.sum()))
        blocks_total = int(nblocks.sum())
        metrics.incr("disk.requests", n)
        metrics.incr("disk.blocks", blocks_total)
        positionings = int(np.count_nonzero(positioning))
        if positionings:
            metrics.incr("disk.positionings", positionings)
        writes = int(np.count_nonzero(is_write))
        if writes:
            write_blocks = int(nblocks[is_write].sum())
            metrics.incr("disk.write_requests", writes)
            metrics.incr("disk.write_blocks", write_blocks)
        if writes < n:
            read_blocks = blocks_total - (write_blocks if writes else 0)
            metrics.incr("disk.read_requests", n - writes)
            metrics.incr("disk.read_blocks", read_blocks)
        return total

    def _emit_requests(
        self,
        starts: np.ndarray,
        nblocks: np.ndarray,
        is_write: np.ndarray,
        positioning: np.ndarray,
        transfer: np.ndarray,
        elapsed: np.ndarray,
    ) -> None:
        """One ``disk`` trace event per request of a serviced array batch,
        stamped where the request started on this disk's timeline."""
        emit = self.tracer.emit
        busy = self._busy_s
        begins = [0.0] + elapsed[:-1].tolist()
        for begin, start, count, write, pos, tr in zip(
            begins, starts.tolist(), nblocks.tolist(), is_write.tolist(),
            positioning.tolist(), transfer.tolist(),
        ):
            emit(
                "disk",
                "write" if write else "read",
                t=busy + begin,
                dur=pos + tr,
                disk=self.name,
                start=start,
                nblocks=count,
                seek_s=pos,
                transfer_s=tr,
            )

    def fold_samples(self) -> None:
        """Fold the histogram samples the scalar kernel left pending."""
        self._h_latency.fold()
        self._h_blocks.fold()
        self._pending_room = _PENDING_LIMIT

    def reset_timeline(self) -> None:
        """Zero the busy-time accumulator (head position is retained)."""
        self._busy_s = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimulatedDisk(name={self.name!r}, head={self._head}, busy={self._busy_s:.4f}s)"
