"""Property: a disk with an attached fault injector is its per-request oracle.

The production disk hands each arranged batch to
:meth:`FaultInjector.filter_batch` and times what it lets through with the
scalar kernel (one request) or the array kernel (two or more).  The
reference disk (``tests/reference.py``) walks the batch one request at a
time, applying the plan per request with :func:`filter_request`.  Driven
by the same random submissions — ``submit_batch``, ``submit_one``,
``submit_arrays`` and ``DiskArray.submit_batch``, with ``disarm`` and
``develop_lse`` in between — both must agree exactly on every step: the
return value or the exception's type and message, busy time and head, the
whole metrics snapshot (bucket order included), the injector's state, and
the multiset of trace events (the filter emits a batch's ``fault`` events
before its ``disk`` events, so only the order inside one step may differ).

All timings are dyadic (power-of-two transfer, seek, rotation and header
costs), so every sum is exact in any order: the array kernel's pairwise
sums must then equal the per-request fold bit for bit, and nothing needs a
tolerance.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DiskParams, SchedulerParams
from repro.disk.array import DiskArray
from repro.disk.disk import SimulatedDisk
from repro.disk.model import BlockRequest
from repro.errors import ReproError
from repro.fault import FaultInjector, FaultPlan
from repro.obs.trace import Tracer
from repro.sim.metrics import Metrics

from tests.reference import ReferenceDisk, ReferenceDiskArray

CAPACITY = 128
PARAMS = DiskParams(
    block_size=4096,
    capacity_blocks=CAPACITY,
    seq_bandwidth=4096 * 1024.0,  # 2**-10 s per block
    min_seek_s=2.0**-9,
    max_seek_s=2.0**-9,
    rotational_s=2.0**-8,
    near_gap_blocks=8,
    request_header_s=2.0**-12,
)

schedulers = st.builds(
    SchedulerParams,
    kind=st.sampled_from(["elevator", "fifo"]),
    merge_gap_blocks=st.integers(min_value=0, max_value=4),
    batch_limit=st.integers(min_value=1, max_value=4),
)
plans = st.builds(
    FaultPlan,
    seed=st.just(0),
    lse_ranges=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=CAPACITY - 8),
            st.integers(min_value=1, max_value=4),
        ),
        max_size=4,
    ).map(tuple),
    torn_every=st.integers(min_value=0, max_value=3),
    crash_after_requests=st.none() | st.integers(min_value=0, max_value=30),
)
# Requests on one disk; starts near the end may run past its capacity.
requests = st.tuples(
    st.integers(min_value=0, max_value=CAPACITY - 1),
    st.integers(min_value=1, max_value=8),
    st.booleans(),
)
batches = st.lists(requests, min_size=1, max_size=6)
disk_steps = st.lists(
    st.one_of(
        st.tuples(st.just("batch"), batches),
        st.tuples(st.just("one"), requests),
        st.tuples(st.just("arrays"), batches),
        st.tuples(st.just("disarm"), st.none()),
        st.tuples(
            st.just("develop"),
            st.lists(st.integers(min_value=0, max_value=CAPACITY - 1), max_size=4),
        ),
    ),
    min_size=1,
    max_size=25,
)


def _traced(make, *args, **kwargs):
    """A disk (or array) recording into its own bag and full tracer, with
    the tracer clocked by its busy time so untimed events are comparable."""
    tracer = Tracer(capacity=1 << 16)
    target = make(*args, metrics=Metrics(), tracer=tracer, **kwargs)
    if isinstance(target, DiskArray):
        tracer.bind_clock(lambda: target.elapsed_s)
    else:
        tracer.bind_clock(lambda: target.busy_s)
    return target, tracer


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except ReproError as exc:
        return (type(exc).__name__, str(exc))


def _injector_state(inj: FaultInjector) -> tuple:
    return (
        inj.armed,
        inj.requests_seen,
        inj.torn_writes,
        inj.lse_errors,
        inj.crashes,
        inj._writes_seen,
        sorted(inj.written),
        sorted(inj.bad_blocks),
    )


def _metrics_state(metrics: Metrics) -> tuple:
    snap = metrics.snapshot()
    hists = {
        name: (h.count, h.total, h.zeros, list(h.buckets.items()), h.minimum, h.maximum)
        for name, h in snap.histograms.items()
    }
    return (
        sorted(snap.counters.items()),
        sorted(snap.accumulators.items()),
        sorted(hists.items()),
    )


def _events(tracer: Tracer) -> list[str]:
    out = sorted(repr(e) for e in tracer.events())
    tracer.clear()
    return out


def _disk_state(disk: SimulatedDisk) -> tuple:
    return (disk.busy_s, disk.head, _injector_state(disk.injector))


def _arrays(batch):
    starts, nblocks, writes = zip(*batch)
    return (
        np.array(starts, dtype=np.int64),
        np.array(nblocks, dtype=np.int64),
        np.array(writes, dtype=bool),
    )


def _apply(disk, kind, arg):
    if kind == "batch":
        return _outcome(disk.submit_batch, [BlockRequest(*r) for r in arg])
    if kind == "one":
        return _outcome(disk.submit_one, *arg)
    if kind == "arrays":
        return _outcome(disk.submit_arrays, *_arrays(arg))
    if kind == "disarm":
        disk.injector.disarm()
        return None
    return disk.injector.develop_lse(arg)


@given(schedulers, plans, disk_steps)
@settings(max_examples=300, deadline=None)
def test_injected_disk_matches_per_request_oracle(sched, plan, steps):
    fast, fast_tracer = _traced(SimulatedDisk, PARAMS, sched, name="d")
    slow, slow_tracer = _traced(ReferenceDisk, PARAMS, sched, name="d")
    fast.attach_injector(FaultInjector(plan))
    slow.attach_injector(FaultInjector(plan))
    for kind, arg in steps:
        assert _apply(fast, kind, arg) == _apply(slow, kind, arg), (kind, arg)
        assert _disk_state(fast) == _disk_state(slow)
        assert _metrics_state(fast.metrics) == _metrics_state(slow.metrics)
        assert _events(fast_tracer) == _events(slow_tracer)


# Array requests: (disk, local start, nblocks, is_write); a start near the
# end of a disk may span into the next one or past the array.
array_requests = st.tuples(
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=0, max_value=CAPACITY - 1),
    st.integers(min_value=1, max_value=8),
    st.booleans(),
)
array_steps = st.lists(
    st.one_of(
        st.tuples(st.just("batch"), st.lists(array_requests, min_size=1, max_size=6)),
        st.tuples(st.just("disarm"), st.integers(min_value=0, max_value=1)),
        st.tuples(
            st.just("develop"),
            st.tuples(
                st.integers(min_value=0, max_value=1),
                st.lists(st.integers(min_value=0, max_value=CAPACITY - 1), max_size=4),
            ),
        ),
    ),
    min_size=1,
    max_size=20,
)


@given(schedulers, plans, plans, array_steps)
@settings(max_examples=200, deadline=None)
def test_injected_array_matches_scalar_reference(sched, plan0, plan1, steps):
    fast, fast_tracer = _traced(DiskArray, 2, PARAMS, sched)
    slow, slow_tracer = _traced(ReferenceDiskArray, 2, PARAMS, sched, scalar=True)
    for array in (fast, slow):
        for disk, plan in zip(array.disks, (plan0, plan1)):
            disk.attach_injector(FaultInjector(plan))
    for kind, arg in steps:
        if kind == "batch":
            batch = [BlockRequest(d * CAPACITY + s, n, w) for d, s, n, w in arg]
            assert _outcome(fast.submit_batch, batch) == _outcome(slow.submit_batch, batch)
        elif kind == "disarm":
            fast.disks[arg].injector.disarm()
            slow.disks[arg].injector.disarm()
        else:
            d, blocks = arg
            assert fast.disks[d].injector.develop_lse(blocks) == slow.disks[
                d
            ].injector.develop_lse(blocks)
        for f, s in zip(fast.disks, slow.disks):
            assert _disk_state(f) == _disk_state(s)
        assert _metrics_state(fast.metrics) == _metrics_state(slow.metrics)
        assert _events(fast_tracer) == _events(slow_tracer)
