"""Tracing is observe-only: a traced run reports the same metric bag.

Whole-run tracing and sampled tracing must not route any operation onto a
different code path, so every counter and accumulator, and every
histogram's count, buckets, total and extrema, are exactly equal to the
untraced run's — not merely equal up to the last ulp.  The disk kernels
that never leave their path under tracing must still emit exactly the
events the per-request loop would.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import run
from repro.config import DiskParams, SchedulerParams
from repro.disk.array import DiskArray
from repro.disk.disk import SimulatedDisk
from repro.disk.model import BlockRequest
from repro.obs import Tracer
from repro.units import MiB

from tests.reference import ReferenceDiskArray

CASES = {
    "fig7": dict(scale=0.05),
    "fig8": dict(scale=0.05, dir_sizes=()),
    "service": dict(streams=200, request_bytes=4 * MiB),
}


def _assert_same_metrics(traced, plain) -> None:
    assert traced.counters == plain.counters
    assert traced.accumulators == plain.accumulators
    assert sorted(traced.histograms) == sorted(plain.histograms)
    for name, h in plain.histograms.items():
        t = traced.histograms[name]
        assert (t.count, t.zeros, t.buckets) == (h.count, h.zeros, h.buckets), name
        assert (t.total, t.minimum, t.maximum) == (h.total, h.minimum, h.maximum), name
    assert traced == plain


@pytest.mark.parametrize("name", sorted(CASES))
def test_tracing_leaves_metrics_unchanged(name):
    plain = run(name, **CASES[name])
    traced = run(name, trace=True, **CASES[name])
    assert len(traced.trace) > 0
    _assert_same_metrics(traced.metrics, plain.metrics)


def test_sampled_tracing_leaves_metrics_unchanged():
    kw = CASES["service"]
    plain = run("service", **kw)
    sampled = run("service", sample="1/10", **kw)
    assert len(sampled.trace) > 0
    _assert_same_metrics(sampled.metrics, plain.metrics)


def _events(tracer: Tracer) -> list[tuple]:
    return [(e.t, e.layer, e.op, e.dur, e.stream, e.attrs) for e in tracer.events()]


def _traced(cls, *args, **kwargs):
    tracer = Tracer(clock=lambda: 0.0)
    return cls(*args, DiskParams(capacity_blocks=1 << 16), SchedulerParams(),
               tracer=tracer, **kwargs), tracer


_BATCHES = st.lists(
    st.tuples(st.integers(0, (1 << 16) - 65), st.integers(1, 64), st.booleans()),
    min_size=2,
    max_size=40,
)
_HEADS = st.integers(0, (1 << 16) - 1)


@settings(max_examples=60, deadline=None)
@given(batch=_BATCHES, head=_HEADS)
def test_tracing_leaves_disk_metrics_unchanged(batch, head):
    """A traced disk services a batch on the same kernel as an untraced one,
    so even the pairwise-summed accumulators keep their bits."""
    requests = [BlockRequest(s, n, w) for s, n, w in batch]
    traced, tracer = _traced(SimulatedDisk)
    plain = SimulatedDisk(DiskParams(capacity_blocks=1 << 16), SchedulerParams())
    for disk in (traced, plain):
        disk.submit_one(head, 1, False)
        disk.submit_batch(requests)
        disk.fold_samples()
    assert len(tracer) > 0
    _assert_same_metrics(traced.metrics.snapshot(), plain.metrics.snapshot())


@settings(max_examples=60, deadline=None)
@given(batch=_BATCHES, head=_HEADS)
def test_array_kernel_emits_the_per_request_events(batch, head):
    """The array path's after-the-fact ``sched`` and ``disk`` events equal
    the events the per-request reference loop emits, field for field."""
    requests = [BlockRequest(s, n, w) for s, n, w in batch]
    fast, fast_tracer = _traced(DiskArray, 1)
    slow, slow_tracer = _traced(ReferenceDiskArray, 1, scalar=True)
    for array in (fast, slow):
        array.disks[0].submit_one(head, 1, False)  # park the head anywhere
    assert fast.submit_batch(requests) == slow.submit_batch(requests)
    assert fast.io_profile["batches_vectorized"] == 1
    assert _events(fast_tracer) == _events(slow_tracer)


@pytest.mark.parametrize("is_write", [False, True])
def test_submit_one_emits_the_object_path_events(is_write):
    fast, fast_tracer = _traced(SimulatedDisk)
    slow, slow_tracer = _traced(SimulatedDisk)
    for start in (0, 8, 5000, 5000):
        fast.submit_one(start, 8, is_write)
        slow.submit(BlockRequest(start, 8, is_write))
    assert _events(fast_tracer) == _events(slow_tracer)
