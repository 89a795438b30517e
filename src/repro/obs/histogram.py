"""Log2-bucketed histograms for latency and size distributions.

A :class:`Histogram` is a fixed-memory distribution sketch: each observed
value lands in the power-of-two bucket containing it, so the structure is
O(log(range)) regardless of how many samples arrive, and two snapshots can
be diffed bucket-wise — exactly the property :class:`~repro.sim.metrics.
Metrics` needs so histogram state participates in phase diffing the same
way counters do.

Percentile queries return the geometric midpoint of the bucket holding the
requested rank, clamped to the exact observed extrema, so summaries are
accurate to within a factor of two (plenty for "where did simulated time
go" questions) while staying cheap on the hot path.

This module intentionally imports nothing from the rest of the package so
the whole :mod:`repro.obs` layer stays dependency-free.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import reduce
from operator import add, itemgetter


def bucket_of(value: float) -> int:
    """Bucket index of a positive value: the binary exponent ``e`` such
    that ``2**(e-1) <= value < 2**e``.

    >>> bucket_of(1.0), bucket_of(1.5), bucket_of(4.0)
    (1, 1, 3)
    """
    return math.frexp(value)[1]


#: Exponent half of a ``math.frexp`` pair.
_exponent = itemgetter(1)


def bucket_mid(exponent: int) -> float:
    """Representative value of a bucket: the midpoint of [2**(e-1), 2**e)."""
    return 0.75 * 2.0**exponent


class Histogram:
    """Mutable log2 histogram of non-negative samples.

    Hot paths that take one sample per operation may leave samples in a
    pending list (:meth:`pending_append`).  They are folded into the
    buckets, extrema and running total in arrival order, by the same
    sequential arithmetic :meth:`observe` applies, so the folded state is
    bit-for-bit that of observing each sample as it arrived.  Every query
    folds first, as do :meth:`observe`, :meth:`observe_array`,
    :meth:`absorb` and :meth:`reset`.
    """

    __slots__ = ("_buckets", "_zeros", "_count", "_sum", "_min", "_max", "_pending")

    def __init__(self) -> None:
        self._buckets: dict[int, int] = {}
        self._zeros = 0
        self._count = 0
        self._sum = 0.0
        self._min: float | None = None
        self._max: float | None = None
        self._pending: list[float] = []

    # -- recording ---------------------------------------------------------
    def observe(self, value: float) -> None:
        """Record one sample (must be >= 0)."""
        if value < 0:
            raise ValueError(f"histogram values must be non-negative: {value}")
        if self._pending:
            self.fold()
        self._count += 1
        self._sum += value
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value
        if value == 0:
            self._zeros += 1
            return
        e = math.frexp(value)[1]
        self._buckets[e] = self._buckets.get(e, 0) + 1

    def pending_append(self) -> Callable[[float], None]:
        """The pending list's bound ``append``: records one sample for the
        price of a list append, for hot paths that take one sample per
        operation.  The caller guarantees samples are >= 0 (a negative one
        raises at the next fold) and calls :meth:`fold` often enough to
        bound the list.
        """
        return self._pending.append

    def fold(self) -> None:
        """Fold the pending samples into the histogram, in arrival order."""
        pending = self._pending
        if not pending:
            return
        try:
            self._add(pending, reduce(add, pending, self._sum))
        finally:
            pending.clear()

    def observe_array(self, values) -> None:
        """Record a whole numpy array of samples at once.

        Bucket counts, zeros and extrema land exactly as a loop of
        :meth:`observe` would; only ``total`` may differ in the last ulp
        (numpy's pairwise sum vs a sequential fold), and the percentile
        queries never read it.
        """
        if values.shape[0] == 0:
            return
        if self._pending:
            self.fold()
        self._add(values.tolist(), self._sum + float(values.sum()))

    def _add(self, samples: list, total: float) -> None:
        """Fold a non-empty sample list into the histogram; ``total`` is
        the running sum with the samples added.  Extrema keep the earliest
        of equal values and new buckets appear in first-seen order, as
        per-sample :meth:`observe` calls would leave them."""
        lo = min(samples)
        if lo < 0:
            raise ValueError(f"histogram values must be non-negative: {lo}")
        hi = max(samples)
        self._count += len(samples)
        self._sum = total
        if self._min is None or lo < self._min:
            self._min = lo
        if self._max is None or hi > self._max:
            self._max = hi
        self._zeros += samples.count(0)
        buckets = self._buckets
        # frexp(0.0) is (0.0, 0), the exponent of [0.5, 1) too: zeros are
        # left out, or bucket 0 would appear at the first zero's position.
        nonzero = filter(None, samples)
        for e, c in Counter(map(_exponent, map(math.frexp, nonzero))).items():
            buckets[e] = buckets.get(e, 0) + c

    def absorb(self, snap: "HistogramSnapshot") -> None:
        """Fold a full-history snapshot into this histogram.

        Bucket counts and zeros add exactly and extrema combine exactly
        (min of mins, max of maxes), so merging per-cell snapshots in any
        order reproduces the bucket state — and hence every percentile — of
        a single histogram that observed all the samples.  Only ``total``
        is order-sensitive (float addition), and only at the last ulp.
        Absorbing a phase *delta* (``extrema_exact=False``) keeps the
        counts exact but makes the extrema bucket-edge approximations.
        """
        if snap.count == 0:
            return
        if self._pending:
            self.fold()
        self._count += snap.count
        self._sum += snap.total
        self._zeros += snap.zeros
        for e, c in snap.buckets.items():
            self._buckets[e] = self._buckets.get(e, 0) + c
        if snap.minimum is not None and (self._min is None or snap.minimum < self._min):
            self._min = snap.minimum
        if snap.maximum is not None and (self._max is None or snap.maximum > self._max):
            self._max = snap.maximum

    # -- queries -----------------------------------------------------------
    @property
    def count(self) -> int:
        return self._count + len(self._pending)

    @property
    def total(self) -> float:
        self.fold()
        return self._sum

    def snapshot(self) -> "HistogramSnapshot":
        """Immutable copy for later diffing."""
        self.fold()
        return HistogramSnapshot(
            count=self._count,
            total=self._sum,
            zeros=self._zeros,
            buckets=dict(self._buckets),
            minimum=self._min,
            maximum=self._max,
        )

    def reset(self) -> None:
        """Forget every sample, pending ones included; the object (and any
        :meth:`pending_append` handle on it) stays live."""
        self._pending.clear()
        self._buckets.clear()
        self._zeros = 0
        self._count = 0
        self._sum = 0.0
        self._min = None
        self._max = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram(count={self.count}, sum={self.total:.6g})"


@dataclass(frozen=True)
class HistogramSnapshot:
    """Immutable point-in-time (or phase-delta) histogram state.

    For deltas produced by :meth:`since`, ``minimum``/``maximum`` are
    bucket-edge approximations — exact extrema of just the delta period are
    not recoverable from bucket counts — and ``extrema_exact`` is False so
    :meth:`percentile` does not clamp to them.
    """

    count: int = 0
    total: float = 0.0
    zeros: int = 0
    buckets: dict[int, int] = field(default_factory=dict)
    minimum: float | None = None
    maximum: float | None = None
    #: True when minimum/maximum are exact observed values (full-history
    #: snapshots); False on phase deltas, where they are bucket edges.
    extrema_exact: bool = True

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Approximate p-th percentile (p in [0, 100])."""
        if not (0.0 <= p <= 100.0):
            raise ValueError(f"percentile must be in [0, 100]: {p}")
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(self.count * p / 100.0))
        if rank <= self.zeros:
            return 0.0
        seen = self.zeros
        value = 0.0
        for e in sorted(self.buckets):
            seen += self.buckets[e]
            if seen >= rank:
                value = bucket_mid(e)
                break
        if self.extrema_exact:
            if self.minimum is not None:
                value = max(value, self.minimum)
            if self.maximum is not None:
                value = min(value, self.maximum)
        return value

    def since(self, snap: "HistogramSnapshot | None") -> "HistogramSnapshot":
        """Bucket-wise delta of this snapshot minus an earlier one."""
        if snap is None or snap.count == 0:
            return self
        buckets = {
            e: c - snap.buckets.get(e, 0)
            for e, c in self.buckets.items()
            if c - snap.buckets.get(e, 0) != 0
        }
        zeros = self.zeros - snap.zeros
        lo: float | None = None
        hi: float | None = None
        if zeros > 0:
            lo = 0.0
        elif buckets:
            lo = 2.0 ** (min(buckets) - 1)
        if buckets:
            hi = 2.0 ** max(buckets)
        elif zeros > 0:
            hi = 0.0
        return HistogramSnapshot(
            count=self.count - snap.count,
            total=self.total - snap.total,
            zeros=zeros,
            buckets=buckets,
            minimum=lo,
            maximum=hi,
            extrema_exact=False,
        )

    def summary(self) -> dict[str, float]:
        """Flat percentile summary, ready for reports."""
        return {
            "count": float(self.count),
            "total": self.total,
            "mean": self.mean,
            "p50": self.percentile(50.0),
            "p90": self.percentile(90.0),
            "p99": self.percentile(99.0),
            "min": self.minimum if self.minimum is not None else 0.0,
            "max": self.maximum if self.maximum is not None else 0.0,
        }
