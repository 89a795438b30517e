"""The benchmark's own arithmetic: percentiles, span self time, ratios.

Kept free of any ``repro`` import so the unit tests in ``perfbench/tests``
exercise it on hand-made inputs.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

#: A tail percentile is reported only with at least this many samples
#: beyond it; fewer and the value is one or two outliers, not a tail.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float, min_beyond: int = MIN_BEYOND) -> float | None:
    """Nearest-rank ``q``-th percentile, or None when it is not resolved.

    The nearest rank of ``q`` among ``n`` sorted samples is
    ``ceil(q / 100 * n)``; the ``n - rank`` samples above it must number
    at least ``min_beyond``.  So p99 needs 1000 samples and p50 needs 20.
    """
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile must be in (0, 100): {q}")
    n = len(values)
    if n == 0:
        return None
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < min_beyond:
        return None
    return float(np.partition(np.asarray(values, dtype=float), rank - 1)[rank - 1])


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    ``parent[i]`` is the index of span ``i``'s enclosing span, or -1 for a
    root.  Spans come from one thread, so children of one parent never
    overlap and their covered time is the sum of their durations.
    """
    parent = np.asarray(parent, dtype=np.int64)
    duration = np.asarray(duration, dtype=np.float64)
    nested = parent >= 0
    covered = np.bincount(
        parent[nested], weights=duration[nested], minlength=len(duration)
    )
    return duration - covered


def ratio(num: float, base: float) -> float:
    """``num / base``; 0.0 when the base is empty (nothing to divide)."""
    return num / base if base else 0.0
