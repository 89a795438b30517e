"""Property: deferred histogram samples are the per-sample observe loop.

A :class:`Histogram` fed through its pending appender must end in exactly
the state of a twin fed by ``observe`` one sample at a time — same count,
buckets, zeros, extrema and ``total`` bits — however the samples interleave
with queries (``snapshot``, ``Metrics.since``), bulk recording
(``observe_array``, ``absorb``) and ``reset``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.histogram import Histogram, HistogramSnapshot
from repro.sim.metrics import Metrics

samples = st.one_of(
    st.just(0.0),
    st.integers(min_value=0, max_value=64),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    st.floats(min_value=1e-12, max_value=1e-3),
)
steps = st.lists(
    st.one_of(
        st.tuples(st.just("sample"), samples),
        st.tuples(st.just("snapshot"), st.none()),
        st.tuples(st.just("since"), st.none()),
        st.tuples(
            st.just("array"),
            st.lists(st.floats(min_value=0.0, max_value=1e3), max_size=6),
        ),
        st.tuples(
            st.just("absorb"),
            st.lists(st.floats(min_value=0.0, max_value=1e3), max_size=6),
        ),
        st.tuples(st.just("reset"), st.none()),
    ),
    max_size=80,
)


def state(h: Histogram) -> tuple:
    s = h.snapshot()
    return (s.count, s.total, s.zeros, s.buckets, s.minimum, s.maximum)


@given(steps)
@settings(max_examples=300, deadline=None)
def test_pending_samples_fold_like_observe(steps):
    deferred_bag, eager_bag = Metrics(), Metrics()
    deferred = deferred_bag.histogram_ref("h")
    eager = eager_bag.histogram_ref("h")
    append = deferred.pending_append()
    mark_d, mark_e = deferred_bag.snapshot(), eager_bag.snapshot()
    for kind, arg in steps:
        if kind == "sample":
            append(arg)
            eager.observe(arg)
        elif kind == "snapshot":
            assert state(deferred) == state(eager)
        elif kind == "since":
            assert deferred_bag.since(mark_d) == eager_bag.since(mark_e)
            mark_d, mark_e = deferred_bag.snapshot(), eager_bag.snapshot()
        elif kind == "array":
            deferred.observe_array(np.array(arg, dtype=float))
            eager.observe_array(np.array(arg, dtype=float))
        elif kind == "absorb":
            other = Histogram()
            for v in arg:
                other.observe(v)
            deferred.absorb(other.snapshot())
            eager.absorb(other.snapshot())
        else:
            deferred_bag.reset()
            eager_bag.reset()
    assert deferred.count == eager.count
    assert state(deferred) == state(eager)
    assert deferred.total == eager.total


def test_negative_samples_still_raise():
    h = Histogram()
    with pytest.raises(ValueError):
        h.observe(-1.0)
    append = h.pending_append()
    append(1.0)
    append(-0.5)
    with pytest.raises(ValueError):
        h.snapshot()
    assert h.snapshot() == HistogramSnapshot()  # the bad fold left no trace
