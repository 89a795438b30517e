"""Unit tests of the benchmark's own arithmetic and bookkeeping.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from checks import END_TO_END, PER_LAYER  # noqa: E402
from spans import SpanRecorder, layer_of, layer_self_s, summarize  # noqa: E402
from stats import percentile, ratio, self_times  # noqa: E402


# -- percentile ---------------------------------------------------------------

def test_p99_needs_ten_samples_beyond_it():
    assert percentile(list(range(999)), 99.0) is None
    assert percentile(list(range(1000)), 99.0) == 989.0  # rank 990, 10 above


def test_median_needs_ten_samples_beyond_it_by_default():
    assert percentile(list(range(19)), 50.0) is None
    assert percentile(list(range(20)), 50.0) == 9.0


def test_percentile_without_tail_rule_and_empty_input():
    assert percentile([7.0], 50.0, min_beyond=0) == 7.0
    assert percentile([], 50.0, min_beyond=0) is None
    with pytest.raises(ValueError):
        percentile([1.0], 100.0)


def test_percentile_is_nearest_rank_on_unsorted_input():
    values = list(range(100, 0, -1))  # 100..1
    assert percentile(values, 50.0) == 50.0
    assert percentile(values, 90.0) == 90.0


# -- self time ------------------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    # 0: root [0, 10]; 1: child [1, 4]; 2: grandchild [2, 3]; 3: child [5, 9]
    parent = np.array([-1, 0, 1, 0])
    duration = np.array([10.0, 3.0, 1.0, 4.0])
    assert self_times(parent, duration).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_self_times_sum_to_root_duration():
    parent = np.array([-1, 0, 0, 1, 1, 2])
    duration = np.array([20.0, 8.0, 5.0, 2.0, 3.0, 5.0])
    assert self_times(parent, duration).sum() == pytest.approx(20.0)


def test_recorder_nests_folds_and_shares_op_ids():
    rec = SpanRecorder()

    def leaf():
        return 1

    traced_leaf = rec.wrap(leaf, "obs.histogram")

    def inner(n):
        return traced_leaf() + (traced_inner(n - 1) if n else 0)

    traced_inner = rec.wrap(inner, "fs.write")
    outer = rec.wrap(lambda: traced_inner(2), "sim.offer")
    assert outer() == 3
    names = [rec.names[i] for i in rec.name]
    # fs.write re-entered itself twice: folded into one span.
    assert names == ["sim.offer", "fs.write", "obs.histogram", "obs.histogram", "obs.histogram"]
    assert list(rec.parent) == [-1, 0, 1, 1, 1]
    assert set(rec.op) == {0}  # every span belongs to the arrival's op
    spans = summarize(rec)
    assert spans["fs.write"]["calls"] == 1
    assert spans["obs.histogram"]["calls"] == 3
    total = sum(s["self_s"] for s in spans.values())
    table = rec.table()
    assert total == pytest.approx(table["duration_s"][0])


def test_generator_steps_are_spans():
    rec = SpanRecorder()
    gen = rec.wrap_generator(lambda n: iter(range(n)), "workloads.events")
    assert list(gen(3)) == [0, 1, 2]
    assert summarize(rec)["workloads.events"]["calls"] == 4  # 3 items + exhaustion


# -- ratios and layers --------------------------------------------------------

def test_ratio_divides_by_its_base_and_empty_base_is_zero():
    hits, misses = 30, 10
    assert ratio(hits, hits + misses) == 0.75
    assert ratio(5, 0) == 0.0


def test_layer_mapping():
    assert layer_of("cache.read_batch") == "disk.cache"
    assert layer_of("meta.journal") == "meta.journal"
    assert layer_of("meta.create") == "meta"
    assert layer_of("disk.submit_one") == "disk"
    assert layer_of("core.run") == "core"
    totals = layer_self_s({"meta.create": {"self_s": 1.0}, "meta.journal": {"self_s": 2.0}})
    assert totals["meta"] == 1.0 and totals["meta.journal"] == 2.0


# -- the declared metrics -------------------------------------------------------

def test_benchmark_json_declares_the_reported_metrics():
    bench = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]]
    assert declared == list(END_TO_END)
    declared = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    assert declared == list(PER_LAYER)
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
