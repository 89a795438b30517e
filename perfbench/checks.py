"""Turn worker outputs into a verdict and the reported metrics.

:data:`END_TO_END` and :data:`PER_LAYER` name every metric with its unit
and direction; ``BENCHMARK.json`` lists the same names (a unit test keeps
them in step).
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from machine import REFERENCE_CALIBRATION_S
from spans import LAYERS, layer_self_s
from stats import ratio

#: (name, unit, better) of the untraced, end-to-end metrics.
END_TO_END = (
    ("ops_per_s", "1/s", "higher"),
    ("write_ops_per_s", "1/s", "higher"),
    ("read_ops_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)

#: Span names reported per call, and which of their aggregates.
SPAN_METRICS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("workloads.phase", ("self_s",)),
    ("workloads.events", ("calls", "self_s")),
    ("fs.write", ("calls", "self_s", "us_p50", "us_p99")),
    ("fs.read", ("calls", "self_s", "us_p50", "us_p99")),
    ("fs.close_file", ("self_s",)),
    ("alloc.allocate", ("calls", "self_s", "us_p50", "us_p99")),
    ("block.extent", ("calls", "self_s")),
    ("block.freespace", ("calls", "self_s")),
    ("block.bitmap", ("calls", "self_s")),
    ("disk.submit_batch", ("calls", "self_s", "us_p50", "us_p99")),
    ("disk.submit_one", ("calls", "self_s")),
    ("disk.device", ("calls", "self_s")),
    ("cache.read_batch", ("calls", "self_s")),
    ("cache.read", ("calls", "self_s")),
    ("meta.create", ("calls", "self_s", "us_p50", "us_p99")),
    ("meta.utime", ("calls", "self_s", "us_p50", "us_p99")),
    ("meta.readdir_stat", ("calls", "self_s", "us_p50", "us_p99")),
    ("meta.delete", ("calls", "self_s", "us_p50", "us_p99")),
    ("meta.stat", ("calls", "self_s")),
    ("meta.coalesce", ("calls", "self_s")),
    ("meta.journal", ("calls", "self_s")),
    ("meta.checkpoint", ("calls", "self_s")),
    ("sim.loop", ("self_s",)),
    ("sim.offer", ("calls", "self_s", "us_p50", "us_p99")),
    ("sim.observe", ("calls", "self_s")),
    ("obs.layout", ("calls", "self_s")),
    ("obs.histogram", ("calls", "self_s")),
)

_UNITS = {"calls": ("count", "lower"), "self_s": ("s", "lower"),
          "us_p50": ("us", "lower"), "us_p99": ("us", "lower")}

#: Ratios of simulated counters, each with its base, and derived values.
DERIVED = (
    ("alloc.prealloc_hit_ratio", "ratio", "higher"),
    ("disk.vectorized_share", "ratio", "higher"),
    ("disk.merge_ratio", "ratio", "lower"),
    ("disk.host_us_per_request", "us", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("sim.drop_ratio", "ratio", "lower"),
    ("core.unattributed_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
)

#: (name, unit, better) of the traced, per-layer metrics.
PER_LAYER = (
    tuple(
        (f"{span}.{agg}", *_UNITS[agg])
        for span, aggs in SPAN_METRICS
        for agg in aggs
    )
    + DERIVED
    + tuple((f"layer.{layer}.self_s", "s", "lower") for layer in LAYERS if layer != "core")
)

#: What each derived ratio divides, for the detail file.
RATIO_BASES = {
    "alloc.prealloc_hit_ratio": "counter alloc.trigger_prealloc_layout / counter alloc.requests",
    "disk.vectorized_share": "io_profile batches_vectorized / (batches_vectorized + batches_scalar)",
    "disk.merge_ratio": "counter scheduler.requests_out / counter scheduler.requests_in",
    "disk.host_us_per_request": "layer disk self us / counter disk.requests",
    "cache.hit_ratio": "counter cache.hits / (cache.hits + cache.misses)",
    "sim.drop_ratio": "stations dropped / stations offered",
    "trace.overhead": "traced pass wall / median untraced pass wall - 1",
}


def _passes(workers: list[dict]):
    for w in workers:
        yield "warmup", w["warmup"]
        for p in w["timed"]:
            yield "timed", p
        if "traced" in w:
            yield "traced", w["traced"]


def verify(workload, seed: int, workers: list[dict], references: Path) -> dict:
    """Check every pass: reference digest, invariants, and that the traced
    pass rendered the same document and ``io_profile`` as the others.

    The reference digest is stored per workload (any seed) for workloads
    whose inputs ignore the seed, and per seed otherwise.  For a seed with
    no stored reference the passes must agree with each other.
    """
    refs = json.loads(references.read_text())
    config = {"runner": workload.runner, "scale": workload.scale, "kwargs": workload.kwargs}
    failures: list[str] = []
    # Round-trip through JSON so tuples compare equal to the stored lists.
    stale = refs["config"].get(workload.name) != json.loads(json.dumps(config))
    digests = refs["digests"].get(workload.name, {})
    key = str(seed) if workload.seeded_inputs else "any"
    expected = digests.get(key)
    source = "stored"
    if stale:
        failures.append("references.json was made for another configuration")
        source = "stale"
    elif expected is None:
        expected = workers[0]["warmup"]["digest"]
        source = "self-consistency"
    io_profile = workers[0]["warmup"]["io_profile"]
    attempted = failed = 0
    for kind, p in _passes(workers):
        attempted += 1
        bad = list(p["failures"])
        if p["digest"] != expected:
            bad.append(f"{kind} pass digest {p['digest'][:12]} != {source} {str(expected)[:12]}")
        if p["io_profile"] != io_profile:
            bad.append(f"{kind} pass io_profile {p['io_profile']} != {io_profile}")
        if stale or bad:
            failed += 1
        failures.extend(bad)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "reference": source,
        "failures": failures,
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workers: list[dict], setups: list[float], calibrated: bool = True) -> dict:
    """Medians over every timed pass of every worker (rates), over the
    workers (peak memory) and over the ``setups`` samples (set-up time).

    ``calibrated`` scales each pass's rate to the reference machine by the
    calibration kernel timed beside it: a pass that ran while the kernel
    took twice :data:`machine.REFERENCE_CALIBRATION_S` counts half its
    host time.  ``calibrated=False`` gives the raw host-time rates.
    Set-up time is never scaled: it is mostly imports and construction,
    which the kernel did not track.
    """

    def rate(ops: int, seconds: float, cal: float) -> float:
        return ops / seconds * (cal / REFERENCE_CALIBRATION_S if calibrated else 1.0)

    timed = [p for w in workers for p in w["timed"]]
    values = {
        "ops_per_s": statistics.median(
            rate(p["ops"], p["wall_s"], p["calibration_s"]) for p in timed
        ),
        "write_ops_per_s": statistics.median(
            rate(p["write_ops"], p["write_s"], p["calibration_s"]) for p in timed
        ),
        "read_ops_per_s": statistics.median(
            rate(p["read_ops"], p["read_s"], p["calibration_s"]) for p in timed
        ),
        "peak_rss_mb": statistics.median(w["peak_rss_mb"] for w in workers),
        "setup_s": statistics.median(setups),
    }
    return {name: _metric(values[name], unit) for name, unit, _ in END_TO_END}


def layer_report(workload, worker: dict) -> dict:
    """Per-layer metrics from the worker's traced pass, the ranking of
    layers by self time, and whether the workload loaded the layers it was
    chosen for (:attr:`workloads.Workload.loads`)."""
    layers = worker["layers"]
    spans = layers["spans"]
    c = layers["counters"]
    io = worker["traced"]["io_profile"]
    self_by_layer = layer_self_s(spans)
    offered = sum(s["offered"] for s in layers["stations"].values())
    dropped = sum(s["dropped"] for s in layers["stations"].values())
    values = {}
    for span, aggs in SPAN_METRICS:
        for agg in aggs:
            values[f"{span}.{agg}"] = spans.get(span, {}).get(agg, 0)
    values.update({
        "alloc.prealloc_hit_ratio": ratio(
            c.get("alloc.trigger_prealloc_layout", 0), c.get("alloc.requests", 0)
        ),
        "disk.vectorized_share": ratio(
            io.get("batches_vectorized", 0),
            io.get("batches_vectorized", 0) + io.get("batches_scalar", 0),
        ),
        "disk.merge_ratio": ratio(
            c.get("scheduler.requests_out", 0), c.get("scheduler.requests_in", 0)
        ),
        "disk.host_us_per_request": ratio(
            self_by_layer["disk"] * 1e6, c.get("disk.requests", 0)
        ),
        "cache.hit_ratio": ratio(
            c.get("cache.hits", 0), c.get("cache.hits", 0) + c.get("cache.misses", 0)
        ),
        "sim.drop_ratio": ratio(dropped, offered),
        "core.unattributed_s": self_by_layer["core"],
        "trace.overhead": layers["overhead"],
    })
    for layer in LAYERS:
        if layer != "core":
            values[f"layer.{layer}.self_s"] = self_by_layer[layer]
    metrics = {name: _metric(values[name], unit) for name, unit, _ in PER_LAYER}
    total = sum(self_by_layer.values())
    ranking = sorted(self_by_layer.items(), key=lambda kv: -kv[1])

    def self_s(names):
        return sum(
            self_by_layer[n] if n in self_by_layer else spans.get(n, {}).get("self_s", 0.0)
            for n in names
        )

    heavy, light = workload.loads
    return {
        "metrics": metrics,
        "loads": {
            "heavy": "+".join(heavy), "heavy_s": self_s(heavy),
            "light": "+".join(light), "light_s": self_s(light),
            "holds": self_s(heavy) > self_s(light),
        },
        "ratio_bases": RATIO_BASES,
        "span_count": layers["span_count"],
        "traced_wall_s": worker["traced"]["wall_s"],
        "ranking": [
            {"layer": name, "self_s": s, "share": ratio(s, total)} for name, s in ranking
        ],
    }


def summary_lines(detail: dict) -> list[str]:
    """Human-readable lines printed before the result line."""
    m = detail["machine"]
    v = detail["verdict"]
    lines = [
        f"workload {detail['workload']}: {detail['runner']} scale={detail['scale']} "
        f"{detail['kwargs']} seed={detail['seed']}"
        + ("" if detail["seeded_inputs"] else " (inputs do not vary with the seed)"),
        f"machine: python {m['python']}, numpy {m['numpy']}, nproc {m['nproc']}, "
        f"{m['cpu_model']}, calibration {m['calibration_s'] * 1e3:.1f} ms",
        f"passes: {v['attempted']} attempted, {v['failed']} failed "
        f"(reference: {v['reference']})",
    ]
    lines += [f"  FAIL {f}" for f in v["failures"][:20]]
    for i, w in enumerate(detail["workers"]):
        walls = " ".join(f"{p['wall_s']:.3f}" for p in w["timed"])
        lines.append(
            f"worker {i}: setup {w['setup_s']:.3f} s, peak {w['peak_rss_mb']:.1f} MB, "
            f"warm-up {w['warmup']['wall_s']:.3f} s, timed passes [s]: {walls}"
        )
    if detail["layers"] is not None:
        lines.append("layer self time (traced pass):")
        for row in detail["layers"]["ranking"]:
            lines.append(f"  {row['layer']:<13} {row['self_s']:8.3f} s  {row['share']:6.1%}")
        loads = detail["layers"]["loads"]
        lines.append(
            f"chosen load: {loads['heavy']} {loads['heavy_s']:.3f} s > "
            f"{loads['light']} {loads['light_s']:.3f} s: {'yes' if loads['holds'] else 'NO'}"
        )
    for name, metric in detail["metrics"].items():
        raw = detail["raw_host_time"].get(name)
        note = (
            "" if raw is None or raw["value"] == metric["value"]
            else f"  (raw host time: {raw['value']:.6g})"
        )
        lines.append(f"{name} = {metric['value']:.6g} {metric['unit']}{note}")
    return lines
