"""Observability substrate: tracing, histograms, time series, SLOs.

``repro.obs`` is the profiling layer every performance PR justifies itself
with: a :class:`Tracer` collects structured, simulated-time
:class:`TraceEvent` records from the instrumented layers (allocator window
transitions, PAG fallbacks, disk seek/transfer, cache hits, journal
commits) — or a :class:`SamplingTracer` collects them for 1-in-N streams;
neither changes which code path a run takes — :class:`Histogram`
sketches latency/size distributions inside
:class:`~repro.sim.metrics.Metrics`, :class:`TimeSeries` rolls signals
into fixed-width simulated-time windows, :func:`evaluate_slo` checks
declarative SLO objectives against them, and the exporters dump a run as
JSONL, CSV or a ``chrome://tracing`` file.  See ``docs/PROFILING.md``,
``docs/TELEMETRY.md`` and ``python -m repro trace`` / ``service``.

The package deliberately imports nothing from the rest of the simulator so
any layer can depend on it without cycles.
"""

from repro.obs.export import (
    chrome_trace_dict,
    read_chrome,
    read_jsonl,
    read_timeseries_jsonl,
    timeseries_to_csv,
    timeseries_to_jsonl,
    to_chrome,
    to_jsonl,
)
from repro.obs.histogram import Histogram, HistogramSnapshot, bucket_mid, bucket_of
from repro.obs.layout import (
    LAYOUT_SCHEMA_VERSION,
    DirectoryStats,
    FileLayout,
    FreeSpaceStats,
    LayoutInspector,
    LayoutReport,
    block_heatmap,
)
from repro.obs.report import (
    format_breakdown,
    layer_counts,
    layer_times,
    op_counts,
    op_times,
    render_dashboard,
    sparkline,
)
from repro.obs.slo import (
    DEFAULT_OBJECTIVES,
    ObjectiveResult,
    SLObjective,
    SLOReport,
    parse_objective,
    resolve_objectives,
)
from repro.obs.slo import evaluate as evaluate_slo
from repro.obs.timeseries import (
    Frame,
    FrameSnapshot,
    TimeSeries,
    TimeSeriesSnapshot,
)
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    SamplingTracer,
    TraceEvent,
    Tracer,
    coerce_tracer,
    parse_sample,
)

__all__ = [
    "DEFAULT_OBJECTIVES",
    "LAYOUT_SCHEMA_VERSION",
    "NULL_TRACER",
    "DirectoryStats",
    "FileLayout",
    "Frame",
    "FrameSnapshot",
    "FreeSpaceStats",
    "Histogram",
    "HistogramSnapshot",
    "LayoutInspector",
    "LayoutReport",
    "NullTracer",
    "ObjectiveResult",
    "SLObjective",
    "SLOReport",
    "SamplingTracer",
    "TimeSeries",
    "TimeSeriesSnapshot",
    "TraceEvent",
    "Tracer",
    "block_heatmap",
    "bucket_mid",
    "bucket_of",
    "chrome_trace_dict",
    "coerce_tracer",
    "evaluate_slo",
    "format_breakdown",
    "layer_counts",
    "layer_times",
    "op_counts",
    "op_times",
    "parse_objective",
    "parse_sample",
    "read_chrome",
    "read_jsonl",
    "read_timeseries_jsonl",
    "render_dashboard",
    "resolve_objectives",
    "sparkline",
    "timeseries_to_csv",
    "timeseries_to_jsonl",
    "to_chrome",
    "to_jsonl",
]
