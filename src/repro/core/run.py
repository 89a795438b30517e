"""Unified runner API: one entry point, one result shape.

Every canned experiment (figure/table runner) registers under a short name
and is invoked as ``run(name, scale=..., seed=..., trace=..., **kwargs)``.
All runners share the calling convention — keyword-only ``scale``, ``seed``
and ``trace`` — and all return a :class:`RunResult`:

- ``phases`` maps phase labels to the :class:`ThroughputResult` each timed
  sub-phase produced, so comparisons across runners need no per-figure
  result spelunking;
- ``metrics`` is the full :class:`MetricsSnapshot` of the run (counters,
  accumulators and latency/size histograms);
- ``payload`` carries the runner's figure-specific dataclass (rows/series
  exactly as the paper reports them);
- ``trace`` holds the :class:`~repro.obs.trace.Tracer` when tracing was
  requested, ready for :func:`repro.obs.to_chrome` / ``to_jsonl`` export.

Execution strategy — ``jobs`` (parallel sweep cells) — never changes a
result, only how fast it is produced, so it does not participate in
fingerprints; neither does ``trace``, which only observes.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ConfigError
from repro.obs.layout import LayoutReport
from repro.obs.trace import Tracer
from repro.sim.metrics import MetricsSnapshot, ThroughputResult


def fingerprint(name: str, **kwargs: Any) -> str:
    """Deterministic 12-hex-digit digest of a runner configuration.

    Two runs with the same name and keyword arguments share a fingerprint,
    making results from different processes comparable/cacheable by key.
    """
    parts = [name]
    for key in sorted(kwargs):
        parts.append(f"{key}={kwargs[key]!r}")
    return hashlib.sha1("|".join(parts).encode()).hexdigest()[:12]


@dataclass(frozen=True)
class RunResult:
    """Uniform outcome of any registered experiment runner."""

    name: str
    fingerprint: str
    phases: dict[str, ThroughputResult] = field(default_factory=dict)
    metrics: MetricsSnapshot = field(default_factory=MetricsSnapshot)
    payload: Any = None
    trace: Tracer | None = None
    #: Post-run layout reports keyed by capture tag (policy/profile/app),
    #: produced by :class:`~repro.obs.layout.LayoutInspector`.
    layouts: dict[str, LayoutReport] = field(default_factory=dict)

    def phase(self, label: str) -> ThroughputResult:
        try:
            return self.phases[label]
        except KeyError:
            raise KeyError(
                f"run {self.name!r} has no phase {label!r}; "
                f"phases: {sorted(self.phases)}"
            ) from None

    def phase_names(self) -> list[str]:
        return sorted(self.phases)

    def layout(self, tag: str) -> LayoutReport:
        try:
            return self.layouts[tag]
        except KeyError:
            raise KeyError(
                f"run {self.name!r} has no layout capture {tag!r}; "
                f"captures: {sorted(self.layouts)}"
            ) from None


#: Registry of runner names -> callables returning :class:`RunResult`.
RUNNERS: dict[str, Callable[..., RunResult]] = {}


def register(name: str) -> Callable[[Callable[..., RunResult]], Callable[..., RunResult]]:
    """Register the decorated callable as the runner for ``name``."""

    def deco(fn: Callable[..., RunResult]) -> Callable[..., RunResult]:
        RUNNERS[name] = fn
        return fn

    return deco


def runner_names() -> list[str]:
    """All registered runner names (loads the runner module on demand)."""
    _load()
    return sorted(RUNNERS)


def run(
    name: str,
    *,
    scale: float = 1.0,
    jobs: int | None = None,
    config: Any = None,
    seed: int = 0,
    trace: Tracer | bool | None = None,
    **kwargs: Any,
) -> RunResult:
    """Run the registered experiment ``name`` and return its RunResult.

    The unified invocation surface: every runner takes keyword-only
    ``scale``, ``seed`` and ``trace``; ``jobs`` fans sweep cells out over
    worker processes and ``config`` supplies an :class:`~repro.config.FSConfig`
    to runners that accept one — both are forwarded only when set, and
    neither changes a result (or its fingerprint), only how it is produced.

    ``trace=True`` records into a fresh bounded :class:`Tracer` (returned
    as ``result.trace``); passing a Tracer records into it; ``None``/
    ``False`` runs with the zero-overhead null tracer.
    """
    _load()
    try:
        fn = RUNNERS[name]
    except KeyError:
        raise ConfigError(
            f"unknown runner {name!r}; choose from {sorted(RUNNERS)}"
        ) from None
    if jobs is not None:
        kwargs["jobs"] = jobs
    if config is not None:
        kwargs["config"] = config
    return fn(scale=scale, seed=seed, trace=trace, **kwargs)


def _load() -> None:
    # Runner bodies import heavy workload modules; defer until first use.
    if not RUNNERS:
        import repro.core.runners  # noqa: F401
