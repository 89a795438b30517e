"""Wall-clock harnesses for the comparisons that change *how* a result is
produced (``python -m repro perf --cache`` / ``--fsck``).

- :func:`measure_cache` times the fig_cache sweep under each cache
  profile.  The two runs are different simulations (the profile changes
  the result), so the report carries the simulated-time speedup and
  hit-rate delta per scenario and an acceptance verdict.
- :func:`measure_fsck` times the consistency checker serially and with
  ``jobs`` workers on the same seeded crashed image; the report's
  byte-identity verdict is the gate, the speedups are informational.

Host-time regressions of the simulator as a whole are tracked by the
perfbench harness (``perfbench/``), not here.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Any

from repro.bench.baseline import dumps
from repro.core.parallel import resolve_jobs
from repro.core.run import run

#: The runner timed by the cache mode; fig_cache's pressure sweep compares
#: the legacy flat LRU against the adaptive tiered cache (docs/CACHE.md).
CACHE_PERF_RUNNER = "fig_cache"

#: Acceptance thresholds for the cache-pressure comparison: the adaptive
#: profile must win on simulated time (>= 1.3x) or on hit rate (>= 20
#: percentage points).
CACHE_MIN_SPEEDUP = 1.3
CACHE_MIN_HIT_GAIN_POINTS = 20.0


@dataclass(frozen=True)
class CachePerfReport:
    """Scalar-vs-tiered cache comparison on the cache-pressure sweep.

    The two runs are *different simulations* (the cache profile changes
    the result), so there is no byte-identity verdict; instead the report
    carries the simulated-time speedup and hit-rate delta per scenario and
    an aggregate ``passed`` verdict against the acceptance thresholds.
    """

    runner: str
    scale: float
    seed: int
    jobs: int
    #: Host wall-clock of the legacy-profile / adaptive-profile sweeps.
    legacy_wall_s: float
    adaptive_wall_s: float
    #: Per-scenario simulated seconds and hit rates (scenario -> value).
    legacy_elapsed_s: dict[str, float]
    adaptive_elapsed_s: dict[str, float]
    legacy_hit_rate: dict[str, float]
    adaptive_hit_rate: dict[str, float]
    prefetch_accuracy: dict[str, float]
    fingerprint: str

    @property
    def wall_speedup(self) -> float:
        """legacy / adaptive host wall-clock ratio for the sweep."""
        return self.legacy_wall_s / self.adaptive_wall_s if self.adaptive_wall_s > 0 else 0.0

    def sim_speedup(self, scenario: str) -> float:
        """legacy / adaptive simulated-time ratio for one scenario."""
        adaptive = self.adaptive_elapsed_s[scenario]
        legacy = self.legacy_elapsed_s[scenario]
        return legacy / adaptive if adaptive > 0 else float("inf")

    def hit_rate_gain(self, scenario: str) -> float:
        """adaptive - legacy hit rate, in percentage points."""
        return 100.0 * (
            self.adaptive_hit_rate[scenario] - self.legacy_hit_rate[scenario]
        )

    @property
    def passed(self) -> bool:
        """Every scenario clears at least one acceptance threshold."""
        return all(
            self.sim_speedup(s) >= CACHE_MIN_SPEEDUP
            or self.hit_rate_gain(s) >= CACHE_MIN_HIT_GAIN_POINTS
            for s in self.legacy_elapsed_s
        )

    def to_dict(self) -> dict[str, Any]:
        scenarios = sorted(self.legacy_elapsed_s)
        return {
            "runner": self.runner,
            "scale": self.scale,
            "seed": self.seed,
            "jobs": self.jobs,
            "legacy_wall_s": self.legacy_wall_s,
            "adaptive_wall_s": self.adaptive_wall_s,
            "wall_speedup": self.wall_speedup,
            "legacy_elapsed_s": dict(sorted(self.legacy_elapsed_s.items())),
            "adaptive_elapsed_s": dict(sorted(self.adaptive_elapsed_s.items())),
            "legacy_hit_rate": dict(sorted(self.legacy_hit_rate.items())),
            "adaptive_hit_rate": dict(sorted(self.adaptive_hit_rate.items())),
            "prefetch_accuracy": dict(sorted(self.prefetch_accuracy.items())),
            "sim_speedup": {s: self.sim_speedup(s) for s in scenarios},
            "hit_rate_gain_points": {s: self.hit_rate_gain(s) for s in scenarios},
            "passed": self.passed,
            "fingerprint": self.fingerprint,
        }


def measure_cache(
    *, scale: float = 1.0, seed: int = 0, jobs: int | None = None
) -> CachePerfReport:
    """Time the fig_cache sweep once per cache profile and compare.

    The report's ``passed`` flag carries the acceptance verdict (CI's
    perf-smoke cache step turns it into an exit code).
    """
    n = resolve_jobs(jobs)
    t0 = time.perf_counter()
    legacy = run(
        CACHE_PERF_RUNNER, scale=scale, seed=seed, jobs=n, profiles=("legacy",)
    )
    legacy_wall = time.perf_counter() - t0
    t0 = time.perf_counter()
    adaptive = run(
        CACHE_PERF_RUNNER, scale=scale, seed=seed, jobs=n, profiles=("adaptive",)
    )
    adaptive_wall = time.perf_counter() - t0
    scenarios = sorted({r.scenario for r in legacy.payload.runs})
    return CachePerfReport(
        runner=CACHE_PERF_RUNNER,
        scale=scale,
        seed=seed,
        jobs=n,
        legacy_wall_s=legacy_wall,
        adaptive_wall_s=adaptive_wall,
        legacy_elapsed_s={
            s: legacy.payload.get(s, "legacy").elapsed_s for s in scenarios
        },
        adaptive_elapsed_s={
            s: adaptive.payload.get(s, "adaptive").elapsed_s for s in scenarios
        },
        legacy_hit_rate={
            s: legacy.payload.get(s, "legacy").hit_rate for s in scenarios
        },
        adaptive_hit_rate={
            s: adaptive.payload.get(s, "adaptive").hit_rate for s in scenarios
        },
        prefetch_accuracy={
            s: adaptive.payload.get(s, "adaptive").prefetch_accuracy
            for s in scenarios
        },
        fingerprint=adaptive.fingerprint,
    )


#: Image-scale multiplier for the fsck perf harness: the wall-clock
#: measurement needs a much bigger crashed image than the ``fig_fsck``
#: trend benchmark for the parallel check to amortize worker start-up.
FSCK_PERF_MULT = 20.0


@dataclass(frozen=True)
class FsckPerfReport:
    """Serial-vs-parallel wall clock of the sharded checker (docs/FSCK.md).

    Both runs check (and then repair) the *same* seeded crashed image; the
    ``identical`` flag verifies the parallel run's findings, counters and
    repair actions are byte-identical to the serial run's — the pFSCK
    ordered-merge contract — and carries the CI verdict.  Speedups are
    informational: on a loaded or single-core host the worker pool may not
    win at smoke scale.
    """

    runner: str
    scale: float
    image_scale: float
    seed: int
    jobs: int
    extents: int
    inodes: int
    findings: int
    actions: int
    converged: bool
    serial_check_s: float
    parallel_check_s: float
    serial_repair_s: float
    parallel_repair_s: float
    identical: bool
    fingerprint: str

    @property
    def check_speedup(self) -> float:
        """serial / parallel check wall-clock ratio (> 1 = parallel faster)."""
        return (
            self.serial_check_s / self.parallel_check_s
            if self.parallel_check_s > 0 else 0.0
        )

    @property
    def repair_speedup(self) -> float:
        """serial / parallel repair wall-clock ratio."""
        return (
            self.serial_repair_s / self.parallel_repair_s
            if self.parallel_repair_s > 0 else 0.0
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "runner": self.runner,
            "scale": self.scale,
            "image_scale": self.image_scale,
            "seed": self.seed,
            "jobs": self.jobs,
            "extents": self.extents,
            "inodes": self.inodes,
            "findings": self.findings,
            "actions": self.actions,
            "converged": self.converged,
            "serial_check_s": self.serial_check_s,
            "parallel_check_s": self.parallel_check_s,
            "serial_repair_s": self.serial_repair_s,
            "parallel_repair_s": self.parallel_repair_s,
            "check_speedup": self.check_speedup,
            "repair_speedup": self.repair_speedup,
            "identical": self.identical,
            "fingerprint": self.fingerprint,
        }


def _fsck_doc(report, repair) -> str:
    """Canonical serialization of a check report + repair outcome."""
    return dumps({
        "findings": [[f.code, f.message] for f in report.findings],
        "checked_extents": report.checked_extents,
        "checked_inodes": report.checked_inodes,
        "actions": [[a.code, a.message] for a in repair.actions],
        "passes": repair.passes,
        "converged": repair.converged,
    })


def _fsck_timed(*, image_scale: float, seed: int, jobs: int) -> tuple[float, float, str, Any]:
    """Check + repair one freshly built crashed image at ``jobs`` workers.

    Returns (check seconds, repair seconds, canonical doc, report).
    """
    from repro.fault import build_crashed_image
    from repro.fs.verify import check_dataplane, check_mds, repair_dataplane, repair_mds

    img = build_crashed_image(scale=image_scale, seed=seed)
    t0 = time.perf_counter()
    report = check_dataplane(img.plane, strict_accounting=False, jobs=jobs).merge(
        check_mds(img.mds, jobs=jobs)
    )
    check_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    repair = repair_dataplane(img.plane, jobs=jobs).merge(
        repair_mds(img.mds, jobs=jobs)
    )
    repair_s = time.perf_counter() - t0
    del img
    return check_s, repair_s, _fsck_doc(report, repair), report, repair


def measure_fsck(
    *, scale: float = 1.0, seed: int = 0, jobs: int | None = None
) -> FsckPerfReport:
    """Time the sharded checker serially and at ``jobs`` workers.

    Each mode builds its own copy of the seeded crashed image (repair
    mutates it), checks it, and repairs it to convergence.  The report's
    ``identical`` flag — findings, order, counters and repair actions all
    byte-identical across worker counts — carries the CI verdict.
    """
    import hashlib

    n = resolve_jobs(jobs)
    image_scale = scale * FSCK_PERF_MULT
    serial_check_s, serial_repair_s, serial_doc, report, repair = _fsck_timed(
        image_scale=image_scale, seed=seed, jobs=1
    )
    parallel_check_s, parallel_repair_s, parallel_doc, _, _ = _fsck_timed(
        image_scale=image_scale, seed=seed, jobs=n
    )
    return FsckPerfReport(
        runner="fsck",
        scale=scale,
        image_scale=image_scale,
        seed=seed,
        jobs=n,
        extents=report.checked_extents,
        inodes=report.checked_inodes,
        findings=len(report.findings),
        actions=len(repair.actions),
        converged=repair.converged,
        serial_check_s=serial_check_s,
        parallel_check_s=parallel_check_s,
        serial_repair_s=serial_repair_s,
        parallel_repair_s=parallel_repair_s,
        identical=serial_doc == parallel_doc,
        fingerprint=hashlib.sha256(serial_doc.encode()).hexdigest()[:16],
    )


def save_report(
    report: CachePerfReport | FsckPerfReport,
    path: str,
) -> None:
    """Write the report as sorted-key JSON (CI timing artifact)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")
