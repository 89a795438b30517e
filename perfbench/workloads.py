"""The four workloads, the probes that time their phases, and the checks
every pass's simulated output must meet.

Each workload is one registered runner at a pinned scale, run serially
(``jobs=1``) on the default ``batched`` execution profile and the
default ``legacy`` cache profile.  ``macro_io`` and ``metarates`` do not
vary their inputs with the seed (``_fig7_cell`` discards it and the
Metarates file names are fixed), so their seed changes only the run's
fingerprint: a held-out-seed check on them reruns the same inputs.  The
service workloads feed the seed to their arrival generators.
"""

from __future__ import annotations

import hashlib
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from spans import Patches


@dataclass(frozen=True)
class Workload:
    name: str
    runner: str
    scale: float
    kwargs: dict[str, Any]
    #: Whether ``--seed`` reaches the generated inputs.
    seeded_inputs: bool
    why: str
    #: (heavy, light): layers or span names whose traced self time should
    #: add up to more in ``heavy`` than in ``light`` — the reason the
    #: workload was chosen, checked (not gated) on every traced pass.
    loads: tuple[tuple[str, ...], tuple[str, ...]]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "macro_io", "fig7", 0.5, {}, False,
            "IOR2 and BTIO shared-file writers under reservation and on-demand "
            "preallocation: the data path (fs, block, alloc) does the work",
            (("fs", "alloc", "block"), ("meta", "sim")),
        ),
        Workload(
            "metarates", "fig8", 0.1, {"dir_sizes": ()}, False,
            "Metarates over normal, htree and embedded directories: the "
            "metadata path (meta, journal, buffer cache) does the work",
            (("meta", "meta.journal", "disk.cache"), ("fs", "alloc")),
        ),
        Workload(
            "service_flood", "service", 0.4,
            {"streams": 200_000, "rate": "small", "duration": "short"}, True,
            "200k open-loop streams overload both stations and most arrivals "
            "drop: the event engine does the work",
            (("sim", "workloads"), ("fs", "alloc", "block", "disk", "meta")),
        ),
        Workload(
            "service_steady", "service", 0.25,
            {"streams": 1000, "rate": "small", "duration": 200.0}, True,
            "1,000 open-loop streams served mostly one request per disk batch: "
            "the storage layers on their scalar per-request path",
            (("disk", "fs", "block"), ("sim.loop",)),
        ),
    )
}

#: Phase methods timed on every pass: (module, class, method, mutating).
PHASES: tuple[tuple[str, str, str, bool], ...] = (
    ("repro.workloads.ior", "IORBenchmark", "write_phase", True),
    ("repro.workloads.ior", "IORBenchmark", "read_phase", False),
    ("repro.workloads.btio", "BTIOBenchmark", "write_phase", True),
    ("repro.workloads.btio", "BTIOBenchmark", "read_phase", False),
    ("repro.workloads.metarates", "MetaratesWorkload", "run_create", True),
    ("repro.workloads.metarates", "MetaratesWorkload", "run_utime", True),
    ("repro.workloads.metarates", "MetaratesWorkload", "run_readdir_stat", False),
    ("repro.workloads.metarates", "MetaratesWorkload", "run_delete", True),
)


@dataclass
class PhaseRecord:
    method: str
    mutating: bool
    wall_s: float
    ops: int
    #: The workload object the phase ran (IOR/BTIO/Metarates instance).
    workload: Any


@dataclass
class PassProbe:
    """Coarse probes that stay on in untraced passes.

    They wrap calls made a few times per pass — phase methods, the event
    loop's ``run`` and ``DiskArray`` construction — never a per-op path.
    """

    phases: list[PhaseRecord] = field(default_factory=list)
    arrays: list[Any] = field(default_factory=list)
    #: ``time.monotonic()`` when the pass reached its first timed op.
    first_op: float | None = None
    #: Called once, right after ``first_op`` is stamped.
    on_first_op: Callable[[], None] | None = None

    def reset(self) -> None:
        self.phases = []
        self.arrays = []
        self.first_op = None

    def _stamp(self) -> None:
        if self.first_op is None:
            self.first_op = time.monotonic()
            if self.on_first_op is not None:
                self.on_first_op()

    def install(self, patches: Patches) -> None:
        import importlib

        from repro.disk.array import DiskArray
        from repro.sim.events import EventLoop

        for module, cls, method, mutating in PHASES:
            owner = getattr(importlib.import_module(module), cls)
            patches.replace(
                owner, method,
                lambda fn, m=method, w=mutating: self._timed_phase(fn, m, w),
            )
        patches.replace(EventLoop, "run", self._stamped)
        patches.replace(DiskArray, "__init__", self._collect_array)

    def _timed_phase(self, fn: Callable, method: str, mutating: bool) -> Callable:
        def phase(workload, *args, **kwargs):
            self._stamp()
            t0 = time.perf_counter()
            result = fn(workload, *args, **kwargs)
            wall = time.perf_counter() - t0
            self.phases.append(PhaseRecord(method, mutating, wall, result.ops, workload))
            return result

        return phase

    def _stamped(self, fn: Callable) -> Callable:
        def run(loop, *args, **kwargs):
            self._stamp()
            return fn(loop, *args, **kwargs)

        return run

    def _collect_array(self, fn: Callable) -> Callable:
        def init(array, *args, **kwargs):
            fn(array, *args, **kwargs)
            self.arrays.append(array)

        return init

    def io_profile(self) -> dict[str, int]:
        """``DiskArray.io_profile`` summed over every array of the pass."""
        total: dict[str, int] = {}
        for array in self.arrays:
            for key, count in array.io_profile.items():
                total[key] = total.get(key, 0) + count
        return total


def digest(workload: Workload, result, seed: int) -> str:
    """SHA-256 of the pass's rendered baseline document.

    For workloads whose inputs ignore the seed, the ``seed`` and
    ``fingerprint`` fields are dropped first, so one reference digest
    holds for every seed.
    """
    from repro.bench.baseline import dumps, render

    doc = render(result, scale=workload.scale, seed=seed)
    if not workload.seeded_inputs:
        del doc["seed"], doc["fingerprint"]
    return hashlib.sha256(dumps(doc).encode()).hexdigest()


def counts(workload: Workload, result, probe: PassProbe) -> dict[str, int]:
    """Simulated ops of the pass: all, mutating and reading.

    ``macro_io`` counts fs ops and ``metarates`` the ops Metarates
    reports, both per phase; the service workloads count arrivals,
    dropped ones included, with writes and reads split by kind.
    """
    if workload.runner == "service":
        cell = result.payload.cells[0]
        drops = cell.stations["data"].drops_by_kind
        return {
            "ops": cell.arrivals,
            "write_ops": result.metrics.count("fs.writes") + drops["write"],
            "read_ops": result.metrics.count("fs.reads") + drops["read"],
        }
    writes = sum(p.ops for p in probe.phases if p.mutating)
    reads = sum(p.ops for p in probe.phases if not p.mutating)
    return {"ops": writes + reads, "write_ops": writes, "read_ops": reads}


def invariant_failures(workload: Workload, result, probe: PassProbe) -> list[str]:
    """Checks that hold for any disk model; an empty list means all pass."""
    failures: list[str] = []
    if workload.runner != "service" and len(probe.phases) != len(result.phases):
        failures.append(
            f"timed {len(probe.phases)} phases, result has {len(result.phases)}"
        )
    if workload.runner == "fig7":
        for method, counter in (("write_phase", "fs.bytes_written"), ("read_phase", "fs.bytes_read")):
            asked = sum(p.workload.file_bytes for p in probe.phases if p.method == method)
            done = result.metrics.count(counter)
            if asked != done:
                failures.append(f"{counter} = {done}, workload requested {asked}")
    elif workload.runner == "fig8":
        for p in probe.phases:
            wl = p.workload
            want = wl.nclients * wl.files_per_dir
            if p.method == "run_readdir_stat":
                want += wl.nclients  # one readdir per client directory
            if p.ops != want:
                failures.append(f"{p.method} did {p.ops} ops, expected {want}")
    else:
        cell = result.payload.cells[0]
        offered = 0
        for name, st in cell.stations.items():
            offered += st.offered
            if st.offered != st.started + st.dropped:
                failures.append(
                    f"station {name}: offered {st.offered} != started "
                    f"{st.started} + dropped {st.dropped}"
                )
        if offered != cell.arrivals:
            failures.append(f"stations offered {offered}, loop saw {cell.arrivals} arrivals")
    return failures
