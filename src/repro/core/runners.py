"""Registered experiment runners — one per table/figure of §V.

Each runner here follows the unified calling convention of
:mod:`repro.core.run` — keyword-only ``scale``, ``seed`` and ``trace`` —
and returns a :class:`~repro.core.run.RunResult`: per-phase
:class:`~repro.sim.metrics.ThroughputResult` records, the whole run's
metrics snapshot (counters + histograms) and the figure-specific payload
dataclass, which is defined alongside its runner in this module.

Runners share one :class:`~repro.sim.metrics.Metrics` bag and one tracer
across their sub-runs; per-sub-run accounting diffs snapshots instead of
assuming a fresh bag, and the tracer's clock is rebound to each sub-run's
timeline so event timestamps stay monotone within a sub-run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.config import FSConfig
from repro.core.parallel import CellResult, run_cells
from repro.core.run import RunResult, fingerprint, register
from repro.disk.model import BlockRequest
from repro.errors import ConfigError, CrashError, LatentSectorError
from repro.fault import Corruptor, FaultInjector, FaultPlan, build_crashed_image
from repro.fs.dataplane import DataPlane
from repro.fs.profiles import (
    lustre_profile,
    redbud_mif_profile,
    redbud_vanilla_profile,
    with_alloc_policy,
)
from repro.fs.redbud import RedbudFileSystem
from repro.fs.stream import make_stream_id
from repro.fs.verify import (
    RepairResult,
    check_dataplane,
    check_mds,
    repair_dataplane,
    repair_mds,
    shard_work,
)
from repro.meta.mds import MetadataServer
from repro.obs.layout import LayoutInspector, LayoutReport
from repro.obs.slo import SLObjective, SLOReport, evaluate as evaluate_slo, resolve_objectives
from repro.obs.timeseries import TimeSeriesSnapshot
from repro.obs.trace import NullTracer, SamplingTracer, Tracer, coerce_tracer, parse_sample
from repro.rng import derive_rng
from repro.sim.clock import SimClock
from repro.sim.events import EventLoop, Station
from repro.sim.metrics import Metrics, MetricsSnapshot, ThroughputResult
from repro.units import KiB, MiB
from repro.disk.cache import BufferCache
from repro.disk.disk import SimulatedDisk
from repro.workloads.aging import age_metadata_fs
from repro.workloads.cachepressure import (
    CachePressureWorkload,
    InterleavedStreamWorkload,
)
from repro.workloads.apps import AppResult, KernelTree, MakeApp, MakeCleanApp, TarApp
from repro.workloads.btio import BTIOBenchmark
from repro.workloads.filesizes import kernel_tree_sizes
from repro.workloads.ior import IORBenchmark
from repro.workloads.metarates import MetaratesWorkload
from repro.workloads.postmark import PostMarkConfig, PostMarkResult, PostMarkWorkload
from repro.fs.verify import Scrubber
from repro.workloads.service import (
    ScrubSpec,
    ServiceSpec,
    ServiceTelemetry,
    ServiceWorkload,
    resolve_duration,
    resolve_rate,
)
from repro.workloads.listio import StridedAccessBenchmark, TileAccessBenchmark
from repro.workloads.streams import SharedFileMicrobench


def _scaled(value: int, scale: float, floor: int = 1) -> int:
    return max(floor, int(value * scale))


class _Context:
    """Metrics bag + tracer + phase/capture helpers.

    Base for both the whole-run context (:class:`_Run`) and the per-cell
    context (:class:`_Cell`); each owns a private metrics bag so sweep
    cells stay independent and merge deterministically in submission order.
    """

    def __init__(self, trace) -> None:
        self.metrics = Metrics()
        self.tracer = coerce_tracer(trace)
        self.phases: dict[str, ThroughputResult] = {}
        self.layouts: dict[str, LayoutReport] = {}

    def plane(self, cfg: FSConfig) -> DataPlane:
        plane = DataPlane(cfg, self.metrics, self.tracer)
        self.tracer.bind_clock(lambda: plane.array.elapsed_s, override=True)
        return plane

    def mds(self, cfg: FSConfig) -> MetadataServer:
        mds = MetadataServer(cfg, self.metrics, self.tracer)
        self.tracer.bind_clock(lambda: mds.elapsed_s, override=True)
        return mds

    def filesystem(self, cfg: FSConfig) -> RedbudFileSystem:
        fs = RedbudFileSystem(cfg, self.metrics, self.tracer)
        self.tracer.bind_clock(lambda: fs.data.array.elapsed_s, override=True)
        return fs

    def phase(self, label: str, result: ThroughputResult) -> ThroughputResult:
        self.phases[label] = result
        if self.tracer.enabled:
            self.tracer.emit(
                "run", label, dur=result.elapsed,
                bytes=result.bytes_moved, ops=result.ops,
            )
        return result

    def capture(
        self,
        tag: str,
        source: DataPlane | MetadataServer,
        region_bytes: int | None = None,
    ) -> LayoutReport:
        """Snapshot the post-phase layout of a plane or MDS under ``tag``."""
        inspector = LayoutInspector(region_bytes=region_bytes)
        if isinstance(source, MetadataServer):
            report = inspector.inspect_mds(source, label=tag)
        else:
            report = inspector.inspect_dataplane(source, label=tag)
        self.layouts[tag] = report
        return report


class _Run(_Context):
    """Whole-run context: fingerprint plus merged cell results."""

    def __init__(self, name: str, trace, **kwargs) -> None:
        super().__init__(trace)
        self.name = name
        self.fingerprint = fingerprint(name, **kwargs)

    def absorb(self, cell: CellResult) -> None:
        """Merge one cell's phases/layouts/metrics (call in submission
        order; see the determinism contract in :mod:`repro.core.parallel`)."""
        self.phases.update(cell.phases)
        self.layouts.update(cell.layouts)
        self.metrics.absorb(cell.metrics)

    def result(self, payload) -> RunResult:
        return RunResult(
            name=self.name,
            fingerprint=self.fingerprint,
            phases=self.phases,
            metrics=self.metrics.snapshot(),
            payload=payload,
            trace=self.tracer if isinstance(self.tracer, Tracer) else None,
            layouts=self.layouts,
        )


class _Cell(_Context):
    """One sweep cell's context; its ``result`` is picklable for workers."""

    def result(self, payload=None) -> CellResult:
        return CellResult(
            phases=self.phases,
            layouts=self.layouts,
            metrics=self.metrics.snapshot(),
            payload=payload,
        )


# ---------------------------------------------------------------------------
# Fig. 6(a): micro-benchmark phase-2 throughput vs stream count
# ---------------------------------------------------------------------------

@dataclass
class Fig6aResult:
    """Phase-2 read throughput (MiB/s) per policy per stream count."""

    stream_counts: list[int]
    throughput: dict[str, dict[int, float]]  # policy -> n -> MiB/s
    extents: dict[str, dict[int, int]]

    def improvement_over(self, base: str, other: str, n: int) -> float:
        """Fractional gain of ``other`` over ``base`` at ``n`` streams."""
        return self.throughput[other][n] / self.throughput[base][n] - 1.0


def _fig6a_cell(spec, tracer=None) -> CellResult:
    """One (stream count, policy) point of Fig. 6(a)."""
    scale, seed, ndisks, n, policy = spec
    cell = _Cell(tracer)
    file_bytes = _scaled(192 * MiB, scale, floor=16 * MiB)
    cfg = with_alloc_policy(redbud_vanilla_profile(ndisks=ndisks), policy)
    plane = cell.plane(cfg)
    bench = SharedFileMicrobench(
        nstreams=n,
        file_bytes=file_bytes - file_bytes % n,
        write_request_bytes=16 * KiB,
        seed=seed,
    )
    f = bench.create_shared_file(plane)
    cell.phase(f"write:{policy}:n{n}", bench.phase1_write(plane, f))
    plane.close_file(f)
    result = cell.phase(f"read:{policy}:n{n}", bench.phase2_read(plane, f))
    cell.capture(f"{policy}:n{n}", plane, region_bytes=bench.region_bytes)
    return cell.result((result.mib_per_s, f.extent_count))


@register("fig6a")
def micro_stream_count(
    *,
    scale: float = 1.0,
    seed: int = 0,
    trace: Tracer | NullTracer | bool | None = None,
    stream_counts: tuple[int, ...] = (32, 48, 64),
    policies: tuple[str, ...] = ("reservation", "static", "ondemand"),
    ndisks: int = 5,
    jobs: int | None = None,
) -> RunResult:
    """Fig. 6(a): on-demand beats reservation by a margin growing with the
    stream count; static (fallocate) is the contiguous upper bound."""
    run = _Run(
        "fig6a", trace, scale=scale, seed=seed,
        stream_counts=stream_counts, policies=policies, ndisks=ndisks,
    )
    throughput: dict[str, dict[int, float]] = {p: {} for p in policies}
    extents: dict[str, dict[int, int]] = {p: {} for p in policies}
    specs = [
        (scale, seed, ndisks, n, policy)
        for n in stream_counts
        for policy in policies
    ]
    for spec, cell in zip(
        specs, run_cells(specs, _fig6a_cell, jobs=jobs, tracer=run.tracer)
    ):
        run.absorb(cell)
        n, policy = spec[3], spec[4]
        throughput[policy][n], extents[policy][n] = cell.payload
    return run.result(Fig6aResult(list(stream_counts), throughput, extents))


# ---------------------------------------------------------------------------
# Fig. 6(b): impact of the phase-1 request ("allocation") size
# ---------------------------------------------------------------------------

@dataclass
class Fig6bResult:
    """Phase-2 read throughput per policy per phase-1 request size."""

    request_sizes: list[int]
    throughput: dict[str, dict[int, float]]  # policy -> bytes -> MiB/s


def _fig6b_cell(spec, tracer=None) -> CellResult:
    """One (request size, policy) point of Fig. 6(b)."""
    scale, seed, ndisks, nstreams, size, policy = spec
    cell = _Cell(tracer)
    file_bytes = _scaled(192 * MiB, scale, floor=16 * MiB)
    cfg = with_alloc_policy(redbud_vanilla_profile(ndisks=ndisks), policy)
    plane = cell.plane(cfg)
    bench = SharedFileMicrobench(
        nstreams=nstreams,
        file_bytes=file_bytes - file_bytes % nstreams,
        write_request_bytes=size,
        seed=seed,
    )
    f = bench.create_shared_file(plane)
    cell.phase(f"write:{policy}:req{size}", bench.phase1_write(plane, f))
    plane.close_file(f)
    result = cell.phase(f"read:{policy}:req{size}", bench.phase2_read(plane, f))
    cell.capture(f"{policy}:req{size}", plane, region_bytes=bench.region_bytes)
    return cell.result(result.mib_per_s)


@register("fig6b")
def micro_request_size(
    *,
    scale: float = 1.0,
    seed: int = 0,
    trace: Tracer | NullTracer | bool | None = None,
    request_sizes: tuple[int, ...] = (4 * KiB, 16 * KiB, 64 * KiB, 256 * KiB),
    policies: tuple[str, ...] = ("reservation", "static", "ondemand"),
    nstreams: int = 32,
    ndisks: int = 5,
    jobs: int | None = None,
) -> RunResult:
    """Fig. 6(b): small allocation sizes leave reservation placement
    unmergeable on disk; on-demand mitigates the interference."""
    run = _Run(
        "fig6b", trace, scale=scale, seed=seed, request_sizes=request_sizes,
        policies=policies, nstreams=nstreams, ndisks=ndisks,
    )
    throughput: dict[str, dict[int, float]] = {p: {} for p in policies}
    specs = [
        (scale, seed, ndisks, nstreams, size, policy)
        for size in request_sizes
        for policy in policies
    ]
    for spec, cell in zip(
        specs, run_cells(specs, _fig6b_cell, jobs=jobs, tracer=run.tracer)
    ):
        run.absorb(cell)
        size, policy = spec[4], spec[5]
        throughput[policy][size] = cell.payload
    return run.result(Fig6bResult(list(request_sizes), throughput))


# ---------------------------------------------------------------------------
# Fig. 7 + Table I: IOR2 / BTIO macro-benchmarks
# ---------------------------------------------------------------------------

@dataclass
class MacroRun:
    app: str
    policy: str
    collective: bool
    throughput_mib_s: float
    extents: int
    mds_cpu_pct: float


@dataclass
class Fig7Result:
    runs: list[MacroRun] = field(default_factory=list)

    def get(self, app: str, policy: str, collective: bool) -> MacroRun:
        for r in self.runs:
            if r.app == app and r.policy == policy and r.collective == collective:
                return r
        raise KeyError((app, policy, collective))


def _fig7_cell(spec, tracer=None) -> CellResult:
    """One (collective, policy, app) macro-benchmark run of Fig. 7."""
    scale, seed, ndisks, collective, policy, app = spec
    del seed  # the macro benchmarks are deterministic; kept in the spec shape
    cell = _Cell(tracer)
    tag = f"{policy}:{'coll' if collective else 'indep'}"
    cfg = with_alloc_policy(redbud_vanilla_profile(ndisks=ndisks), policy)
    plane = cell.plane(cfg)
    snap = cell.metrics.snapshot()
    if app == "IOR":
        ior_bytes = _scaled(256 * MiB, scale, floor=64 * MiB)
        ior = IORBenchmark(
            nprocs=64,
            file_bytes=ior_bytes - ior_bytes % 64,
            request_bytes=64 * KiB,
            collective=collective,
        )
        f = ior.create_file(plane)
        w = cell.phase(f"write:IOR:{tag}", ior.write_phase(plane, f))
        plane.close_file(f)
        r = cell.phase(f"read:IOR:{tag}", ior.read_phase(plane, f))
        cell.capture(f"IOR:{tag}", plane, region_bytes=ior.file_bytes // ior.nprocs)
    else:
        # BTIO's strided-row pattern changes regime if rows shrink under the
        # drive's skip-merge range, so the per-proc step never scales below
        # 256 KiB (two sub-runs).
        bt_step = _scaled(512 * KiB, scale, floor=256 * KiB)
        bt = BTIOBenchmark(
            nprocs=64,
            step_bytes_per_proc=bt_step,
            steps=4,
            collective=collective,
        )
        f = bt.create_file(plane)
        w = cell.phase(f"write:BTIO:{tag}", bt.write_phase(plane, f))
        plane.close_file(f)
        r = cell.phase(f"read:BTIO:{tag}", bt.read_phase(plane, f))
        cell.capture(f"BTIO:{tag}", plane)
    return cell.result(_macro_run(app, policy, collective, cfg, cell, snap, f, w, r))


@register("fig7")
def macro_benchmarks(
    *,
    scale: float = 1.0,
    seed: int = 0,
    trace: Tracer | NullTracer | bool | None = None,
    policies: tuple[str, ...] = ("reservation", "ondemand"),
    collectives: tuple[bool, ...] = (False, True),
    ndisks: int = 8,
    jobs: int | None = None,
) -> RunResult:
    """Fig. 7: IOR2 and BTIO under reservation vs on-demand, with and
    without collective I/O (paper: 16 nodes × 4 cores, 8 disks).

    ``jobs`` changes only execution strategy, never the result, so it
    does not participate in the fingerprint.
    """
    run = _Run(
        "fig7", trace, scale=scale, seed=seed, policies=policies,
        collectives=collectives, ndisks=ndisks,
    )
    payload = Fig7Result()
    specs = [
        (scale, seed, ndisks, collective, policy, app)
        for collective in collectives
        for policy in policies
        for app in ("IOR", "BTIO")
    ]
    for cell in run_cells(specs, _fig7_cell, jobs=jobs, tracer=run.tracer):
        run.absorb(cell)
        payload.runs.append(cell.payload)
    return run.result(payload)


def _macro_run(
    app: str,
    policy: str,
    collective: bool,
    cfg: FSConfig,
    run: _Context,
    snap: MetricsSnapshot,
    f,
    w: ThroughputResult,
    r: ThroughputResult,
) -> MacroRun:
    elapsed = w.elapsed + r.elapsed
    total = (w.bytes_moved + r.bytes_moved) / elapsed / MiB if elapsed > 0 else 0.0
    # Table I: MDS CPU = extent handling (merging/indexing) over the run.
    # The metrics bag spans all sub-runs; diff against the sub-run snapshot.
    ops = run.metrics.since(snap).count("fs.writes")
    cpu_s = f.extent_count * cfg.mds_cpu_s_per_extent + ops * 1e-6
    cpu_pct = 100.0 * cpu_s / elapsed if elapsed > 0 else 0.0
    return MacroRun(
        app=app,
        policy=policy,
        collective=collective,
        throughput_mib_s=total,
        extents=f.extent_count,
        mds_cpu_pct=cpu_pct,
    )


@dataclass
class Table1Result:
    """Segment counts and MDS CPU utilization, non-collective runs."""

    rows: list[MacroRun] = field(default_factory=list)

    def get(self, app: str, policy: str) -> MacroRun:
        for r in self.rows:
            if r.app == app and r.policy == policy:
                return r
        raise KeyError((app, policy))


@register("table1")
def table1_segments(
    *,
    scale: float = 1.0,
    seed: int = 0,
    trace: Tracer | NullTracer | bool | None = None,
    policies: tuple[str, ...] = ("vanilla", "reservation", "ondemand"),
    ndisks: int = 8,
    jobs: int | None = None,
) -> RunResult:
    """Table I: extents and MDS CPU for Vanilla/Reservation/On-demand on
    the non-collective IOR and BTIO runs."""
    base = macro_benchmarks(
        scale=scale, seed=seed, trace=trace,
        policies=policies, collectives=(False,), ndisks=ndisks, jobs=jobs,
    )
    return RunResult(
        name="table1",
        fingerprint=fingerprint(
            "table1", scale=scale, seed=seed, policies=policies, ndisks=ndisks
        ),
        phases=base.phases,
        metrics=base.metrics,
        payload=Table1Result(rows=base.payload.runs),
        trace=base.trace,
        layouts=base.layouts,
    )


# ---------------------------------------------------------------------------
# Fig. 8: Metarates — embedded vs normal directory
# ---------------------------------------------------------------------------

@dataclass
class MetaRun:
    profile: str
    workload: str
    ops_per_s: float
    disk_requests: int


@dataclass
class Fig8Result:
    runs: list[MetaRun] = field(default_factory=list)
    #: readdir-stat disk-request proportion embedded/normal per dir size.
    rdstat_proportion_by_size: dict[int, float] = field(default_factory=dict)

    def get(self, profile: str, workload: str) -> MetaRun:
        for r in self.runs:
            if r.profile == profile and r.workload == workload:
                return r
        raise KeyError((profile, workload))

    def proportion(self, workload: str, base: str = "redbud-orig", other: str = "redbud-mif") -> float:
        """Disk-access-count proportion (embedded / normal) per Fig. 8."""
        b = self.get(base, workload).disk_requests
        o = self.get(other, workload).disk_requests
        return o / b if b else float("inf")


def _fig8_profile_cell(spec, tracer=None) -> CellResult:
    """All four metarates workloads against one profile's MDS."""
    scale, cfg = spec
    cell = _Cell(tracer)
    files_per_dir = _scaled(5000, scale, floor=200)
    wl = MetaratesWorkload(nclients=10, files_per_dir=files_per_dir)
    mds = cell.mds(cfg)
    dirs = wl.setup_dirs(mds)
    runs: list[MetaRun] = []
    for name, fn in (
        ("create", wl.run_create),
        ("utime", wl.run_utime),
        ("readdir-stat", wl.run_readdir_stat),
        ("delete", wl.run_delete),
    ):
        if name == "delete":  # snapshot the populated namespace first
            cell.capture(cfg.name, mds)
        mds.drop_caches()
        snap = cell.metrics.snapshot()
        result = cell.phase(f"{name}:{cfg.name}", fn(mds, dirs))
        requests = cell.metrics.since(snap).count("disk.requests")
        runs.append(MetaRun(cfg.name, name, result.ops_per_s, requests))
    return cell.result(runs)


def _fig8_dirsize_cell(spec, tracer=None) -> CellResult:
    """readdir-stat disk-request proportion for one directory size."""
    size = spec
    cell = _Cell(tracer)
    counts: dict[str, int] = {}
    for cfg in (redbud_vanilla_profile(), redbud_mif_profile()):
        mds = cell.mds(cfg)
        wl = MetaratesWorkload(nclients=2, files_per_dir=size)
        dirs = wl.setup_dirs(mds)
        wl.run_create(mds, dirs)
        mds.drop_caches()
        snap = cell.metrics.snapshot()
        wl.run_readdir_stat(mds, dirs)
        counts[cfg.name] = cell.metrics.since(snap).count("disk.requests")
    base = counts["redbud-orig"]
    return cell.result(counts["redbud-mif"] / base if base else float("inf"))


@register("fig8")
def metarates_suite(
    *,
    scale: float = 1.0,
    seed: int = 0,
    trace: Tracer | NullTracer | bool | None = None,
    profiles: tuple[FSConfig, ...] | None = None,
    dir_sizes: tuple[int, ...] = (1000, 5000, 10000),
    jobs: int | None = None,
) -> RunResult:
    """Fig. 8: utime/create (a), delete (b) and readdir-stat (c) throughput
    and disk-access counts, plus the dir-size sweep for readdir-stat.

    ``jobs`` changes only execution strategy, never the result, so it
    does not participate in the fingerprint.
    """
    run = _Run(
        "fig8", trace, scale=scale, seed=seed,
        profiles=None if profiles is None else tuple(p.name for p in profiles),
        dir_sizes=dir_sizes,
    )
    if profiles is None:
        profiles = (redbud_vanilla_profile(), lustre_profile(), redbud_mif_profile())
    payload = Fig8Result()
    profile_specs = [(scale, cfg) for cfg in profiles]
    for cell in run_cells(
        profile_specs, _fig8_profile_cell, jobs=jobs, tracer=run.tracer
    ):
        run.absorb(cell)
        payload.runs.extend(cell.payload)
    # readdir-stat proportion vs directory size (§V.D.1's prefetch effect).
    # Absolute directory sizes on purpose: the effect *is* the size trend,
    # so rescaling it away would leave quantization noise.
    for size, cell in zip(
        dir_sizes,
        run_cells(dir_sizes, _fig8_dirsize_cell, jobs=jobs, tracer=run.tracer),
    ):
        run.absorb(cell)
        payload.rdstat_proportion_by_size[size] = cell.payload
    return run.result(payload)


# ---------------------------------------------------------------------------
# Fig. 9: file system aging
# ---------------------------------------------------------------------------

@dataclass
class AgingRun:
    profile: str
    utilization: float
    create_ops_s: float
    delete_ops_s: float


@dataclass
class AgingResult:
    runs: list[AgingRun] = field(default_factory=list)

    def get(self, profile: str, utilization: float) -> AgingRun:
        for r in self.runs:
            if r.profile == profile and abs(r.utilization - utilization) < 1e-9:
                return r
        raise KeyError((profile, utilization))


def _fig9_cell(spec, tracer=None) -> CellResult:
    """Create/delete throughput for one (profile, utilization) point."""
    scale, seed, cfg, util = spec
    cell = _Cell(tracer)
    files_per_dir = _scaled(1000, scale, floor=100)
    wl = MetaratesWorkload(nclients=10, files_per_dir=files_per_dir)
    mds = cell.mds(cfg)
    if util > 0.0:
        age_metadata_fs(mds, util, seed=seed)
    dirs = wl.setup_dirs(mds)
    mds.drop_caches()
    created = cell.phase(f"create:{cfg.name}:u{util}", wl.run_create(mds, dirs))
    cell.capture(f"{cfg.name}:u{util}", mds)
    deleted = cell.phase(f"delete:{cfg.name}:u{util}", wl.run_delete(mds, dirs))
    return cell.result(
        AgingRun(cfg.name, util, created.ops_per_s, deleted.ops_per_s)
    )


@register("fig9")
def aging_impact(
    *,
    scale: float = 1.0,
    seed: int = 0,
    trace: Tracer | NullTracer | bool | None = None,
    utilizations: tuple[float, ...] = (0.0, 0.4, 0.8),
    jobs: int | None = None,
) -> RunResult:
    """Fig. 9: create/delete throughput after aging the MFS to each
    utilization (embedded creation drops hardest; deletion barely moves)."""
    run = _Run("fig9", trace, scale=scale, seed=seed, utilizations=utilizations)
    payload = AgingResult()
    specs = [
        (scale, seed, cfg, util)
        for cfg in (redbud_vanilla_profile(), lustre_profile(), redbud_mif_profile())
        for util in utilizations
    ]
    for cell in run_cells(specs, _fig9_cell, jobs=jobs, tracer=run.tracer):
        run.absorb(cell)
        payload.runs.append(cell.payload)
    return run.result(payload)


# ---------------------------------------------------------------------------
# Fig. 10: PostMark and kernel-tree applications
# ---------------------------------------------------------------------------

@dataclass
class Fig10Result:
    """Execution times per profile; proportions are relative to Lustre."""

    postmark: dict[str, PostMarkResult] = field(default_factory=dict)
    apps: dict[str, dict[str, AppResult]] = field(default_factory=dict)

    def time_proportion(self, app: str, profile: str = "redbud-mif", base: str = "lustre") -> float:
        """Execution-time proportion (profile / base); < 1 means faster."""
        if app == "postmark":
            return self.postmark[profile].elapsed_s / self.postmark[base].elapsed_s
        return self.apps[profile][app].elapsed_s / self.apps[base][app].elapsed_s


def _fig10_cell(spec, tracer=None) -> CellResult:
    """PostMark plus the three kernel-tree applications for one profile."""
    scale, seed, cfg = spec
    cell = _Cell(tracer)
    pm_cfg = PostMarkConfig(
        files=_scaled(2000, scale, floor=200) // 10 * 10,
        transactions=_scaled(10000, scale, floor=500),
        nclients=10,
        seed=seed,
    )
    tree = KernelTree(
        files_per_dir=_scaled(100, scale, floor=20), dirs=10, seed=seed
    )
    fs = cell.filesystem(cfg)
    pm = PostMarkWorkload(pm_cfg).run(fs)
    cell.phase(
        f"postmark:{cfg.name}",
        ThroughputResult(
            bytes_moved=0,
            elapsed=pm.elapsed_s,
            ops=pm.creates + pm.deletes + pm.reads + pm.appends,
        ),
    )

    fs = cell.filesystem(cfg)
    tree.populate(fs, "/linux")
    fs.mds.drop_caches()
    apps: dict[str, AppResult] = {}
    for label, app in (
        ("tar", TarApp(tree)),
        ("make", MakeApp(tree)),
        ("make-clean", MakeCleanApp(tree)),
    ):
        result = app.run(fs, "/linux")
        apps[label] = result
        cell.phase(
            f"{label}:{cfg.name}",
            ThroughputResult(
                bytes_moved=0, elapsed=result.elapsed_s, ops=result.ops
            ),
        )
    cell.capture(f"apps:{cfg.name}:data", fs.data)
    cell.capture(f"apps:{cfg.name}:meta", fs.mds)
    return cell.result((cfg.name, pm, apps))


@register("fig10")
def postmark_apps(
    *,
    scale: float = 1.0,
    seed: int = 0,
    trace: Tracer | NullTracer | bool | None = None,
    jobs: int | None = None,
) -> RunResult:
    """Fig. 10: PostMark + tar/make/make-clean execution-time proportions
    (paper scale: 100K files / 500K transactions; kernel v2.6.30 tree).

    Each profile is an independent sweep cell, so ``jobs`` fans the two
    profiles out over workers without changing the document.
    """
    run = _Run("fig10", trace, scale=scale, seed=seed)
    payload = Fig10Result()
    specs = [
        (scale, seed, cfg) for cfg in (lustre_profile(), redbud_mif_profile())
    ]
    for cell in run_cells(specs, _fig10_cell, jobs=jobs, tracer=run.tracer):
        run.absorb(cell)
        name, pm, apps = cell.payload
        payload.postmark[name] = pm
        payload.apps[name] = apps
    return run.result(payload)


# ---------------------------------------------------------------------------
# §I / §III.C headline claims
# ---------------------------------------------------------------------------

@dataclass
class InterferenceClaim:
    fragmented_mib_s: float
    contiguous_mib_s: float

    @property
    def loss_fraction(self) -> float:
        """I/O performance lost to intra-file interference (paper: >40%)."""
        return 1.0 - self.fragmented_mib_s / self.contiguous_mib_s


def interference_claim(scale: float = 1.0, seed: int = 0) -> InterferenceClaim:
    """§I: intra-file interference can reduce I/O performance by >40%."""
    fig = micro_stream_count(
        stream_counts=(64,), policies=("reservation", "static"),
        scale=scale, seed=seed,
    ).payload
    return InterferenceClaim(
        fragmented_mib_s=fig.throughput["reservation"][64],
        contiguous_mib_s=fig.throughput["static"][64],
    )


@dataclass
class FppGap:
    """Shared-file vs file-per-process read-back throughput (MiB/s)."""

    shared: dict[str, float] = field(default_factory=dict)   # policy -> MiB/s
    per_process: dict[str, float] = field(default_factory=dict)

    def gap(self, policy: str) -> float:
        """file-per-process / shared ratio (paper: ~5x under traditional
        placement; MiF's goal is to pull it toward 1)."""
        return self.per_process[policy] / self.shared[policy]


def file_per_process_gap(
    policies: tuple[str, ...] = ("reservation", "ondemand"),
    nstreams: int = 32,
    scale: float = 1.0,
    ndisks: int = 5,
    seed: int = 0,
) -> FppGap:
    """§II.A.1: per-process files beat one shared file "by a factor of 5"
    under traditional placement; on-demand preallocation closes the gap."""
    from repro.workloads.fpp import FilePerProcessBench

    total = _scaled(192 * MiB, scale, floor=32 * MiB)
    total -= total % nstreams
    out = FppGap()
    for policy in policies:
        cfg = with_alloc_policy(redbud_vanilla_profile(ndisks=ndisks), policy)
        plane = DataPlane(cfg)
        bench = SharedFileMicrobench(
            nstreams=nstreams, file_bytes=total, write_request_bytes=16 * KiB,
            seed=seed,
        )
        f = bench.create_shared_file(plane)
        bench.phase1_write(plane, f)
        plane.close_file(f)
        out.shared[policy] = bench.phase2_read(plane, f).mib_per_s

        cfg = with_alloc_policy(redbud_vanilla_profile(ndisks=ndisks), policy)
        plane = DataPlane(cfg)
        fpp = FilePerProcessBench(
            nstreams=nstreams, total_bytes=total, write_request_bytes=16 * KiB,
            seed=seed,
        )
        files = fpp.create_files(plane)
        fpp.phase1_write(plane, files)
        for g in files:
            plane.close_file(g)
        out.per_process[policy] = fpp.phase2_read(plane, files).mib_per_s
    return out


@dataclass
class PreallocWaste:
    """§III.C: space occupied by static preallocation on small files."""

    prealloc_bytes: int
    occupied_small: int
    occupied_large: int

    @property
    def waste_ratio(self) -> float:
        return self.occupied_large / self.occupied_small


def prealloc_waste(
    nfiles: int = 5000, small: int = 16 * KiB, large: int = 256 * KiB, seed: int = 0
) -> PreallocWaste:
    """§III.C: static 256 KiB preallocation on kernel-tree files occupies
    far more space than 16 KiB (the paper measured ~100×... on 8 GiB vs
    80 MiB; the ratio here is bounded by 256/16 = 16× because occupation
    is dominated by the preallocation floor)."""
    sizes = kernel_tree_sizes(nfiles, seed=seed)
    block = 4096
    occupied = {}
    for prealloc in (small, large):
        total = 0
        for s in sizes:
            total += max(int(s), prealloc)
        occupied[prealloc] = -(-total // block) * block
    return PreallocWaste(
        prealloc_bytes=large,
        occupied_small=occupied[small],
        occupied_large=occupied[large],
    )


# ---------------------------------------------------------------------------
# Fault campaign: crash + torn-write + latent-sector-error injection, then
# journal replay and fsck repair (robustness layer, not a paper figure)
# ---------------------------------------------------------------------------

@dataclass
class FaultCampaignResult:
    """Outcome of one seeded fault campaign."""

    seed: int
    crash_after_requests: int | None
    injected_lse: int
    injected_torn: int
    injected_crashes: int
    replayed_records: int
    discarded_records: int
    scrub_healed: int
    #: Finding codes the structural corruptor aimed for.
    corruptions: list[str]
    mds_repair: "RepairResult"
    plane_repair: "RepairResult"

    @property
    def injected_faults(self) -> int:
        return (
            self.injected_lse
            + self.injected_torn
            + self.injected_crashes
            + len(self.corruptions)
        )

    @property
    def clean_after(self) -> bool:
        return self.mds_repair.converged and self.plane_repair.converged


@register("faults")
def fault_campaign(
    *,
    scale: float = 1.0,
    seed: int = 0,
    trace: Tracer | NullTracer | bool | None = None,
    jobs: int | None = None,
) -> RunResult:
    """Three-phase robustness campaign:

    1. **Crash**: a metarates-style create workload against an embedded-
       layout MDS with an armed injector; the seeded crash point fires
       mid-workload and :meth:`MetadataServer.crash_recover` replays the
       committed journal records.
    2. **Scrub**: a striped data plane whose first disk carries latent
       sector errors and torn multi-block writes; a read scrub detects the
       bad sectors and heals them by rewriting.
    3. **Repair**: the structural corruptor damages both planes and the
       fsck repair routines fix them, proving the dirty→clean round trip.

    The campaign is one sequential cell, so ``jobs`` is accepted for the
    unified ``run()`` surface but has nothing to fan out.
    """
    del jobs
    run = _Run("faults", trace, scale=scale, seed=seed)
    cfg = redbud_mif_profile()

    # Phase 1: crash the MDS mid-workload, then recover.
    mds = run.mds(cfg)
    mds_plan = FaultPlan.seeded(
        seed, mds.disk.capacity_blocks, torn_every=4, crash_window=(20, 80)
    )
    mds_injector = FaultInjector(mds_plan)
    mds.disk.attach_injector(mds_injector)
    wl = MetaratesWorkload(nclients=2, files_per_dir=_scaled(60, scale, floor=10))
    t0 = mds.elapsed_s
    try:
        dirs = wl.setup_dirs(mds)
        wl.run_create(mds, dirs)
    except CrashError:
        pass
    mds_injector.disarm()
    replayed = mds.crash_recover()
    # Post-recovery activity proves the server still works (and gives the
    # structural corruptor a populated namespace to damage).
    survivors = mds.mkdir(mds.root, "survivors")
    for i in range(_scaled(40, scale, floor=8)):
        mds.create(survivors, f"s{i:04d}")
    run.phase(
        "crash-recover",
        ThroughputResult(bytes_moved=0, elapsed=mds.elapsed_s - t0, ops=mds.ops),
    )

    # Phase 2: data-plane LSE scrub.  The injector rides the disk that
    # serves the files' writes (files land wherever their PAG layout says,
    # not necessarily disk 0); tears fire during the writes, and latent
    # sector errors *develop* on written sectors afterwards — an LSE baked
    # in up front would be healed by the very write that stored the data.
    # No crash point, so the scrub itself runs to completion.
    plane = run.plane(cfg)
    data_plan = FaultPlan.seeded(
        seed + 1,
        cfg.disk.capacity_blocks,
        lse_count=0,
        torn_every=3,
        crash_window=None,
    )
    data_injector = FaultInjector(data_plan)
    chunk = 64 * KiB
    rounds = _scaled(12, scale, floor=4)
    files = [plane.create_file(f"data{i:02d}") for i in range(3)]
    injected_disk = None
    for r in range(rounds):
        for i, f in enumerate(files):
            reqs = plane.write(f, make_stream_id(i, 0), r * chunk, chunk)
            if injected_disk is None and reqs:
                idx, _ = plane.array.locate(reqs[0].start)
                injected_disk = plane.array.disks[idx]
                injected_disk.attach_injector(data_injector)
            plane.array.submit_batch(reqs)
    lse_rng = derive_rng(seed + 1, "fault", "develop")
    written = sorted(data_injector.written)
    if written:
        picks = {
            written[int(lse_rng.integers(0, len(written)))] for _ in range(6)
        }
        data_injector.develop_lse(picks)
    healed = 0
    for f in files:
        for req in plane.read(f, 0, f.size_bytes):
            try:
                plane.array.submit_batch([req])
            except LatentSectorError:
                plane.array.submit_batch(
                    [BlockRequest(req.start, req.nblocks, is_write=True)]
                )
                plane.array.submit_batch([req])  # verify the heal took
                healed += 1
    run.phase(
        "scrub",
        ThroughputResult(
            bytes_moved=rounds * chunk * len(files),
            elapsed=plane.array.elapsed_s,
            ops=healed,
        ),
    )

    # Phase 3: structural corruption, then fsck repair to convergence.
    data_injector.disarm()
    corruptor = Corruptor(seed)
    codes = corruptor.corrupt_dataplane(plane, nfaults=3)
    codes += corruptor.corrupt_mds(mds, nfaults=3)
    plane_repair = repair_dataplane(plane)
    mds_repair = repair_mds(mds)
    run.capture("post-repair", mds)

    payload = FaultCampaignResult(
        seed=seed,
        crash_after_requests=mds_plan.crash_after_requests,
        injected_lse=mds_injector.lse_errors + data_injector.lse_errors,
        injected_torn=mds_injector.torn_writes + data_injector.torn_writes,
        injected_crashes=mds_injector.crashes + data_injector.crashes,
        replayed_records=replayed,
        discarded_records=run.metrics.count("mds.discarded_records"),
        scrub_healed=healed,
        corruptions=codes,
        mds_repair=mds_repair,
        plane_repair=plane_repair,
    )
    return run.result(payload)


# ---------------------------------------------------------------------------
# Open-loop service mode: arrival-rate-driven latency under load
# ---------------------------------------------------------------------------

@dataclass
class StationReport:
    """One service center's open-loop outcome at one operating point."""

    name: str
    offered: int
    started: int
    completed: int
    dropped: int
    busy_s: float
    #: Busy fraction of the arrival window (> 1.0 = backlog outlived it).
    saturation: float
    #: Completions per simulated second of the arrival window.
    goodput_ops_s: float
    p50_s: float
    p99_s: float
    p999_s: float
    mean_latency_s: float
    mean_queue_depth: float
    p99_queue_depth: float
    #: The bounded queue depth the station ran with — the context that
    #: makes saturation and drops interpretable.
    depth: int = 0
    #: Drops broken down by op kind routed to this station.
    drops_by_kind: dict[str, int] = field(default_factory=dict)

    @property
    def drop_fraction(self) -> float:
        return self.dropped / self.offered if self.offered else 0.0


@dataclass
class ScrubSummary:
    """Online-scrub outcome for one service cell (docs/FSCK.md)."""

    steps: int
    findings: int
    repairs: int
    cycles: int
    #: Finding codes the live corruptor aimed for during the run.
    injected: list[str] = field(default_factory=list)
    #: Extra full rotations needed after the arrival window to reach clean.
    drain_cycles: int = 0
    clean_after: bool = False


@dataclass
class ServiceCell:
    """One (rate, …) operating point: arrivals plus per-station reports."""

    rate: float
    streams: int
    duration_s: float
    queue_depth: int
    arrivals: int
    active_streams: int
    stations: dict[str, StationReport] = field(default_factory=dict)
    #: Which disk-array kernel serviced the cell's batches — multi-request
    #: batches take the array kernel, single-request ones the scalar one
    #: (see :attr:`repro.disk.array.DiskArray.io_profile`).
    io_profile: dict[str, int] = field(default_factory=dict)
    #: Per-window telemetry frames (``--telemetry``); None when disabled.
    telemetry: TimeSeriesSnapshot | None = None
    #: SLO evaluation over :attr:`telemetry` (``--slo``); None when disabled.
    slo: SLOReport | None = None
    #: Online-scrub summary (``--scrub``); None when disabled.
    scrub: ScrubSummary | None = None

    def station(self, name: str) -> StationReport:
        try:
            return self.stations[name]
        except KeyError:
            raise KeyError(
                f"no station {name!r}; known: {sorted(self.stations)}"
            ) from None


@dataclass
class ServiceReport:
    """Payload of the ``service`` runner: one cell per swept rate."""

    cells: list[ServiceCell] = field(default_factory=list)

    def get(self, rate: float) -> ServiceCell:
        for cell in self.cells:
            if cell.rate == rate:
                return cell
        raise KeyError(f"no cell at rate {rate}; known: {[c.rate for c in self.cells]}")

    @property
    def slo_verdict(self) -> str | None:
        """Overall verdict: "pass" only if every evaluated cell passed.

        None when no cell carried an SLO report (``--slo`` not given).
        """
        reports = [c.slo for c in self.cells if c.slo is not None]
        if not reports:
            return None
        return "pass" if all(r.passed for r in reports) else "fail"


def _station_report(st, duration_s: float, drops_by_kind: dict[str, int]) -> StationReport:
    lat = st.latency.snapshot()
    q = st.queue_depth.snapshot()
    return StationReport(
        name=st.name,
        offered=st.offered,
        started=st.started,
        completed=st.completed,
        dropped=st.dropped,
        busy_s=st.busy_s,
        saturation=st.saturation(duration_s),
        goodput_ops_s=st.completed / duration_s if duration_s > 0 else 0.0,
        p50_s=lat.percentile(50.0),
        p99_s=lat.percentile(99.0),
        p999_s=lat.percentile(99.9),
        mean_latency_s=lat.mean,
        mean_queue_depth=q.mean,
        p99_queue_depth=q.percentile(99.0),
        depth=st.depth,
        drops_by_kind=dict(drops_by_kind),
    )


#: The op kinds each service station serves, in event-source order.
_STATION_KINDS = {"data": ("write", "read"), "meta": ("meta",)}


def _service_cell(spec, tracer=None) -> CellResult:
    """One open-loop operating point: build, arrive, drain, report."""
    svc, cfg, telemetry_window, objectives, scrub = spec
    cell = _Cell(tracer)
    plane = cell.plane(cfg)
    mds = cell.mds(cfg)
    wl = ServiceWorkload(svc, plane, mds)
    wl.setup()

    loop = EventLoop(SimClock())
    stations = {
        "data": Station("data", wl.data_service, svc.queue_depth),
        "meta": Station("meta", wl.meta_service, svc.queue_depth),
    }
    telem = None
    if telemetry_window is not None:
        telem = ServiceTelemetry(telemetry_window)
        loop.probe = telem.loop_probe
        for st in stations.values():
            st.probe = telem.station_probe(st.name)
        telem.track_cache(mds.metrics)
    sampler = tracer if isinstance(tracer, SamplingTracer) else None
    # Drops per op kind.  A station's last kind needs no counter of its
    # own — its drops are the station's less the other kinds' — so
    # unsampled, its events go straight to ``Station.offer``.
    kind_drops = {kind: [0] for kind in ServiceWorkload.KINDS}

    def drops_by_kind(name: str) -> dict[str, int]:
        *counted, last = _STATION_KINDS[name]
        drops = {kind: kind_drops[kind][0] for kind in counted}
        drops[last] = stations[name].dropped - sum(drops.values())
        return drops

    def arrive(station, kind, counted):
        offer = station.offer
        dropped = kind_drops[kind]
        if sampler is None:
            if not counted:
                return offer

            def on_event(now, op):
                if offer(now, op) is None:
                    dropped[0] += 1

            return on_event
        pending = wl.pending_stream
        sampled = sampler.sampled
        arrive_op, drop_op, sojourn_op = (
            f"{kind}.arrive", f"{kind}.drop", f"{kind}.sojourn",
        )

        def on_sampled_event(now, op):
            stream = pending[kind]
            if not sampled(stream):
                if offer(now, op) is None:
                    dropped[0] += 1
                return
            with sampler.op(stream):
                sampler.emit("service", arrive_op, t=now, station=station.name)
                done = offer(now, op)
                if done is None:
                    sampler.emit("service", drop_op, t=now, station=station.name)
                else:
                    sampler.emit(
                        "service", sojourn_op, t=now, dur=done - now,
                        station=station.name,
                    )
            if done is None:
                dropped[0] += 1

        return on_sampled_event

    for name, kinds in _STATION_KINDS.items():
        for kind in kinds:
            loop.add_source(
                wl.events(kind), arrive(stations[name], kind, kind != kinds[-1]),
            )

    scrubber = None
    injected: list[str] = []
    if scrub is not None:
        # Online scrub: one shard check/repair per interval, interleaved
        # with foreground arrivals.  Corruption stays on the data plane —
        # live metadata traffic would trip over a damaged namespace.
        scrubber = Scrubber(plane, mds, strict_accounting=False)
        corruptor = Corruptor(svc.seed + 7919)

        def scrub_events():
            step = 0
            while True:
                yield (scrub.interval_s, ("scrub", step))
                step += 1

        def on_scrub(now, op):
            _, step = op
            if scrub.corrupt_every and step % scrub.corrupt_every == 0:
                hit = corruptor.corrupt_dataplane(plane, nfaults=scrub.nfaults)
                injected.extend(hit)
            else:
                hit = []
            result = scrubber.step()
            if telem is not None:
                counters = telem.series.frame(now).counters
                counters["scrub.steps"] = counters.get("scrub.steps", 0) + 1
                for key, value in (
                    ("scrub.findings", result.findings),
                    ("scrub.repairs", result.repaired),
                    ("scrub.injected", len(hit)),
                ):
                    if value:
                        counters[key] = counters.get(key, 0) + value

        loop.add_source(scrub_events(), on_scrub)

    loop.run(until=svc.duration_s)
    for st in stations.values():
        st.drain()

    scrub_summary = None
    if scrubber is not None:
        # After the arrival window, let the scrubber finish healing any
        # damage injected late in the run: full rotations until the
        # offline checker reports clean (bounded — repair converges).
        drain_cycles = 0
        final = scrubber.full_check()
        while not final.clean and drain_cycles < 4:
            for _ in range(scrubber.shard_count):
                scrubber.step()
            drain_cycles += 1
            final = scrubber.full_check()
        scrub_summary = ScrubSummary(
            steps=scrubber.shards_checked,
            findings=scrubber.findings_found,
            repairs=scrubber.repairs_applied,
            cycles=scrubber.cycles,
            injected=injected,
            drain_cycles=drain_cycles,
            clean_after=final.clean,
        )

    if telem is not None:
        telem.finish(svc.duration_s)

    label = f"service:r{svc.rate:g}"
    cell.phase(
        label,
        ThroughputResult(
            # Every op the data station started moved one request.
            bytes_moved=stations["data"].started * svc.request_bytes,
            elapsed=svc.duration_s,
            ops=sum(st.started for st in stations.values()),
        ),
    )
    for name, st in stations.items():
        cell.metrics.histogram_ref(f"service.{name}.latency_s").absorb(
            st.latency.snapshot()
        )
        cell.metrics.histogram_ref(f"service.{name}.queue_depth").absorb(
            st.queue_depth.snapshot()
        )
        cell.metrics.incr(f"service.{name}.dropped", st.dropped)
    snapshot = telem.snapshot() if telem is not None else None
    slo_report = (
        evaluate_slo(snapshot, objectives)
        if snapshot is not None and objectives
        else None
    )
    payload = ServiceCell(
        rate=svc.rate,
        streams=svc.streams,
        duration_s=svc.duration_s,
        queue_depth=svc.queue_depth,
        arrivals=loop.processed,
        active_streams=wl.active_streams,
        stations={
            name: _station_report(st, svc.duration_s, drops_by_kind(name))
            for name, st in stations.items()
        },
        io_profile=dict(plane.array.io_profile),
        telemetry=snapshot,
        slo=slo_report,
        scrub=scrub_summary,
    )
    return cell.result(payload)


#: Default telemetry windows per run: ``--telemetry`` without an explicit
#: window width divides the arrival window into this many frames.
TELEMETRY_WINDOWS = 50


def _resolve_telemetry_window(
    telemetry: bool | float, slo_active: bool, duration_s: float
) -> float | None:
    """The telemetry window width in seconds, or None when disabled.

    ``True`` (or any active SLO, which needs frames to evaluate) divides
    the run into :data:`TELEMETRY_WINDOWS` windows; a number is an explicit
    window width in simulated seconds.
    """
    if telemetry is False or telemetry is None:
        return duration_s / TELEMETRY_WINDOWS if slo_active else None
    if telemetry is True:
        return duration_s / TELEMETRY_WINDOWS
    window_s = float(telemetry)
    if window_s <= 0:
        raise ConfigError(f"telemetry window must be positive: {telemetry}")
    return window_s


@register("service")
def service_mode(
    *,
    scale: float = 1.0,
    seed: int = 0,
    trace: Tracer | NullTracer | bool | None = None,
    streams: int = 1000,
    rate: str | float = "small",
    duration: str | float = "short",
    queue_depth: int = 64,
    rates: tuple[str | float, ...] | None = None,
    read_fraction: float = 0.35,
    meta_fraction: float = 0.20,
    request_bytes: int = 64 * KiB,
    config: FSConfig | None = None,
    jobs: int | None = None,
    telemetry: bool | float = False,
    slo: bool | str | SLObjective | tuple[str | SLObjective, ...] | None = None,
    sample: int | str | None = None,
    cache_profile: str = "legacy",
    scrub: bool | float = False,
    scrub_corrupt: int = 0,
    scrub_faults: int = 1,
) -> RunResult:
    """Open-loop service mode: latency under a fixed offered load.

    ``streams`` clients each arrive at ``rate`` ops/s (named "small" /
    "medium" / "large" or an explicit number) for ``duration`` simulated
    seconds ("short"/"long" or seconds; multiplied by ``scale``).  Data
    and metadata operations queue at bounded-depth stations over the disk
    array and the MDS; the payload reports p50/p99/p999 sojourn times,
    queue depths, drops, saturation and goodput per station.  ``rates``
    sweeps several operating points as independent cells (``jobs`` fans
    them out; results are identical at any job count).

    Observability (docs/TELEMETRY.md) — all observe-only, none of it
    enters the fingerprint or perturbs results:

    - ``telemetry`` — per-window time-series frames on each cell: ``True``
      for :data:`TELEMETRY_WINDOWS` windows, or an explicit window width
      in simulated seconds.
    - ``slo`` — declarative SLO objectives evaluated per cell: ``True``
      / ``"default"`` for :data:`~repro.obs.slo.DEFAULT_OBJECTIVES`, or
      spec strings like ``"data.latency_s:p99<=0.05"`` (comma-separated
      or a tuple).  Implies telemetry.
    - ``sample`` — sampled per-op tracing: ``"1/N"`` (or N) traces every
      N-th stream end-to-end via a :class:`~repro.obs.trace.
      SamplingTracer`.
      Ignored when an explicit ``trace=`` tracer is passed.

    ``cache_profile`` selects the MDS buffer-cache profile ("legacy" or
    "adaptive", docs/CACHE.md).  Unlike the observability knobs it *does*
    change simulated results, so a non-default profile enters the
    fingerprint through the config name; the default is
    fingerprint-identical to previous releases.  Under ``telemetry`` the
    cache counters (per-tier hits, misses, prefetch issued/used) are
    rolled into per-window series with a derived
    ``cache.prefetch_accuracy``.

    ``scrub`` enables online scrubbing (docs/FSCK.md): ``True`` steps the
    :class:`~repro.fs.verify.Scrubber` once per telemetry-sized window
    (duration / :data:`TELEMETRY_WINDOWS`), a number is an explicit step
    interval in simulated seconds.  ``scrub_corrupt`` > 0 additionally
    injects ``scrub_faults`` seeded data-plane corruptions before every
    ``scrub_corrupt``-th step (implies scrubbing), so the scrub has live
    damage to converge on; per-window ``scrub.*`` counters appear under
    ``telemetry`` and the cell payload carries a :class:`ScrubSummary`.
    Scrubbing repairs live state, so it enters the fingerprint when
    enabled; the default stays fingerprint-identical.
    """
    rate_points = tuple(resolve_rate(r) for r in (rates if rates is not None else (rate,)))
    duration_s = resolve_duration(duration) * scale
    cfg = config if config is not None else redbud_mif_profile()
    if cache_profile != "legacy":
        # Fold the cache profile into the config (and thus, via its name,
        # into the fingerprint): the default stays fingerprint-identical.
        cfg = cfg.with_cache_profile(cache_profile)
    objectives = resolve_objectives(slo)
    telemetry_window = _resolve_telemetry_window(
        telemetry, objectives is not None, duration_s
    )
    if sample is not None and (trace is None or trace is False):
        trace = SamplingTracer(every=parse_sample(sample))
    scrub_spec = None
    if scrub or scrub_corrupt:
        interval_s = (
            duration_s / TELEMETRY_WINDOWS
            if isinstance(scrub, bool) else float(scrub)
        )
        scrub_spec = ScrubSpec(
            interval_s=interval_s,
            corrupt_every=scrub_corrupt,
            nfaults=scrub_faults,
        )
    # Scrubbing repairs live state, so it participates in the fingerprint
    # — but only when enabled, keeping default fingerprints unchanged.
    scrub_kwargs = (
        {}
        if scrub_spec is None
        else {
            "scrub_interval_s": scrub_spec.interval_s,
            "scrub_corrupt": scrub_spec.corrupt_every,
            "scrub_faults": scrub_spec.nfaults,
        }
    )
    run = _Run(
        "service", trace, scale=scale, seed=seed, streams=streams,
        rates=rate_points, duration_s=duration_s, queue_depth=queue_depth,
        read_fraction=read_fraction, meta_fraction=meta_fraction,
        request_bytes=request_bytes, profile=cfg.name, **scrub_kwargs,
    )
    specs = [
        (
            ServiceSpec(
                streams=streams,
                rate=r,
                duration_s=duration_s,
                queue_depth=queue_depth,
                read_fraction=read_fraction,
                meta_fraction=meta_fraction,
                request_bytes=request_bytes,
                seed=seed,
            ),
            cfg,
            telemetry_window,
            objectives,
            scrub_spec,
        )
        for r in rate_points
    ]
    payload = ServiceReport()
    for cell in run_cells(specs, _service_cell, jobs=jobs, tracer=run.tracer):
        run.absorb(cell)
        payload.cells.append(cell.payload)
    return run.result(payload)


# ---------------------------------------------------------------------------
# fig_listio: scatter-gather list I/O vs the scalar-operation loop
# ---------------------------------------------------------------------------

#: Per-submission request overhead (seconds) for the list-I/O experiment:
#: request shipping plus command setup, the cost PVFS list I/O amortizes
#: over a whole region list.  The bundled profiles keep
#: ``request_header_s=0`` (the historical positioning+transfer-only
#: model); this runner opts in so the submission-count difference between
#: the two modes is visible on the clock, not only in the counters.
LISTIO_HEADER_S = 2e-4


@dataclass
class ListIORun:
    """One (pattern, mode) cell: phase throughputs plus header count."""

    pattern: str
    mode: str
    write_mib_s: float
    read_mib_s: float
    request_headers: int


@dataclass
class ListIOResult:
    """Scalar-loop vs list-I/O throughput per access pattern."""

    runs: list[ListIORun] = field(default_factory=list)

    def get(self, pattern: str, mode: str) -> ListIORun:
        for r in self.runs:
            if r.pattern == pattern and r.mode == mode:
                return r
        raise KeyError((pattern, mode))

    def speedup(self, pattern: str, phase: str = "read") -> float:
        """List-I/O over scalar-loop throughput gain for ``pattern``."""
        scalar = self.get(pattern, "scalar")
        listio = self.get(pattern, "listio")
        if phase == "read":
            return listio.read_mib_s / scalar.read_mib_s
        return listio.write_mib_s / scalar.write_mib_s


def _fig_listio_cell(spec, tracer=None) -> CellResult:
    """One (pattern, mode) list-I/O run.

    Both modes replay the identical noncontiguous access pattern through
    the same closed-loop runner; only the request grammar differs — one
    Write/ReadOp per region versus one Writev/ReadvOp per region list.
    """
    scale, seed, ndisks, pattern, mode = spec
    cell = _Cell(tracer)
    cfg = redbud_mif_profile(ndisks=ndisks)
    cfg = replace(cfg, disk=replace(cfg.disk, request_header_s=LISTIO_HEADER_S))
    plane = cell.plane(cfg)
    snap = cell.metrics.snapshot()
    if pattern == "strided":
        bench = StridedAccessBenchmark(
            nstreams=8,
            records_per_stream=_scaled(256, scale, floor=32),
            record_bytes=16 * KiB,
            list_len=32,
            seed=seed,
        )
    elif pattern == "tile":
        bench = TileAccessBenchmark(
            tiles_x=4,
            tiles_y=2,
            tile_w_bytes=64 * KiB,
            tile_rows=_scaled(16, scale, floor=8),
            seed=seed,
        )
    else:
        raise ConfigError(f"unknown list-I/O pattern: {pattern!r}")
    f = bench.create_file(plane)
    w = cell.phase(f"write:{pattern}:{mode}", bench.phase_write(plane, f, mode))
    plane.close_file(f)
    r = cell.phase(f"read:{pattern}:{mode}", bench.phase_read(plane, f, mode))
    cell.capture(f"{pattern}:{mode}", plane, region_bytes=bench.region_bytes)
    headers = cell.metrics.since(snap).count("disk.request_headers")
    return cell.result(
        ListIORun(
            pattern=pattern,
            mode=mode,
            write_mib_s=w.bytes_moved / w.elapsed / MiB if w.elapsed > 0 else 0.0,
            read_mib_s=r.bytes_moved / r.elapsed / MiB if r.elapsed > 0 else 0.0,
            request_headers=headers,
        )
    )


@register("fig_listio")
def listio_benchmarks(
    *,
    scale: float = 1.0,
    seed: int = 0,
    trace: Tracer | NullTracer | bool | None = None,
    patterns: tuple[str, ...] = ("strided", "tile"),
    modes: tuple[str, ...] = ("scalar", "listio"),
    ndisks: int = 5,
    jobs: int | None = None,
) -> RunResult:
    """List I/O: ROMIO-style strided and tile access, scalar loop vs one
    scatter-gather request per region list (readv/writev; docs/LISTIO.md).

    ``jobs`` changes only execution strategy, never the result, so it
    does not participate in the fingerprint.
    """
    run = _Run(
        "fig_listio", trace, scale=scale, seed=seed, patterns=patterns,
        modes=modes, ndisks=ndisks,
    )
    payload = ListIOResult()
    specs = [
        (scale, seed, ndisks, pattern, mode)
        for pattern in patterns
        for mode in modes
    ]
    for cell in run_cells(specs, _fig_listio_cell, jobs=jobs, tracer=run.tracer):
        run.absorb(cell)
        payload.runs.append(cell.payload)
    return run.result(payload)


# ---------------------------------------------------------------------------
# fig_cache: cache-pressure sweep — legacy LRU vs the adaptive tiered cache
# ---------------------------------------------------------------------------

#: Cache capacity (blocks) for the pressure scenario: small enough that
#: the scan burst (3 cold dirs x ~100 content blocks) overflows it while
#: the hot set (~150 blocks) fits the protected tier — the regime where
#: scan resistance, not raw capacity, decides the hit rate.
CACHE_PRESSURE_CAPACITY = 256


@dataclass
class CacheRun:
    """One (scenario, profile) cell of the cache-pressure sweep."""

    scenario: str
    profile: str
    elapsed_s: float
    ops: int
    hits: int
    misses: int
    t1_hits: int
    t2_hits: int
    prefetch_issued: int
    prefetch_used: int
    disk_requests: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def prefetch_accuracy(self) -> float:
        return self.prefetch_used / self.prefetch_issued if self.prefetch_issued else 0.0


@dataclass
class FigCacheResult:
    """Legacy vs adaptive cache profile per scenario (docs/CACHE.md)."""

    runs: list[CacheRun] = field(default_factory=list)

    def get(self, scenario: str, profile: str) -> CacheRun:
        for r in self.runs:
            if r.scenario == scenario and r.profile == profile:
                return r
        raise KeyError((scenario, profile))

    def speedup(self, scenario: str) -> float:
        """Simulated-time gain of the adaptive profile (legacy / adaptive)."""
        legacy = self.get(scenario, "legacy").elapsed_s
        adaptive = self.get(scenario, "adaptive").elapsed_s
        return legacy / adaptive if adaptive > 0 else float("inf")

    def hit_rate_gain(self, scenario: str) -> float:
        """Hit-rate improvement in percentage points (adaptive - legacy)."""
        return 100.0 * (
            self.get(scenario, "adaptive").hit_rate
            - self.get(scenario, "legacy").hit_rate
        )


def _cache_run(cell: _Cell, scenario: str, profile: str, snap, result) -> CacheRun:
    delta = cell.metrics.since(snap)
    return CacheRun(
        scenario=scenario,
        profile=profile,
        elapsed_s=result.elapsed,
        ops=result.ops,
        hits=delta.count("cache.hits"),
        misses=delta.count("cache.misses"),
        t1_hits=delta.count("cache.t1_hits"),
        t2_hits=delta.count("cache.t2_hits"),
        prefetch_issued=delta.count("cache.prefetch_issued_blocks"),
        prefetch_used=delta.count("cache.prefetch_used_blocks"),
        disk_requests=delta.count("disk.requests"),
    )


def _fig_cache_cell(spec, tracer=None) -> CellResult:
    """One (scenario, profile) cell.

    ``pressure`` drives the MDS end to end (hot stats vs cold directory
    scans under a deliberately small cache); ``streams`` drives the
    BufferCache directly with interleaved sequential readers, isolating
    readahead-context behaviour from the metadata path.
    """
    scale, seed, scenario, profile = spec
    cell = _Cell(tracer)
    if scenario == "pressure":
        cfg = redbud_mif_profile().with_cache_profile(
            profile, capacity_blocks=CACHE_PRESSURE_CAPACITY
        )
        wl = CachePressureWorkload(rounds=_scaled(10, scale, floor=2))
        mds = cell.mds(cfg)
        hot, cold = wl.setup(mds)
        mds.drop_caches()
        snap = cell.metrics.snapshot()
        result = cell.phase(f"pressure:{profile}", wl.run(mds, hot, cold))
        return cell.result(_cache_run(cell, scenario, profile, snap, result))
    if scenario == "streams":
        cfg = redbud_mif_profile().with_cache_profile(profile)
        disk = SimulatedDisk(
            cfg.mds_disk, cfg.scheduler, cell.metrics, name="mds",
            tracer=cell.tracer,
        )
        cache = BufferCache(cfg.cache, disk, cell.metrics, cell.tracer)
        cell.tracer.bind_clock(lambda: disk.busy_s, override=True)
        wl = InterleavedStreamWorkload(
            blocks_per_stream=_scaled(256, scale, floor=64)
        )
        snap = cell.metrics.snapshot()
        result = cell.phase(f"streams:{profile}", wl.run(cache))
        return cell.result(_cache_run(cell, scenario, profile, snap, result))
    raise ConfigError(f"unknown cache scenario: {scenario!r}")


@register("fig_cache")
def cache_pressure_suite(
    *,
    scale: float = 1.0,
    seed: int = 0,
    trace: Tracer | NullTracer | bool | None = None,
    profiles: tuple[str, ...] = ("legacy", "adaptive"),
    scenarios: tuple[str, ...] = ("pressure", "streams"),
    jobs: int | None = None,
) -> RunResult:
    """Cache-pressure sweep: the adaptive tiered cache (per-stream
    readahead + SLRU tiers + embedded-directory prefetch, docs/CACHE.md)
    against the legacy flat LRU, on a scan-pressure metadata mix and an
    interleaved-sequential-streams microbenchmark.

    ``jobs`` changes only execution strategy, never the result, so it
    does not participate in the fingerprint.
    """
    run = _Run(
        "fig_cache", trace, scale=scale, seed=seed,
        profiles=tuple(profiles), scenarios=tuple(scenarios),
    )
    payload = FigCacheResult()
    specs = [
        (scale, seed, scenario, profile)
        for scenario in scenarios
        for profile in profiles
    ]
    for cell in run_cells(specs, _fig_cache_cell, jobs=jobs, tracer=run.tracer):
        run.absorb(cell)
        payload.runs.append(cell.payload)
    return run.result(payload)


# ---------------------------------------------------------------------------
# fig_fsck: crashed-image check/repair sweep (parallel fsck, docs/FSCK.md)
# ---------------------------------------------------------------------------


def _lpt_makespan(costs: list[float], workers: int) -> float:
    """Makespan of longest-processing-time-first assignment — the modeled
    parallel check time over the shard pool (greedy LPT is within 4/3 of
    optimal, close enough for a trend benchmark)."""
    heads = [0.0] * max(1, workers)
    for cost in sorted(costs, reverse=True):
        i = min(range(len(heads)), key=lambda k: heads[k])
        heads[i] += cost
    return max(heads)


@dataclass
class FsckRun:
    """One (layout, image scale) crashed image through check + repair.

    ``check_s`` maps a worker count to the *modeled* parallel check time
    (shard costs from :class:`~repro.config.FsckParams` scheduled LPT-first)
    so the rendered document is byte-identical at any ``--jobs``.  That
    the sharded checker renders the same findings and repairs at every
    worker count is a tier-1 test (``tests/test_fsck_parallel.py``).
    """

    layout: str
    image_scale: float
    extents: int
    inodes: int
    data_shards: int
    meta_shards: int
    findings: int
    actions: int
    passes: int
    converged: bool
    injected: list[str]
    check_s: dict[int, float]
    repair_s: float

    def speedup(self, jobs: int) -> float:
        """Modeled check-time gain of ``jobs`` workers over one."""
        return self.check_s[1] / self.check_s[jobs] if self.check_s[jobs] else 0.0


@dataclass
class FigFsckResult:
    """Payload of the ``fig_fsck`` runner."""

    jobs_points: list[int]
    runs: list[FsckRun] = field(default_factory=list)

    def get(self, layout: str, image_scale: float) -> FsckRun:
        for r in self.runs:
            if r.layout == layout and r.image_scale == image_scale:
                return r
        raise KeyError((layout, image_scale))

    @property
    def converged(self) -> bool:
        return all(r.converged for r in self.runs)


def _fig_fsck_cell(spec, tracer=None) -> CellResult:
    """One crashed image: measure shard work, check, repair to convergence."""
    image_scale, seed, layout, jobs_points, tag = spec
    cell = _Cell(tracer)
    img = build_crashed_image(scale=image_scale, seed=seed, layout=layout)
    params = img.plane.config.fsck
    data_work, meta_work = shard_work(img.plane, img.mds)
    report = check_dataplane(img.plane, strict_accounting=False).merge(
        check_mds(img.mds)
    )
    costs = [params.shard_setup_s + n * params.check_extent_s for n in data_work]
    costs += [params.shard_setup_s + n * params.check_inode_s for n in meta_work]
    check_s = {j: _lpt_makespan(costs, j) for j in jobs_points}
    rep = repair_dataplane(img.plane).merge(repair_mds(img.mds))
    repair_s = (
        rep.passes * params.shard_setup_s
        + len(rep.actions) * params.repair_action_s
    )
    ops = report.checked_extents + report.checked_inodes
    for j in jobs_points:
        cell.phase(
            f"check:{tag}:j{j}",
            ThroughputResult(bytes_moved=0, elapsed=check_s[j], ops=ops),
        )
    cell.phase(
        f"repair:{tag}",
        ThroughputResult(bytes_moved=0, elapsed=repair_s, ops=len(rep.actions)),
    )
    cell.capture(f"fsck:{tag}", img.plane)
    return cell.result(FsckRun(
        layout=layout,
        image_scale=image_scale,
        extents=img.extents,
        inodes=img.inodes,
        data_shards=len(data_work),
        meta_shards=len(meta_work),
        findings=len(report.findings),
        actions=len(rep.actions),
        passes=rep.passes,
        converged=rep.converged,
        injected=list(img.injected),
        check_s=check_s,
        repair_s=repair_s,
    ))


@register("fig_fsck")
def fsck_benchmarks(
    *,
    scale: float = 1.0,
    seed: int = 0,
    trace: Tracer | NullTracer | bool | None = None,
    layouts: tuple[str, ...] = ("embedded", "normal"),
    multipliers: tuple[float, ...] = (1, 2, 4),
    jobs_points: tuple[int, ...] = (1, 2, 4, 8),
    jobs: int | None = None,
) -> RunResult:
    """Crashed-image check/repair sweep for the parallel fsck (docs/FSCK.md).

    Each cell builds a Corruptor-damaged image (``fault.build_crashed_image``)
    at ``scale`` times one of ``multipliers``, checks it with the sharded
    checker, repairs it to convergence and reports modeled check times for
    every worker count in ``jobs_points``.  The timings are simulated (shard
    work volumes priced by :class:`~repro.config.FsckParams`), so the
    document is byte-identical at any ``jobs`` — the ordered-merge contract
    the bench gate relies on.
    """
    run = _Run(
        "fig_fsck", trace, scale=scale, seed=seed, layouts=tuple(layouts),
        multipliers=tuple(multipliers), jobs_points=tuple(jobs_points),
    )
    specs = [
        (scale * m, seed, layout, tuple(jobs_points), f"{layout}:x{m:g}")
        for layout in layouts
        for m in multipliers
    ]
    payload = FigFsckResult(jobs_points=list(jobs_points))
    for cell in run_cells(specs, _fig_fsck_cell, jobs=jobs, tracer=run.tracer):
        run.absorb(cell)
        payload.runs.append(cell.payload)
    return run.result(payload)
