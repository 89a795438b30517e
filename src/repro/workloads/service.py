"""Open-loop service workload: N client streams, Poisson arrivals.

Where the closed-loop benchmarks ask "how fast can the system go?", this
workload asks "what latency does the system deliver at a *given* offered
load?" — the service-provider question.  ``streams`` clients each issue
operations at ``rate`` ops/s on their own schedule, whether or not earlier
operations have completed; the merge of all those schedules drives the
:class:`~repro.sim.events.EventLoop`.

Scaling to a million streams without a million generators rests on two
standard reductions:

- **Superposition.**  The merge of N independent Poisson(rate) processes
  is one Poisson(N×rate) process whose arrivals are attributed to a
  uniformly random stream.  One generator per operation kind therefore
  represents *all* streams in O(1) memory; per-stream identity survives in
  the attribution draw and in a seen-flag ``bytearray`` (1 byte/stream —
  the only per-stream state in the whole pipeline).
- **Region folding.**  Stream ``s`` writes into region ``s % REGIONS`` of
  one shared file, and the region index doubles as the allocator-visible
  :data:`~repro.fs.stream.StreamId`.  Allocator window state, file extent
  state and file size are thereby bounded by ``REGIONS`` regardless of
  the stream count, while cursors wrap within each region so steady state
  is overwrite-heavy (no unbounded allocation over long runs).

Events carry the ordinary protocol ops (:class:`~repro.workloads.base.
WriteOp` / ``ReadOp`` / ``MetaOp``); the workload also provides the two
station executors that price an op via the device models — disk-array
batch wall time for data, MDS timeline delta for metadata.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.fs.dataplane import DataPlane
from repro.meta.mds import MetadataServer
from repro.obs.timeseries import TimeSeries, TimeSeriesSnapshot
from repro.rng import derive_rng
from repro.sim.events import fold_depths
from repro.units import KiB
from repro.workloads.base import Event, MetaOp, Op, ReadOp, WriteOp

__all__ = [
    "DURATIONS",
    "RATES",
    "ScrubSpec",
    "ServiceSpec",
    "ServiceTelemetry",
    "ServiceWorkload",
    "op_kind",
    "resolve_duration",
    "resolve_rate",
]

#: Named per-stream arrival rates (ops/s per stream), CLI-friendly.
RATES: dict[str, float] = {"small": 0.5, "medium": 5.0, "large": 50.0}

#: Named run durations (simulated seconds of arrivals).
DURATIONS: dict[str, float] = {"short": 2.0, "long": 30.0}

#: Streams fold onto this many file regions / allocator stream ids.
REGIONS = 4096

#: Requests per region before the write cursor wraps to overwrites.
REGION_SLOTS = 16

#: Directory pool ceiling for the metadata mix.
MAX_DIRS = 256

#: Files pre-created per pool directory.
FILES_PER_DIR = 4


def resolve_rate(rate: str | float) -> float:
    """A named rate ("small"/"medium"/"large") or explicit ops/s → float."""
    if isinstance(rate, str):
        try:
            return RATES[rate]
        except KeyError:
            raise ConfigError(
                f"unknown rate {rate!r}; choose from {sorted(RATES)} or a number"
            ) from None
    if rate <= 0:
        raise ConfigError(f"rate must be positive: {rate}")
    return float(rate)


def resolve_duration(duration: str | float) -> float:
    """A named duration ("short"/"long") or explicit seconds → float."""
    if isinstance(duration, str):
        try:
            return DURATIONS[duration]
        except KeyError:
            raise ConfigError(
                f"unknown duration {duration!r}; choose from {sorted(DURATIONS)}"
                " or a number"
            ) from None
    if duration <= 0:
        raise ConfigError(f"duration must be positive: {duration}")
    return float(duration)


@dataclass(frozen=True)
class ScrubSpec:
    """Online-scrub schedule for the service loop (docs/FSCK.md).

    Every ``interval_s`` simulated seconds the event loop dispatches one
    scrub step — the :class:`~repro.fs.verify.Scrubber` visits its next
    shard between foreground arrivals.  With ``corrupt_every`` > 0 the
    seeded corruptor injects ``nfaults`` data-plane corruptions before
    every ``corrupt_every``-th step, giving the scrub live damage to find
    and repair while traffic keeps flowing.
    """

    interval_s: float = 0.05
    corrupt_every: int = 0
    nfaults: int = 1

    def __post_init__(self) -> None:
        if self.interval_s <= 0:
            raise ConfigError(f"scrub interval must be positive: {self.interval_s}")
        if self.corrupt_every < 0:
            raise ConfigError(f"corrupt_every must be >= 0: {self.corrupt_every}")
        if self.nfaults < 1:
            raise ConfigError(f"nfaults must be >= 1: {self.nfaults}")


@dataclass(frozen=True)
class ServiceSpec:
    """One open-loop operating point (picklable; sweep cells carry it)."""

    streams: int = 1000
    rate: float = 0.5  # ops/s per stream
    duration_s: float = 2.0
    queue_depth: int = 64
    read_fraction: float = 0.35
    meta_fraction: float = 0.20
    request_bytes: int = 64 * KiB
    seed: int = 0

    def __post_init__(self) -> None:
        if self.streams < 1:
            raise ConfigError(f"streams must be >= 1: {self.streams}")
        if self.rate <= 0 or self.duration_s <= 0:
            raise ConfigError(
                f"rate and duration must be positive: {self.rate}, {self.duration_s}"
            )
        if self.queue_depth < 1:
            raise ConfigError(f"queue_depth must be >= 1: {self.queue_depth}")
        if self.request_bytes < 1:
            raise ConfigError(f"request_bytes must be >= 1: {self.request_bytes}")
        if not (0.0 <= self.read_fraction and 0.0 <= self.meta_fraction):
            raise ConfigError("mix fractions must be non-negative")
        if self.read_fraction + self.meta_fraction > 1.0:
            raise ConfigError(
                "read_fraction + meta_fraction must leave room for writes: "
                f"{self.read_fraction} + {self.meta_fraction} > 1"
            )

    @property
    def write_fraction(self) -> float:
        return 1.0 - self.read_fraction - self.meta_fraction

    def kind_rate(self, kind: str) -> float:
        """Aggregate arrival rate (ops/s) of one operation kind."""
        fraction = {
            "write": self.write_fraction,
            "read": self.read_fraction,
            "meta": self.meta_fraction,
        }[kind]
        return self.streams * self.rate * fraction


class ServiceWorkload:
    """Lazy event sources plus station executors over one plane + MDS.

    :meth:`events` returns one infinite generator per op kind.  Each is a
    specialised loop — RNG methods bound locally, region cursors in a
    plain list, the op built inline — so an arrival costs its RNG draws
    and a handful of bytecodes.  The draws per arrival, in order: write
    ``exponential``, ``integers(streams)``; read the same plus
    ``integers(REGION_SLOTS)``; meta the same plus ``random()``.
    """

    KINDS = ("write", "read", "meta")

    def __init__(self, spec: ServiceSpec, plane: DataPlane, mds: MetadataServer) -> None:
        self.spec = spec
        self.plane = plane
        self.mds = mds
        self.regions = min(spec.streams, REGIONS)
        self.region_bytes = REGION_SLOTS * spec.request_bytes
        #: Write cursor per region (slot index, wraps at REGION_SLOTS).
        self._cursors = [0] * self.regions
        #: Whether each *real* stream has issued an op — the only
        #: O(streams) state; 1 byte per stream.
        self._seen = bytearray(spec.streams)
        self.file = None
        self._pool: list[tuple[object, str]] = []  # (dir handle, file name)
        #: Per pool entry, its (stat, utime) ops; ops are immutable, so
        #: arrivals share them.
        self._meta_ops: list[tuple[MetaOp, MetaOp]] = []
        #: Stream id of each kind's *pending* event.  The loop holds exactly
        #: one pending event per source and generates a source's next event
        #: only after dispatching its previous one, so during dispatch this
        #: still names the stream of the op being dispatched — how sampled
        #: tracing recovers stream identity without widening the event
        #: protocol.
        self.pending_stream: dict[str, int] = {}

    # -- setup (untimed; runs before the arrival window opens) -------------
    def setup(self) -> None:
        """Create the shared file and the bounded metadata pool."""
        self.file = self.plane.create_file("service.dat")
        ndirs = max(1, min(self.spec.streams, MAX_DIRS))
        root = self.mds.root
        for d in range(ndirs):
            dirh = self.mds.mkdir(root, f"svc{d:03d}")
            for j in range(FILES_PER_DIR):
                name = f"f{j}"
                self.mds.create(dirh, name)
                self._pool.append((dirh, name))
        self._meta_ops = [
            (MetaOp("stat", entry), MetaOp("utime", entry)) for entry in self._pool
        ]

    # -- lazy event sources -------------------------------------------------
    def events(self, kind: str) -> Iterator[Event]:
        """Infinite superposed-Poisson event stream for one op kind.

        Yields ``(arrival_dt, op)`` with exponential inter-arrivals at the
        kind's aggregate rate; each arrival is attributed to a uniform
        stream.  O(1) memory — nothing per event is retained beyond the
        region cursors and the per-stream seen flags.
        """
        loop = {"write": self._writes, "read": self._reads, "meta": self._metas}[kind]
        lam = self.spec.kind_rate(kind)
        if lam <= 0.0:
            return iter(())
        return loop(derive_rng(self.spec.seed, "service", kind), 1.0 / lam)

    def _writes(self, rng, scale: float) -> Iterator[Event]:
        exponential = rng.exponential
        integers = rng.integers
        streams = self.spec.streams
        seen = self._seen
        pending = self.pending_stream
        regions = self.regions
        cursors = self._cursors
        file = self.file
        nbytes = self.spec.request_bytes
        region_bytes = self.region_bytes
        while True:
            dt = exponential(scale)
            s = int(integers(streams))
            seen[s] = 1
            pending["write"] = s
            region = s % regions
            slot = cursors[region]
            cursors[region] = (slot + 1) % REGION_SLOTS
            yield dt, WriteOp(file, region * region_bytes + slot * nbytes, nbytes)

    def _reads(self, rng, scale: float) -> Iterator[Event]:
        exponential = rng.exponential
        integers = rng.integers
        streams = self.spec.streams
        seen = self._seen
        pending = self.pending_stream
        regions = self.regions
        file = self.file
        nbytes = self.spec.request_bytes
        region_bytes = self.region_bytes
        while True:
            dt = exponential(scale)
            s = int(integers(streams))
            seen[s] = 1
            pending["read"] = s
            slot = int(integers(REGION_SLOTS))
            yield dt, ReadOp(file, s % regions * region_bytes + slot * nbytes, nbytes)

    def _metas(self, rng, scale: float) -> Iterator[Event]:
        exponential = rng.exponential
        integers = rng.integers
        random = rng.random
        streams = self.spec.streams
        seen = self._seen
        pending = self.pending_stream
        ops = self._meta_ops
        npool = len(ops)
        while True:
            dt = exponential(scale)
            s = int(integers(streams))
            seen[s] = 1
            pending["meta"] = s
            stat, utime = ops[s % npool]
            yield dt, stat if random() < 0.5 else utime

    # -- station executors (op → service time, simulated seconds) ----------
    def data_service(self, op: Op) -> float:
        """Price one data op: map it, submit the batch, return wall time.

        The region index recovered from the offset is the allocator-visible
        stream id — the same folding the generator applied.  Reads of
        not-yet-written slots map to holes and cost nothing, exactly like
        reading sparse ranges anywhere else in the simulator.
        """
        region = op.offset // self.region_bytes
        if isinstance(op, WriteOp):
            requests = self.plane.write(op.file, region, op.offset, op.nbytes)
        else:
            requests = self.plane.read(op.file, op.offset, op.nbytes)
        return self.plane.array.submit_batch(requests)

    def meta_service(self, op: MetaOp) -> float:
        """Price one metadata op via the MDS timeline delta."""
        t0 = self.mds.elapsed_s
        getattr(self.mds, op.method)(*op.args)
        return self.mds.elapsed_s - t0

    @property
    def active_streams(self) -> int:
        """How many distinct streams have issued at least one op."""
        return len(self._seen) - self._seen.count(0)


def op_kind(op: Op | MetaOp) -> str:
    """Classify a protocol op into the service mix kinds."""
    if isinstance(op, MetaOp):
        return "meta"
    return "write" if isinstance(op, WriteOp) else "read"


class ServiceTelemetry:
    """Bridge :class:`~repro.sim.events.Station` probes into a time series.

    One instance per service cell: attach :meth:`loop_probe` to the event
    loop and :meth:`station_probe` to each station, and per-window signals
    accumulate into :attr:`series` with no other coupling — the stations
    never learn what is observing them, and with no telemetry attached
    their per-arrival cost is a single ``None`` check.  The station
    probes tally queue depths per window and fold them into the frame
    when the next window opens; read the frames through :meth:`snapshot`,
    which folds the open one.

    Series emitted per station (and per ``station.kind`` for the mix
    breakdown): ``arrivals``/``drops``/``completions`` counters, a
    ``latency_s`` sojourn histogram and a ``queue_depth`` histogram
    (both attributed to the *arrival* window), ``busy_s`` accumulation
    (per-window saturation = busy_s / window_s) and moved ``bytes``
    (per-window goodput), the latter two attributed to the window the
    operation *completes* in.  A loop-level ``arrivals`` counter tracks
    total offered load.

    :meth:`track_cache` additionally polls the MDS buffer-cache counters
    (:data:`CACHE_SERIES`, docs/CACHE.md) into per-window deltas plus a
    derived ``cache.prefetch_accuracy`` sum — flushed only when the loop
    probe crosses a window boundary, so the per-arrival cost stays one
    integer compare.
    """

    #: Buffer-cache counters rolled into per-window series by
    #: :meth:`track_cache` (per-tier hits, misses, prefetch accounting).
    CACHE_SERIES = (
        "cache.hits",
        "cache.misses",
        "cache.t1_hits",
        "cache.t2_hits",
        "cache.prefetch_issued_blocks",
        "cache.prefetch_used_blocks",
        "cache.dir_prefetches",
        "cache.evictions",
    )

    def __init__(self, window_s: float) -> None:
        self.series = TimeSeries(window_s)
        self._cache_counters = None
        self._cache_last: dict[str, int] = {}
        self._cache_window = -1
        #: Window of the latest loop-probe arrival and its counters.
        self._window = -1
        self._counters: dict[str, int] = {}
        #: Each station probe's flush of its open window's depth tally.
        self._flushes: list[Callable[[], None]] = []

    def track_cache(self, metrics) -> None:
        """Start rolling the cache counters of ``metrics`` into windows."""
        self._cache_counters = metrics.raw_counters()
        self._cache_last = {
            s: self._cache_counters.get(s, 0) for s in self.CACHE_SERIES
        }
        self._cache_window = 0

    def _flush_cache(self, window: int) -> None:
        """Attribute counter deltas since the last flush to ``window``."""
        live = self._cache_counters
        frame = self.series.frame_at(window)
        counters = frame.counters
        last = self._cache_last
        hits = misses = used = issued = 0
        for s in self.CACHE_SERIES:
            value = live.get(s, 0)
            delta = value - last[s]
            if delta:
                counters[s] = counters.get(s, 0) + delta
                last[s] = value
                if s == "cache.hits":
                    hits = delta
                elif s == "cache.misses":
                    misses = delta
                elif s == "cache.prefetch_used_blocks":
                    used = delta
                elif s == "cache.prefetch_issued_blocks":
                    issued = delta
        if hits or misses:
            frame.sums["cache.hit_rate"] = hits / (hits + misses)
        if issued or used:
            # Used blocks may have been issued in an earlier window, so
            # clamp: accuracy is a per-window estimate, exact in total.
            frame.sums["cache.prefetch_accuracy"] = min(1.0, used / issued) if issued else 1.0

    def loop_probe(self, now: float, op: Op | MetaOp) -> None:
        window = int(now / self.series.window_s)
        if window != self._window:
            self._enter(window)
        counters = self._counters
        counters["arrivals"] = counters.get("arrivals", 0) + 1

    def _enter(self, window: int) -> None:
        """The loop probe's first arrival in ``window``."""
        if self._cache_counters is not None and window != self._cache_window:
            # Crossing into a new window: bill the deltas accumulated
            # so far to the window just left.
            self._flush_cache(self._cache_window)
            self._cache_window = window
        self._window = window
        self._counters = self.series.frame_at(window).counters

    def finish(self, t: float) -> None:
        """Flush any open cache-counter window at end of run."""
        if self._cache_counters is not None:
            self._flush_cache(self._cache_window)
            self._cache_window = int(t / self.series.window_s)

    def station_probe(self, name: str):
        """The ``Station.probe`` callback for station ``name``.

        Queue depths accumulate per window in a ``{length: arrivals}``
        tally, folded into the window's histogram when the next window
        opens (and by :meth:`snapshot`), bit for bit (:func:`fold_depths`).
        """
        series = self.series
        frame_at = series.frame_at
        window_s = series.window_s
        # Series names are interned up front: the probe runs once per
        # arrival, and at a million streams per-event string formatting
        # is the difference between ~10% and ~30% telemetry overhead.
        arrivals = f"{name}.arrivals"
        queue_depth = f"{name}.queue_depth"
        drops = f"{name}.drops"
        latency = f"{name}.latency_s"
        completions = f"{name}.completions"
        busy = f"{name}.busy_s"
        nbytes = f"{name}.bytes"
        # Per kind: its arrivals, drops and latency series, and whether
        # its ops move bytes.
        by_kind = {
            k: (f"{name}.{k}.arrivals", f"{name}.{k}.drops", f"{name}.{k}.latency_s",
                k != "meta")
            for k in ServiceWorkload.KINDS
        }
        by_type = {WriteOp: by_kind["write"], ReadOp: by_kind["read"], MetaOp: by_kind["meta"]}
        # The open window, its frame and its queue-depth tally.
        window = -1
        frame = None
        tally: dict[int, int] = {}

        def flush() -> None:
            if frame is not None:
                fold_depths(frame.hist(queue_depth), tally.items())
                tally.clear()

        def probe(
            now: float,
            op: Op | MetaOp,
            queued: int,
            done: float | None,
            service: float,
        ) -> None:
            nonlocal window, frame
            ka, kd, kl, moves = by_type.get(type(op)) or by_kind[op_kind(op)]
            w = int(now / window_s)
            if w != window:
                flush()
                window = w
                frame = frame_at(w)
                frame.hist(queue_depth)  # first, as per-sample recording
            counters = frame.counters
            counters[arrivals] = counters.get(arrivals, 0) + 1
            counters[ka] = counters.get(ka, 0) + 1
            tally[queued] = tally.get(queued, 0) + 1
            if done is None:
                counters[drops] = counters.get(drops, 0) + 1
                counters[kd] = counters.get(kd, 0) + 1
                return
            sojourn = done - now
            frame.hist(latency).observe(sojourn)
            frame.hist(kl).observe(sojourn)
            w = int(done / window_s)
            at_done = frame if w == window else frame_at(w)
            dc = at_done.counters
            dc[completions] = dc.get(completions, 0) + 1
            sums = at_done.sums
            sums[busy] = sums.get(busy, 0.0) + service
            if moves:
                sums[nbytes] = sums.get(nbytes, 0.0) + float(op.nbytes)

        self._flushes.append(flush)
        return probe

    def snapshot(self) -> TimeSeriesSnapshot:
        for flush in self._flushes:
            flush()
        return self.series.snapshot()
