"""Open-loop event scheduling: arrival-driven service over the simulator.

The closed-loop engines (:func:`repro.workloads.base.run_data_phase`, the
metadata workloads) issue each operation the instant the previous one
completes — throughput-oriented, zero think time.  This module adds the
*open-loop* counterpart: operations arrive on their own schedule whether or
not the system has finished the previous ones, which is the only regime in
which *latency* under load (queueing delay, saturation, drops) is
observable at all.

Two pieces:

:class:`EventLoop`
    A heap-scheduled merge of lazily-generated arrival streams over a
    :class:`~repro.sim.clock.SimClock`.  Each source is an iterator of
    ``(arrival_dt, op)`` events — the same lazy event-stream protocol the
    workload generators speak (:mod:`repro.workloads.base`) — and the loop
    holds exactly **one** pending arrival per source, so memory is
    O(sources) no matter how many events a run processes.  A million
    client streams are superposed *inside* a source generator (a merged
    Poisson process is itself Poisson), not registered individually.

:class:`Station`
    A single-server bounded-queue service center wrapping one simulator
    layer (the data plane's disk array, or the MDS).  The underlying
    device model prices each operation (its *service time*); the station
    layers FIFO queueing on top: an arrival either queues behind
    ``free_at`` or — if the queue is at ``depth`` — is dropped.  Sojourn
    time (completion − arrival) lands in a log2 histogram for p50/p99/p999
    queries; busy time, drops and queue-depth samples come along for
    saturation and goodput reporting.

The loop is time-ordered and deterministic: ties in arrival time break by
scheduling order, sources draw from :func:`repro.rng.derive_rng`
sub-streams, and nothing here consults wall-clock time.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from typing import Any

from repro.errors import ConfigError
from repro.obs.histogram import Histogram, HistogramSnapshot
from repro.sim.clock import SimClock

__all__ = ["EventLoop", "Station", "fold_depths"]


def fold_depths(hist: Histogram, tally: Iterable[tuple[int, int]]) -> None:
    """Fold ``(length, arrivals)`` tally pairs into ``hist``, a histogram
    of queue lengths.

    ``tally`` must list each queue length once, in the order the lengths
    were first seen.  The result is bit-for-bit that of observing every
    sample as it arrived: count, zeros and extrema are exact, buckets
    appear in first-seen order, and the total is exact because sums of
    integers below 2**53 are exact in floating point.
    """
    count = zeros = total = 0
    lo = hi = -1
    buckets: dict[int, int] = {}
    for q, n in tally:
        count += n
        total += q * n
        if lo < 0 or q < lo:
            lo = q
        if q > hi:
            hi = q
        if q:
            e = q.bit_length()  # == math.frexp(float(q))[1]
            buckets[e] = buckets.get(e, 0) + n
        else:
            zeros += n
    if count:
        hist.absorb(HistogramSnapshot(
            count=count, total=float(total), zeros=zeros, buckets=buckets,
            minimum=float(lo), maximum=float(hi),
        ))


class EventLoop:
    """Merge lazy ``(arrival_dt, op)`` sources in simulated-time order.

    >>> from repro.sim.clock import SimClock
    >>> seen = []
    >>> loop = EventLoop(SimClock())
    >>> loop.add_source(iter([(0.5, "a"), (1.0, "b")]),
    ...                 lambda now, op: seen.append((now, op)))
    >>> loop.add_source(iter([(0.7, "x")]), lambda now, op: seen.append((now, op)))
    >>> loop.run(until=2.0)
    3
    >>> seen
    [(0.5, 'a'), (0.7, 'x'), (1.5, 'b')]

    ``arrival_dt`` is relative to the *previous* event of the same source
    (an inter-arrival gap), so independent sources interleave naturally.

    The heap holds one ``(when, seq, source_id, op)`` entry per live
    source.  ``seq`` comes from one monotone counter, so ``(when, seq)``
    keys are unique: ties break by scheduling order and the op is never
    compared.  A source's next event is drawn only after its previous one
    has been dispatched, straight into the dispatched entry's heap slot
    (``heapreplace``), so a generator may publish per-event side state
    (e.g. :attr:`repro.workloads.service.ServiceWorkload.pending_stream`)
    that handlers read while their event is being dispatched.
    """

    def __init__(self, clock: SimClock | None = None) -> None:
        self.clock = clock if clock is not None else SimClock()
        self._heap: list[tuple[float, int, int, Any]] = []
        #: Per source id: (the iterator's ``__next__``, the handler).
        self._sources: list[tuple[Callable[[], tuple[float, Any]], Callable[[float, Any], None]]] = []
        self._seq = itertools.count()
        self.processed = 0
        #: Optional telemetry hook ``probe(now, op)``, called for every
        #: dispatched event before its handler.  Observe-only: must not
        #: touch the op or the simulation.  None (the default) costs one
        #: branch per event.
        self.probe: Callable[[float, Any], None] | None = None

    def __len__(self) -> int:
        return len(self._heap)

    def add_source(
        self,
        events: Iterator[tuple[float, Any]],
        on_event: Callable[[float, Any], None],
    ) -> None:
        """Register one lazy event source.

        ``events`` yields ``(arrival_dt, op)`` pairs; ``on_event(now, op)``
        is invoked for each at its absolute arrival time.  Only the next
        pending event is held in memory; the iterator is advanced one
        event at a time as the loop drains.  An exhausted iterator simply
        retires its source.
        """
        sid = len(self._sources)
        draw = events.__next__
        self._sources.append((draw, on_event))
        try:
            dt, op = draw()
        except StopIteration:
            return
        if dt < 0.0:
            raise ConfigError(f"negative inter-arrival time from source {sid}: {dt}")
        heapq.heappush(self._heap, (self.clock.now + dt, next(self._seq), sid, op))

    def run(self, until: float | None = None) -> int:
        """Drain events in time order; returns how many were processed.

        With ``until`` set, stops *before* the first event strictly past
        that time (the event stays pending, and the clock parks at
        ``until``).  Without it, runs until every source is exhausted —
        only sensible for finite sources.
        """
        heap = self._heap
        sources = self._sources
        probe = self.probe
        clock = self.clock
        seq = self._seq
        limit = math.inf if until is None else until
        heapreplace = heapq.heapreplace
        processed = 0
        while heap:
            when, _, sid, op = heap[0]
            if when > limit:
                break
            clock.advance_to(when)
            if probe is not None:
                probe(when, op)
            draw, on_event = sources[sid]
            on_event(when, op)
            processed += 1
            try:
                dt, op = draw()
            except StopIteration:
                heapq.heappop(heap)
                continue
            if dt < 0.0:
                raise ConfigError(f"negative inter-arrival time from source {sid}: {dt}")
            heapreplace(heap, (when + dt, next(seq), sid, op))
        if until is not None:
            clock.advance_to(until)
        self.processed += processed
        return processed


class Station:
    """Single-server FIFO queue with bounded depth over a device model.

    ``execute(op)`` must return the operation's *service time* in
    simulated seconds (e.g. the batch wall time of its disk requests).
    The station turns that into open-loop queueing behaviour:

    - completions are reaped lazily — any in-flight operation whose
      completion time is ``<= now`` finishes before the new arrival is
      examined (no completion events needed in the loop's heap);
    - the queue depth observed by the arrival is recorded, and if it is
      already at ``depth`` the operation is **dropped** (counted, never
      executed — its service cost is not charged);
    - otherwise the operation starts at ``max(now, free_at)`` and its
      sojourn time ``completion − arrival`` lands in :attr:`latency`.

    Single-server is deliberate: the device models underneath already
    parallelize internally (striped arrays, batched plans); the station
    prices *ordering*, which is what an open-loop client perceives.
    """

    __slots__ = (
        "name", "depth", "_execute", "latency", "_queue_depth", "_depths",
        "started", "dropped", "busy_s", "free_at", "_inflight", "probe",
    )

    def __init__(self, name: str, execute: Callable[[Any], float], depth: int) -> None:
        if depth < 1:
            raise ConfigError(f"station queue depth must be >= 1: {depth}")
        self.name = name
        self.depth = depth
        self._execute = execute
        #: Sojourn time (queueing + service) of every completed-or-started op.
        self.latency = Histogram()
        self._queue_depth = Histogram()
        #: Arrivals per observed queue length, folded into ``queue_depth``
        #: when it is read.
        self._depths = [0] * (depth + 1)
        self.started = 0
        self.dropped = 0
        self.busy_s = 0.0
        self.free_at = 0.0
        self._inflight: deque[float] = deque()
        #: Optional telemetry hook ``probe(now, op, queued, done, service)``
        #: called once per arrival after its fate is decided: ``done`` is
        #: the completion time (``None`` when the bounded queue dropped it)
        #: and ``service`` the charged service time (0.0 on drops).
        #: Observe-only; None (the default) costs one branch per arrival.
        self.probe: Callable[[float, Any, int, float | None, float], None] | None = None

    @property
    def offered(self) -> int:
        """Arrivals seen: every one was either started or dropped."""
        return self.started + self.dropped

    @property
    def completed(self) -> int:
        """Started operations retired so far (reaped or drained)."""
        return self.started - len(self._inflight)

    @property
    def queue_depth(self) -> Histogram:
        """Queue length each arrival found ahead of it (drops included).

        Arrivals tally queue lengths in a ``depth + 1`` list; reading the
        histogram folds the tally in (:func:`fold_depths`).  A station's
        queue grows by at most one between arrivals, so lengths first
        appear in increasing order — the order the fold walks the list.
        """
        tally = self._depths
        if any(tally):
            fold_depths(self._queue_depth, ((q, n) for q, n in enumerate(tally) if n))
            self._depths = [0] * len(tally)
        return self._queue_depth

    def offer(self, now: float, op: Any) -> float | None:
        """One arrival at time ``now``; returns its completion time, or
        ``None`` if the bounded queue rejected it."""
        inflight = self._inflight
        while inflight and inflight[0] <= now:
            inflight.popleft()
        q = len(inflight)
        self._depths[q] += 1
        if q >= self.depth:
            self.dropped += 1
            if self.probe is not None:
                self.probe(now, op, q, None, 0.0)
            return None
        service = self._execute(op)
        if service < 0.0:
            raise ConfigError(f"negative service time at station {self.name}: {service}")
        start = now if now > self.free_at else self.free_at
        done = start + service
        self.free_at = done
        self.busy_s += service
        inflight.append(done)
        self.latency.observe(done - now)
        self.started += 1
        if self.probe is not None:
            self.probe(now, op, q, done, service)
        return done

    def drain(self) -> float:
        """Retire everything still in flight; returns the last completion
        time (or 0.0 if the station never started an operation)."""
        last = self._inflight[-1] if self._inflight else 0.0
        self._inflight.clear()
        return last

    @property
    def in_flight(self) -> int:
        return len(self._inflight)

    def saturation(self, duration_s: float) -> float:
        """Fraction of ``duration_s`` the server spent busy (can exceed
        1.0 when the backlog outlives the arrival window)."""
        return self.busy_s / duration_s if duration_s > 0 else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Station({self.name!r}, started={self.started}, "
            f"dropped={self.dropped}, busy_s={self.busy_s:.6f})"
        )
