"""Structured tracing: bounded ring buffer of simulated-time events.

Instrumented layers emit :class:`TraceEvent` records — *what happened,
where, at which simulated time, for how long* — into a :class:`Tracer`.
The buffer is a ring (``collections.deque`` with ``maxlen``), so a long run
keeps the most recent ``capacity`` events and merely counts the rest as
dropped; tracing never grows without bound.

Hot paths guard every emission with ``if tracer.enabled:`` and default to
the shared :data:`NULL_TRACER`, whose ``enabled`` is ``False`` and whose
methods are no-ops — with tracing off the per-operation cost is one
attribute load and a branch.  The flag guards emissions and nothing else:
no layer picks a different code path when tracing is on, so a traced run
computes exactly the metrics of an untraced one.

Timestamps are *simulated* seconds.  A component that owns a timeline (a
disk, the MDS) passes ``t=`` explicitly; everything else falls back to the
tracer's bound clock (the data plane binds the disk array's elapsed time,
the MDS binds its serialized elapsed time — first bind wins), or to a
monotone event sequence number when no clock is bound.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One structured event on the simulated timeline."""

    t: float                 #: simulated timestamp (seconds)
    layer: str               #: subsystem: disk, sched, cache, fsm, alloc, fs, meta, fault, run
    op: str                  #: operation within the layer
    dur: float = 0.0         #: simulated duration (seconds), 0 for instants
    stream: int | None = None  #: originating write stream, when known
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def end(self) -> float:
        return self.t + self.dur


class _Span:
    """Context manager recording one event spanning its ``with`` block."""

    __slots__ = ("_tracer", "_layer", "_op", "_stream", "_attrs", "t0")

    def __init__(
        self,
        tracer: "Tracer",
        layer: str,
        op: str,
        stream: int | None,
        attrs: dict[str, Any],
    ) -> None:
        self._tracer = tracer
        self._layer = layer
        self._op = op
        self._stream = stream
        self._attrs = attrs
        self.t0 = 0.0

    def __enter__(self) -> "_Span":
        self.t0 = self._tracer.now()
        return self

    def __exit__(self, *exc) -> None:
        t1 = self._tracer.now()
        self._tracer.emit(
            self._layer,
            self._op,
            t=self.t0,
            dur=max(0.0, t1 - self.t0),
            stream=self._stream,
            **self._attrs,
        )


class _NullSpan:
    """Reusable no-op context manager (disabled tracing)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Tracer:
    """Bounded ring buffer of :class:`TraceEvent` records."""

    __slots__ = ("enabled", "capacity", "clock", "_events", "_emitted")

    #: True only on :class:`SamplingTracer`: the tracer is *dormant* between
    #: sampled operations (``enabled`` is False at rest) but still collects
    #: events, so schedulers that must keep trace buffers in-process (see
    #: :func:`repro.core.parallel.run_cells`) check this flag too.
    sampling = False

    def __init__(
        self,
        capacity: int = 65536,
        clock: Callable[[], float] | None = None,
        enabled: bool = True,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"tracer capacity must be positive: {capacity}")
        self.enabled = enabled
        self.capacity = capacity
        self.clock = clock
        self._events: deque[TraceEvent] = deque(maxlen=capacity)
        self._emitted = 0

    # -- clock -------------------------------------------------------------
    def bind_clock(
        self, clock: Callable[[], float], override: bool = False
    ) -> None:
        """Attach a simulated-time source; first bind wins unless forced."""
        if override or self.clock is None:
            self.clock = clock

    def now(self) -> float:
        """Current simulated time: bound clock, else the event sequence."""
        if self.clock is not None:
            return self.clock()
        return float(self._emitted)

    # -- recording ---------------------------------------------------------
    def emit(
        self,
        layer: str,
        op: str,
        t: float | None = None,
        dur: float = 0.0,
        stream: int | None = None,
        **attrs: Any,
    ) -> None:
        """Record one event (evicting the oldest once at capacity)."""
        if not self.enabled:
            return
        if t is None:
            t = self.now()
        self._emitted += 1
        self._events.append(TraceEvent(t, layer, op, dur, stream, attrs))

    def span(
        self, layer: str, op: str, stream: int | None = None, **attrs: Any
    ) -> _Span | _NullSpan:
        """Context manager timing its block on the simulated clock."""
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, layer, op, stream, attrs)

    # -- inspection --------------------------------------------------------
    def events(self) -> list[TraceEvent]:
        """The retained events, oldest first."""
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    @property
    def emitted(self) -> int:
        """Events emitted over the tracer's lifetime (including evicted)."""
        return self._emitted

    @property
    def dropped(self) -> int:
        """Events evicted by the ring buffer."""
        return max(0, self._emitted - len(self._events))

    def clear(self) -> None:
        """Drop all retained events and reset the lifetime counters."""
        self._events.clear()
        self._emitted = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Tracer(enabled={self.enabled}, capacity={self.capacity}, "
            f"events={len(self._events)}, dropped={self.dropped})"
        )


class _ArmedOp:
    """Context manager arming a :class:`SamplingTracer` for one operation."""

    __slots__ = ("_tracer", "_stream")

    def __init__(self, tracer: "SamplingTracer", stream: int) -> None:
        self._tracer = tracer
        self._stream = stream

    def __enter__(self) -> "_ArmedOp":
        self._tracer.enabled = True
        self._tracer.active_stream = self._stream
        return self

    def __exit__(self, *exc) -> None:
        self._tracer.enabled = False
        self._tracer.active_stream = None


class SamplingTracer(Tracer):
    """Trace 1-in-N deterministically chosen streams end-to-end.

    A whole-run :class:`Tracer` records every operation, which on a large
    service run means millions of events.  A ``SamplingTracer`` is
    **dormant at rest** — ``enabled`` is False, so unsampled operations
    (the overwhelming majority) build no events — and is *armed* only for
    the duration of a sampled operation:

    >>> tracer = SamplingTracer(every=1000)
    >>> if tracer.sampled(stream):                      # doctest: +SKIP
    ...     with tracer.op(stream):
    ...         station.offer(now, op)  # deep layers emit as usual

    Inside the ``with`` block every instrumented layer the operation
    touches (MDS queue, journal, allocator, disk) sees an enabled tracer
    and emits its events; since ``enabled`` only guards emissions, the
    operation takes the same code path as an unsampled one and sampling
    observes without perturbing.

    Stream selection is deterministic — ``stream % every == offset`` —
    so repeated runs with the same seed trace the same streams.  Events
    emitted while armed inherit the armed stream id when the emitting
    layer doesn't pass its own.
    """

    __slots__ = ("every", "offset", "active_stream")

    sampling = True

    def __init__(
        self,
        every: int = 1000,
        offset: int = 0,
        capacity: int = 65536,
        clock: Callable[[], float] | None = None,
    ) -> None:
        if every < 1:
            raise ValueError(f"sampling period must be >= 1: {every}")
        super().__init__(capacity=capacity, clock=clock, enabled=False)
        self.every = every
        self.offset = offset % every
        #: Stream id of the operation currently being traced, or None.
        self.active_stream: int | None = None

    def sampled(self, stream: int) -> bool:
        """Whether ``stream`` is one of the 1-in-N traced streams."""
        return stream % self.every == self.offset

    def op(self, stream: int) -> _ArmedOp:
        """Arm the tracer for one sampled operation (context manager)."""
        return _ArmedOp(self, stream)

    def emit(
        self,
        layer: str,
        op: str,
        t: float | None = None,
        dur: float = 0.0,
        stream: int | None = None,
        **attrs: Any,
    ) -> None:
        if not self.enabled:
            return
        if stream is None:
            stream = self.active_stream
        super().emit(layer, op, t=t, dur=dur, stream=stream, **attrs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SamplingTracer(every={self.every}, offset={self.offset}, "
            f"events={len(self._events)}, dropped={self.dropped})"
        )


def parse_sample(sample: "int | str") -> int:
    """Parse a sampling period: an int N or the CLI form ``"1/N"``."""
    if isinstance(sample, int):
        period = sample
    else:
        text = sample.strip()
        if "/" in text:
            num, _, den = text.partition("/")
            if num.strip() != "1":
                raise ValueError(
                    f"sampling rate must be 1/N, got {sample!r}"
                )
            period = int(den)
        else:
            period = int(text)
    if period < 1:
        raise ValueError(f"sampling period must be >= 1: {sample!r}")
    return period


class NullTracer:
    """Zero-overhead stand-in used when tracing is off.

    Shares the :class:`Tracer` surface; every method is a no-op and
    ``enabled`` is always ``False``, so hot-path guards cost one attribute
    load.  Use the module-level :data:`NULL_TRACER` singleton.
    """

    __slots__ = ()

    enabled = False
    sampling = False
    capacity = 0
    clock = None
    emitted = 0
    dropped = 0

    def bind_clock(self, clock: Callable[[], float], override: bool = False) -> None:
        pass

    def now(self) -> float:
        return 0.0

    def emit(self, *args: Any, **kwargs: Any) -> None:
        pass

    def span(self, *args: Any, **kwargs: Any) -> _NullSpan:
        return _NULL_SPAN

    def events(self) -> list[TraceEvent]:
        return []

    def __len__(self) -> int:
        return 0

    def clear(self) -> None:
        pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NullTracer()"


#: Shared disabled tracer: the default for every instrumented component.
NULL_TRACER = NullTracer()


def coerce_tracer(trace: "Tracer | NullTracer | bool | None") -> "Tracer | NullTracer":
    """Normalize a runner's ``trace=`` argument.

    ``None``/``False`` → :data:`NULL_TRACER`; ``True`` → a fresh
    :class:`Tracer`; a tracer instance is passed through.
    """
    if trace is None or trace is False:
        return NULL_TRACER
    if trace is True:
        return Tracer()
    return trace
