"""Property-based oracles for the open-loop event engine.

Each contract is checked against its straight-line twin in
``tests/reference.py`` on random inputs:

- ``EventLoop`` + ``Station`` over random finite sources (tied arrival
  times, zero gaps), queue depths, service times (zero included) and
  ``until`` splits dispatch the same events at the same times as
  ``ReferenceEventLoop`` + ``ReferenceStation``, and after every split
  agree on ``processed``, ``len()``, the clock, every station counter and
  the latency and queue-depth histogram snapshots, bucket key order
  included.

- ``ServiceWorkload.events`` yields, per kind and for any interleaving of
  kinds, the same ``(dt, op)`` events, ``pending_stream`` values and
  ``active_streams`` as ``ReferenceServiceEvents``, with stream counts on
  both sides of ``REGIONS``.

- The telemetry loop and station probes, which tally queue depths per
  window, leave the same frames as recording every signal on the spot,
  down to the key order of counters, sums, histograms and buckets.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fs.dataplane import DataPlane
from repro.meta.mds import MetadataServer
from repro.obs.timeseries import TimeSeries
from repro.sim.clock import SimClock
from repro.sim.events import EventLoop, Station
from repro.units import KiB
from repro.workloads.base import MetaOp, ReadOp, WriteOp
from repro.workloads.service import (
    REGIONS,
    ServiceSpec,
    ServiceTelemetry,
    ServiceWorkload,
)

from .conftest import small_config
from .reference import ReferenceEventLoop, ReferenceServiceEvents, ReferenceStation

# Gaps from a small grid make ties between sources (and zero gaps within
# one) common; the free floats cover everything else.
gaps = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 2.0))
sources = st.lists(st.lists(gaps, max_size=12), min_size=1, max_size=4)
services = st.lists(
    st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 3.0)),
    min_size=1, max_size=8,
)
splits = st.lists(st.floats(0.0, 30.0), max_size=4).map(sorted)


def _snap(hist):
    snap = hist.snapshot()
    return snap, list(snap.buckets)


def _station_state(station):
    return (
        station.offered, station.started, station.dropped, station.completed,
        station.busy_s, station.free_at, station.in_flight,
        _snap(station.latency), _snap(station.queue_depth),
    )


def _drive(loop_cls, station_cls, gap_lists, depths, service_times, untils):
    """Run one engine over the sources; returns every observation."""
    stations = [
        station_cls(f"s{i}", lambda op: service_times[op[2] % len(service_times)], d)
        for i, d in enumerate(depths)
    ]
    loop = loop_cls(SimClock())
    seen = []
    for sid, gaps_ in enumerate(gap_lists):
        station = stations[sid % len(stations)]

        def on_event(now, op, station=station):
            seen.append((now, op, station.offer(now, op)))

        def events(sid=sid, gaps_=gaps_):
            for j, dt in enumerate(gaps_):
                seen.append(("draw", sid, j))  # draws interleave with dispatches
                yield dt, (sid, j, sid * 31 + j)

        loop.add_source(events(), on_event)
    observed = []
    for until in [*untils, None]:
        processed = loop.run(until=until)
        observed.append((
            processed, loop.processed, len(loop), loop.clock.now,
            [_station_state(s) for s in stations],
        ))
    return seen, observed


@given(
    gap_lists=sources,
    depths=st.lists(st.integers(1, 4), min_size=1, max_size=2),
    service_times=services,
    untils=splits,
)
@settings(max_examples=200, deadline=None)
def test_engine_matches_reference(gap_lists, depths, service_times, untils):
    got = _drive(EventLoop, Station, gap_lists, depths, service_times, untils)
    want = _drive(ReferenceEventLoop, ReferenceStation, gap_lists, depths, service_times, untils)
    assert got == want


def _workload(streams: int, seed: int) -> ServiceWorkload:
    cfg = small_config()
    spec = ServiceSpec(
        streams=streams, rate=1.0, duration_s=1.0, request_bytes=16 * KiB,
        read_fraction=0.3, meta_fraction=0.3, seed=seed,
    )
    wl = ServiceWorkload(spec, DataPlane(cfg), MetadataServer(cfg))
    wl.setup()
    return wl


@pytest.mark.parametrize("streams", [1, 37, REGIONS - 1, REGIONS, 3 * REGIONS + 5])
@given(
    seed=st.integers(0, 2**16),
    kinds=st.lists(st.sampled_from(ServiceWorkload.KINDS), min_size=1, max_size=120),
)
@settings(max_examples=8, deadline=None)
def test_service_events_match_reference(streams, seed, kinds):
    wl = _workload(streams, seed)
    ref = ReferenceServiceEvents(wl)
    ours = {k: wl.events(k) for k in ServiceWorkload.KINDS}
    theirs = {k: ref.events(k) for k in ServiceWorkload.KINDS}
    for kind in kinds:
        assert next(ours[kind]) == next(theirs[kind])
        assert wl.pending_stream == ref.pending_stream
    assert wl.active_streams == ref.active_streams


@given(
    arrivals=st.lists(
        st.tuples(
            st.floats(0.0, 0.3),  # arrival gap
            st.integers(0, 9),  # queue length found
            st.one_of(st.none(), st.floats(0.0, 0.5)),  # sojourn, None = drop
            st.sampled_from(ServiceWorkload.KINDS),
        ),
        max_size=60,
    ),
)
@settings(max_examples=100, deadline=None)
def test_telemetry_probes_match_per_sample(arrivals):
    """The probes' per-window tallies equal recording every signal on
    the spot through the plain ``TimeSeries`` surface."""
    window_s = 0.1
    telem = ServiceTelemetry(window_s)
    probe = telem.station_probe("data")
    want = TimeSeries(window_s)
    now = 0.0
    for gap, queued, sojourn, kind in arrivals:
        now += gap
        op = {
            "write": WriteOp(None, 0, 4096),
            "read": ReadOp(None, 0, 4096),
            "meta": MetaOp("stat", ()),
        }[kind]
        done = None if sojourn is None else now + sojourn
        service = 0.0 if done is None else sojourn / 2
        telem.loop_probe(now, op)
        probe(now, op, queued, done, service)
        want.incr(now, "arrivals")
        want.incr(now, "data.arrivals")
        want.incr(now, f"data.{kind}.arrivals")
        want.observe(now, "data.queue_depth", float(queued))
        if done is None:
            want.incr(now, "data.drops")
            want.incr(now, f"data.{kind}.drops")
            continue
        want.observe(now, "data.latency_s", done - now)
        want.observe(now, f"data.{kind}.latency_s", done - now)
        want.incr(done, "data.completions")
        want.add(done, "data.busy_s", service)
        if kind != "meta":
            want.add(done, "data.bytes", 4096.0)
    got, ref = telem.snapshot(), want.snapshot()
    assert got == ref

    def key_orders(ts):
        return [
            (list(f.counters), list(f.sums), [(n, list(h.buckets)) for n, h in f.hists.items()])
            for f in ts.frames
        ]

    assert key_orders(got) == key_orders(ref)
