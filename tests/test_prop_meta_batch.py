"""Property-based oracles for the metadata execution path.

Each contract is checked against its scalar twin on random inputs:

- ``BufferCache.read_batch`` over an arbitrary read list is the scalar
  ``read`` loop — same total disk seconds (exact bits), same LRU and
  readahead end state, same counters, same disk head and busy time.  The
  domain is kept small relative to the cache capacity so warm fast-path
  hits, evictions, frontier crossings and past-capacity fallbacks all
  occur.

- The per-record ``Journal.log``/``commit`` protocol the MDS follows
  replays exactly the records whose commit writes completed, at *every*
  crash point, and its commit spans walk the circular region block by
  block.  ``Journal.log_batch`` is per-record ``log`` concatenated.

- Building a plan's reads span by span (``AccessPlan.add_read``, also
  through ``merge``) is ``coalesce()`` of the raw span list.

- A ``MetadataServer`` and its per-read/per-block reference twin
  (``tests/reference.py``) end in the same full observable state after any op sequence, on both layouts
  and all three profiles, with frequent checkpoints and a journal small
  enough that multi-block records wrap into two commit spans.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CacheParams, DiskParams, SchedulerParams
from repro.disk.cache import BufferCache
from repro.disk.disk import SimulatedDisk
from repro.fs.profiles import (
    lustre_profile,
    redbud_mif_profile,
    redbud_vanilla_profile,
)
from repro.meta.journal import Journal
from repro.meta.layout import AccessPlan
from repro.meta.mds import MetadataServer
from tests.reference import ReferenceMetadataServer
from tests.test_meta_batched import snapshot

CAPACITY = 192


def make_cache(capacity=48):
    disk = SimulatedDisk(DiskParams(capacity_blocks=CAPACITY), SchedulerParams())
    cache = BufferCache(
        CacheParams(
            capacity_blocks=capacity,
            readahead_init_blocks=4,
            readahead_max_blocks=16,
        ),
        disk,
    )
    return cache, disk


read_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=CAPACITY - 1),
        st.integers(min_value=1, max_value=12),
    ),
    min_size=1,
    max_size=40,
)


@given(read_lists)
@settings(max_examples=200, deadline=None)
def test_read_batch_is_the_scalar_read_loop(reads):
    c1, d1 = make_cache()
    c2, d2 = make_cache()
    t1 = c1.read_batch(reads)
    t2 = 0.0
    for start, nblocks in reads:
        t2 += c2.read(start, nblocks)
    c1._flush_moves()
    assert t1 == t2
    assert list(c1._lru) == list(c2._lru)
    assert list(c1._ra.items()) == list(c2._ra.items())
    assert dict(d1.metrics.raw_counters()) == dict(d2.metrics.raw_counters())
    assert d1.head == d2.head
    assert d1.busy_s == d2.busy_s


@given(read_lists, read_lists)
@settings(max_examples=100, deadline=None)
def test_consecutive_batches_compose(first, second):
    """Deferred LRU refreshes must survive a batch boundary: two batches
    equal one concatenated batch equal the scalar loop."""
    c1, d1 = make_cache()
    c2, d2 = make_cache()
    c1.read_batch(first)
    c1.read_batch(second)
    for start, nblocks in first + second:
        c2.read(start, nblocks)
    c1._flush_moves()
    assert list(c1._lru) == list(c2._lru)
    assert list(c1._ra.items()) == list(c2._ra.items())
    assert d1.busy_s == d2.busy_s


journal_entries = st.lists(
    st.tuples(
        st.lists(st.integers(min_value=0, max_value=500), max_size=4),
        st.integers(min_value=1, max_value=3),
    ),
    min_size=1,
    max_size=8,
)


@given(journal_entries, st.integers(min_value=4, max_value=9))
@settings(max_examples=200, deadline=None)
def test_log_batch_matches_per_record_log(entries, region):
    """Full completion: records, request stream and spans line up with a
    per-record log/commit sequence, including circular wrap-around."""
    jb = Journal(base_block=1, nblocks=region)
    js = Journal(base_block=1, nblocks=region)
    records, requests, spans = jb.log_batch(
        [(tuple(d), n) for d, n in entries]
    )
    scalar_requests = []
    for i, (dirties, nblocks) in enumerate(entries):
        record, reqs = js.log(tuple(dirties), nblocks)
        js.commit(record)
        lo, hi = spans[i]
        assert requests[lo:hi] == reqs
        assert (records[i].seq, records[i].block) == (record.seq, record.block)
        scalar_requests.extend(reqs)
        jb.commit(records[i])
    assert requests == scalar_requests
    assert jb.head_block == js.head_block
    assert jb.records_written == js.records_written
    assert [(r.seq, r.dirties) for r in jb.replay()] == [
        (r.seq, r.dirties) for r in js.replay()
    ]


@given(journal_entries, st.integers(min_value=3, max_value=9), st.data())
@settings(max_examples=200, deadline=None)
def test_per_record_log_replay_at_every_crash_point(entries, region, data):
    """The MDS's protocol — ``log`` a record, write its commit spans, then
    ``commit`` — crashed after K span writes: replay holds exactly the
    records whose every span was written, and the spans written cover the
    circular region block by block from its base."""
    base = 1
    entries = [(tuple(d), n) for d, n in entries]
    journal = Journal(base_block=base, nblocks=region)
    logged = [journal.log(dirties, nblocks) for dirties, nblocks in entries]
    spans = [span for _, own in logged for span in own]
    crash_at = data.draw(
        st.integers(min_value=0, max_value=len(spans)), label="crash_at"
    )
    written = 0
    for record, own in logged:
        if written + len(own) > crash_at:
            break  # this commit write crashed; nothing after it ran
        written += len(own)
        journal.commit(record)

    # Block-level model: each record's blocks continue where the previous
    # record's ended, modulo the region; a span never crosses the end.
    position = 0
    expected_blocks = []
    for (record, own), (dirties, nblocks) in zip(logged, entries):
        assert record.block == base + position
        assert record.dirties == dirties
        assert sum(n for _, n in own) == nblocks
        assert all(base <= s and s + n <= base + region for s, n in own)
        for _ in range(nblocks):
            expected_blocks.append(base + position)
            position = (position + 1) % region
    assert [s + i for s, n in spans for i in range(n)] == expected_blocks
    assert journal.head_block == base + position

    ends = accumulate(len(own) for _, own in logged)
    survivors = [record for (record, _), end in zip(logged, ends) if end <= crash_at]
    assert journal.replay() == survivors
    assert [r.seq for r in journal.pending_records()] == [
        record.seq for record, _ in logged[len(survivors):]
    ]
    journal.truncate()
    assert journal.replay() == journal.pending_records() == []


# ---------------------------------------------------------------------------
# Plans built through the fold step arrive coalesced
# ---------------------------------------------------------------------------

span_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=1, max_value=6),
    ),
    max_size=40,
)
#: Readdirplus-shaped plans: long, single-block, repeating — the shape
#: ``coalesce`` folds with numpy.
block_lists = st.lists(
    st.integers(min_value=0, max_value=90).map(lambda b: (b, 1)),
    min_size=64,
    max_size=160,
)


@given(st.one_of(span_lists, block_lists), st.one_of(span_lists, block_lists))
@settings(max_examples=300, deadline=None)
def test_incremental_reads_equal_coalesce(first, second):
    built = AccessPlan(dirties=[3])
    for start, count in first:
        built.add_read(start, count)
    out = built.merge(AccessPlan(reads=list(second), dirties=[4], cpu_s=0.5))
    assert out is built
    assert built.reads == AccessPlan(reads=first + second).coalesce().reads
    assert built.coalesce() is built  # already folded: the scalar path reuses it
    assert (built.dirties, built.cpu_s) == ([3, 4], 0.5)


def test_merge_rejects_a_folded_sub_plan():
    sub = AccessPlan()
    sub.add_read(5, 1)
    with pytest.raises(ValueError):
        AccessPlan().merge(sub)


# ---------------------------------------------------------------------------
# MDS vs its reference twin under random op sequences
# ---------------------------------------------------------------------------

PROFILES = {
    "lustre": lustre_profile,
    "redbud-vanilla": redbud_vanilla_profile,
    "redbud-mif": redbud_mif_profile,
}
OP_KINDS = (
    "mkdir", "create", "create", "create", "delete", "utime", "stat",
    "readdir", "readdir_stat", "rename", "set_extent_records",
    "crash_recover", "journal_burst",
)
mds_ops = st.lists(
    st.tuples(
        st.sampled_from(OP_KINDS),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=40),
    ),
    min_size=1,
    max_size=60,
)


def run_ops(mds: MetadataServer, ops) -> None:
    """Apply ``ops`` to ``mds``, resolving each against a namespace model
    so that every op is valid; the same ops resolve the same way on any
    MDS, so two servers driven by one list see one op sequence."""
    dirs = [mds.root]
    names: list[list[str]] = [[]]
    fresh = 0
    for kind, a, b in ops:
        i = a % len(dirs)
        d, files = dirs[i], names[i]
        if kind == "mkdir":
            dirs.append(mds.mkdir(d, f"d{len(dirs)}"))
            names.append([])
        elif kind == "create" or (not files and kind in (
            "delete", "utime", "stat", "rename", "set_extent_records"
        )):
            fresh += 1
            mds.create(d, f"f{fresh}")
            files.append(f"f{fresh}")
        elif kind == "delete":
            mds.delete(d, files.pop(b % len(files)))
        elif kind == "utime":
            mds.utime(d, files[b % len(files)])
        elif kind == "stat":
            mds.stat(d, files[b % len(files)])
        elif kind == "readdir":
            mds.readdir(d)
        elif kind == "readdir_stat":
            mds.readdir_stat(d)
        elif kind == "rename":
            j = b % len(dirs)
            fresh += 1
            mds.rename(d, files.pop(b % len(files)), dirs[j], f"r{fresh}")
            names[j].append(f"r{fresh}")
        elif kind == "set_extent_records":
            mds.set_extent_records(d, files[b % len(files)], b)
        elif kind == "crash_recover":
            mds.crash_recover()
        else:  # journal_burst: a multi-block record, wrapping the tiny journal
            mds._execute(
                AccessPlan(dirties=[a + 1], journal_records=2 + b % 2), "burst"
            )
    mds.flush()


@given(
    mds_ops,
    st.sampled_from(sorted(PROFILES)),
    st.sampled_from(("normal", "embedded")),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=3, max_value=7),
)
@settings(max_examples=60, deadline=None)
def test_batched_mds_matches_legacy_twin(ops, profile, layout, interval, journal):
    cfg = PROFILES[profile]()
    cfg = replace(
        cfg,
        meta=replace(
            cfg.meta, layout=layout, journal_interval_ops=interval,
            journal_blocks=journal,
        ),
    )
    mds = MetadataServer(cfg)
    reference = ReferenceMetadataServer(cfg)
    run_ops(mds, ops)
    run_ops(reference, ops)
    assert snapshot(mds) == snapshot(reference)
