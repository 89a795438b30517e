"""Property test: readv/writev are equivalent to the scalar-op loop.

The PVFS list-I/O contract: a scatter-gather request must be purely an
*optimization* — same extents on disk, same file size, same per-byte
metrics, and (for lists of disjoint regions) the same simulated service
time when the scalar loop's requests are gathered into one submitted
batch.  The only allowed differences are fewer request objects
(cross-region coalescing) and the ``fs.listio_*`` counters.  Checked on
both the production data plane and its scalar reference
(``tests/reference.py``).

Overlapping regions keep the layout/metrics equivalence but not the
single-batch service identity: the scalar loop emits duplicate physical
runs for the overlap, which the elevator cannot merge (negative gap),
while one list request maps the final layout once.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fs.dataplane import DataPlane
from repro.units import KiB

from tests.conftest import small_config
from tests.reference import ReferenceDataPlane

BS = 4 * KiB

#: Arbitrary regions inside a ~1 MiB window: offsets on and off block
#: boundaries, lengths sub-block to multi-stripe-unit, overlaps allowed.
_REGION = st.tuples(
    st.integers(min_value=0, max_value=255 * BS),
    st.integers(min_value=1, max_value=8 * BS),
)
_REGIONS = st.lists(_REGION, min_size=1, max_size=8)
_PLANE = st.sampled_from([DataPlane, ReferenceDataPlane])


@st.composite
def _disjoint_regions(draw):
    """Block-aligned regions with pairwise-disjoint block spans, in a
    random order (list I/O does not require sorted offsets)."""
    steps = draw(
        st.lists(
            st.tuples(st.integers(0, 8), st.integers(1, 8)),
            min_size=1,
            max_size=8,
        )
    )
    regions = []
    block = 0
    for gap, nblocks in steps:
        block += gap
        regions.append((block * BS, nblocks * BS))
        block += nblocks
    perm = draw(st.permutations(regions))
    return list(perm)


def _extent_tuples(f):
    return [
        [(e.logical, e.physical, e.length, e.unwritten) for e in smap]
        for smap in f.maps
    ]


def _covered_blocks(requests):
    out: set[int] = set()
    for r in requests:
        out.update(range(r.start, r.end))
    return out


@settings(max_examples=60, deadline=None)
@given(regions=_REGIONS, plane_cls=_PLANE, stream=st.integers(0, 3))
def test_writev_layout_oracle(regions, plane_cls, stream):
    """writev(list) ≡ the in-order loop of write(region) calls: identical
    extents, size, per-byte counters and covered blocks — even when
    regions overlap."""
    loop = plane_cls(small_config())
    vec = plane_cls(small_config())
    fl = loop.create_file("/f")
    fv = vec.create_file("/f")
    scalar_reqs = []
    for off, n in regions:
        scalar_reqs.extend(loop.write(fl, stream, off, n))
    vec_reqs = vec.writev(fv, stream, regions)
    assert _extent_tuples(fl) == _extent_tuples(fv)
    assert fl.size_bytes == fv.size_bytes
    assert fl.mapped_blocks == fv.mapped_blocks
    for name in ("fs.writes", "fs.bytes_written", "fs.buffered_writes"):
        assert loop.metrics.count(name) == vec.metrics.count(name)
    assert _covered_blocks(scalar_reqs) == _covered_blocks(vec_reqs)


@settings(max_examples=60, deadline=None)
@given(regions=_disjoint_regions(), plane_cls=_PLANE, stream=st.integers(0, 3))
def test_writev_service_time_oracle(regions, plane_cls, stream):
    """For disjoint regions, gathering the scalar loop's requests into one
    batch costs exactly what the one list request costs: the elevator
    re-derives every merge _emit already performed."""
    loop = plane_cls(small_config())
    vec = plane_cls(small_config())
    fl = loop.create_file("/f")
    fv = vec.create_file("/f")
    scalar_reqs = []
    for off, n in regions:
        scalar_reqs.extend(loop.write(fl, stream, off, n))
    vec_reqs = vec.writev(fv, stream, regions)
    assert _extent_tuples(fl) == _extent_tuples(fv)
    assert loop.array.submit_batch(scalar_reqs) == vec.array.submit_batch(vec_reqs)


@settings(max_examples=60, deadline=None)
@given(
    write_regions=_REGIONS,
    read_regions=_REGIONS,
    plane_cls=_PLANE,
)
def test_readv_oracle(write_regions, read_regions, plane_cls):
    """readv(list) ≡ the in-order loop of read(region) calls, including
    over holes, after an arbitrary writev-laid-down layout.  Overlapping
    read regions keep this coverage/counter equivalence but not the
    service identity (the loop re-reads the overlap as duplicate runs
    the elevator cannot merge), so service time is checked separately
    below on disjoint regions."""
    plane = plane_cls(small_config())
    f = plane.create_file("/f")
    plane.writev(f, 0, write_regions)
    scalar_reqs = []
    for off, n in read_regions:
        scalar_reqs.extend(plane.read(f, off, n))
    vec_reqs = plane.readv(f, read_regions)
    assert _covered_blocks(scalar_reqs) == _covered_blocks(vec_reqs)
    assert sum(r.nblocks for r in scalar_reqs) == sum(r.nblocks for r in vec_reqs)
    assert not any(r.is_write for r in vec_reqs)
    # Counters move per region on both sides.
    assert plane.metrics.count("fs.reads") == 2 * len(read_regions)
    assert plane.metrics.count("fs.bytes_read") == 2 * sum(
        n for _, n in read_regions
    )


@settings(max_examples=60, deadline=None)
@given(
    write_regions=_REGIONS,
    read_regions=_disjoint_regions(),
    plane_cls=_PLANE,
)
def test_readv_service_time_oracle(write_regions, read_regions, plane_cls):
    """For disjoint read regions, the gathered scalar batch and the one
    list request cost the same on fresh twin arrays (same head start,
    same elevator) — and move the same total block count."""
    plane = plane_cls(small_config())
    f = plane.create_file("/f")
    plane.writev(f, 0, write_regions)
    scalar_reqs = []
    for off, n in read_regions:
        scalar_reqs.extend(plane.read(f, off, n))
    vec_reqs = plane.readv(f, read_regions)
    assert _covered_blocks(scalar_reqs) == _covered_blocks(vec_reqs)
    assert sum(r.nblocks for r in scalar_reqs) == sum(r.nblocks for r in vec_reqs)
    twin_a = plane_cls(small_config())
    twin_b = plane_cls(small_config())
    assert twin_a.array.submit_batch(vec_reqs) == twin_b.array.submit_batch(
        scalar_reqs
    )
