"""Parallel consistency checking (fsck) for the simulated file system.

Validates the cross-layer invariants the allocator work depends on:

- **Data plane**: every file extent maps to blocks the free-space manager
  considers used; no two extents (within or across files) share a physical
  block; per-slot extent maps are structurally valid; accounting adds up
  (used == mapped + policy-held reservations).
- **Metadata plane**: every inode's home block lies in a valid region for
  its layout; directory content runs don't overlap; the global directory
  table resolves every embedded directory.

The checker follows pFSCK's shape (see PAPERS.md):

- **Vectorized kernel** — instead of walking every mapped block into a
  per-block ownership ``dict`` (O(blocks)), each shard lexsorts its extent
  ``(start, end)`` interval arrays and sweeps them with numpy searchsorted /
  cumulative-max passes, so a shard costs O(extents log extents).
- **Sharded parallelism** — data-plane work splits into one shard per PAG
  (allocation group) and metadata work into per-directory shards, executed
  through :func:`repro.core.parallel.run_cells` under its ordered-merge
  determinism contract.  Shard reports are plain picklable dataclasses.
- **Deterministic merge** — every shard finding carries a sort key derived
  from the *serial* emission position, so the merged :class:`FsckReport`
  is byte-identical (findings, order, counters) to the single-threaded
  reference checkers at any ``jobs`` value.  Cross-shard invariants
  (double-owned blocks across PAG boundaries, content-run overlap across
  directories) are resolved in the merge step, replaying the serial
  claim order over only the extents that shards flagged as overlapping.
- **Pipelined repair** — :func:`repair_dataplane` consumes shard reports
  through :func:`repro.core.parallel.stream_cells`, applying fixes for
  shard *i* while shards *i+1..n* are still checking, and iterates
  check→repair until convergence.
- **Online scrub** — :class:`Scrubber` walks the same shards one step at a
  time so a live service workload can interleave scrubbing with traffic
  (see ``workloads/service.py``).

Tests and long-running experiments call :func:`check_dataplane` /
:func:`check_mds` after churn to catch leaks and double allocations early.
:func:`repair_dataplane` / :func:`repair_mds` consume the same finding
codes and fix them, re-running the checker until it converges.  The
original dict-based serial walks live on in the test suite
(``tests/reference.py``) as the equivalence oracle.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np

from repro.core.parallel import run_cells, stream_cells
from repro.errors import MetadataError
from repro.fs.dataplane import DataPlane
from repro.meta.embedded_layout import EmbeddedDir, EmbeddedLayout
from repro.meta.inumber import decode_ino
from repro.meta.mds import MetadataServer
from repro.meta.normal_layout import NormalLayout

#: Directories per metadata check shard.  Small enough to load-balance a
#: deep tree across workers, large enough that spec pickling stays cheap.
META_SHARD_DIRS = 64


@dataclass(frozen=True)
class Finding:
    """One consistency violation: a stable machine-readable code plus a
    human-readable message.  Codes are the contract tests pin against."""

    code: str
    message: str


@dataclass
class FsckReport:
    """Findings of one consistency pass.

    Reports are picklable and merge-friendly: shard reports combine with
    :meth:`merge` (finding lists concatenate in order, counters add by
    exact integer arithmetic), so a sharded run assembles the same report
    a serial run would produce.
    """

    findings: list[Finding] = field(default_factory=list)
    checked_extents: int = 0
    checked_inodes: int = 0

    @property
    def errors(self) -> list[str]:
        """Finding messages (compatibility view of :attr:`findings`)."""
        return [f.message for f in self.findings]

    @property
    def codes(self) -> set[str]:
        """Distinct finding codes present in this report."""
        return {f.code for f in self.findings}

    def has(self, code: str) -> bool:
        return any(f.code == code for f in self.findings)

    @property
    def clean(self) -> bool:
        return not self.findings

    def error(self, message: str, code: str = "generic") -> None:
        self.findings.append(Finding(code=code, message=message))

    def merge(self, other: "FsckReport") -> "FsckReport":
        """Combine two reports: stable finding order, exact counter sums."""
        return FsckReport(
            findings=self.findings + other.findings,
            checked_extents=self.checked_extents + other.checked_extents,
            checked_inodes=self.checked_inodes + other.checked_inodes,
        )

    def raise_if_dirty(self) -> None:
        if self.findings:
            raise AssertionError(
                f"fsck found {len(self.findings)} problems:\n"
                + "\n".join(f"[{f.code}] {f.message}" for f in self.findings)
            )


@dataclass(frozen=True)
class RepairAction:
    """One fix applied by a repair pass, tagged with the finding code it
    addressed."""

    code: str
    message: str


@dataclass
class RepairResult:
    """Outcome of an iterative repair: the reports bracketing it, every
    action taken, and whether re-checking converged to clean."""

    before: FsckReport
    after: FsckReport
    actions: list[RepairAction] = field(default_factory=list)
    passes: int = 0

    @property
    def converged(self) -> bool:
        return self.after.clean

    def merge(self, other: "RepairResult") -> "RepairResult":
        """Combine two repair outcomes (e.g. data plane + metadata)."""
        return RepairResult(
            before=self.before.merge(other.before),
            after=self.after.merge(other.after),
            actions=self.actions + other.actions,
            passes=max(self.passes, other.passes),
        )


# ---------------------------------------------------------------------------
# Interval bookkeeping shared by merge and repair
# ---------------------------------------------------------------------------


class _IntervalOwners:
    """Sorted, disjoint ``[start, end) -> owner`` map with splice updates.

    Replays the serial checker's per-block ownership dict at interval
    granularity: :meth:`assign` is last-writer-wins (later intervals
    overwrite the overlapped parts of earlier ones), mirroring
    ``owner[b] = x`` in a loop.
    """

    def __init__(self) -> None:
        self._starts: list[int] = []
        self._ends: list[int] = []
        self._owners: list[object] = []

    def _window(self, a: int, b: int) -> tuple[int, int]:
        """Index range of stored intervals intersecting ``[a, b)``."""
        i = bisect_right(self._ends, a)
        j = bisect_left(self._starts, b)
        return i, j

    def overlaps(self, a: int, b: int) -> bool:
        i, j = self._window(a, b)
        return i < j

    def overlapping(self, a: int, b: int) -> list[tuple[int, int, object]]:
        """Clipped ``(start, end, owner)`` segments intersecting ``[a, b)``."""
        i, j = self._window(a, b)
        return [
            (max(self._starts[k], a), min(self._ends[k], b), self._owners[k])
            for k in range(i, j)
        ]

    def contains(self, x: int) -> bool:
        i = bisect_right(self._ends, x)
        return i < len(self._starts) and self._starts[i] <= x

    def first_owned_in(self, a: int, b: int) -> tuple[int, object] | None:
        """Leftmost owned block in ``[a, b)`` and its owner, or ``None``."""
        i = bisect_right(self._ends, a)
        if i < len(self._starts) and self._starts[i] < b:
            return max(self._starts[i], a), self._owners[i]
        return None

    def assign(self, a: int, b: int, owner: object) -> None:
        i, j = self._window(a, b)
        pieces: list[tuple[int, int, object]] = []
        if i < j:
            if self._starts[i] < a:
                pieces.append((self._starts[i], a, self._owners[i]))
            if self._ends[j - 1] > b:
                pieces.append((b, self._ends[j - 1], self._owners[j - 1]))
        pieces.append((a, b, owner))
        pieces.sort(key=lambda p: p[0])
        self._starts[i:j] = [p[0] for p in pieces]
        self._ends[i:j] = [p[1] for p in pieces]
        self._owners[i:j] = [p[2] for p in pieces]


# ---------------------------------------------------------------------------
# Data plane: scan -> per-PAG shards -> vectorized check -> ordered merge
# ---------------------------------------------------------------------------

# Per-extent finding ranks reproduce the serial emission order within one
# extent: crosses-PAG, wrong-PAG, double-owned, maps-free.  Rank 0 is the
# structural pre-findings (invalid map / outside array) that consume a
# position of their own.
_RANK_PRE = 0
_RANK_CROSSES = 1
_RANK_WRONG = 2
_RANK_DOUBLE = 3
_RANK_FREE = 4


@dataclass
class _PlaneScan:
    """Driver-side index of one data-plane walk.

    ``labels[i]`` holds ``(file name, slot, extent, map)`` for the extent
    whose serial position is ``pos[i]``; the parallel int64 arrays feed the
    shard kernels.  ``pre`` carries keyed findings emitted during the scan
    itself (structurally invalid maps, extents outside the array).
    """

    labels: list[tuple]
    pos: np.ndarray
    phys: np.ndarray
    length: np.ndarray
    pag: np.ndarray
    pre: list[tuple]
    checked_extents: int
    mapped_blocks: int
    changed: bool


@dataclass(frozen=True)
class _PlaneShardSpec:
    """Picklable work unit: the extents visible to one PAG's check shard.

    The home prefix (``home[i]`` True) holds extents whose first block lies
    in this group; the visitor suffix holds extents crossing in from lower
    groups, included so double-ownership on shared blocks is caught by at
    least one shard.  ``clip_hi`` bounds the overlap sweep (the last group
    keeps an open upper bound so extents running past the array end still
    collide).
    """

    gindex: int
    gbase: int
    gend: int
    clip_hi: int
    home: np.ndarray
    pos: np.ndarray
    phys: np.ndarray
    length: np.ndarray
    pag: np.ndarray
    free_starts: np.ndarray
    free_ends: np.ndarray


@dataclass(frozen=True)
class _PlaneShardReport:
    """Picklable shard verdict: serial positions of flagged extents."""

    gindex: int
    crosses: np.ndarray
    wrong: np.ndarray
    maps_free: np.ndarray
    overlap: np.ndarray


def _scan_dataplane(
    plane: DataPlane, repair_actions: list[RepairAction] | None = None
) -> _PlaneScan:
    """One serial O(extents) walk assigning each extent its serial position.

    In check mode structural problems become keyed ``pre`` findings; in
    repair mode (``repair_actions`` is a list) they are fixed inline —
    invalid maps dropped, out-of-array extents unmapped — exactly as the
    serial repair pass did, and recorded as actions.
    """
    total = plane.fsm.total_blocks
    labels: list[tuple] = []
    pos_l: list[int] = []
    phys_l: list[int] = []
    len_l: list[int] = []
    pag_l: list[int] = []
    pre: list[tuple] = []
    checked = 0
    mapped = 0
    changed = False
    pos = 0
    repairing = repair_actions is not None
    for f in plane.files():
        for slot, smap in enumerate(f.maps):
            try:
                smap.validate()
            except Exception as exc:  # structural corruption
                if repairing:
                    smap.clear()
                    repair_actions.append(RepairAction(
                        "extent-map-invalid",
                        f"{f.name} slot {slot}: dropped invalid extent map ({exc})",
                    ))
                    changed = True
                else:
                    pre.append((
                        pos, _RANK_PRE, "extent-map-invalid",
                        f"{f.name} slot {slot}: invalid extent map: {exc}",
                    ))
                pos += 1
                continue
            for ext in (list(smap) if repairing else smap):
                checked += 1
                mapped += ext.length
                if not 0 <= ext.physical < total:
                    if repairing:
                        smap.remove_range(ext.logical, ext.length)
                        repair_actions.append(RepairAction(
                            "extent-outside-array",
                            f"{f.name} slot {slot}: unmapped {ext} (outside array)",
                        ))
                        changed = True
                    else:
                        pre.append((
                            pos, _RANK_PRE, "extent-outside-array",
                            f"{f.name} slot {slot}: extent {ext} outside the array",
                        ))
                    pos += 1
                    continue
                labels.append((f.name, slot, ext, smap))
                pos_l.append(pos)
                phys_l.append(ext.physical)
                len_l.append(ext.length)
                pag_l.append(f.layout[slot])
                pos += 1
    return _PlaneScan(
        labels=labels,
        pos=np.asarray(pos_l, dtype=np.int64),
        phys=np.asarray(phys_l, dtype=np.int64),
        length=np.asarray(len_l, dtype=np.int64),
        pag=np.asarray(pag_l, dtype=np.int64),
        pre=pre,
        checked_extents=checked,
        mapped_blocks=mapped,
        changed=changed,
    )


def _row_of(scan: _PlaneScan, pos: int) -> int:
    """Row index for a serial position (``scan.pos`` is strictly increasing)."""
    return int(np.searchsorted(scan.pos, pos))


def _plane_shard_specs(scan: _PlaneScan, plane: DataPlane) -> list[_PlaneShardSpec]:
    """Partition the scanned extents into one spec per non-empty PAG."""
    groups = plane.fsm.groups
    if not groups or not len(scan.pos):
        return []
    gsize = groups[0].size
    ngroups = len(groups)
    first = scan.phys // gsize
    last = np.minimum((scan.phys + scan.length - 1) // gsize, ngroups - 1)
    order = np.argsort(first, kind="stable")
    sorted_first = first[order]
    lo = np.searchsorted(sorted_first, np.arange(ngroups), side="left")
    hi = np.searchsorted(sorted_first, np.arange(ngroups), side="right")
    # Extents crossing a PAG boundary visit every further group they touch,
    # so the shard owning the shared blocks sees both claimants.  Crossing
    # extents are corruption — this loop is empty on healthy images.
    visitors: dict[int, list[int]] = {}
    for r in np.nonzero(last > first)[0]:
        for g in range(int(first[r]) + 1, int(last[r]) + 1):
            visitors.setdefault(g, []).append(int(r))
    specs: list[_PlaneShardSpec] = []
    for g in range(ngroups):
        home_idx = order[lo[g]:hi[g]]
        vis = visitors.get(g)
        if not len(home_idx) and not vis:
            continue
        if vis:
            idx = np.concatenate([home_idx, np.asarray(vis, dtype=np.int64)])
        else:
            idx = home_idx
        home_mask = np.zeros(len(idx), dtype=bool)
        home_mask[: len(home_idx)] = True
        runs = groups[g].free.runs()
        specs.append(_PlaneShardSpec(
            gindex=g,
            gbase=groups[g].base,
            gend=groups[g].end,
            clip_hi=(2 ** 62 if g == ngroups - 1 else groups[g].end),
            home=home_mask,
            pos=scan.pos[idx],
            phys=scan.phys[idx],
            length=scan.length[idx],
            pag=scan.pag[idx],
            free_starts=np.asarray([s for s, _ in runs], dtype=np.int64),
            free_ends=np.asarray([s + n for s, n in runs], dtype=np.int64),
        ))
    return specs


def _plane_shard_check(spec: _PlaneShardSpec, tracer=None) -> _PlaneShardReport:
    """Vectorized invariant sweep over one PAG's extents.

    All tests are bulk numpy passes — no per-block loop:

    - *crosses / wrong-PAG*: boolean masks on the home prefix.
    - *maps-free*: an extent overlaps some free run iff a run starts before
      the extent ends and ends after it starts — two ``searchsorted`` calls
      against the group's sorted free-run bounds.
    - *overlap*: lexsort intervals by ``(start, end)``, sweep a cumulative
      max of ends; an interval starting before the running max overlaps its
      cluster.  Every member of a multi-extent cluster is exported; the
      merge step replays serial claim order over just those candidates.
    """
    end = spec.phys + spec.length
    home = spec.home
    crosses = spec.pos[home & (end > spec.gend)]
    wrong = spec.pos[home & (spec.pag != spec.gindex)]
    lo = np.searchsorted(spec.free_ends, spec.phys, side="right")
    hi = np.searchsorted(spec.free_starts, end, side="left")
    maps_free = spec.pos[home & (lo < hi)]
    s = np.maximum(spec.phys, spec.gbase)
    e = np.minimum(end, spec.clip_hi)
    order = np.lexsort((e, s))
    ss, ee, pp = s[order], e[order], spec.pos[order]
    if len(ss):
        cummax = np.maximum.accumulate(ee)
        fresh = np.ones(len(ss), dtype=bool)
        fresh[1:] = ss[1:] >= cummax[:-1]
        cid = np.cumsum(fresh) - 1
        sizes = np.bincount(cid)
        overlap = np.sort(pp[sizes[cid] >= 2])
    else:
        overlap = pp
    return _PlaneShardReport(
        gindex=spec.gindex,
        crosses=np.sort(crosses),
        wrong=np.sort(wrong),
        maps_free=np.sort(maps_free),
        overlap=overlap,
    )


def _resolve_double_owned(
    scan: _PlaneScan, participants: list[int]
) -> list[tuple]:
    """Replay the serial ownership walk over overlap candidates only.

    The serial checker registered blocks one at a time and *stopped* an
    extent's registration at its first already-owned block.  Interval
    arithmetic reproduces that: each extent claims ``[start, first owned
    block)``; extents that hit an owned block emit one double-owned finding
    naming the prior owner.  Extents outside every overlap cluster are
    disjoint from all others, so skipping them cannot change any verdict.
    """
    findings: list[tuple] = []
    owners = _IntervalOwners()
    for p in participants:
        r = _row_of(scan, p)
        name, slot, ext, _smap = scan.labels[r]
        a = ext.physical
        b = ext.physical + ext.length
        hit = owners.first_owned_in(a, b)
        if hit is not None:
            blk, prior = hit
            findings.append((
                p, _RANK_DOUBLE, "double-owned-block",
                f"block {blk} owned by both {prior} and {name}#{slot}",
            ))
            b = blk
        if b > a:
            owners.assign(a, b, f"{name}#{slot}")
    return findings


def _merge_dataplane(
    scan: _PlaneScan,
    reports: list[_PlaneShardReport],
    plane: DataPlane,
    strict_accounting: bool,
) -> FsckReport:
    """Deterministic merge: keyed findings sort back into serial order."""
    keyed: list[tuple] = list(scan.pre)
    participants: set[int] = set()
    for rep in reports:
        for p in rep.crosses:
            name, slot, ext, _ = scan.labels[_row_of(scan, int(p))]
            keyed.append((
                int(p), _RANK_CROSSES, "extent-crosses-pag",
                f"{name} slot {slot}: extent {ext} crosses its PAG",
            ))
        for p in rep.wrong:
            r = _row_of(scan, int(p))
            name, slot, ext, _ = scan.labels[r]
            keyed.append((
                int(p), _RANK_WRONG, "extent-wrong-pag",
                f"{name} slot {slot}: extent {ext} in PAG {rep.gindex}, "
                f"layout says {int(scan.pag[r])}",
            ))
        for p in rep.maps_free:
            name, slot, ext, _ = scan.labels[_row_of(scan, int(p))]
            keyed.append((
                int(p), _RANK_FREE, "extent-maps-free",
                f"{name} slot {slot}: extent {ext} maps free blocks",
            ))
        participants.update(int(p) for p in rep.overlap)
    keyed.extend(_resolve_double_owned(scan, sorted(participants)))
    keyed.sort(key=lambda t: (t[0], t[1]))
    report = FsckReport(checked_extents=scan.checked_extents)
    for _pos, _rank, code, message in keyed:
        report.error(message, code=code)
    if strict_accounting:
        held = plane.fsm.used_blocks - scan.mapped_blocks
        if held < 0:
            report.error(
                f"accounting: mapped {scan.mapped_blocks} blocks exceed used "
                f"{plane.fsm.used_blocks}",
                code="accounting-overmapped",
            )
    return report


def check_dataplane(
    plane: DataPlane, strict_accounting: bool = True, jobs: int | None = None
) -> FsckReport:
    """Verify data-plane invariants; returns the report (never raises).

    Work shards per PAG and runs through :func:`run_cells`; ``jobs`` (or
    ``REPRO_JOBS``) > 1 checks shards in worker processes.  The merged
    report is byte-identical to the serial reference walk at any worker
    count.
    """
    scan = _scan_dataplane(plane)
    specs = _plane_shard_specs(scan, plane)
    reports = run_cells(specs, _plane_shard_check, jobs=jobs)
    return _merge_dataplane(scan, reports, plane, strict_accounting)


# ---------------------------------------------------------------------------
# Metadata plane: per-directory specs -> chunked shards -> ordered merge
# ---------------------------------------------------------------------------

# Metadata finding keys are 5-tuples (phase, dir seq, section, item, rank);
# plain tuple comparison restores the serial emission order: phase 0 walks
# each directory (content overlaps, table membership, entries), phase 1 is
# the trailing table-resolution sweep over all directories.


@dataclass(frozen=True)
class _EmbeddedDirSpec:
    """Picklable snapshot of one embedded directory for shard checking."""

    seq: int
    dir_id: int
    runs: tuple
    in_gdt: bool
    # (name, ino, exists, is_dir, home_block, inode name) per entry.
    rows: tuple


@dataclass(frozen=True)
class _NormalDirSpec:
    """Picklable snapshot of one normal-layout directory."""

    seq: int
    ino: int
    nblocks: int
    fill: tuple
    dentry_blocks: tuple
    # (name, ino, exists, home_block, home_slot, itable block, itable slot,
    #  entry block) per entry.
    rows: tuple


@dataclass(frozen=True)
class _MetaShardReport:
    """Picklable metadata shard verdict.

    ``findings`` are ``(key, code, message)``; ``deferred`` carries
    orphan-home candidates whose verdict needs the cross-directory content
    union, resolved by the driver during the merge.
    """

    findings: tuple
    deferred: tuple
    checked_inodes: int


def _chunked(specs: list, size: int) -> list[tuple]:
    return [tuple(specs[i:i + size]) for i in range(0, len(specs), size)]


def _scan_embedded(layout: EmbeddedLayout) -> list[_EmbeddedDirSpec]:
    specs: list[_EmbeddedDirSpec] = []
    for seq, d in enumerate(layout._dirs.values()):
        rows = []
        for name, ino in d.entries.items():
            inode = layout._inodes.get(ino)
            if inode is None:
                rows.append((name, ino, False, False, 0, ""))
            else:
                rows.append((
                    name, ino, True, inode.is_dir, inode.home_block, inode.name,
                ))
        specs.append(_EmbeddedDirSpec(
            seq=seq,
            dir_id=d.dir_id,
            runs=tuple(d.content_runs),
            in_gdt=d.dir_id in layout.gdt,
            rows=tuple(rows),
        ))
    return specs


def _embedded_shard_check(
    chunk: tuple[_EmbeddedDirSpec, ...], tracer=None
) -> _MetaShardReport:
    """Check a chunk of embedded directories against shard-local state.

    Home blocks are tested against the directory's *own* content runs with
    a vectorized sorted-starts / cumulative-max-ends membership probe; a
    miss is only a *candidate* orphan (another directory's runs may still
    cover it), so misses are deferred to the merge step.
    """
    findings: list[tuple] = []
    deferred: list[tuple] = []
    checked = 0
    for spec in chunk:
        runs = sorted(spec.runs)
        if runs:
            rstarts = np.asarray([s for s, _ in runs], dtype=np.int64)
            rends_cm = np.maximum.accumulate(
                np.asarray([s + c for s, c in runs], dtype=np.int64)
            )
        else:
            rstarts = rends_cm = None
        if not spec.in_gdt:
            findings.append((
                (0, spec.seq, 1, 0, 0), "dir-missing-from-gdt",
                f"directory {spec.dir_id} missing from the directory table",
            ))
            # The membership test and the trailing resolution sweep consult
            # the same table, so both findings fire on the same condition.
            findings.append((
                (1, spec.seq, 0, 0, 0), "gdt-unresolvable",
                f"directory table cannot resolve dir {spec.dir_id}",
            ))
        for idx, (name, ino, exists, is_dir, home, iname) in enumerate(spec.rows):
            checked += 1
            if not exists:
                findings.append((
                    (0, spec.seq, 2, idx, 0), "dangling-inode",
                    f"dir {spec.dir_id}: entry {name!r} -> dangling inode {ino}",
                ))
                continue
            if not is_dir:
                own = False
                if rstarts is not None:
                    i = int(np.searchsorted(rstarts, home, side="right")) - 1
                    own = i >= 0 and home < int(rends_cm[i])
                if not own:
                    deferred.append((spec.seq, idx, ino, name, home))
            if iname != name:
                findings.append((
                    (0, spec.seq, 2, idx, 1), "inode-name-mismatch",
                    f"inode {ino}: name {iname!r} != entry name {name!r}",
                ))
    return _MetaShardReport(
        findings=tuple(findings), deferred=tuple(deferred), checked_inodes=checked
    )


def _merge_embedded(
    specs: list[_EmbeddedDirSpec], reports: list[_MetaShardReport]
) -> FsckReport:
    """Merge embedded shards, resolving the cross-directory invariants.

    The driver replays directory order once with an interval-owner map:
    content-run overlaps get per-block findings naming the prior owner
    (last-writer-wins, as the serial dict), and each directory's deferred
    orphan candidates are settled against the union of all content runs
    registered so far — exactly the serial checker's prefix semantics.
    """
    findings: list[tuple] = []
    checked = 0
    deferred_by_seq: dict[int, list[tuple]] = {}
    for rep in reports:
        findings.extend(rep.findings)
        checked += rep.checked_inodes
        for item in rep.deferred:
            deferred_by_seq.setdefault(item[0], []).append(item)
    owners = _IntervalOwners()
    for spec in specs:
        for ridx, (start, count) in enumerate(spec.runs):
            for a, b, prior in owners.overlapping(start, start + count):
                for blk in range(a, b):
                    findings.append((
                        (0, spec.seq, 0, ridx, blk), "content-block-overlap",
                        f"content block {blk} owned by dirs {prior} "
                        f"and {spec.dir_id}",
                    ))
            owners.assign(start, start + count, spec.dir_id)
        for seq, idx, ino, name, home in deferred_by_seq.get(spec.seq, ()):
            if not owners.contains(home):
                findings.append((
                    (0, seq, 2, idx, 0), "orphan-home-block",
                    f"inode {ino} ({name!r}) home block {home} "
                    f"outside any directory content",
                ))
    findings.sort(key=lambda t: t[0])
    report = FsckReport(checked_inodes=checked)
    for _key, code, message in findings:
        report.error(message, code=code)
    return report


def _scan_normal(layout: NormalLayout) -> list[_NormalDirSpec]:
    mfs = layout.mfs
    specs: list[_NormalDirSpec] = []
    for seq, d in enumerate(layout._dirs.values()):
        rows = []
        for name, ino in d.entries.items():
            inode = layout._inodes.get(ino)
            if inode is None:
                rows.append((name, ino, False, 0, 0, 0, 0, d.entry_block.get(name)))
            else:
                eb, es = mfs.itable_block_of(ino)
                rows.append((
                    name, ino, True, inode.home_block, inode.home_slot,
                    eb, es, d.entry_block.get(name),
                ))
        specs.append(_NormalDirSpec(
            seq=seq,
            ino=d.ino,
            nblocks=len(d.dentry_blocks),
            fill=tuple(d.fill),
            dentry_blocks=tuple(d.dentry_blocks),
            rows=tuple(rows),
        ))
    return specs


def _normal_shard_check(
    chunk: tuple[_NormalDirSpec, ...], tracer=None
) -> _MetaShardReport:
    """Check a chunk of normal-layout directories (fully shard-local)."""
    findings: list[tuple] = []
    checked = 0
    for spec in chunk:
        if spec.nblocks != len(spec.fill):
            findings.append((
                (0, spec.seq, 0, 0, 0), "dentry-fill-mismatch",
                f"dir {spec.ino}: dentry-block/fill length mismatch",
            ))
        occupancy = sum(spec.fill)
        if occupancy != len(spec.rows):
            findings.append((
                (0, spec.seq, 1, 0, 0), "entry-count-mismatch",
                f"dir {spec.ino}: fill says {occupancy} entries, "
                f"map has {len(spec.rows)}",
            ))
        known = set(spec.dentry_blocks)
        for idx, (name, ino, exists, hb, hs, eb, es, entry_blk) in enumerate(spec.rows):
            checked += 1
            if not exists:
                findings.append((
                    (0, spec.seq, 2, idx, 0), "dangling-inode",
                    f"dir {spec.ino}: entry {name!r} -> dangling inode {ino}",
                ))
                continue
            if (hb, hs) != (eb, es):
                findings.append((
                    (0, spec.seq, 2, idx, 0), "inode-home-mismatch",
                    f"inode {ino}: home {hb}/{hs} != itable {eb}/{es}",
                ))
            if entry_blk not in known:
                findings.append((
                    (0, spec.seq, 2, idx, 1), "entry-unknown-dentry-block",
                    f"dir {spec.ino}: entry {name!r} in unknown dentry block",
                ))
    return _MetaShardReport(
        findings=tuple(findings), deferred=(), checked_inodes=checked
    )


def _merge_meta(reports: list[_MetaShardReport]) -> FsckReport:
    findings: list[tuple] = []
    checked = 0
    for rep in reports:
        findings.extend(rep.findings)
        checked += rep.checked_inodes
    findings.sort(key=lambda t: t[0])
    report = FsckReport(checked_inodes=checked)
    for _key, code, message in findings:
        report.error(message, code=code)
    return report


def check_mds(mds: MetadataServer, jobs: int | None = None) -> FsckReport:
    """Verify metadata-plane invariants; returns the report.

    Directories shard into chunks of :data:`META_SHARD_DIRS` and run
    through :func:`run_cells`; the merged report is byte-identical to
    the serial reference walk at any worker count.
    """
    layout = mds.layout
    if isinstance(layout, EmbeddedLayout):
        specs = _scan_embedded(layout)
        reports = run_cells(
            _chunked(specs, META_SHARD_DIRS), _embedded_shard_check, jobs=jobs
        )
        return _merge_embedded(specs, reports)
    if isinstance(layout, NormalLayout):
        nspecs = _scan_normal(layout)
        reports = run_cells(
            _chunked(nspecs, META_SHARD_DIRS), _normal_shard_check, jobs=jobs
        )
        return _merge_meta(reports)
    return FsckReport()


# ---------------------------------------------------------------------------
# Repair: pipelined shard consumption, iterating to convergence
# ---------------------------------------------------------------------------


def repair_dataplane(
    plane: DataPlane, max_passes: int = 4, jobs: int | None = None
) -> RepairResult:
    """Fix data-plane findings; iterates check→repair until clean.

    Strategy mirrors the checker: structurally invalid maps are dropped;
    extents outside the array, crossing or landing in the wrong PAG are
    unmapped (their blocks freed when no other extent owns them); later
    claimants of double-owned blocks lose them; extents mapping free blocks
    re-claim them with ``allocate_exact``.

    Each repair pass streams shard reports through :func:`stream_cells` —
    fixes for shard *i* apply while shards *i+1..n* are still checking —
    and the surrounding loop re-checks until the report converges, which
    also settles any cross-shard interactions a single pass cannot see.
    """
    before = check_dataplane(plane, jobs=jobs)
    result = RepairResult(before=before, after=before)
    report = before
    while not report.clean and result.passes < max_passes:
        changed = _repair_dataplane_pass(plane, result.actions, jobs=jobs)
        result.passes += 1
        report = check_dataplane(plane, jobs=jobs)
        if not changed:
            break
    result.after = report
    return result


def _repair_dataplane_pass(
    plane: DataPlane, actions: list[RepairAction], jobs: int | None = None
) -> bool:
    scan = _scan_dataplane(plane, repair_actions=actions)
    changed = scan.changed
    specs = _plane_shard_specs(scan, plane)
    removed: set[int] = set()
    for rep in stream_cells(specs, _plane_shard_check, jobs=jobs):
        changed |= _apply_shard_repairs(plane, scan, rep, removed, actions)
    return changed


def _apply_shard_repairs(
    plane: DataPlane,
    scan: _PlaneScan,
    rep: _PlaneShardReport,
    removed: set[int],
    actions: list[RepairAction],
) -> bool:
    """Apply one shard's verdicts to the live plane.

    Serial-position order decides double-ownership: the earliest claimant
    of a contested block keeps its full extent, later claimants are
    unmapped.  ``removed`` is shared across shards so an extent flagged by
    several shards (it crosses PAG boundaries) is unmapped exactly once.
    """
    changed = False
    misplaced = {int(p) for p in rep.crosses} | {int(p) for p in rep.wrong}
    losers: set[int] = set()
    claims = _IntervalOwners()
    for p in sorted(int(x) for x in rep.overlap):
        if p in removed or p in misplaced:
            continue
        _name, _slot, ext, _smap = scan.labels[_row_of(scan, p)]
        a = ext.physical
        b = ext.physical + ext.length
        if claims.overlaps(a, b):
            losers.add(p)
        else:
            claims.assign(a, b, p)
    for p in sorted(misplaced | losers):
        if p in removed:
            continue
        name, slot, ext, smap = scan.labels[_row_of(scan, p)]
        smap.remove_range(ext.logical, ext.length)
        removed.add(p)
        # Blocks nobody else claims go back to free space; blocks a kept
        # extent owns are left allocated.
        for b in range(ext.physical, ext.physical_end):
            if claims.contains(b):
                continue
            try:
                if not plane.fsm.group_of(b).free.is_free(b, 1):
                    plane.fsm.free(b, 1)
            except Exception:
                continue
        code = "double-owned-block" if p in losers else "extent-wrong-pag"
        actions.append(RepairAction(code, f"{name} slot {slot}: unmapped {ext}"))
        changed = True
    for p in (int(x) for x in rep.maps_free):
        if p in removed or p in misplaced or p in losers:
            continue
        name, slot, ext, _smap = scan.labels[_row_of(scan, p)]
        reclaimed = 0
        for b in range(ext.physical, ext.physical_end):
            try:
                if plane.fsm.group_of(b).free.is_free(b, 1):
                    plane.fsm.allocate_exact(b, 1)
                    reclaimed += 1
            except Exception:
                continue
        if reclaimed:
            actions.append(RepairAction(
                "extent-maps-free",
                f"{name} slot {slot}: re-claimed {reclaimed} blocks of {ext}",
            ))
            changed = True
    return changed


def repair_mds(
    mds: MetadataServer, max_passes: int = 4, jobs: int | None = None
) -> RepairResult:
    """Fix metadata-plane findings; iterates check→repair until clean."""
    before = check_mds(mds, jobs=jobs)
    result = RepairResult(before=before, after=before)
    report = before
    layout = mds.layout
    while not report.clean and result.passes < max_passes:
        if isinstance(layout, EmbeddedLayout):
            changed = _repair_embedded_pass(layout, result.actions)
        elif isinstance(layout, NormalLayout):
            changed = _repair_normal_pass(layout, result.actions)
        else:  # pragma: no cover - exhaustive over shipped layouts
            changed = False
        result.passes += 1
        report = check_mds(mds, jobs=jobs)
        if not changed:
            break
    result.after = report
    return result


def _embedded_home_of(layout: EmbeddedLayout, d: EmbeddedDir, offset: int) -> int:
    """Authoritative home block for slot ``offset`` of ``d``, extending the
    directory content when the slot lies beyond it (lost-extension repair)."""
    try:
        return layout._block_of_offset(d, offset)
    except MetadataError:
        needed = offset // layout.slots_per_block + 1
        while d.content_blocks < needed:
            start, got, _ = layout.mfs.alloc_data(
                d.group, needed - d.content_blocks, minimum=1
            )
            d.content_runs.append((start, got))
        return layout._block_of_offset(d, offset)


def _repair_embedded_pass(layout: EmbeddedLayout, actions: list[RepairAction]) -> bool:
    changed = False
    dirs = sorted(layout._dirs.values(), key=lambda d: d.dir_id)
    # 1. Directory-table entries lost: the live directory object is the
    #    authority, so restore its mapping.
    for d in dirs:
        if d.dir_id not in layout.gdt:
            layout.gdt.restore(d.dir_id, d.ino)
            actions.append(RepairAction(
                "gdt-unresolvable", f"restored table entry for dir {d.dir_id}"
            ))
            changed = True
    # 2. Overlapping content runs: the first claimant (lowest dir_id) keeps
    #    the blocks; later overlapping runs are dropped, and any inodes they
    #    homed are re-homed by step 3 on the next pass.
    content_owner: set[int] = set()
    for d in dirs:
        kept: list[tuple[int, int]] = []
        for start, count in d.content_runs:
            if any(b in content_owner for b in range(start, start + count)):
                actions.append(RepairAction(
                    "content-block-overlap",
                    f"dir {d.dir_id}: dropped overlapping content run "
                    f"({start}, {count})",
                ))
                changed = True
                continue
            content_owner.update(range(start, start + count))
            kept.append((start, count))
        d.content_runs = kept
    # 3. Per-entry inode state.
    for d in dirs:
        for name, ino in list(d.entries.items()):
            inode = layout._inodes.get(ino)
            if inode is None:
                del d.entries[name]
                d.file_count = max(0, d.file_count - 1)
                actions.append(RepairAction(
                    "dangling-inode",
                    f"dir {d.dir_id}: dropped entry {name!r} -> lost inode {ino}",
                ))
                changed = True
                continue
            if inode.name != name:
                actions.append(RepairAction(
                    "inode-name-mismatch",
                    f"inode {ino}: reset name {inode.name!r} -> {name!r}",
                ))
                inode.name = name
                changed = True
            dir_id, offset = decode_ino(ino)
            if dir_id != d.dir_id:
                continue  # renamed-away id: home authority lies elsewhere
            expected = _embedded_home_of(layout, d, offset)
            if inode.home_block != expected:
                actions.append(RepairAction(
                    "orphan-home-block",
                    f"inode {ino}: re-homed {inode.home_block} -> {expected}",
                ))
                inode.home_block = expected
                inode.home_slot = offset % layout.slots_per_block
                changed = True
    return changed


def _repair_normal_pass(layout: NormalLayout, actions: list[RepairAction]) -> bool:
    changed = False
    mfs = layout.mfs
    for d in layout._dirs.values():
        for name, ino in list(d.entries.items()):
            inode = layout._inodes.get(ino)
            if inode is None:
                d.entry_block.pop(name, None)
                del d.entries[name]
                actions.append(RepairAction(
                    "dangling-inode",
                    f"dir {d.ino}: dropped entry {name!r} -> lost inode {ino}",
                ))
                changed = True
                continue
            expected = mfs.itable_block_of(ino)
            if (inode.home_block, inode.home_slot) != expected:
                actions.append(RepairAction(
                    "inode-home-mismatch",
                    f"inode {ino}: re-homed to itable "
                    f"{expected[0]}/{expected[1]}",
                ))
                inode.home_block, inode.home_slot = expected
                changed = True
            if d.entry_block.get(name) not in d.dentry_blocks:
                if not d.dentry_blocks:
                    layout._add_dentry_block(d)
                d.entry_block[name] = d.dentry_blocks[0]
                actions.append(RepairAction(
                    "entry-unknown-dentry-block",
                    f"dir {d.ino}: re-pointed entry {name!r} at block "
                    f"{d.dentry_blocks[0]}",
                ))
                changed = True
        # Rebuild per-block fill counts from the entry→block map (the
        # authoritative state after the fixes above).
        if len(d.fill) != len(d.dentry_blocks):
            d.fill = [0] * len(d.dentry_blocks)
            actions.append(RepairAction(
                "dentry-fill-mismatch", f"dir {d.ino}: resized fill vector"
            ))
            changed = True
        index = {b: i for i, b in enumerate(d.dentry_blocks)}
        counts = [0] * len(d.dentry_blocks)
        for block in d.entry_block.values():
            counts[index[block]] += 1
        if counts != d.fill:
            d.fill = counts
            actions.append(RepairAction(
                "entry-count-mismatch", f"dir {d.ino}: rebuilt fill counts"
            ))
            changed = True
    return changed


def shard_work(
    plane: DataPlane, mds: MetadataServer | None = None
) -> tuple[list[int], list[int]]:
    """Per-shard work volumes: extents seen by each data-plane shard and
    rows scanned by each metadata shard.

    Feeds the ``fig_fsck`` modeled-cost benchmark: with the per-item costs
    from :class:`repro.config.FsckParams`, the modeled parallel check time
    is the longest-processing-time-first makespan over these volumes.
    """
    scan = _scan_dataplane(plane)
    data = [int(len(spec.pos)) for spec in _plane_shard_specs(scan, plane)]
    meta: list[int] = []
    if mds is not None:
        layout = mds.layout
        if isinstance(layout, EmbeddedLayout):
            specs = _scan_embedded(layout)
        else:
            specs = _scan_normal(layout)
        for chunk in _chunked(specs, META_SHARD_DIRS):
            # one row per entry plus one per-directory structural pass
            meta.append(sum(len(d.rows) + 1 for d in chunk))
    return data, meta


# ---------------------------------------------------------------------------
# Online scrubbing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScrubStep:
    """Outcome of one online scrub step: which shard was visited, how many
    findings it surfaced, and how many repair actions were applied."""

    shard: str
    findings: int
    repaired: int


class Scrubber:
    """Incremental round-robin fsck over live state.

    Each :meth:`step` checks (and repairs) one shard — a single PAG of the
    data plane, or the metadata plane — so a service loop can interleave
    scrubbing with foreground traffic instead of stopping the world.  A
    full rotation over :attr:`shard_count` shards covers every invariant
    the offline checker tests; :meth:`full_check` runs the offline checker
    for a convergence verdict.
    """

    def __init__(
        self,
        plane: DataPlane,
        mds: MetadataServer | None = None,
        strict_accounting: bool = False,
    ) -> None:
        self.plane = plane
        self.mds = mds
        self.strict_accounting = strict_accounting
        self._next = 0
        self.shards_checked = 0
        self.findings_found = 0
        self.repairs_applied = 0
        self.cycles = 0

    @property
    def shard_count(self) -> int:
        return len(self.plane.fsm.groups) + (1 if self.mds is not None else 0)

    def step(self) -> ScrubStep:
        """Check/repair the next shard in rotation."""
        idx = self._next
        self._next = (self._next + 1) % self.shard_count
        if self._next == 0:
            self.cycles += 1
        self.shards_checked += 1
        if idx < len(self.plane.fsm.groups):
            return self._scrub_group(idx)
        return self._scrub_mds()

    def _scrub_group(self, g: int) -> ScrubStep:
        actions: list[RepairAction] = []
        scan = _scan_dataplane(self.plane, repair_actions=actions)
        nfind = len(actions)  # inline structural fixes count as findings too
        specs = [s for s in _plane_shard_specs(scan, self.plane) if s.gindex == g]
        for spec in specs:
            rep = _plane_shard_check(spec)
            dups = _resolve_double_owned(
                scan, sorted(int(p) for p in rep.overlap)
            )
            nfind += (
                len(rep.crosses) + len(rep.wrong) + len(rep.maps_free) + len(dups)
            )
            _apply_shard_repairs(self.plane, scan, rep, set(), actions)
        self.findings_found += nfind
        self.repairs_applied += len(actions)
        return ScrubStep(shard=f"pag-{g}", findings=nfind, repaired=len(actions))

    def _scrub_mds(self) -> ScrubStep:
        report = check_mds(self.mds)
        nfind = len(report.findings)
        repaired = 0
        if not report.clean:
            result = repair_mds(self.mds, max_passes=2)
            repaired = len(result.actions)
        self.findings_found += nfind
        self.repairs_applied += repaired
        return ScrubStep(shard="mds", findings=nfind, repaired=repaired)

    def full_check(self) -> FsckReport:
        """Offline-grade report over everything the scrubber covers."""
        report = check_dataplane(
            self.plane, strict_accounting=self.strict_accounting
        )
        if self.mds is not None:
            report = report.merge(check_mds(self.mds))
        return report
