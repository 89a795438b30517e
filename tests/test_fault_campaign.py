"""The seeded fault campaign is pinned: same faults, same recovery, same books.

``repro faults`` exits 0 whenever repairs converge, so its exit status alone
would not notice a change in *which* faults fired or what the disks billed.
These values were captured from the campaign before the fault injector
became a batch filter; any change to the injector, the disk kernels or the
MDS recovery that moves them has changed the simulated outcome.
"""

from __future__ import annotations

import pytest

from repro import run

CAMPAIGNS = {
    # scale 0.2, seed 0: the CLI smoke run (the crash point is not reached).
    (0, 0.2): dict(
        payload=dict(
            crash_after_requests=35,
            injected_lse=1,
            injected_torn=1,
            injected_crashes=0,
            replayed_records=0,
            discarded_records=0,
            scrub_healed=1,
            corruptions=[
                "double-owned-block", "extent-wrong-pag", "extent-maps-free",
                "dangling-inode", "gdt-unresolvable", "inode-name-mismatch",
            ],
        ),
        repairs=dict(
            mds=(1, True, ["dangling-inode", "inode-name-mismatch",
                           "dir-missing-from-gdt", "gdt-unresolvable"], 3),
            plane=(1, True, ["extent-wrong-pag", "extent-wrong-pag",
                             "extent-maps-free", "double-owned-block"], 2),
        ),
        counters={
            "disk.blocks": 486, "disk.positionings": 25, "disk.read_blocks": 197,
            "disk.read_requests": 8, "disk.requests": 62, "disk.write_blocks": 289,
            "disk.write_requests": 54, "fault.lse_developed": 6,
            "fault.lse_errors": 1, "fault.lse_healed": 6, "fault.requests": 42,
            "fault.torn_writes": 1, "mds.checkpoint_blocks": 6,
            "mds.checkpoints": 1, "mds.crash_recoveries": 1,
            "mds.journal_writes": 35, "mds.op.create": 32, "mds.op.mkdir": 3,
            "mds.replayed_records": 0,
        },
    ),
    # scale 0.5, seed 3: the crash fires, a torn commit is discarded.
    (3, 0.5): dict(
        payload=dict(
            crash_after_requests=54,
            injected_lse=1,
            injected_torn=2,
            injected_crashes=1,
            replayed_records=49,
            discarded_records=1,
            scrub_healed=1,
            corruptions=[
                "extent-wrong-pag", "extent-maps-free", "extent-maps-free",
                "dangling-inode", "orphan-home-block", "gdt-unresolvable",
            ],
        ),
        repairs=dict(
            mds=(1, True, ["orphan-home-block", "dir-missing-from-gdt",
                           "dangling-inode", "gdt-unresolvable"], 3),
            plane=(1, True, ["extent-maps-free", "extent-wrong-pag",
                             "extent-maps-free"], 2),
        ),
        counters={
            "disk.blocks": 825, "disk.positionings": 31, "disk.read_blocks": 379,
            "disk.read_requests": 14, "disk.requests": 109, "disk.write_blocks": 446,
            "disk.write_requests": 95, "fault.crashes": 1,
            "fault.lse_developed": 5, "fault.lse_errors": 1, "fault.lse_healed": 5,
            "fault.requests": 63, "fault.torn_writes": 2,
            "mds.checkpoint_blocks": 8, "mds.checkpoints": 1,
            "mds.crash_recoveries": 1, "mds.discarded_records": 1,
            "mds.journal_writes": 70, "mds.op.create": 67, "mds.op.mkdir": 3,
            "mds.replayed_records": 49,
        },
    ),
}


@pytest.mark.parametrize("seed, scale", sorted(CAMPAIGNS))
def test_fault_campaign_is_pinned(seed, scale):
    want = CAMPAIGNS[(seed, scale)]
    result = run("faults", scale=scale, seed=seed)
    p = result.payload
    assert p.seed == seed
    assert {k: getattr(p, k) for k in want["payload"]} == want["payload"]
    repairs = {
        name: (rep.passes, rep.converged, [f.code for f in rep.before.findings],
               len(rep.actions))
        for name, rep in (("mds", p.mds_repair), ("plane", p.plane_repair))
    }
    assert repairs == want["repairs"]
    counters = result.metrics.counters
    assert {
        k: v for k, v in counters.items() if k.split(".")[0] in ("fault", "disk", "mds")
    } == want["counters"]
