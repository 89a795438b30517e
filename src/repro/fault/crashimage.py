"""Deterministic crashed-image builder for the fsck benchmarks.

The parallel-fsck work (docs/FSCK.md) needs the same damaged file system in
two places — the ``fig_fsck`` runner's sweep cells and the ``fsck`` CLI
verb — and the bench documents are byte-identity gated, so the image must
be a pure function of ``(scale, seed, layout)``.  :func:`build_crashed_image`
populates a data plane and an MDS with a seeded workload, then hands both
to the structural :class:`~repro.fault.corrupt.Corruptor`.  Every random
choice comes from :func:`repro.rng.derive_rng` streams keyed by the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import FSConfig
from repro.fs.dataplane import DataPlane
from repro.fs.profiles import redbud_mif_profile
from repro.fs.stream import make_stream_id
from repro.fault.corrupt import Corruptor
from repro.meta.mds import MetadataServer
from repro.rng import derive_rng
from repro.units import KiB


def _scaled(value: int, scale: float, floor: int = 1) -> int:
    return max(floor, int(value * scale))


@dataclass
class CrashedImage:
    """A populated, Corruptor-damaged file system ready for fsck."""

    plane: DataPlane
    mds: MetadataServer
    #: Finding codes the corruptor aimed for (what fsck should surface).
    injected: list[str]
    nfiles: int
    ndirs: int

    @property
    def extents(self) -> int:
        """Mapped data-plane extents — the check work volume."""
        return sum(
            sum(len(list(smap)) for smap in f.maps) for f in self.plane.files()
        )

    @property
    def inodes(self) -> int:
        """Live MDS inodes — the metadata check work volume."""
        return len(self.mds.layout._inodes)


def build_crashed_image(
    *,
    scale: float = 1.0,
    seed: int = 0,
    layout: str = "embedded",
    data_faults: int = 4,
    meta_faults: int = 4,
    cfg: FSConfig | None = None,
) -> CrashedImage:
    """Populate a data plane and MDS, then damage both structurally.

    The population mirrors the shape the service mode produces — many
    small-to-medium files spread over a directory tree — scaled down by
    ``scale``.  ``data_faults`` / ``meta_faults`` bound the corruptions per
    plane (the corruptor may apply fewer when a draw finds no target).
    """
    if cfg is None:
        cfg = redbud_mif_profile()
    if cfg.meta.layout != layout:
        cfg = cfg.with_layout(layout)
    rng = derive_rng(seed, "fault", "crashimage")

    plane = DataPlane(cfg)
    nfiles = _scaled(60, scale, floor=8)
    for i in range(nfiles):
        f = plane.create_file(f"img{i:04d}")
        nbytes = int(rng.integers(1, 24)) * 16 * KiB
        plane.write(f, make_stream_id(i % 8, 0), 0, nbytes)
        plane.fsync(f)

    mds = MetadataServer(cfg)
    ndirs = _scaled(8, scale, floor=2)
    per_dir = _scaled(30, scale, floor=4)
    dirs = [mds.mkdir(mds.root, f"d{i:02d}") for i in range(ndirs)]
    for d in dirs:
        for j in range(per_dir):
            mds.create(d, f"f{j:04d}")

    corruptor = Corruptor(seed)
    injected = corruptor.corrupt_dataplane(plane, nfaults=data_faults)
    injected += corruptor.corrupt_mds(mds, nfaults=meta_faults)
    return CrashedImage(
        plane=plane, mds=mds, injected=injected, nfiles=nfiles, ndirs=ndirs
    )
