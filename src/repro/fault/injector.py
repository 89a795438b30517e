"""The per-disk fault injector.

Attached to a :class:`~repro.disk.disk.SimulatedDisk`, the injector is a
filter on every scheduler-arranged batch, applied just before the batch is
timed: it walks the requests in dispatch order, applies the plan, and
tells the disk how many of them to service, how long each write really
was, and which fault to raise once those are billed.  The plan:

- **Crash points** fire once ``crash_after_requests`` requests have been
  serviced; the injector disarms itself so recovery code can run against
  the same disk without re-crashing.
- **Latent sector errors** make reads of affected blocks raise; a write
  covering a bad block heals it (the drive remaps the sector on overwrite).
- **Torn writes** truncate every Nth multi-block write to a strict prefix —
  the classic torn commit record of the journaling literature.  Single-
  block writes stay atomic.
"""

from __future__ import annotations

from repro.errors import CrashError, FaultError, LatentSectorError
from repro.fault.plan import FaultPlan
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer
from repro.sim.metrics import Metrics


class FaultInjector:
    """Applies one :class:`FaultPlan` to the batches a disk services."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.armed = True
        self.requests_seen = 0
        self.torn_writes = 0
        self.lse_errors = 0
        self.crashes = 0
        self._writes_seen = 0
        self._bad_blocks = plan.lse_blocks()
        #: Blocks actually persisted through this injector (torn prefixes
        #: included, truncated tails excluded) — the candidate set for
        #: :meth:`develop_lse`.
        self.written: set[int] = set()
        self.metrics: Metrics | None = None
        self.tracer: Tracer | NullTracer = NULL_TRACER
        self.disk_name = "disk"

    def bind(self, metrics: Metrics, tracer: Tracer | NullTracer, name: str) -> None:
        """Wire the injector into a disk's observability (done by
        :meth:`SimulatedDisk.attach_injector`)."""
        self.metrics = metrics
        self.tracer = tracer
        self.disk_name = name

    def disarm(self) -> None:
        """Stop injecting (recovery phases run against a quiet disk)."""
        self.armed = False

    @property
    def bad_blocks(self) -> frozenset[int]:
        """Unhealed latent-sector-error blocks."""
        return frozenset(self._bad_blocks)

    def develop_lse(self, blocks) -> int:
        """Mark ``blocks`` as latent sector errors *after* the fact.

        Real LSEs develop on media that already holds data — an error baked
        into the plan before the workload writes would be healed by the very
        write that put the data there.  Campaigns call this between their
        write and scrub phases with a seeded sample of :attr:`written`.
        Returns the number of newly-bad blocks.
        """
        added = set(blocks) - self._bad_blocks
        self._bad_blocks |= added
        if added:
            self._incr("fault.lse_developed", len(added))
        return len(added)

    def _incr(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.incr(name, amount)

    # -- the hook ----------------------------------------------------------
    def filter_batch(
        self, starts: list[int], nblocks: list[int], is_write: list[bool]
    ) -> tuple[list[int], FaultError | None]:
        """Apply the plan to one arranged batch, in dispatch order.

        Returns the (possibly torn) lengths of the leading requests to
        service and the fault to raise once they are billed, or ``None``.
        The requests are judged one by one, as the drive would meet them:
        a read is checked against the bad sectors the batch's earlier
        writes have already healed, a crash or a latent sector error cuts
        the batch before the offending request, and that request counts
        as seen only if it got past the crash point.
        """
        if not self.armed:
            return nblocks, None
        crash_after = self.plan.crash_after_requests
        torn_every = self.plan.torn_every
        bad_blocks = self._bad_blocks
        tracer = self.tracer
        lengths: list[int] = []
        for start, count, write in zip(starts, nblocks, is_write):
            if crash_after is not None and self.requests_seen >= crash_after:
                self.crashes += 1
                self.disarm()
                self._incr("fault.crashes")
                if tracer.enabled:
                    tracer.emit(
                        "fault", "crash", disk=self.disk_name, after=self.requests_seen
                    )
                return lengths, CrashError(
                    f"{self.disk_name}: injected crash after {self.requests_seen} requests"
                )
            self.requests_seen += 1
            self._incr("fault.requests")
            end = start + count
            if not write:
                bad = [b for b in range(start, end) if b in bad_blocks]
                if bad:
                    self.lse_errors += 1
                    self._incr("fault.lse_errors")
                    if tracer.enabled:
                        tracer.emit("fault", "lse", disk=self.disk_name, block=bad[0])
                    return lengths, LatentSectorError(
                        f"{self.disk_name}: latent sector error at block {bad[0]}"
                    )
                lengths.append(count)
                continue
            # Writes heal any bad sectors they overwrite (drive remap).
            healed = bad_blocks.intersection(range(start, end))
            if healed:
                bad_blocks.difference_update(healed)
                self._incr("fault.lse_healed", len(healed))
            if torn_every > 0 and count >= 2:
                self._writes_seen += 1
                if self._writes_seen % torn_every == 0:
                    keep = max(1, count // 2)
                    self.torn_writes += 1
                    self._incr("fault.torn_writes")
                    if tracer.enabled:
                        tracer.emit(
                            "fault",
                            "torn_write",
                            disk=self.disk_name,
                            start=start,
                            nblocks=count,
                            kept=keep,
                        )
                    end = start + keep
                    count = keep
            self.written.update(range(start, end))
            lengths.append(count)
        return lengths, None
