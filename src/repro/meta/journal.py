"""Metadata journal.

"To maintain the metadata integrity, journal was first sequentially done on
the disk, the reduction of disk access counts mainly comes from the
checkpoint operations" (§V.D.1).  The journal is a circular sequential
region: every metadata operation appends a commit block; dirty *home*
blocks accumulate separately and are flushed by periodic checkpoints (see
:class:`~repro.meta.mds.MetadataServer`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.disk.model import BlockRequest
from repro.errors import MetadataError


@dataclass(slots=True)
class JournalRecord:
    """One write-ahead record: which home blocks an operation dirties.

    ``block`` is the journal block where the commit record starts.  A
    record only becomes ``committed`` once its journal write reached the
    platter intact; torn or crashed commit writes leave it uncommitted and
    replay discards it (the operation never happened, durably).
    """

    seq: int
    block: int
    dirties: tuple[int, ...]
    committed: bool = False


class Journal:
    """Circular append-only commit region on the MDS disk.

    Two cooperating layers: :meth:`append` models the raw block traffic of
    commit records (the request sequences benchmarks time), while
    :meth:`log` / :meth:`commit` / :meth:`replay` implement write-ahead
    semantics over it for crash recovery.
    """

    def __init__(self, base_block: int, nblocks: int) -> None:
        if base_block < 0 or nblocks <= 0:
            raise MetadataError(f"invalid journal region: base={base_block} n={nblocks}")
        self.base_block = base_block
        self.nblocks = nblocks
        self._head = 0
        self.records_written = 0
        self._records: list[JournalRecord] = []
        self._seq = 0

    @property
    def head_block(self) -> int:
        """Next block the journal will write."""
        return self.base_block + self._head

    def append(self, nblocks: int = 1) -> list[BlockRequest]:
        """Append ``nblocks`` of commit records; returns the write requests.

        Wrapping produces two requests (tail + restart at base).
        """
        return [
            BlockRequest(start, count, is_write=True)
            for start, count in self._advance(nblocks)
        ]

    def _advance(self, nblocks: int) -> list[tuple[int, int]]:
        """Move the head past ``nblocks`` commit blocks; returns the
        ``(start, nblocks)`` spans written, one per wrap."""
        if nblocks <= 0:
            raise MetadataError(f"journal append of {nblocks} blocks")
        size = self.nblocks
        if nblocks > size:
            raise MetadataError(
                f"journal append of {nblocks} exceeds region of {size}"
            )
        self.records_written += nblocks
        head = self._head
        tail = size - head
        if nblocks < tail:
            self._head = head + nblocks
            return [(self.base_block + head, nblocks)]
        self._head = nblocks - tail
        if nblocks == tail:
            return [(self.base_block + head, nblocks)]
        return [(self.base_block + head, tail), (self.base_block, nblocks - tail)]

    # -- write-ahead records --------------------------------------------------
    def log(
        self, dirties: list[int] | tuple[int, ...], nblocks: int = 1
    ) -> tuple[JournalRecord, list[tuple[int, int]]]:
        """Start a write-ahead record for an operation dirtying ``dirties``.

        Returns the (uncommitted) record plus its commit-block write spans
        as ``(start, nblocks)`` pairs, one per wrap of the circular region;
        the caller writes them and, if they all reached the disk intact,
        acknowledges with :meth:`commit`.
        """
        record = JournalRecord(self._seq, self.base_block + self._head, tuple(dirties))
        self._seq += 1
        self._records.append(record)
        return (record, self._advance(nblocks))

    def log_batch(
        self, entries
    ) -> tuple[list[JournalRecord], list[tuple[int, int]], list[tuple[int, int]]]:
        """Write-ahead records for a sequence of ``(dirties, nblocks)``
        operations: per-record :meth:`log` calls, concatenated.

        Returns ``(records, spans, slices)``: the records in entry order,
        the flat commit-write span list, and ``slices[i] = (lo, hi)``
        indexing the spans of ``records[i]``.  Commit writes are never
        merged or reordered across records, so torn-commit semantics stay
        per record.
        """
        records: list[JournalRecord] = []
        spans: list[tuple[int, int]] = []
        slices: list[tuple[int, int]] = []
        for dirties, nblocks in entries:
            record, own = self.log(dirties, nblocks)
            records.append(record)
            slices.append((len(spans), len(spans) + len(own)))
            spans += own
        return (records, spans, slices)

    def commit(self, record: JournalRecord) -> None:
        """Mark ``record`` durable (its commit write hit the platter)."""
        record.committed = True

    def replay(self) -> list[JournalRecord]:
        """Committed records since the last truncation, in commit order.

        Uncommitted (torn / crashed) records are *not* returned: their
        operations never became durable, so recovery must not redo them.
        """
        return [r for r in self._records if r.committed]

    def pending_records(self) -> list[JournalRecord]:
        """Records whose commit write never completed intact."""
        return [r for r in self._records if not r.committed]

    def truncate(self) -> None:
        """Drop all records (checkpoint made their effects durable)."""
        self._records.clear()
