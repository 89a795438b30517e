"""Span recording around public layer methods, patched in from outside.

A :class:`SpanRecorder` wraps methods of the ``repro`` layer classes so
that each call records one span: name, start, end, the enclosing span and
an op id.  Spans of one request share its op id: the outermost span whose
name is in :data:`OP_ROOTS` (a service arrival's ``sim.offer``, or a bare
``fs.write`` / ``meta.create`` when nothing encloses it) names it.  A call
into a span name that is already the innermost open span is folded into
it, so ``calls`` counts outermost calls and a method that recurses or
calls a sibling of the same span is not counted twice.

Nothing here touches ``repro.obs.Tracer``: enabling that tracer moves
``DiskArray.submit_batch`` off its vectorized path, so a pass traced that
way would measure a different program.  The wrappers only observe.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array
from collections.abc import Callable, Iterator
from pathlib import Path
from typing import Any

import numpy as np

from stats import percentile, self_times

#: (span name, module, class, methods) — the layer boundaries recorded.
SPAN_TARGETS: tuple[tuple[str, str, str, tuple[str, ...]], ...] = (
    ("workloads.phase", "repro.workloads.ior", "IORBenchmark", ("write_phase", "read_phase")),
    ("workloads.phase", "repro.workloads.btio", "BTIOBenchmark", ("write_phase", "read_phase")),
    (
        "workloads.phase", "repro.workloads.metarates", "MetaratesWorkload",
        ("run_create", "run_utime", "run_readdir_stat", "run_delete"),
    ),
    ("fs.write", "repro.fs.dataplane", "DataPlane", ("write",)),
    ("fs.read", "repro.fs.dataplane", "DataPlane", ("read",)),
    ("fs.close_file", "repro.fs.dataplane", "DataPlane", ("close_file",)),
    (
        "block.extent", "repro.block.extent", "ExtentMap",
        ("insert", "scan_write_range", "lookup_range", "physical_runs"),
    ),
    (
        "block.freespace", "repro.block.freespace", "FreeSpaceManager",
        ("allocate_in_group", "allocate_near", "allocate_exact", "free"),
    ),
    ("block.bitmap", "repro.block.bitmap", "BlockBitmap", ("find_free_run",)),
    ("disk.submit_batch", "repro.disk.array", "DiskArray", ("submit_batch",)),
    ("disk.submit_one", "repro.disk.disk", "SimulatedDisk", ("submit_one",)),
    ("disk.device", "repro.disk.disk", "SimulatedDisk", ("submit_batch", "submit_arrays")),
    ("cache.read_batch", "repro.disk.cache", "BufferCache", ("read_batch",)),
    ("cache.read", "repro.disk.cache", "BufferCache", ("read",)),
    ("meta.create", "repro.meta.mds", "MetadataServer", ("create",)),
    ("meta.utime", "repro.meta.mds", "MetadataServer", ("utime",)),
    ("meta.readdir_stat", "repro.meta.mds", "MetadataServer", ("readdir_stat",)),
    ("meta.delete", "repro.meta.mds", "MetadataServer", ("delete",)),
    ("meta.stat", "repro.meta.mds", "MetadataServer", ("stat",)),
    ("meta.checkpoint", "repro.meta.mds", "MetadataServer", ("checkpoint",)),
    ("meta.coalesce", "repro.meta.layout", "AccessPlan", ("coalesce",)),
    ("meta.journal", "repro.meta.journal", "Journal", ("log", "log_batch", "append")),
    ("sim.loop", "repro.sim.events", "EventLoop", ("run",)),
    ("sim.offer", "repro.sim.events", "Station", ("offer",)),
    ("sim.observe", "repro.sim.metrics", "Metrics", ("observe", "observe_array")),
    ("obs.layout", "repro.obs.layout", "LayoutInspector", ("inspect_dataplane", "inspect_mds")),
    ("obs.histogram", "repro.obs.histogram", "Histogram", ("observe", "observe_array")),
)

#: Span names that start a request; nested spans inherit its op id.
OP_ROOTS = frozenset({
    "sim.offer", "fs.write", "fs.read",
    "meta.create", "meta.utime", "meta.readdir_stat", "meta.delete", "meta.stat",
})

#: The span around one whole pass; its self time is the unattributed rest.
PASS_SPAN = "core.run"

#: Layers in report order; :func:`layer_of` maps span names onto them.
LAYERS = (
    "workloads", "fs", "alloc", "block", "disk", "disk.cache",
    "meta", "meta.journal", "sim", "obs", "core",
)


def layer_of(span: str) -> str:
    """The layer a span name belongs to."""
    if span.startswith("cache."):
        return "disk.cache"
    if span == "meta.journal":
        return "meta.journal"
    return span.split(".", 1)[0]


class Patches:
    """Class attributes replaced for a while and put back afterwards."""

    def __init__(self) -> None:
        self._saved: list[tuple[type, str, Any]] = []

    def replace(self, owner: type, attr: str, make: Callable[[Any], Any]) -> None:
        original = owner.__dict__[attr]  # KeyError: the method moved
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class SpanRecorder:
    """In-memory span table: five parallel arrays, one row per span."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []

    def _intern(self, span: str) -> int:
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
        return self._ids[span]

    def wrap(self, fn: Callable, span: str) -> Callable:
        """``fn`` with a span recorded around each outermost call."""
        nid = self._intern(span)
        root = span in OP_ROOTS
        name_a, parent_a, op_a = self.name, self.parent, self.op
        start_a, end_a, stack = self.start, self.end, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack:
                top = stack[-1]
                if name_a[top] == nid:
                    return fn(*args, **kwargs)
                op = op_a[top]
            else:
                top = op = -1
            idx = len(name_a)
            if op < 0 and root:
                op = idx
            name_a.append(nid)
            parent_a.append(top)
            op_a.append(op)
            end_a.append(0)
            stack.append(idx)
            start_a.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end_a[idx] = clock()
                stack.pop()

        return traced

    def wrap_generator(self, fn: Callable[..., Iterator], span: str) -> Callable:
        """``fn`` returning a generator whose every step records a span."""
        step = self.wrap(next, span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                try:
                    item = step(inner)
                except StopIteration:
                    return
                yield item

        return traced

    def install(self, patches: Patches) -> None:
        """Wrap every layer boundary of :data:`SPAN_TARGETS`."""
        for span, module, cls, methods in SPAN_TARGETS:
            owner = getattr(importlib.import_module(module), cls)
            for method in methods:
                patches.replace(owner, method, lambda fn, s=span: self.wrap(fn, s))
        from repro.alloc.base import AllocationPolicy
        import repro.alloc.registry  # noqa: F401  (imports every policy)

        pending = [AllocationPolicy]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if "allocate" in cls.__dict__ and cls is not AllocationPolicy:
                patches.replace(cls, "allocate", lambda fn: self.wrap(fn, "alloc.allocate"))
        from repro.workloads.service import ServiceWorkload

        patches.replace(
            ServiceWorkload, "events",
            lambda fn: self.wrap_generator(fn, "workloads.events"),
        )

    def table(self) -> dict[str, np.ndarray]:
        """The spans as numpy columns, with durations and self times in s."""
        start = np.array(self.start, dtype=np.int64)
        end = np.array(self.end, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int32)
        duration = (end - start) / 1e9
        return {
            "name": np.array(self.name, dtype=np.int32),
            "parent": parent,
            "op": np.array(self.op, dtype=np.int32),
            "start_ns": start,
            "end_ns": end,
            "duration_s": duration,
            "self_s": self_times(parent, duration),
        }

    def save(self, path: Path) -> None:
        """Write the span table out (``.npz`` plus the name list)."""
        cols = self.table()
        np.savez_compressed(
            path,
            names=np.array(json.dumps(self.names)),
            **{k: cols[k] for k in ("name", "parent", "op", "start_ns", "end_ns")},
        )


def summarize(recorder: SpanRecorder) -> dict[str, dict[str, float]]:
    """Per span name: calls, self seconds, and p50/p99 host µs per call.

    A percentile that is not resolved (see :func:`stats.percentile`)
    reads 0.0; ``calls`` says how many samples there were.
    """
    cols = recorder.table()
    out: dict[str, dict[str, float]] = {}
    for nid, span in enumerate(recorder.names):
        mask = cols["name"] == nid
        us = cols["duration_s"][mask] * 1e6
        p50 = percentile(us, 50.0, min_beyond=0)
        p99 = percentile(us, 99.0)
        out[span] = {
            "calls": int(mask.sum()),
            "self_s": float(cols["self_s"][mask].sum()),
            "us_p50": p50 if p50 is not None else 0.0,
            "us_p99": p99 if p99 is not None else 0.0,
        }
    return out


def layer_self_s(spans: dict[str, dict[str, float]]) -> dict[str, float]:
    """Self seconds summed per layer of :data:`LAYERS`."""
    totals = dict.fromkeys(LAYERS, 0.0)
    for span, agg in spans.items():
        totals[layer_of(span)] += agg["self_s"]
    return totals
