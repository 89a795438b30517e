"""The machine a run was measured on, and how fast it is running now.

The calibration kernel is a fixed pure-Python loop shaped like the
simulator's inner loops.  Its time follows the interpreter's speed on
this CPU *at this moment*: on a shared host it slows when co-tenants load
the same core, and it slows with the simulator.  Workers time it between
passes and scale each pass's rate to :data:`REFERENCE_CALIBRATION_S`, so
the reported rates cancel most of the host's drift; the raw rates are
kept in the detail file.  Across machines it makes ledgers roughly
comparable.
"""

from __future__ import annotations

import heapq
import os
import platform
import time


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b

    def step(self, x: int) -> int:
        return (self.a * x + self.b) & 0xFFFF


def calibration_kernel() -> int:
    """Fixed pure-Python work shaped like the simulator's inner loops:
    small objects, method calls, dict stores and a heap."""
    cells = [_Cell(i, i * 7) for i in range(2000)]
    table: dict[int, _Cell] = {}
    heap: list[tuple[int, int]] = []
    acc = 0
    for _ in range(40):
        for cell in cells:
            acc = cell.step(acc)
            table[acc & 4095] = cell
        for i in range(500):
            heapq.heappush(heap, (acc ^ i, i))
        while heap:
            heapq.heappop(heap)
    return acc + len(table)


#: Calibration seconds of the machine the rates are scaled to: the median
#: reading on a shared 2-vCPU Intel Xeon VM with Python 3.11.
REFERENCE_CALIBRATION_S = 0.030


def calibration_s(repeats: int = 3) -> float:
    """Median seconds of :func:`calibration_kernel` over ``repeats`` runs."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        calibration_kernel()
        times.append(time.perf_counter() - t0)
    return sorted(times)[len(times) // 2]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def describe() -> dict[str, object]:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "calibration_s": calibration_s(),
    }
