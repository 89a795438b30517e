"""One fresh process running one workload: set up, pass repeatedly, check.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``; prints one JSON object as its last stdout line.  ``--spawned``
is the parent's ``time.monotonic()`` just before it started this process
(``CLOCK_MONOTONIC`` is system-wide), so set-up time counts interpreter
start, the imports and the first pass's construction up to its first
timed op.

Pass 0 is the warm-up: checked, but not timed into the rates.  Further
passes run until ``--budget`` seconds have gone by (at least
``MIN_TIMED`` of them), with the calibration kernel of :mod:`machine`
timed between them.  With ``--trace 1`` one more pass runs under the
span wrappers of :mod:`spans`; it must render the same digest and
``io_profile`` as the untraced passes.  With ``--setup-only`` the worker
reports its set-up time and exits at the first timed op: a cheap extra
set-up sample.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

#: Timed passes a worker makes even when one pass outlasts its budget.
MIN_TIMED = 2


def one_pass(workload, seed, probe):
    """Run the workload once; returns (RunResult, wall seconds)."""
    from repro.core.run import run

    probe.reset()
    t0 = time.perf_counter()
    result = run(workload.runner, scale=workload.scale, seed=seed, jobs=1, **workload.kwargs)
    return result, time.perf_counter() - t0


def pass_record(workload, seed, probe, result, wall):
    from workloads import counts, digest, invariant_failures

    rec = {
        "wall_s": wall,
        "digest": digest(workload, result, seed),
        "io_profile": probe.io_profile(),
        "failures": invariant_failures(workload, result, probe),
        **counts(workload, result, probe),
    }
    if workload.runner == "service":
        rec["write_s"] = rec["read_s"] = wall
    else:
        rec["write_s"] = sum(p.wall_s for p in probe.phases if p.mutating)
        rec["read_s"] = sum(p.wall_s for p in probe.phases if not p.mutating)
    return rec


def traced_pass(workload, seed, probe, out_dir: Path) -> tuple[dict, dict]:
    """One pass under span wrappers; returns (pass record, layer report)."""
    import spans as sp

    recorder = sp.SpanRecorder()
    patches = sp.Patches()
    recorder.install(patches)
    try:
        result, wall = recorder.wrap(one_pass, sp.PASS_SPAN)(workload, seed, probe)
    finally:
        patches.restore()
    rec = pass_record(workload, seed, probe, result, wall)
    out_dir.mkdir(parents=True, exist_ok=True)
    recorder.save(out_dir / f"spans_{workload.name}.npz")
    report = {
        "spans": sp.summarize(recorder),
        "span_count": len(recorder.name),
        "counters": dict(result.metrics.counters),
        "stations": (
            {
                name: {"offered": st.offered, "dropped": st.dropped}
                for name, st in result.payload.cells[0].stations.items()
            }
            if workload.runner == "service"
            else {}
        ),
    }
    return rec, report


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--budget", type=float, required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument(
        "--setup-only", action="store_true",
        help="report set-up time and exit at the first timed op",
    )
    args = ap.parse_args(argv)

    from repro.core.run import runner_names

    import spans
    from machine import calibration_s
    from workloads import WORKLOADS, PassProbe

    runner_names()  # load the registry: part of set-up
    workload = WORKLOADS[args.workload]
    probe = PassProbe()
    probe.install(spans.Patches())  # stays on for the life of the process
    if args.setup_only:

        def report_and_exit() -> None:
            print(json.dumps({"setup_s": probe.first_op - args.spawned}), flush=True)
            os._exit(0)

        probe.on_first_op = report_and_exit

    result, wall = one_pass(workload, args.seed, probe)
    setup_s = probe.first_op - args.spawned
    warmup = pass_record(workload, args.seed, probe, result, wall)
    del result
    # The calibration kernel runs between passes; each timed pass carries
    # the mean of the readings on either side of it.
    cal = calibration_s()
    timed = []
    t_start = time.perf_counter()
    while len(timed) < MIN_TIMED or time.perf_counter() - t_start < args.budget:
        result, wall = one_pass(workload, args.seed, probe)
        rec = pass_record(workload, args.seed, probe, result, wall)
        del result
        after = calibration_s()
        rec["calibration_s"] = (cal + after) / 2
        cal = after
        timed.append(rec)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "warmup": warmup,
        "timed": timed,
    }
    if args.trace:
        rec, report = traced_pass(workload, args.seed, probe, args.out)
        report["overhead"] = rec["wall_s"] / statistics.median(p["wall_s"] for p in timed) - 1.0
        out["traced"] = rec
        out["layers"] = report
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
