"""Host-time benchmark of the simulator: one workload per invocation.

    python3 perfbench/run.py --workload macro_io --seed 0 --seconds 20 --trace 0

Runs from the root of a checkout.  Starts ``SETUP_ONLY`` fresh processes
that only set up, then ``WORKERS`` that each time passes for an equal
share of ``--seconds`` (``worker.py``), one after another, and checks
every pass's simulated output.  The last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
with ``--trace 0`` the end-to-end metrics (medians over all timed passes
and, for ``setup_s`` and ``peak_rss_mb``, over the processes); with
``--trace 1`` the per-layer split from one extra traced pass.  Details —
every pass, the machine, the layer ranking — go to
``perfbench/out/<workload>-seed<n>-trace<t>.json``.

Exits 2 without a result when the checkout has no ``src/repro`` or a
worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCES = HERE / "references.json"

#: Fresh processes per run that time passes.
WORKERS = 3
#: Extra fresh processes that only set up; ``setup_s`` is the median of
#: all ``WORKERS + SETUP_ONLY`` set-up times.
SETUP_ONLY = 4
#: Seconds after which a worker has hung; all of them together stay under
#: the 180 s a whole run may take.
WORKER_TIMEOUT_S = 45
SETUP_TIMEOUT_S = 10


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def spawn_worker(args, budget: float, trace: bool = False, setup_only: bool = False) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--budget", repr(budget), "--trace", "1" if trace else "0",
        "--out", str(OUT), *(["--setup-only"] if setup_only else []),
    ]
    spawned = time.monotonic()
    proc = subprocess.run(
        [*cmd, "--spawned", repr(spawned)],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=SETUP_TIMEOUT_S if setup_only else WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return fail(f"no simulator source under {ROOT / 'src'}; run from a full checkout")
    import checks
    import machine
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    workers = []
    try:
        setups = [spawn_worker(args, 0.0, setup_only=True)["setup_s"] for _ in range(SETUP_ONLY)]
        for i in range(WORKERS):
            trace = bool(args.trace) and i == WORKERS - 1
            workers.append(spawn_worker(args, args.seconds / WORKERS, trace))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        return fail(str(exc))
    setups += [w["setup_s"] for w in workers]

    verdict = checks.verify(workload, args.seed, workers, REFERENCES)
    end_to_end = checks.end_to_end(workers, setups)
    if args.trace:
        report = checks.layer_report(workload, workers[-1])
        metrics = report["metrics"]
    else:
        report = None
        metrics = end_to_end
    detail = {
        "workload": workload.name,
        "why": workload.why,
        "runner": workload.runner,
        "scale": workload.scale,
        "kwargs": workload.kwargs,
        "seed": args.seed,
        "seeded_inputs": workload.seeded_inputs,
        "seconds": args.seconds,
        "machine": machine.describe(),
        "verdict": verdict,
        "workers": workers,
        "layers": report,
        "metrics": metrics,
        "end_to_end": end_to_end,
        "raw_host_time": checks.end_to_end(workers, setups, calibrated=False),
        "setup_samples_s": setups,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(detail, indent=1, default=str) + "\n")
    for line in checks.summary_lines(detail):
        print(line)
    print(json.dumps({
        "correct": verdict["correct"],
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
