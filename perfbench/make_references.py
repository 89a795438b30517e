"""Regenerate ``references.json``: the digest each pass must render.

    PYTHONPATH=src python3 perfbench/make_references.py [--seeds 100]

Run it after a change that is meant to alter simulated results, or after
changing a workload's configuration in ``workloads.py``; a run whose
configuration no longer matches the stored one fails its output check.
Workloads whose inputs ignore the seed get one digest; the others get
one per seed in ``range(--seeds)``.  A seed outside that range is
checked for agreement between its own passes instead.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from workloads import WORKLOADS, digest

REFERENCES = Path(__file__).resolve().parent / "references.json"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=100)
    ap.add_argument("--workload", action="append", help="only these (default: all)")
    args = ap.parse_args()

    from repro.core.run import run

    refs = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    refs.setdefault("config", {})
    refs.setdefault("digests", {})
    for name in args.workload or sorted(WORKLOADS):
        w = WORKLOADS[name]
        seeds = range(args.seeds) if w.seeded_inputs else range(1)
        digests = {}
        for seed in seeds:
            result = run(w.runner, scale=w.scale, seed=seed, jobs=1, **w.kwargs)
            digests[str(seed) if w.seeded_inputs else "any"] = digest(w, result, seed)
        refs["config"][name] = {"runner": w.runner, "scale": w.scale, "kwargs": w.kwargs}
        refs["digests"][name] = digests
        print(f"{name}: {len(digests)} digest(s)")
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
