"""Rewrite ``perfbench/goldens.json`` from fresh pricing reps.

Usage (from the repository root)::

    python3 perfbench/make_goldens.py

Run it only when a change is meant to alter simulated results (a
``SIM_VERSION`` or ``WORKLOAD_VERSION`` bump), and say so in the change.
The sweep golden comes from a ``--jobs 1`` rep; ``sweep-jobs2`` is held
to the same digest.
"""

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import pricing  # noqa: E402
import run  # noqa: E402


def main():
    goldens = {}
    runs = [("sweep", 0)] + [("explore", seed)
                             for seed in range(len(pricing.EXPLORE_SEEDS))]
    scratch = os.path.join(run.ROOT, ".perfbench_work")
    os.makedirs(scratch, exist_ok=True)
    for workload, seed in runs:
        with tempfile.TemporaryDirectory(dir=scratch) as work:
            record = run.run_rep(workload, seed, os.path.join(work, "rep"),
                                 "full")
        goldens[pricing.golden_key(workload, seed)] = record["digest"]
        print(workload, seed, record["digest"])
    os.rmdir(scratch)
    with open(pricing.GOLDENS, "w") as handle:
        json.dump(goldens, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
