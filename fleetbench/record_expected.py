"""Record the expected simulated outputs the output check compares against.

Usage (from the repository root)::

    python3 fleetbench/record_expected.py --seeds 0-31

Runs each scenario once per seed on the serial executor, for as many
epochs as a run of ``BENCHMARK.json``'s ``run_seconds`` times, and
writes ``fleetbench/expected/<scenario>.json``.  ``steady-serial`` and
``service-process`` share the ``steady`` scenario (the process executor
is bit-identical to serial), so only ``steady-serial`` and
``churn-interference`` are run.  Re-record only when a change is meant
to alter what the fleet decides; a change that only makes it faster
must leave these files untouched.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from fleetbench.harness import run_workload  # noqa: E402
from fleetbench.outputs import write_expected  # noqa: E402
from fleetbench.workloads import WORKLOADS  # noqa: E402

RECORDED = ("steady-serial", "churn-interference")


def _seeds(spec: str):
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-31 or 0,5,7")
    args = parser.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    for name in RECORDED:
        workload = WORKLOADS[name]
        entries = {}
        for seed in _seeds(args.seeds):
            result = run_workload(workload, seed, seconds, setups=1, snapshots=0)
            if not result.correct:
                print(f"{name} seed {seed}: run failed, not recorded", file=sys.stderr)
                return 1
            entries[seed] = {"epochs": result.fingerprints, "final": result.final}
            print(f"{name} seed {seed}: {result.final}", flush=True)
        write_expected(workload.scenario_key, entries)
    return 0


if __name__ == "__main__":
    sys.exit(main())
