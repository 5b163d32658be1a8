"""Self-test of the benchmark harness at tiny scale (~1 minute).

Usage (from the repository root)::

    python3 fleetbench/selftest.py

Checks, in fresh interpreters as the benchmark is run: every workload
prints every end-to-end and per-layer metric of BENCHMARK.json with its
unit; a shell's telemetry and fault-plan settings are ignored; the
self-time table adds up to epoch wall time and the Chrome trace loads;
the output check trips on a perturbed fingerprint and tolerates
distance noise below its stated tolerance; service-process reproduces
steady-serial's outputs; the recorded expected outputs are complete;
and without the program's sources the driver exits non-zero without a
result.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import copy
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from fleetbench.harness import run_workload  # noqa: E402
from fleetbench.outputs import EXPECTED_DIR, HELD_OUT_SEED, OutputCheck  # noqa: E402
from fleetbench.tracing import PER_LAYER  # noqa: E402
from fleetbench.workloads import WORKLOADS  # noqa: E402

RUN = [sys.executable, "fleetbench/run.py", "--seed", "0", "--seconds", "1", "--scale", "tiny"]
#: Would kill worker 0 at epoch 2 if the driver did not clear it.
KILL_PLAN = json.dumps({"faults": [{"kind": "kill", "worker": 0, "epoch": 2}]})


def _fail(message: str) -> None:
    raise SystemExit(f"selftest FAILED: {message}")


def _drive(workload: str, trace: int, cwd: Path = ROOT, env=None):
    proc = subprocess.run(
        RUN + ["--workload", workload, "--trace", str(trace)],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    return proc


def check_metrics(benchmark: dict) -> None:
    e2e = {m["name"]: m["unit"] for m in benchmark["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
    if layers != {name: unit for name, unit, _ in PER_LAYER}:
        _fail("BENCHMARK.json per_layer differs from tracing.PER_LAYER")
    env = dict(os.environ, REPRO_FLEET_PROFILE="1", REPRO_FLEET_FAULT_PLAN=KILL_PLAN)
    for name in WORKLOADS:
        for trace, want in ((0, e2e), (1, layers)):
            proc = _drive(name, trace, env=env)
            if proc.returncode != 0:
                _fail(f"{name} --trace {trace} exited {proc.returncode}: {proc.stderr[-2000:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                _fail(f"{name}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                _fail(f"{name} --trace {trace}: {result} {proc.stderr[-2000:]}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                _fail(f"{name} --trace {trace}: metrics {got}, want {want}")
            if trace:
                check_trace_output(name, proc.stdout)
        print(f"ok: {name} prints every metric with its unit")


def check_trace_output(name: str, stdout: str) -> None:
    total = re.search(r"^\s+sum\s+([\d.]+)$", stdout, re.M)
    wall = re.search(r"^\s+epoch wall\s+([\d.]+)$", stdout, re.M)
    if not total or not wall or abs(float(total[1]) - float(wall[1])) > 0.002:
        _fail(f"{name}: self-time table does not add up to epoch wall time")
    trace_path = ROOT / ".fleetbench_out" / f"{name}-seed0.trace.json"
    events = json.loads(trace_path.read_text())["traceEvents"]
    spans = [e for e in events if e.get("ph") == "X"]
    if not spans or not all({"epoch"} <= set(e["args"]) for e in spans):
        _fail(f"{name}: Chrome trace has no spans with epoch ids")
    if not any(e["name"] == "epoch" for e in spans):
        _fail(f"{name}: Chrome trace has no epoch root spans")


def check_output_check() -> None:
    workload = WORKLOADS["steady-serial"].tiny()
    reference = run_workload(workload, 3, 1, setups=1, snapshots=1)
    expected = {"epochs": reference.fingerprints, "final": reference.final}

    same = run_workload(workload, 3, 1, check=OutputCheck(copy.deepcopy(expected)))
    if not same.correct:
        _fail(f"identical rerun failed the output check: {same.problems}")

    noisy = copy.deepcopy(expected)
    noisy["epochs"][-1][2] *= 1 + 1e-9
    if not run_workload(workload, 3, 1, check=OutputCheck(noisy)).correct:
        _fail("distance noise below the tolerance tripped the output check")

    for index, value in ((1, "deadbeef"), (2, None)):
        perturbed = copy.deepcopy(expected)
        entry = perturbed["epochs"][workload.warmup_epochs + 2]
        entry[index] = value if value is not None else entry[index] * (1 + 1e-3)
        result = run_workload(workload, 3, 1, check=OutputCheck(perturbed))
        if result.correct or result.failed != result.attempted:
            _fail(f"perturbed fingerprint field {index} was not caught")

    perturbed = copy.deepcopy(expected)
    perturbed["final"]["analyzer_runs"] += 1
    if run_workload(workload, 3, 1, check=OutputCheck(perturbed)).correct:
        _fail("perturbed analyzer_runs was not caught")

    process = run_workload(WORKLOADS["service-process"].tiny(), 3, 1, check=OutputCheck(expected))
    if not process.correct:
        _fail(f"service-process diverged from steady-serial: {process.problems}")
    print("ok: output check trips on perturbed fingerprints; process == serial")


def check_expected(benchmark: dict) -> None:
    seconds = benchmark["run_seconds"]
    for key, name in (("steady", "steady-serial"), ("churn", "churn-interference")):
        workload = WORKLOADS[name]
        epochs = workload.warmup_epochs + workload.epochs_for(seconds)
        seeds = json.loads((EXPECTED_DIR / f"{key}.json").read_text())["seeds"]
        if str(HELD_OUT_SEED) not in seeds:
            _fail(f"{key}: held-out seed {HELD_OUT_SEED} not recorded")
        for seed, entry in seeds.items():
            if len(entry["epochs"]) != epochs:
                _fail(f"{key} seed {seed}: {len(entry['epochs'])} epochs, want {epochs}")
    print(f"ok: expected outputs recorded for {len(seeds)} seeds per scenario")


def check_without_sources() -> None:
    bare = ROOT / ".fleetbench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(
        ROOT / "fleetbench", bare / "fleetbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    proc = _drive("steady-serial", 0, cwd=bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        _fail("driver without program sources exited 0 or printed a result")
    print("ok: without program sources the driver fails without a result")


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_expected(benchmark)
    check_output_check()
    check_metrics(benchmark)
    check_without_sources()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
