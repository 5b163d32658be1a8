"""Fleet benchmark driver: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 fleetbench/run.py --workload steady-serial --seed 0 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
workload untraced and then traced, prints the per-layer self-time table,
writes a Chrome trace under ``.fleetbench_out/`` and prints every
per-layer metric.  The last stdout line is always the JSON result.
``--scale tiny`` shrinks the workload to a few epochs for the self-test.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: ``(name, unit, better)`` of the end-to-end metrics (bounds live in
#: BENCHMARK.json).
END_TO_END = (
    ("vm_epochs_per_s", "VM-epoch/s", "higher"),
    ("epoch_ms_p50", "ms", "lower"),
    ("epoch_ms_p90", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("episode_recall", "ratio", "higher"),
    ("analyzer_runs", "count", "lower"),
    ("sandbox_profile_s_sim", "s_sim", "lower"),
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    return parser.parse_args(argv)


def _import_program():
    """Put the checkout's ``src/`` first on the path; refuse any other copy."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"fleetbench: no program sources at {src}")
    sys.path[:0] = [str(src), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"fleetbench: imported repro from {repro.__file__}, not {src}")


def _p90(values):
    return statistics.quantiles(values, n=10)[-1]


def end_to_end(result) -> dict:
    epochs = result.epoch_seconds
    return {
        "vm_epochs_per_s": result.observations / sum(epochs),
        "epoch_ms_p50": 1e3 * statistics.median(epochs),
        "epoch_ms_p90": 1e3 * _p90(epochs),
        "setup_s": statistics.median(result.setup_seconds),
        "peak_rss_mb": result.peak_rss_mb,
        "episode_recall": float(result.final.get("episode_recall", 0.0)),
        "analyzer_runs": float(result.final.get("analyzer_runs", 0)),
        "sandbox_profile_s_sim": float(result.final.get("sandbox_profile_s_sim", 0.0)),
    }


def per_layer(workload, untraced, traced, tracer) -> dict:
    """Per-layer metrics of the traced run (see ``tracing.PER_LAYER``)."""
    from fleetbench.tracing import format_table, process_breakdown

    n = max(tracer.epochs, 1)
    ms = {name: 1e3 * seconds / n for name, seconds in tracer.self_seconds.items()}
    calls = tracer.calls
    metrics = {
        "hardware.simulate_ms": ms.get("hardware.simulate", 0.0),
        "virt.demand_ms": ms.get("virt.demand", 0.0),
        "virt.cluster_ms": ms.get("virt.cluster", 0.0),
        "metrics.ingest_calls": calls.get("metrics.ingest", 0) / n,
        "metrics.ingest_ms": ms.get("metrics.ingest", 0.0),
        "metrics.window_ms": ms.get("metrics.window", 0.0),
        "metrics.normalise_ms": ms.get("metrics.normalise", 0.0),
        "clustering.distance_ms": ms.get("clustering.distance", 0.0),
        "core.warning_ms": ms.get("core.warning", 0.0),
        "core.decision_checks": tracer.decision_checks / n,
        "core.deepdive_ms": ms.get("core.deepdive", 0.0),
        "fleet.report_build_ms": ms.get("fleet.report_build", 0.0),
        "fleet.executor_ms": ms.get("fleet.executor", 0.0),
        "core.analyzer_ms": ms.get("core.analyzer", 0.0),
        "core.analyzer_calls": float(calls.get("core.analyzer", 0)),
        "core.analyzer_confirm_ratio": _ratio(
            tracer.analyzer_confirmed, calls.get("core.analyzer", 0)
        ),
        "virt.sandbox_ms": ms.get("virt.sandbox", 0.0),
        "core.placement_ms": ms.get("core.placement", 0.0),
        "core.migration_accept_ratio": _ratio(
            tracer.migrations_accepted, calls.get("core.placement", 0)
        ),
        "fleet.lifecycle_ms": ms.get("fleet.lifecycle", 0.0),
        "fleet.admission_reject_ratio": _ratio(
            traced.admission[1], traced.admission[0] + traced.admission[1]
        ),
        "fleet.dispatch_wait_ms": 0.0,
        "fleet.merge_ms": 0.0,
        "fleet.descriptor_bytes": traced.descriptor_bytes / n,
        "fleet.worker_busy_pct": 0.0,
        "fleet.worker_simulate_ms": 0.0,
        "fleet.worker_monitor_ms": 0.0,
        "fleet.worker_lifecycle_ms": 0.0,
        "fleet.snapshot_bytes": float(statistics.median(traced.snapshot_bytes)),
        "fleet.snapshot_ms": 1e3 * statistics.median(traced.snapshot_seconds),
    }
    wall_ms = 1e3 * tracer.epoch_seconds / n
    unattributed_ms = 1e3 * tracer.unattributed_seconds / n
    rows = tracer.layer_rows()
    if traced.registry_spans:
        walls = dict(enumerate(traced.epoch_seconds, start=workload.warmup_epochs))
        parts = process_breakdown(traced.registry_spans, walls, os.getpid())
        for key in ("fleet.dispatch_wait", "fleet.merge") + tuple(
            f"fleet.worker_{kind}" for kind in ("lifecycle", "simulate", "monitor")
        ):
            metrics[f"{key}_ms"] = 1e3 * parts.get(key, 0.0) / n
        metrics["fleet.worker_busy_pct"] = 100.0 * _ratio(
            parts.get("worker_compute", 0.0), parts["workers"] * parts["wall"]
        )
        # The parent runs no layer code of its own: the table is the
        # critical worker's phases, dispatch wait, merge and the rest.
        rows = [
            (key, 1e3 * parts.get(key, 0.0) / n, 1.0)
            for key in (
                "fleet.worker_lifecycle",
                "fleet.worker_simulate",
                "fleet.worker_monitor",
                "fleet.dispatch_wait",
                "fleet.merge",
            )
        ]
        unattributed_ms = 1e3 * parts.get("unattributed", 0.0) / n
    metrics["trace.unattributed_pct"] = 100.0 * _ratio(unattributed_ms, wall_ms)
    untraced_p50 = statistics.median(untraced.epoch_seconds)
    traced_p50 = statistics.median(traced.epoch_seconds)
    metrics["trace.overhead_pct"] = 100.0 * (traced_p50 / untraced_p50 - 1.0)
    print(format_table(workload.name, rows, unattributed_ms, wall_ms))
    return metrics


def _ratio(numerator, denominator) -> float:
    return float(numerator) / float(denominator) if denominator else 0.0


def _measure(args, workload, check):
    """Run the workload once (``--trace 0``) or untraced then traced."""
    from fleetbench.harness import run_workload
    from fleetbench.tracing import PER_LAYER, Tracer, export_chrome_trace

    if args.trace:
        untraced = run_workload(workload, args.seed, args.seconds, setups=1, check=check())
        tracer = Tracer()
        traced = run_workload(
            workload,
            args.seed,
            args.seconds,
            setups=1,
            snapshots=workload.snapshots,
            tracer=tracer,
            check=check(),
        )
        metrics = per_layer(workload, untraced, traced, tracer)
        trace_path = export_chrome_trace(
            ROOT / ".fleetbench_out" / f"{workload.name}-seed{args.seed}.trace.json",
            tracer,
            traced.registry_spans,
            os.getpid(),
        )
        print(f"chrome trace: {trace_path}")
        units = {name: unit for name, unit, _ in PER_LAYER}
        runs = (untraced, traced)
    else:
        result = run_workload(workload, args.seed, args.seconds, check=check())
        metrics = end_to_end(result)
        units = {name: unit for name, unit, _ in END_TO_END}
        beyond = sum(1 for s in result.epoch_seconds if 1e3 * s > metrics["epoch_ms_p90"])
        print(
            f"{workload.name}: {len(result.epoch_seconds)} timed epochs "
            f"({beyond} beyond p90), setups {[round(s, 3) for s in result.setup_seconds]} s"
        )
        runs = (result,)
    return metrics, units, runs


def main(argv=None) -> int:
    args = _parse(argv)
    # A shell setting must not switch on telemetry or injected faults.
    for name in ("REPRO_FLEET_PROFILE", "REPRO_FLEET_FAULT_PLAN"):
        os.environ.pop(name, None)
    _import_program()

    from fleetbench.harness import stop_children
    from fleetbench.outputs import OutputCheck
    from fleetbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"fleetbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.scale == "tiny":
        workload = workload.tiny()
    epochs = workload.warmup_epochs + workload.epochs_for(args.seconds)

    def check():
        found = OutputCheck.load(workload.scenario_key, args.seed, epochs)
        if not found.recorded:
            print(
                f"fleetbench: no recorded outputs for {workload.scenario_key} seed "
                f"{args.seed} at {epochs} epochs; checking invariants only",
                file=sys.stderr,
            )
        return found

    try:
        metrics, units, runs = _measure(args, workload, check)
    finally:
        # On every way out, including an exception from a run.
        strays = stop_children()
    if strays:
        print(f"check: child processes left running: {strays}", file=sys.stderr)
    out = {
        "correct": not strays and all(run.correct for run in runs),
        "attempted": sum(run.attempted for run in runs),
        "failed": sum(run.failed for run in runs),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
