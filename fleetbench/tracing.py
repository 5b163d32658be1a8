"""Outside-in tracing: spans around each layer's public entry points.

Nothing under ``src/`` is instrumented.  :class:`Tracer` swaps the
entry points listed in :data:`SPANS` for timing wrappers while a traced
block runs and restores them afterwards.  Each wrapper records its
duration and subtracts it from the enclosing span, so a layer's *self*
time excludes the layers it calls, and the per-epoch root span's self
time is the time no layer accounts for.  Summed over a run, the layers'
self times plus that unattributed time equal epoch wall time exactly.

Process workers cannot be wrapped from the parent; their simulate,
monitor and lifecycle spans come from the fleet's own public
``TelemetryConfig(enabled=True)`` bus (see :func:`process_breakdown`).
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: ``(span name, module, class or None, attribute)``: the wrapped entry
#: points.  Names are ``<layer>.<what>``; a span name may cover several
#: entry points (the lifecycle engine and the stress schedule are one
#: layer).  Functions are patched where their callers look them up.
SPANS: Tuple[Tuple[str, str, Optional[str], str], ...] = (
    ("fleet.executor", "repro.fleet.executor", "SerialShardExecutor", "run_shard_epochs"),
    ("fleet.executor", "repro.fleet.fleet", "FleetShard", "run_epoch"),
    ("fleet.lifecycle", "repro.fleet.lifecycle", "LifecycleEngine", "apply"),
    ("fleet.lifecycle", "repro.fleet.executor", None, "apply_stress_schedule"),
    ("fleet.report_build", "repro.fleet.executor", None, "columnar_from_report"),
    ("virt.cluster", "repro.virt.cluster", "Cluster", "step"),
    ("virt.demand", "repro.virt.vmm", "Host", "collect_demand_rows"),
    ("virt.sandbox", "repro.virt.sandbox", "SandboxEnvironment", "profile"),
    ("hardware.simulate", "repro.virt.cluster", None, "simulate_epoch_batch"),
    ("hardware.simulate", "repro.hardware.machine", None, "simulate_epoch_batch"),
    ("metrics.ingest", "repro.metrics.store", "HostCounterStore", "ingest"),
    ("metrics.window", "repro.virt.cluster", "Cluster", "counter_window_view"),
    ("metrics.normalise", "repro.core.deepdive", None, "normalize_counter_matrix"),
    ("core.deepdive", "repro.core.deepdive", "DeepDive", "run_epoch"),
    ("core.warning", "repro.core.warning", "WarningSystem", "evaluate_batch"),
    ("clustering.distance", "repro.core.repository", "BehaviorRepository", "distance_batch"),
    ("core.analyzer", "repro.core.analyzer", "InterferenceAnalyzer", "analyze"),
    ("core.placement", "repro.core.placement", "PlacementManager", "resolve_interference"),
)

#: Warning-decision properties counted (not timed: ~1 call per VM per epoch).
DECISION_CHECKS = ("flags_interference", "should_analyze")

#: Full spans go to the Chrome trace on every Nth traced epoch; every
#: epoch still feeds the self-time totals.  Keeps the trace a few MB.
SPAN_SAMPLE_EVERY = 25

#: The per-layer metrics ``(name, unit, better)``; README.md maps each
#: to the end-to-end metric it should move, and on which workload.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("hardware.simulate_ms", "ms/epoch", "lower"),
    ("virt.demand_ms", "ms/epoch", "lower"),
    ("virt.cluster_ms", "ms/epoch", "lower"),
    ("metrics.ingest_calls", "1/epoch", "lower"),
    ("metrics.ingest_ms", "ms/epoch", "lower"),
    ("metrics.window_ms", "ms/epoch", "lower"),
    ("metrics.normalise_ms", "ms/epoch", "lower"),
    ("clustering.distance_ms", "ms/epoch", "lower"),
    ("core.warning_ms", "ms/epoch", "lower"),
    ("core.decision_checks", "1/epoch", "lower"),
    ("core.deepdive_ms", "ms/epoch", "lower"),
    ("fleet.report_build_ms", "ms/epoch", "lower"),
    ("fleet.executor_ms", "ms/epoch", "lower"),
    ("core.analyzer_ms", "ms/epoch", "lower"),
    ("core.analyzer_calls", "count", "lower"),
    ("core.analyzer_confirm_ratio", "ratio", "higher"),
    ("virt.sandbox_ms", "ms/epoch", "lower"),
    ("core.placement_ms", "ms/epoch", "lower"),
    ("core.migration_accept_ratio", "ratio", "higher"),
    ("fleet.lifecycle_ms", "ms/epoch", "lower"),
    ("fleet.admission_reject_ratio", "ratio", "lower"),
    ("fleet.dispatch_wait_ms", "ms/epoch", "lower"),
    ("fleet.merge_ms", "ms/epoch", "lower"),
    ("fleet.descriptor_bytes", "B/epoch", "lower"),
    ("fleet.worker_busy_pct", "%", "higher"),
    ("fleet.worker_simulate_ms", "ms/epoch", "lower"),
    ("fleet.worker_monitor_ms", "ms/epoch", "lower"),
    ("fleet.worker_lifecycle_ms", "ms/epoch", "lower"),
    ("fleet.snapshot_bytes", "B", "lower"),
    ("fleet.snapshot_ms", "ms", "lower"),
    ("trace.unattributed_pct", "%", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


class Tracer:
    """Span stack, per-layer self-time totals and sampled span records."""

    def __init__(self) -> None:
        #: Open spans: ``[child seconds, span id]`` per level.
        self._stack: List[List[float]] = []
        self.self_seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.decision_checks = 0
        self.analyzer_confirmed = 0
        self.migrations_accepted = 0
        self.epochs = 0
        self.epoch_seconds = 0.0
        self.unattributed_seconds = 0.0
        #: ``(name, start, end, span id, parent id, epoch)`` records.
        self.spans: List[Tuple[str, float, float, int, int, int]] = []
        self._next_id = 1
        self._record = False
        self._epoch = -1
        self._patches: List[Tuple[object, str, object]] = []

    # -- the per-epoch root span ----------------------------------------
    def begin_epoch(self, epoch: int) -> None:
        self._epoch = epoch
        self._record = self.epochs % SPAN_SAMPLE_EVERY == 0
        self._stack.append([0.0, self._new_id()])
        self._root_start = perf_counter()

    def end_epoch(self) -> float:
        end = perf_counter()
        child, span_id = self._stack.pop()
        duration = end - self._root_start
        self.epochs += 1
        self.epoch_seconds += duration
        self.unattributed_seconds += duration - child
        self.spans.append(("epoch", self._root_start, end, int(span_id), 0, self._epoch))
        return duration

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id - 1

    # -- wrappers ---------------------------------------------------------
    def _wrap(
        self, name: str, fn: Callable, on_result: Optional[Callable] = None
    ) -> Callable:
        tracer = self
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:  # called outside an epoch (set-up, stats)
                return fn(*args, **kwargs)
            frame = [0.0, tracer._new_id() if tracer._record else 0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                tracer.self_seconds[name] += duration - frame[0]
                tracer.calls[name] += 1
                parent = stack[-1]
                parent[0] += duration
                if tracer._record:
                    tracer.spans.append(
                        (name, start, end, int(frame[1]), int(parent[1]), tracer._epoch)
                    )
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _count_property(self, prop: property) -> property:
        tracer = self
        getter = prop.fget

        def counted(decision):
            if tracer._stack:
                tracer.decision_checks += 1
            return getter(decision)

        return property(counted)

    def _on_analysis(self, result) -> None:
        if result is not None and result.confirmed:
            self.analyzer_confirmed += 1

    def _on_placement(self, decision) -> None:
        if (
            decision is not None
            and decision.destination is not None
            and not decision.no_acceptable_destination
        ):
            self.migrations_accepted += 1

    def install(self) -> None:
        """Swap every entry point in :data:`SPANS` for its wrapper."""
        hooks = {
            "core.analyzer": self._on_analysis,
            "core.placement": self._on_placement,
        }
        for name, module_name, class_name, attr in SPANS:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            original = owner.__dict__[attr]
            wrapped = self._wrap(name, original, hooks.get(name))
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapped)
        decision_cls = importlib.import_module("repro.core.warning").WarningDecision
        for attr in DECISION_CHECKS:
            original = decision_cls.__dict__[attr]
            self._patches.append((decision_cls, attr, original))
            setattr(decision_cls, attr, self._count_property(original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------
    def layer_rows(self) -> List[Tuple[str, float, float]]:
        """``(layer, self ms/epoch, calls/epoch)``, busiest first."""
        n = max(self.epochs, 1)
        rows = [
            (name, 1e3 * seconds / n, self.calls[name] / n)
            for name, seconds in self.self_seconds.items()
        ]
        return sorted(rows, key=lambda row: -row[1])


def process_breakdown(
    registry_spans: List[Dict[str, object]],
    epoch_walls: Dict[int, float],
    parent_pid: int,
) -> Dict[str, float]:
    """Split process-executor epochs using the fleet's telemetry spans.

    Per epoch: the critical worker is the one whose lifecycle + simulate
    + monitor spans add up to the most; dispatch wait is the parent's
    ``dispatch`` span minus that critical compute (transport, the
    workers' report build and shm writes, pipe and scheduling waits);
    merge is the parent's ``merge`` span; whatever else the epoch took
    is unattributed.  These parts add up to the epoch wall time.
    Returns seconds summed over the epochs in ``epoch_walls``.
    """
    per_epoch: Dict[int, Dict[object, Dict[str, float]]] = defaultdict(
        lambda: defaultdict(lambda: defaultdict(float))
    )
    for span in registry_spans:
        epoch = int(span["epoch"])
        if epoch not in epoch_walls:
            continue
        owner = "parent" if span["pid"] == parent_pid else span["pid"]
        per_epoch[epoch][owner][str(span["kind"])] += float(span["duration"])
    totals: Dict[str, float] = defaultdict(float)
    workers = set()
    for epoch, wall in epoch_walls.items():
        owners = per_epoch.get(epoch, {})
        parent = owners.get("parent", {})
        critical: Dict[str, float] = {}
        critical_total = 0.0
        for owner, kinds in owners.items():
            if owner == "parent":
                continue
            workers.add(owner)
            compute = kinds["lifecycle"] + kinds["simulate"] + kinds["monitor"]
            totals["worker_compute"] += compute
            if compute >= critical_total:
                critical, critical_total = kinds, compute
        dispatch = parent.get("dispatch", 0.0)
        merge = parent.get("merge", 0.0)
        for kind in ("lifecycle", "simulate", "monitor"):
            totals[f"fleet.worker_{kind}"] += critical.get(kind, 0.0)
        totals["fleet.dispatch_wait"] += dispatch - critical_total
        totals["fleet.merge"] += merge
        totals["unattributed"] += wall - dispatch - merge
        totals["wall"] += wall
    totals["workers"] = float(len(workers))
    return dict(totals)


def format_table(
    workload: str, rows: List[Tuple[str, float, float]], unattributed_ms: float, wall_ms: float
) -> str:
    """The per-layer self-time table; its rows add up to the wall row."""
    lines = [
        f"self time per epoch, {workload} (layers + unattributed = epoch wall)",
        f"  {'layer':<24}{'ms/epoch':>10}{'share':>8}{'calls/epoch':>13}",
    ]
    for name, ms, calls in rows:
        share = 100.0 * ms / wall_ms if wall_ms else 0.0
        lines.append(f"  {name:<24}{ms:>10.3f}{share:>7.1f}%{calls:>13.1f}")
    share = 100.0 * unattributed_ms / wall_ms if wall_ms else 0.0
    lines.append(f"  {'(unattributed)':<24}{unattributed_ms:>10.3f}{share:>7.1f}%")
    total = sum(ms for _, ms, _ in rows) + unattributed_ms
    lines.append(f"  {'sum':<24}{total:>10.3f}")
    lines.append(f"  {'epoch wall':<24}{wall_ms:>10.3f}")
    return "\n".join(lines)


def export_chrome_trace(
    path: Path,
    tracer: Tracer,
    registry_spans: List[Dict[str, object]],
    parent_pid: int,
) -> Path:
    """Write the spans as Chrome ``trace_event`` JSON (loads in Perfetto).

    Benchmark spans carry their span id, parent span id and epoch in
    ``args``; fleet telemetry spans (parent dispatch/merge, worker
    simulate/monitor/lifecycle) are added on their process tracks.
    """
    events: List[Dict[str, object]] = []
    for name, start, end, span_id, parent_id, epoch in tracer.spans:
        events.append(
            {
                "name": name,
                "cat": "fleetbench",
                "ph": "X",
                "ts": start * 1e6,
                "dur": (end - start) * 1e6,
                "pid": parent_pid,
                "tid": 0,
                "args": {"epoch": epoch, "span": span_id, "parent": parent_id},
            }
        )
    pids = {parent_pid}
    for span in registry_spans:
        pid = int(span["pid"])
        pids.add(pid)
        events.append(
            {
                "name": f"telemetry.{span['kind']}",
                "cat": "fleet",
                "ph": "X",
                "ts": float(span["start"]) * 1e6,
                "dur": float(span["duration"]) * 1e6,
                "pid": pid,
                "tid": 1 if pid == parent_pid else 0,
                "args": {"epoch": int(span["epoch"])},
            }
        )
    for pid in sorted(pids):
        label = "benchmark driver" if pid == parent_pid else f"fleet worker {pid}"
        events.append(
            {"name": "process_name", "ph": "M", "pid": pid, "tid": 0, "args": {"name": label}}
        )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}) + "\n")
    return path

