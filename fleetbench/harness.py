"""One workload run: set-up, the closed epoch loop, snapshots, checks.

Set-up (scenario synthesis, ``build_fleet``, ``bootstrap`` with its
sandbox sweep and, for the process executor, worker spawn, plus the
warm-up epochs) is repeated ``setups`` times so ``setup_s`` can be a
median; the last fleet built runs the timed epochs.  Fingerprinting,
ground-truth bookkeeping and snapshots happen between epochs, outside
the epoch timer.
"""

from __future__ import annotations

import gc
import os
import resource
import signal
import sys
import time
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Set, Tuple

from repro.fleet import RunOptions, TelemetryConfig, build_fleet
from repro.fleet.shm import leaked_segments

from fleetbench.outputs import OutputCheck, epoch_fingerprint, events_digest
from fleetbench.tracing import Tracer
from fleetbench.workloads import Workload, build_scenario, deepdive_config

#: Every epoch travels as a columnar report with the analyzer enabled.
RUN_OPTIONS = RunOptions(analyze=True, report="columnar")


@dataclass
class RunResult:
    epoch_seconds: List[float] = field(default_factory=list)
    #: Timed epochs' VM observations (VM-epochs).
    observations: int = 0
    setup_seconds: List[float] = field(default_factory=list)
    snapshot_seconds: List[float] = field(default_factory=list)
    snapshot_bytes: List[int] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: Simulated outputs (deterministic for a seed).
    final: Dict[str, object] = field(default_factory=dict)
    #: Per-epoch fingerprints of the timed fleet, warm-up included.
    fingerprints: List[List[object]] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)
    #: Fleet telemetry spans (traced process runs only).
    registry_spans: List[Dict[str, object]] = field(default_factory=list)
    descriptor_bytes: int = 0
    admission: Tuple[int, int] = (0, 0)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


class _Fleet:
    """One built fleet and the run-wide bookkeeping of its epochs."""

    def __init__(self, workload: Workload, seed: int, timed: int, telemetry: bool):
        scenario = build_scenario(workload, seed, timed)
        config = (
            TelemetryConfig(
                enabled=True,
                span_capacity=16 * (workload.warmup_epochs + timed) + 1024,
            )
            if telemetry
            else TelemetryConfig(enabled=False)
        )
        self.episodes = list(scenario.episodes)
        self.fleet = build_fleet(
            scenario,
            config=deepdive_config(),
            mitigate=workload.interference,
            executor=workload.executor,
            max_workers=workload.max_workers,
            telemetry=config,
        )
        self.fleet.bootstrap()
        self.stream = self.fleet.stream(workload.warmup_epochs + timed, RUN_OPTIONS)
        self.fingerprints: List[List[object]] = []
        #: ``(epoch, shard id, host)`` of every confirmed observation.
        self.detected: Set[Tuple[int, str, Optional[str]]] = set()

    def observe(self, epoch: int, report, check: OutputCheck, result: RunResult) -> bool:
        """Fingerprint and check one epoch's report; ``False`` if it failed."""
        ok = True
        if report.epoch != epoch or report.missing_shards:
            result.problems.append(
                f"epoch {epoch}: report epoch {report.epoch}, "
                f"missing shards {list(report.missing_shards)}"
            )
            ok = False
        fingerprint = epoch_fingerprint(report)
        self.fingerprints.append(fingerprint)
        if fingerprint[0] <= 0:
            result.problems.append(f"epoch {epoch}: no observations")
            ok = False
        if not check.epoch(epoch, fingerprint):
            ok = False
        if self.episodes and report.confirmed_count():
            shards = self.fleet.shards
            for shard_id, vm_name in report.confirmed_interference():
                host = shards[shard_id].cluster.host_of(vm_name)
                self.detected.add((epoch, shard_id, host))
        return ok

    def episode_recall(self) -> float:
        """Share of episodes with a confirmed VM on their host during them.

        A fleet without episodes misses none, so its recall is 1.
        """
        if not self.episodes:
            return 1.0
        hit = 0
        for episode in self.episodes:
            shard_id = f"shard{episode.shard}"
            host = f"s{episode.shard}pm{episode.host_index}"
            if any(
                (epoch, shard_id, host) in self.detected
                for epoch in range(episode.start_epoch, episode.end_epoch)
            ):
                hit += 1
        return hit / len(self.episodes)

    def close(self) -> None:
        self.fleet.shutdown()


class _CpuTurns:
    """Moves a serial run to the next CPU before every timed operation.

    On a shared host each CPU's speed drifts by tens of percent for
    seconds to minutes at a time, independently of the others, and a
    single-threaded run left on one CPU measures that CPU's luck.
    Rotating every epoch, set-up and snapshot over all the CPUs the
    process may use makes each run sample all of them.  Process-executor
    runs are not pinned: their workers inherit the affinity mask at
    spawn, and they already keep every CPU busy.  Each serial epoch so
    starts with the other CPU's data in its private caches, a cost the
    process runs do not pay: the README's "Run hygiene" says what that
    means for comparing the two.
    """

    def __init__(self, enabled: bool) -> None:
        self._cpus = sorted(os.sched_getaffinity(0)) if enabled else []
        self._turn = 0

    def next(self) -> None:
        if len(self._cpus) > 1:
            os.sched_setaffinity(0, {self._cpus[self._turn % len(self._cpus)]})
            self._turn += 1

    def restore(self) -> None:
        if len(self._cpus) > 1:
            os.sched_setaffinity(0, set(self._cpus))


def _time_snapshots(fleet, count: int, turns: _CpuTurns, result: "RunResult") -> None:
    """Time ``count`` back-to-back ``snapshot()`` pauses of the set-up fleet.

    Taken before the timed epochs, where every seed's fleet has the same
    age: churn-interference's event logs grow with each seed's
    detections, and mid-run snapshots varied by half between seeds.  An
    untimed snapshot goes first, because the first pickling in a process
    pays one-time costs.  Garbage is collected before each timed one, so
    a full collection owed by earlier work (0.7 s on a mid-run
    churn-interference heap) does not land in one sample and not another.
    """
    fleet.snapshot()
    for _ in range(count):
        gc.collect()
        turns.next()
        start = perf_counter()
        checkpoint = fleet.snapshot()
        result.snapshot_seconds.append(perf_counter() - start)
        result.snapshot_bytes.append(len(checkpoint.payload))
        del checkpoint


def _proc_hwm_kb(pid: int) -> int:
    """Peak resident set (``VmHWM``) of a live process, in KiB."""
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _wait_exited(pids: List[int], timeout: float = 10.0) -> List[int]:
    """Pids still alive after ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    alive = list(pids)
    while alive and time.monotonic() < deadline:
        still = []
        for pid in alive:
            try:
                os.kill(pid, 0)
                still.append(pid)
            except ProcessLookupError:
                pass
        alive = still
        if alive:
            time.sleep(0.05)
    return alive


def _child_pids() -> List[int]:
    """Pids of this process's children, zombies included."""
    me = str(os.getpid())
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                # The command name may hold spaces: fields follow its ')'.
                fields = stat.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if fields[1] == me:
            children.append(int(entry))
    return children


def stop_children(timeout: float = 10.0) -> List[int]:
    """Stop and reap every child process; return those that were not ours.

    The process executor's shared memory starts multiprocessing's
    resource-tracker process, which otherwise outlives the benchmark by
    a moment and is then never reaped.  It is stopped the way
    multiprocessing stops it: close its pipe and wait for it.  Any
    other child (there should be none once every fleet is shut down) is
    terminated, killed after ``timeout`` seconds, reaped and returned.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    tracker_pid = getattr(tracker, "_pid", None)
    if getattr(tracker, "_fd", None) is not None:
        os.close(tracker._fd)
        tracker._fd = None
    strays = [pid for pid in _child_pids() if pid != tracker_pid]
    for pid in strays:
        try:
            os.kill(pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + timeout
    pending = set(_child_pids())
    while pending:
        for pid in list(pending):
            try:
                done, _ = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                done = pid
            if done:
                pending.discard(pid)
        if pending and time.monotonic() > deadline:
            for pid in pending:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            deadline = float("inf")
        if pending:
            time.sleep(0.02)
    tracker._pid = None
    return strays


def run_workload(
    workload: Workload,
    seed: int,
    seconds: int,
    *,
    setups: Optional[int] = None,
    snapshots: int = 0,
    tracer: Optional[Tracer] = None,
    check: Optional[OutputCheck] = None,
) -> RunResult:
    """Run ``workload`` once; ``tracer`` wraps the timed epochs only.

    ``snapshots`` back-to-back ``snapshot()`` pauses are timed just
    before the timed epochs (traced runs only take them).
    """
    timed = workload.epochs_for(seconds)
    warmup = workload.warmup_epochs
    setups = workload.setups if setups is None else setups
    check = check or OutputCheck(None)
    telemetry = tracer is not None and workload.executor == "process"
    result = RunResult()
    segments_before = set(leaked_segments())
    epoch_failures = 0
    turns = _CpuTurns(workload.executor == "serial")

    current: Optional[_Fleet] = None
    worker_pids: List[int] = []
    try:
        for _ in range(setups):
            if current is not None:
                current.close()
                current = None
                gc.collect()
            turns.next()
            start = perf_counter()
            current = _Fleet(workload, seed, timed, telemetry)
            elapsed = perf_counter() - start
            for epoch in range(warmup):
                turns.next()
                start = perf_counter()
                report = next(current.stream)
                elapsed += perf_counter() - start
                result.attempted += 1
                if not current.observe(epoch, report, check, result):
                    epoch_failures += 1
            result.setup_seconds.append(elapsed)

        registry = current.fleet.telemetry
        descriptors_before = registry.counter("descriptor_bytes_total") if registry else 0
        if tracer is not None:
            tracer.install()
        try:
            if snapshots:
                _time_snapshots(current.fleet, snapshots, turns, result)
            for epoch in range(warmup, warmup + timed):
                result.attempted += 1
                turns.next()
                try:
                    if tracer is not None:
                        tracer.begin_epoch(epoch)
                        try:
                            report = next(current.stream)
                        finally:
                            duration = tracer.end_epoch()
                    else:
                        start = perf_counter()
                        report = next(current.stream)
                        duration = perf_counter() - start
                except Exception as exc:  # the fleet is broken: stop the loop
                    epoch_failures += 1
                    result.problems.append(f"epoch {epoch} raised {exc!r}")
                    break
                result.epoch_seconds.append(duration)
                result.observations += report.observations()
                if not current.observe(epoch, report, check, result):
                    epoch_failures += 1
        finally:
            if tracer is not None:
                tracer.uninstall()

        fleet = current.fleet
        worker_pids = [int(row["pid"]) for row in fleet.worker_health() if row.get("pid")]
        if not result.problems:
            stats = fleet.stats()
            lifecycle = fleet.lifecycle_stats()
            result.admission = (
                sum(s.get("arrivals_admitted", 0) for s in lifecycle.values()),
                sum(s.get("arrivals_rejected", 0) for s in lifecycle.values()),
            )
            result.final = {
                "analyzer_runs": int(stats["analyzer_invocations"]),
                "sandbox_profile_s_sim": float(stats["profiling_seconds"]),
                "detections": events_digest(fleet.detections(), ("epoch", "vm_name")),
                "migrations": events_digest(
                    fleet.migrations(), ("epoch", "vm_name", "source", "destination")
                ),
                "episode_recall": current.episode_recall(),
                "vms": int(stats["vms"]),
            }
            if int(stats["epochs"]) != warmup + timed:
                result.problems.append(f"fleet ran {int(stats['epochs'])} epochs")
            check.final(result.final)
        result.fingerprints = current.fingerprints
        if registry is not None:
            result.registry_spans = registry.spans()
            result.descriptor_bytes = (
                registry.counter("descriptor_bytes_total") - descriptors_before
            )
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        rss_kb += sum(_proc_hwm_kb(pid) for pid in worker_pids)
        result.peak_rss_mb = rss_kb / 1024.0
    finally:
        turns.restore()
        if current is not None:
            current.close()
    alive = _wait_exited(worker_pids)
    if alive:
        result.problems.append(f"worker processes still running: {alive}")
    leaked = sorted(set(leaked_segments()) - segments_before)
    if leaked:
        result.problems.append(f"leaked shared-memory segments: {leaked}")

    if check.mismatches:
        result.problems.extend(check.mismatches[:5])
        # Wrong outputs make every epoch of the run a failed operation.
        result.failed = result.attempted
    else:
        result.failed = epoch_failures
    result.failed += len(leaked)
    for problem in result.problems:
        print(f"check: {problem}", file=sys.stderr)
    return result
