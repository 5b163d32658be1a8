"""The DeepDive orchestrator.

Ties the pieces together: every monitoring epoch, it reads the raw
counters the hypervisors expose for every VM, normalises them, runs the
warning system (feeding it the sibling VMs' behaviour as global
information), invokes the interference analyzer when the warning system
says so, and hands confirmed interference to the placement manager.

The orchestrator never reads application-level performance: its only
inputs are the Table 1 counters and the proxy-observed load streams,
exactly as in the paper.
"""

from __future__ import annotations

from collections.abc import Mapping as MappingABC
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.analyzer import AnalysisResult, InterferenceAnalyzer
from repro.core.config import DeepDiveConfig
from repro.core.events import (
    AnalyzerInvocationEvent,
    EventLog,
    InterferenceDetectedEvent,
    MigrationEvent,
)
from repro.core.placement import PlacementDecision, PlacementManager
from repro.core.repository import BehaviorRepository
from repro.core.warning import (
    DecisionBlock,
    WarningAction,
    WarningDecision,
    WarningSystem,
    normal_decision,
)
from repro.metrics.counters import COUNTER_NAMES, CounterSample
from repro.metrics.cpi import CPIStackModel
from repro.metrics.matrix import MetricMatrix
from repro.metrics.normalization import aggregate_samples, normalize_counter_matrix
from repro.metrics.sample import MetricVector
from repro.regression.training import TrainedSynthesizer
from repro.virt.cluster import Cluster, CounterWindowView
from repro.virt.proxy import RequestProxy
from repro.virt.sandbox import SandboxEnvironment
from repro.virt.vm import VirtualMachine

#: Column of ``inst_retired`` in raw counter matrices (Table-1 order).
_INST_RETIRED_COL = COUNTER_NAMES.index("inst_retired")


@dataclass
class VMObservation:
    """One VM's state as seen by DeepDive in one epoch."""

    vm_name: str
    app_id: str
    warning: WarningDecision
    analysis: Optional[AnalysisResult] = None
    placement: Optional[PlacementDecision] = None
    #: True when interference was reported from a previously diagnosed
    #: signature without re-running the analyzer.
    known_interference: bool = False

    @property
    def interference_confirmed(self) -> bool:
        if self.known_interference:
            return True
        return self.analysis is not None and self.analysis.confirmed


@dataclass(eq=False)
class EpochReport:
    """Everything DeepDive did in one monitoring epoch, as columns.

    Row ``i`` of every array describes the epoch's ``i``-th observation,
    ``vm_names[i]``, in deterministic placement order.  Only the rows
    the action phase handled — those whose warning was not NORMAL —
    hold a :class:`VMObservation`; :attr:`observations` builds the rest
    on access, so a steady epoch creates no per-VM objects at all.
    """

    epoch: int
    vm_names: Tuple[str, ...] = ()
    app_ids: Tuple[str, ...] = ()
    #: Index into :data:`repro.core.warning.ACTIONS` per observation.
    action_codes: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int8)
    )
    #: Mahalanobis distance of each warning decision (inf without a model).
    distances: np.ndarray = field(default_factory=lambda: np.empty(0))
    #: Sibling VMs consulted / agreeing for the global check.
    siblings_consulted: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int32)
    )
    siblings_agreeing: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int32)
    )
    #: Whether the analyzer ran for the observation.
    analyzed: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=bool))
    #: Whether interference was confirmed (analysis or known signature).
    confirmed: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=bool))
    #: Row -> observation for every non-NORMAL row.
    flagged: Dict[int, VMObservation] = field(default_factory=dict)
    _index: Optional[Dict[str, int]] = field(default=None, init=False, repr=False)

    @property
    def observations(self) -> "ObservationView":
        """``vm name -> VMObservation`` in row order, built on access."""
        return ObservationView(self)

    def row_of(self, vm_name: str) -> int:
        """The row of ``vm_name`` (``KeyError`` when not observed)."""
        if self._index is None:
            self._index = dict(zip(self.vm_names, range(len(self.vm_names))))
        return self._index[vm_name]

    def observation(self, row: int) -> VMObservation:
        """Row ``row``'s observation (NORMAL rows are built on each call)."""
        flagged = self.flagged.get(row)
        if flagged is not None:
            return flagged
        vm_name = self.vm_names[row]
        app_id = self.app_ids[row]
        return VMObservation(
            vm_name=vm_name,
            app_id=app_id,
            warning=normal_decision(
                vm_name,
                app_id,
                self.distances[row],
                self.siblings_consulted[row],
            ),
        )

    def analyzer_invocations(self) -> int:
        return int(np.count_nonzero(self.analyzed))

    def confirmed_interference(self) -> List[str]:
        return [self.vm_names[i] for i in np.flatnonzero(self.confirmed).tolist()]


class ObservationView(MappingABC):
    """Read-only ``vm name -> VMObservation`` mapping over an epoch report."""

    __slots__ = ("_report",)

    def __init__(self, report: EpochReport) -> None:
        self._report = report

    def __getitem__(self, vm_name: str) -> VMObservation:
        return self._report.observation(self._report.row_of(vm_name))

    def __iter__(self) -> Iterator[str]:
        return iter(self._report.vm_names)

    def __len__(self) -> int:
        return len(self._report.vm_names)


#: One application's share of an epoch's decisions: the epoch rows its
#: VMs occupy, its decision block, and the metric vectors of the block's
#: non-NORMAL rows (what the action phase learns from or analyses).
_AppDecisions = Tuple[np.ndarray, DecisionBlock, Dict[int, MetricVector]]


@dataclass
class _BatchPlan:
    """Placement-derived layout of the batch engine's epoch.

    Depends only on the placement and on which VMs the counter view
    serves, so steady epochs reuse it and do no per-VM Python.
    """

    #: ``(placement signature, counter view VM names)`` it was built for.
    key: tuple
    #: Counter-view row of every placed VM the view serves, placement order.
    rows: np.ndarray
    names: Tuple[str, ...]
    app_ids: Tuple[str, ...]
    name_array: np.ndarray
    app_array: np.ndarray
    #: ``(app id, member indices into rows, member names)`` in order of
    #: each application's first VM.
    apps: List[Tuple[str, np.ndarray, Tuple[str, ...]]]


class DeepDive:
    """Transparent interference identification and management."""

    def __init__(
        self,
        cluster: Cluster,
        sandbox: Optional[SandboxEnvironment] = None,
        config: Optional[DeepDiveConfig] = None,
        synthesizer: Optional[TrainedSynthesizer] = None,
        mitigate: bool = False,
        engine: str = "batch",
    ) -> None:
        """
        Parameters
        ----------
        cluster:
            The production cluster DeepDive watches.
        sandbox:
            The profiling environment; a single-host sandbox matching the
            cluster's machine spec is created when omitted.
        config:
            DeepDive configuration (operator threshold, clustering knobs, ...).
        synthesizer:
            Optional trained synthetic-benchmark synthesizer used by the
            placement manager; without it the manager clones the real VM.
        mitigate:
            Whether confirmed interference triggers the placement manager
            (experiments that only measure detection leave this off).
        engine:
            ``"batch"`` evaluates every VM of an epoch through the
            vectorized :class:`MetricMatrix` path; ``"scalar"`` keeps the
            per-VM reference loop.  Both produce identical warning
            decisions (pinned by the property test suite); scalar exists
            as the executable specification and benchmark baseline.
        """
        if engine not in ("batch", "scalar"):
            raise ValueError(f"unknown epoch engine {engine!r}")
        self.engine = engine
        self.cluster = cluster
        self.config = config or DeepDiveConfig()
        spec = next(iter(cluster.hosts.values())).machine.spec
        self.sandbox = sandbox or SandboxEnvironment(
            num_hosts=1,
            spec=spec,
            epoch_seconds=self.config.epoch_seconds,
            profile_epochs=self.config.profile_epochs,
            seed=self.config.sandbox_seed,
        )
        self.repository = BehaviorRepository(
            warning_sigma=self.config.warning_sigma,
            max_clusters=self.config.max_clusters,
            refit_every=self.config.refit_every,
            min_normal_behaviors=self.config.min_normal_behaviors,
        )
        self.warning_system = WarningSystem(self.repository, self.config)
        self.analyzer = InterferenceAnalyzer(
            sandbox=self.sandbox,
            repository=self.repository,
            config=self.config,
            cpi_model=CPIStackModel.for_architecture(spec.architecture.name),
        )
        self.placement_manager = PlacementManager(
            sandbox=self.sandbox,
            synthesizer=synthesizer,
            config=self.config,
        )
        self.mitigate = mitigate
        self.events = EventLog()
        self.proxies: Dict[str, RequestProxy] = {}
        self.current_epoch = 0
        #: VMs whose application has been bootstrapped already.
        self._bootstrapped_apps: set = set()
        #: Last confirmed analysis per application (reused when a known
        #: interference signature reappears).
        self._last_confirmed: Dict[str, AnalysisResult] = {}
        #: Epoch of the last executed migration per source host.  One
        #: interference episode often confirms on several co-located
        #: victims in the same epoch (they all observed the same stale
        #: window); once the first mitigation has moved the aggressor
        #: away, further migrations from that host in the same epoch
        #: would evict innocent VMs, so they are rate-limited.
        self._host_migration_epoch: Dict[str, int] = {}
        #: The batch engine's cached epoch layout (see :class:`_BatchPlan`).
        self._batch_plan: Optional[_BatchPlan] = None

    # ------------------------------------------------------------------
    # Monitoring plumbing
    # ------------------------------------------------------------------
    def register_vm(self, vm_name: str) -> RequestProxy:
        """Create (or return) the request proxy for a production VM."""
        if vm_name not in self.proxies:
            self.proxies[vm_name] = RequestProxy(vm_name)
        return self.proxies[vm_name]

    def observe_load(self, vm_name: str, load: float) -> None:
        """Record the load the proxy forwarded to a VM this epoch."""
        self.register_vm(vm_name).observe(load)

    def bootstrap_vm(
        self, vm_name: str, load_levels: Optional[Sequence[float]] = None
    ) -> None:
        """Run the analyzer's bootstrap sweep for a VM's application."""
        placement = self.cluster.all_vms()
        if vm_name not in placement:
            raise KeyError(f"VM {vm_name!r} not placed in the cluster")
        _, vm = placement[vm_name]
        self.analyzer.bootstrap(vm, load_levels=load_levels)
        self._bootstrapped_apps.add(vm.app_id)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def observe_epoch(
        self,
        loads: Optional[Mapping[str, float]] = None,
        analyze: bool = True,
    ) -> EpochReport:
        """Process the newest counters of every VM in the cluster.

        Thin wrapper over :meth:`run_epoch` using the engine selected at
        construction time; kept for backwards compatibility with the
        experiment drivers.
        """
        return self.run_epoch(loads=loads, analyze=analyze)

    def run_epoch(
        self,
        loads: Optional[Mapping[str, float]] = None,
        analyze: bool = True,
        engine: Optional[str] = None,
        learn: bool = True,
    ) -> EpochReport:
        """Process the newest counters of every VM in the cluster.

        The epoch is split into two phases:

        1. **Evaluation** — every eligible VM's warning decision is
           computed against a frozen repository snapshot (batched per
           application in the ``"batch"`` engine, per-VM in the
           ``"scalar"`` engine; both produce identical decisions).
        2. **Actions** — workload-change learning, known-interference
           bookkeeping, analyzer invocations and mitigations run for the
           non-NORMAL rows in deterministic placement order (a NORMAL
           row needs no action).  Before paying an analyzer
           run, the suspicion is re-checked against the *live*
           repository: an analysis earlier in the same epoch may already
           have certified the behaviour as normal (false alarm) or
           registered a matching interference signature.

        Parameters
        ----------
        loads:
            The per-VM loads the proxies observed this epoch (fractions
            of nominal).  VMs not listed reuse their last observed load.
        analyze:
            When False, only the warning system runs (used by experiments
            that count would-be analyzer invocations without paying them).
        engine:
            Optional engine override for this epoch (defaults to the
            instance's engine).
        learn:
            When False, corroborated workload changes are reported but
            not added to the repository — an observe-only pass with no
            side effects on the learned models (used by benchmarks that
            re-time the identical epoch).
        """
        engine = engine or self.engine
        if engine not in ("batch", "scalar"):
            raise ValueError(f"unknown epoch engine {engine!r}")
        if loads:
            for vm_name, load in loads.items():
                self.observe_load(vm_name, load)

        placement = self.cluster.all_vms()
        # ------------------------------------------------------------------
        # Phase 1: evaluate every eligible VM against a frozen repository.
        # An (almost) idle VM produces no meaningful metric vector; there
        # is nothing to suffer interference yet.
        # ------------------------------------------------------------------
        if engine == "batch":
            names, app_ids, parts = self._evaluate_epoch_batch(placement)
        else:
            names, app_ids, parts = self._evaluate_epoch_scalar(placement)

        # Scatter the per-application blocks into epoch rows (placement
        # order); only the non-NORMAL rows go on to the action phase.
        n = len(names)
        report = EpochReport(
            epoch=self.current_epoch,
            vm_names=names,
            app_ids=app_ids,
            action_codes=np.empty(n, dtype=np.int8),
            distances=np.empty(n, dtype=float),
            siblings_consulted=np.empty(n, dtype=np.int32),
            siblings_agreeing=np.empty(n, dtype=np.int32),
            analyzed=np.zeros(n, dtype=bool),
            confirmed=np.zeros(n, dtype=bool),
        )
        pending: List[Tuple[int, WarningDecision, MetricVector]] = []
        for positions, block, vectors in parts:
            report.action_codes[positions] = block.codes
            report.distances[positions] = block.distances
            report.siblings_consulted[positions] = block.siblings_consulted
            report.siblings_agreeing[positions] = block.siblings_agreeing
            for j in block.flagged_rows():
                pending.append((int(positions[j]), block.decision(j), vectors[j]))
        pending.sort(key=lambda item: item[0])

        # ------------------------------------------------------------------
        # Phase 2: act on the decisions in deterministic placement order.
        # NORMAL rows need no action, so only the flagged rows are walked.
        # ------------------------------------------------------------------
        for row, decision, vector in pending:
            vm_name = names[row]
            host_name, vm = placement[vm_name]
            observation = VMObservation(
                vm_name=vm_name, app_id=vm.app_id, warning=decision
            )

            if decision.action is WarningAction.WORKLOAD_CHANGE:
                if learn:
                    self.warning_system.learn_workload_change(vm.app_id, vector)
            elif decision.flags_interference:
                observation.known_interference = True
                self._record_known_interference(vm_name, vm.app_id)
            elif decision.should_analyze and analyze:
                if self.repository.matches(vm.app_id, vector):
                    # An analysis earlier this epoch certified this very
                    # behaviour as interference-free; nothing to do.
                    pass
                elif self.repository.matches_interference(vm.app_id, vector):
                    # An analysis earlier this epoch registered a matching
                    # interference signature; report without re-profiling.
                    observation.known_interference = True
                    self._record_known_interference(vm_name, vm.app_id)
                else:
                    observation.analysis = self._run_analyzer(
                        host_name, vm_name, vm, decision, triggering_vector=vector
                    )
                    if (
                        observation.analysis is not None
                        and observation.analysis.confirmed
                        and self.mitigate
                    ):
                        observation.placement = self._mitigate(
                            host_name, observation.analysis
                        )
            report.flagged[row] = observation
            report.analyzed[row] = observation.analysis is not None
            report.confirmed[row] = observation.interference_confirmed

        self.current_epoch += 1
        return report

    # ------------------------------------------------------------------
    # Epoch engines: both return the eligible VM names and their
    # applications in placement order plus one ``_AppDecisions`` per
    # application, so the action phase above is shared.
    # ------------------------------------------------------------------
    def _evaluate_epoch_scalar(
        self, placement: Mapping[str, tuple]
    ) -> Tuple[Tuple[str, ...], Tuple[str, ...], List[_AppDecisions]]:
        """The per-VM reference loop: one dict-driven evaluation per VM."""
        windows = self.cluster.counter_windows(self.config.smoothing_epochs)
        latest_samples: Dict[str, CounterSample] = {
            vm_name: window[-1] for vm_name, window in windows.items()
        }
        eligible = [
            vm_name
            for vm_name in placement
            if vm_name in latest_samples
            and latest_samples[vm_name].inst_retired >= 1e3
        ]
        latest_vectors: Dict[str, MetricVector] = {
            vm_name: MetricVector.from_sample(
                latest_samples[vm_name], label=placement[vm_name][1].app_id
            )
            for vm_name in placement
            if vm_name in latest_samples
        }
        by_app: Dict[str, tuple] = {}
        for row, vm_name in enumerate(eligible):
            host_name, vm = placement[vm_name]
            vector = self._smoothed_vector(host_name, vm_name, vm.app_id)
            siblings = {
                other: latest_vectors[other]
                for other, (_, other_vm) in placement.items()
                if other != vm_name
                and other_vm.app_id == vm.app_id
                and other in latest_vectors
            }
            decision = self.warning_system.evaluate(
                vm_name=vm_name,
                app_id=vm.app_id,
                vector=vector,
                sibling_vectors=siblings,
            )
            rows, decisions, vectors = by_app.setdefault(vm.app_id, ([], [], {}))
            if decision.action is not WarningAction.NORMAL:
                vectors[len(decisions)] = vector
            rows.append(row)
            decisions.append(decision)
        parts = [
            (
                np.asarray(rows, dtype=np.intp),
                DecisionBlock.from_decisions(app_id, decisions),
                vectors,
            )
            for app_id, (rows, decisions, vectors) in by_app.items()
        ]
        app_ids = tuple(placement[vm_name][1].app_id for vm_name in eligible)
        return tuple(eligible), app_ids, parts

    def _plan_batch_epoch(
        self, placement: Mapping[str, tuple], view: CounterWindowView
    ) -> _BatchPlan:
        """The cached :class:`_BatchPlan`, rebuilt when the placement or
        the counter view's VM set changed."""
        key = (self.cluster.placement_signature(), view.vm_names)
        plan = self._batch_plan
        if plan is not None and plan.key == key:
            return plan
        index = view.index
        names: List[str] = []
        app_ids: List[str] = []
        rows: List[int] = []
        members: Dict[str, List[int]] = {}
        for vm_name, (_, vm) in placement.items():
            row = index.get(vm_name)
            if row is not None:
                members.setdefault(vm.app_id, []).append(len(names))
                names.append(vm_name)
                app_ids.append(vm.app_id)
                rows.append(row)
        name_array = np.empty(len(names), dtype=object)
        name_array[:] = names
        app_array = np.empty(len(names), dtype=object)
        app_array[:] = app_ids
        plan = _BatchPlan(
            key=key,
            rows=np.asarray(rows, dtype=np.intp),
            names=tuple(names),
            app_ids=tuple(app_ids),
            name_array=name_array,
            app_array=app_array,
            apps=[
                (app_id, np.asarray(idx), tuple(name_array[idx].tolist()))
                for app_id, idx in members.items()
            ],
        )
        self._batch_plan = plan
        return plan

    def _evaluate_epoch_batch(
        self, placement: Mapping[str, tuple]
    ) -> Tuple[Tuple[str, ...], Tuple[str, ...], List[_AppDecisions]]:
        """The vectorized engine: a handful of array ops per application.

        One columnar read serves the whole epoch: the cluster hands back
        every VM's newest counters and smoothing-window sum as two raw
        matrices (served directly from the batch substrate's per-epoch
        counter blocks when available).  Each application's metric
        matrices are then a row-gather plus one batch normalisation, and
        its decisions come back as one :class:`DecisionBlock`.
        """
        view = self.cluster.counter_window_view(self.config.smoothing_epochs)
        plan = self._plan_batch_epoch(placement, view)
        eligible = view.latest[plan.rows, _INST_RETIRED_COL] >= 1e3
        everyone = bool(eligible.all())
        if everyone:
            names, app_ids = plan.names, plan.app_ids
        else:
            served = np.flatnonzero(eligible)
            names = tuple(plan.name_array[served].tolist())
            app_ids = tuple(plan.app_array[served].tolist())
            epoch_row = np.cumsum(eligible) - 1
        # Sibling pools hold every served VM of the application (pool
        # order = placement order, matching the scalar sibling dicts);
        # the evaluated rows are its eligible members.
        groups = []
        for app_id, members, member_names in plan.apps:
            own, own_names, positions = members, member_names, members
            if not everyone:
                own = members[eligible[members]]
                if not own.size:
                    continue
                own_names = tuple(plan.name_array[own].tolist())
                positions = epoch_row[own]
            groups.append((positions, app_id, own, own_names, members, member_names))
        # Applications in order of their first eligible VM.
        groups.sort(key=lambda group: int(group[0][0]))

        parts: List[_AppDecisions] = []
        for positions, app_id, own_idx, own_names, pool_idx, pool_names in groups:
            own = MetricMatrix(
                array=normalize_counter_matrix(view.window_sum[plan.rows[own_idx]]),
                vm_names=own_names,
                labels=(app_id,) * len(own_names),
            )
            pool = MetricMatrix(
                array=normalize_counter_matrix(view.latest[plan.rows[pool_idx]]),
                vm_names=pool_names,
                labels=(app_id,) * len(pool_names),
            )
            block = self.warning_system.evaluate_batch(app_id, own, pool)
            # Scalar vectors only for the rows the action phase may need
            # (learning / analyzer triggering).
            vectors = {j: own.vector(own_names[j]) for j in block.flagged_rows()}
            parts.append((positions, block, vectors))
        return names, app_ids, parts

    # ------------------------------------------------------------------
    def _smoothed_vector(
        self, host_name: str, vm_name: str, app_id: str
    ) -> MetricVector:
        """One VM's smoothed metric vector (the scalar engine's path).

        ``counter_history`` is a lazy view over the host's columnar
        counter store, so slicing the window materialises exactly the
        ``smoothing_epochs`` samples it aggregates — no per-epoch
        eager materialisation happens anywhere upstream.
        """
        history = self.cluster.hosts[host_name].counter_history.get(vm_name, [])
        window = history[-self.config.smoothing_epochs:]
        aggregate = aggregate_samples(
            window, context=f"VM {vm_name!r} smoothing window on host {host_name!r}"
        )
        return MetricVector.from_sample(aggregate, label=app_id)

    def _recent_window(
        self, host_name: str, vm_name: str
    ) -> List[CounterSample]:
        """The production samples the analyzer compares against the sandbox.

        The window matches the smoothing window that triggered the
        warning, so the degradation estimate reflects the *current*
        conditions rather than a stale mix of epochs before and after an
        interference episode started.  Slicing the lazy history
        materialises the window's samples on demand — only VMs that
        actually reach the analyzer pay for sample objects.
        """
        history = self.cluster.hosts[host_name].counter_history.get(vm_name, [])
        return history[-self.config.smoothing_epochs:]

    def _replay_loads(self, vm_name: str, epochs: int) -> List[float]:
        proxy = self.proxies.get(vm_name)
        if proxy is None or proxy.latest_load() is None:
            return [1.0] * epochs
        # Replay the most recent load level for the whole window; the
        # normalisation by instructions retired makes the exact intra-
        # window shape irrelevant.
        return [float(proxy.latest_load())] * epochs

    def _run_analyzer(
        self,
        host_name: str,
        vm_name: str,
        vm: VirtualMachine,
        decision: WarningDecision,
        triggering_vector: Optional[MetricVector] = None,
    ) -> Optional[AnalysisResult]:
        production = self._recent_window(host_name, vm_name)
        if not production:
            return None
        replay = self._replay_loads(vm_name, len(production))
        result = self.analyzer.analyze(
            vm, production, replay, triggering_vector=triggering_vector
        )
        self.events.record(
            AnalyzerInvocationEvent(
                epoch=self.current_epoch,
                vm_name=vm_name,
                reason=decision.reason,
                confirmed=result.confirmed,
                degradation=result.degradation,
                profiling_seconds=result.profiling_seconds,
                culprit=result.culprit,
            )
        )
        if result.confirmed:
            self._last_confirmed[vm.app_id] = result
            self.events.record(
                InterferenceDetectedEvent(
                    epoch=self.current_epoch,
                    vm_name=vm_name,
                    degradation=result.degradation,
                    culprit=result.culprit,
                    factors=result.factors,
                )
            )
        return result

    def _record_known_interference(self, vm_name: str, app_id: str) -> None:
        """Record a detection that reused a previously diagnosed signature."""
        previous = self._last_confirmed.get(app_id)
        if previous is None or previous.culprit is None:
            return
        self.events.record(
            InterferenceDetectedEvent(
                epoch=self.current_epoch,
                vm_name=vm_name,
                degradation=previous.degradation,
                culprit=previous.culprit,
                factors=previous.factors,
            )
        )

    def _mitigate(
        self, host_name: str, analysis: AnalysisResult
    ) -> Optional[PlacementDecision]:
        if self._host_migration_epoch.get(host_name) == self.current_epoch:
            # A migration already left this host this epoch; give the
            # remaining VMs an epoch to observe the new conditions before
            # moving anything else.
            return None
        decision = self.placement_manager.resolve_interference(
            cluster=self.cluster,
            analysis=analysis,
            victim_host=host_name,
        )
        if decision is not None and decision.destination is not None:
            migrated = not decision.no_acceptable_destination
            if migrated:
                self._host_migration_epoch[host_name] = self.current_epoch
                self.events.record(
                    MigrationEvent(
                        epoch=self.current_epoch,
                        vm_name=decision.vm_name,
                        source=decision.source_host,
                        destination=decision.destination,
                        predicted_degradation=decision.best().score
                        if decision.best()
                        else 0.0,
                    )
                )
        return decision

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def total_profiling_seconds(self) -> float:
        """Total profiling time DeepDive has spent (bootstraps + analyses)."""
        return self.analyzer.total_profiling_seconds

    def analyzer_invocations(self) -> int:
        return self.analyzer.invocations

    def repository_size_bytes(self) -> int:
        return self.repository.size_bytes()
