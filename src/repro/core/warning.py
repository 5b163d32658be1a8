"""The warning system (Section 4.1, Algorithm 1).

The warning system runs continuously beside the hypervisor and decides,
for each VM's latest normalised metric vector, one of three things:

* the behaviour matches a known interference-free cluster — nothing to do;
* the behaviour deviates, but most sibling VMs running the same
  application on other physical machines deviate in the same region at
  the same time — a workload change, so the repository is extended and
  no analysis is needed;
* the behaviour deviates and the siblings do not corroborate it — the
  interference analyzer must be invoked.

Before an application has accumulated enough certified behaviours the
system runs in *conservative mode*: any suspicion triggers the analyzer,
which both guarantees no interference slips through early on and
accelerates the learning of the normal-behaviour set.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping as MappingABC
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import DeepDiveConfig
from repro.core.repository import BehaviorRepository
from repro.metrics.matrix import MetricMatrix
from repro.metrics.sample import WARNING_METRICS, MetricVector

#: Reason strings shared by the scalar and batch evaluation paths, so a
#: batch decision compares equal to its scalar counterpart.
_REASON_CONSERVATIVE = (
    "no interference-free model learned yet for this application; "
    "conservative mode invokes the analyzer"
)
_REASON_NORMAL = "behaviour matches a known interference-free cluster"
_REASON_KNOWN_INTERFERENCE = (
    "behaviour matches a previously diagnosed interference "
    "signature; no re-profiling needed"
)
_REASON_ANALYZE = (
    "behaviour deviates from every known normal cluster and is not "
    "corroborated by sibling VMs"
)


def _reason_workload_change(agreeing: int, siblings: int) -> str:
    return (
        f"{agreeing}/{siblings} sibling VMs deviate in the "
        "same region at the same time; treating as a workload change"
    )


class WarningAction(str, enum.Enum):
    """Possible outcomes of a warning-system evaluation."""

    #: Behaviour matches a known normal cluster; no action.
    NORMAL = "normal"
    #: Behaviour deviates but siblings deviate too; treat as workload change.
    WORKLOAD_CHANGE = "workload_change"
    #: Behaviour deviates and siblings do not corroborate; analyze.
    ANALYZE = "analyze"
    #: Behaviour matches a previously diagnosed interference signature;
    #: interference is reported without paying another analyzer run.
    KNOWN_INTERFERENCE = "known_interference"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass
class WarningDecision:
    """The warning system's verdict for one VM at one epoch."""

    action: WarningAction
    vm_name: str
    app_id: str
    #: Mahalanobis distance to the closest normal cluster (inf when no model).
    distance: float
    #: Whether the application is still in conservative (learning) mode.
    conservative: bool
    #: Human-readable explanation.
    reason: str
    #: Names of the metric dimensions that exceeded their thresholds.
    violated_dimensions: Tuple[str, ...] = ()
    #: Number of sibling VMs consulted for the global check.
    siblings_consulted: int = 0
    #: Number of siblings whose deviation matched this VM's.
    siblings_agreeing: int = 0

    @property
    def should_analyze(self) -> bool:
        return self.action is WarningAction.ANALYZE

    @property
    def flags_interference(self) -> bool:
        """True when the decision itself already identifies interference."""
        return self.action is WarningAction.KNOWN_INTERFERENCE


#: Warning actions in code order: a decision block's ``codes[i]`` is an
#: index into this tuple (``NORMAL`` is code 0).
ACTIONS: Tuple[WarningAction, ...] = tuple(WarningAction)
ACTION_CODES: Dict[WarningAction, int] = {a: i for i, a in enumerate(ACTIONS)}
NORMAL_CODE = ACTION_CODES[WarningAction.NORMAL]


def normal_decision(
    vm_name: str, app_id: str, distance: float, siblings_consulted: int
) -> WarningDecision:
    """The NORMAL verdict, field for field what :meth:`WarningSystem.evaluate`
    returns when a behaviour matches a known normal cluster."""
    return WarningDecision(
        action=WarningAction.NORMAL,
        vm_name=vm_name,
        app_id=app_id,
        distance=float(distance),
        conservative=False,
        reason=_REASON_NORMAL,
        siblings_consulted=int(siblings_consulted),
    )


class DecisionBlock(MappingABC):
    """One application's warning decisions for one epoch, as arrays.

    Row ``i`` describes ``vm_names[i]``: its action code (an index into
    :data:`ACTIONS`), Mahalanobis distance and sibling counts.  Only the
    non-NORMAL rows — deviations, usually none at steady state — carry a
    :class:`WarningDecision` object; a NORMAL row's decision is built on
    access, equal to the scalar :meth:`WarningSystem.evaluate` result.
    Read as a ``vm name -> WarningDecision`` mapping it is
    indistinguishable from the per-VM dict the batch path used to build.
    """

    __slots__ = (
        "app_id",
        "vm_names",
        "codes",
        "distances",
        "siblings_consulted",
        "siblings_agreeing",
        "_flagged",
        "_index",
    )

    def __init__(
        self,
        app_id: str,
        vm_names: Tuple[str, ...],
        codes: np.ndarray,
        distances: np.ndarray,
        siblings_consulted: np.ndarray,
        siblings_agreeing: np.ndarray,
        flagged: Dict[int, WarningDecision],
    ) -> None:
        self.app_id = app_id
        self.vm_names = vm_names
        self.codes = codes
        self.distances = distances
        self.siblings_consulted = siblings_consulted
        self.siblings_agreeing = siblings_agreeing
        #: Row -> decision for every non-NORMAL row.
        self._flagged = flagged
        self._index: Optional[Dict[str, int]] = None

    @classmethod
    def from_decisions(
        cls, app_id: str, decisions: Sequence[WarningDecision]
    ) -> "DecisionBlock":
        """Pack per-VM decisions (the scalar engine's) into a block."""
        n = len(decisions)
        codes = np.fromiter(
            (ACTION_CODES[d.action] for d in decisions), dtype=np.int8, count=n
        )
        return cls(
            app_id=app_id,
            vm_names=tuple(d.vm_name for d in decisions),
            codes=codes,
            distances=np.fromiter(
                (d.distance for d in decisions), dtype=float, count=n
            ),
            siblings_consulted=np.fromiter(
                (d.siblings_consulted for d in decisions), dtype=np.int32, count=n
            ),
            siblings_agreeing=np.fromiter(
                (d.siblings_agreeing for d in decisions), dtype=np.int32, count=n
            ),
            flagged={
                i: d for i, d in enumerate(decisions) if codes[i] != NORMAL_CODE
            },
        )

    def flagged_rows(self) -> List[int]:
        """The non-NORMAL rows, ascending."""
        return sorted(self._flagged)

    def decision(self, row: int) -> WarningDecision:
        """Row ``row``'s decision (NORMAL rows are built on each call)."""
        flagged = self._flagged.get(row)
        if flagged is not None:
            return flagged
        return normal_decision(
            self.vm_names[row],
            self.app_id,
            self.distances[row],
            self.siblings_consulted[row],
        )

    def __getitem__(self, vm_name: str) -> WarningDecision:
        if self._index is None:
            self._index = dict(zip(self.vm_names, range(len(self.vm_names))))
        return self.decision(self._index[vm_name])

    def __iter__(self) -> Iterator[str]:
        return iter(self.vm_names)

    def __len__(self) -> int:
        return len(self.vm_names)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DecisionBlock(app_id={self.app_id!r}, rows={len(self)}, "
            f"flagged={len(self._flagged)})"
        )


class WarningSystem:
    """Implements Algorithm 1 on top of the behaviour repository."""

    def __init__(
        self,
        repository: BehaviorRepository,
        config: Optional[DeepDiveConfig] = None,
    ) -> None:
        self.repository = repository
        self.config = config or DeepDiveConfig()
        #: Per-application count of evaluations performed (for statistics).
        self.evaluations: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def evaluate(
        self,
        vm_name: str,
        app_id: str,
        vector: MetricVector,
        sibling_vectors: Optional[Mapping[str, MetricVector]] = None,
    ) -> WarningDecision:
        """Run Algorithm 1 for one VM.

        Parameters
        ----------
        vm_name:
            The VM whose behaviour is being evaluated.
        app_id:
            The application the VM runs (drives repository lookups and
            the global-information comparison).
        vector:
            The VM's current normalised metric vector.
        sibling_vectors:
            Current metric vectors of other VMs running the same
            application on other machines (may be empty or None for the
            single-VM case).
        """
        self.evaluations[app_id] = self.evaluations.get(app_id, 0) + 1
        siblings = dict(sibling_vectors or {})
        siblings.pop(vm_name, None)

        # Conservative mode: no model yet (or too few behaviours).
        if not self.repository.has_model(app_id):
            return WarningDecision(
                action=WarningAction.ANALYZE,
                vm_name=vm_name,
                app_id=app_id,
                distance=float("inf"),
                conservative=True,
                reason=_REASON_CONSERVATIVE,
                siblings_consulted=len(siblings),
            )

        # ------------------------------------------------------------------
        # Local check: does the behaviour match a known normal cluster?
        # ------------------------------------------------------------------
        distance = self.repository.distance(app_id, vector)
        acceptance_radius = self.repository.acceptance_radius()
        thresholds = self.repository.thresholds(app_id)
        violated: Tuple[str, ...] = ()
        if distance <= acceptance_radius:
            return WarningDecision(
                action=WarningAction.NORMAL,
                vm_name=vm_name,
                app_id=app_id,
                distance=distance,
                conservative=False,
                reason=_REASON_NORMAL,
                siblings_consulted=len(siblings),
            )
        if thresholds is not None:
            violated = self._violated_dimensions(app_id, vector)

        # ------------------------------------------------------------------
        # Known-interference check: the analyzer has already diagnosed a
        # behaviour like this one, so re-profiling would be wasted work.
        # ------------------------------------------------------------------
        if self.repository.matches_interference(app_id, vector):
            return WarningDecision(
                action=WarningAction.KNOWN_INTERFERENCE,
                vm_name=vm_name,
                app_id=app_id,
                distance=distance,
                conservative=False,
                reason=_REASON_KNOWN_INTERFERENCE,
                violated_dimensions=violated,
                siblings_consulted=len(siblings),
            )

        # ------------------------------------------------------------------
        # Global check: are sibling VMs deviating in the same region?
        # ------------------------------------------------------------------
        agreeing = 0
        if siblings:
            agreeing = self._count_agreeing_siblings(app_id, vector, siblings)
            quorum = max(1, int(np.ceil(self.config.global_quorum * len(siblings))))
            if agreeing >= quorum:
                return WarningDecision(
                    action=WarningAction.WORKLOAD_CHANGE,
                    vm_name=vm_name,
                    app_id=app_id,
                    distance=distance,
                    conservative=False,
                    reason=_reason_workload_change(agreeing, len(siblings)),
                    violated_dimensions=violated,
                    siblings_consulted=len(siblings),
                    siblings_agreeing=agreeing,
                )

        return WarningDecision(
            action=WarningAction.ANALYZE,
            vm_name=vm_name,
            app_id=app_id,
            distance=distance,
            conservative=False,
            reason=_REASON_ANALYZE,
            violated_dimensions=violated,
            siblings_consulted=len(siblings),
            siblings_agreeing=agreeing,
        )

    # ------------------------------------------------------------------
    # Batch evaluation (the vectorized epoch engine)
    # ------------------------------------------------------------------
    def evaluate_batch(
        self,
        app_id: str,
        own: MetricMatrix,
        sibling_pool: Optional[MetricMatrix] = None,
    ) -> DecisionBlock:
        """Run Algorithm 1 for every VM of one application at once.

        Parameters
        ----------
        app_id:
            The application all rows of ``own`` belong to.
        own:
            The (smoothed) metric matrix of the VMs to evaluate.
        sibling_pool:
            The *latest* metric matrix of every VM running ``app_id``
            (usually a superset of ``own``'s VMs; a VM is never treated
            as its own sibling).

        Returns a :class:`DecisionBlock` with one row per row of ``own``.
        Each row's decision — action, distance, violated dimensions,
        sibling counts and reason — equals what :meth:`evaluate` returns
        for the corresponding scalar call.  Decision objects are built
        only for the non-NORMAL rows.
        """
        n = len(own)
        pool = sibling_pool if sibling_pool is not None else MetricMatrix.empty()
        m = len(pool)
        consulted = np.full(n, m, dtype=np.int32)
        if own.vm_names == pool.vm_names:
            consulted -= 1
        elif m:
            consulted -= np.fromiter(
                (name in pool for name in own.vm_names), dtype=np.int32, count=n
            )
        codes = np.zeros(n, dtype=np.int8)
        agreeing = np.zeros(n, dtype=np.int32)
        flagged: Dict[int, WarningDecision] = {}
        # The block shares these arrays and the dict; they are filled in
        # place below.
        block = DecisionBlock(
            app_id,
            own.vm_names,
            codes,
            np.full(n, np.inf),
            consulted,
            agreeing,
            flagged,
        )
        if n == 0:
            return block
        self.evaluations[app_id] = self.evaluations.get(app_id, 0) + n

        # Conservative mode: no model yet (or too few behaviours).
        if not self.repository.has_model(app_id):
            codes[:] = ACTION_CODES[WarningAction.ANALYZE]
            for i, name in enumerate(own.vm_names):
                flagged[i] = WarningDecision(
                    action=WarningAction.ANALYZE,
                    vm_name=name,
                    app_id=app_id,
                    distance=float("inf"),
                    conservative=True,
                    reason=_REASON_CONSERVATIVE,
                    siblings_consulted=int(consulted[i]),
                )
            return block

        # Local check, one matrix op for the whole epoch.
        acceptance_radius = self.repository.acceptance_radius()
        distances = self.repository.distance_batch(app_id, own.array)
        block.distances = distances
        deviating = np.flatnonzero(~(distances <= acceptance_radius))
        if deviating.size == 0:
            return block

        # Per-dimension MT violations, only for the deviating rows.
        rows = own.array[deviating]
        violated: List[Tuple[str, ...]] = [() for _ in range(deviating.size)]
        if self.repository.thresholds(app_id) is not None:
            violated = self._violated_dimensions_batch(app_id, rows)

        # Known-interference signatures, batched over the deviating rows.
        known = self.repository.matches_interference_batch(app_id, rows)

        # Global check: deviating, unknown rows with at least one sibling.
        need_global = [
            int(i)
            for i, is_known in zip(deviating, known)
            if not is_known and consulted[i] > 0
        ]
        agreeing_counts = np.zeros(n, dtype=int)
        if need_global and m > 0:
            pool_deviates = (
                self.repository.distance_batch(app_id, pool.array) > acceptance_radius
            )
            agreeing_counts = self._count_agreeing_batch(
                own, pool, need_global, pool_deviates
            )

        for k, i in enumerate(deviating.tolist()):
            name = own.vm_names[i]
            sibs = int(consulted[i])
            if known[k]:
                action = WarningAction.KNOWN_INTERFERENCE
                reason = _REASON_KNOWN_INTERFERENCE
                agree = 0
            else:
                action = WarningAction.ANALYZE
                reason = _REASON_ANALYZE
                agree = int(agreeing_counts[i])
                if sibs > 0:
                    quorum = max(1, int(np.ceil(self.config.global_quorum * sibs)))
                    if agree >= quorum:
                        action = WarningAction.WORKLOAD_CHANGE
                        reason = _reason_workload_change(agree, sibs)
            flagged[i] = WarningDecision(
                action=action,
                vm_name=name,
                app_id=app_id,
                distance=float(distances[i]),
                conservative=False,
                reason=reason,
                violated_dimensions=violated[k],
                siblings_consulted=sibs,
                siblings_agreeing=agree,
            )
            codes[i] = ACTION_CODES[action]
            agreeing[i] = agree
        return block

    def _violated_dimensions_batch(
        self, app_id: str, rows: np.ndarray
    ) -> List[Tuple[str, ...]]:
        """Row-wise :meth:`_violated_dimensions` over an ``(n, d)`` matrix."""
        entry = self.repository.entry(app_id)
        if entry.model is None or entry.scaler is None or entry.thresholds is None:
            return [() for _ in range(rows.shape[0])]
        scaled = entry.scaler.transform(rows)
        diffs = scaled[:, None, :] - entry.model.means[None, :, :]
        dists = np.sqrt(
            np.sum(diffs * diffs / entry.model.variances[None, :, :], axis=2)
        )
        closest = np.argmin(dists, axis=1)
        raw_means = entry.scaler.inverse_transform(entry.model.means)
        references = np.atleast_2d(raw_means)[closest]
        mask = entry.thresholds.violation_mask(
            rows, references, dimensions=WARNING_METRICS
        )
        return [
            tuple(name for name, hit in zip(WARNING_METRICS, row) if hit)
            for row in mask
        ]

    def _count_agreeing_batch(
        self,
        own: MetricMatrix,
        pool: MetricMatrix,
        rows: Sequence[int],
        pool_deviates: np.ndarray,
        chunk: int = 64,
    ) -> np.ndarray:
        """Batched :meth:`_count_agreeing_siblings` for selected rows.

        Works on ``(chunk, m, d)`` blocks so fleets of thousands of VMs
        never materialise a cubically sized temporary.
        """
        counts = np.zeros(len(own), dtype=int)
        dev_idx = np.flatnonzero(pool_deviates)
        if dev_idx.size == 0:
            return counts
        deviating_pool = pool.array[dev_idx]  # (m', d)
        pool_abs = np.abs(deviating_pool)
        dev_pos = {pool.vm_names[int(j)]: col for col, j in enumerate(dev_idx)}
        noise = max(getattr(self.repository, "measurement_noise", 0.05), 1e-3)
        limit = self.config.global_similarity_distance
        row_arr = np.asarray(list(rows), dtype=int)
        for start in range(0, row_arr.size, chunk):
            block = row_arr[start:start + chunk]
            S = own.array[block]  # (b, d)
            scale = np.maximum(
                np.maximum(np.abs(S)[:, None, :], pool_abs[None, :, :]) * noise,
                1e-9,
            )
            diffs = (S[:, None, :] - deviating_pool[None, :, :]) / scale
            gaps = np.sqrt(np.mean(diffs * diffs, axis=2))  # (b, m')
            agree = gaps <= limit
            for bi, i in enumerate(block):
                total = int(agree[bi].sum())
                self_col = dev_pos.get(own.vm_names[int(i)])
                if self_col is not None and agree[bi, self_col]:
                    total -= 1  # a VM is never its own sibling
                counts[int(i)] = total
        return counts

    # ------------------------------------------------------------------
    def _violated_dimensions(
        self, app_id: str, vector: MetricVector
    ) -> Tuple[str, ...]:
        """Dimensions that exceeded MT against the closest cluster mean."""
        entry = self.repository.entry(app_id)
        if entry.model is None or entry.scaler is None or entry.thresholds is None:
            return ()
        scaled = entry.scaler.transform(vector.as_array())
        # Closest component by diagonal Mahalanobis distance.
        diffs = scaled[None, :] - entry.model.means
        dists = np.sqrt(np.sum(diffs * diffs / entry.model.variances, axis=1))
        closest = int(np.argmin(dists))
        raw_mean = entry.scaler.inverse_transform(entry.model.means[closest])
        reference = dict(zip(vector.values.keys(), raw_mean))
        return entry.thresholds.violated_dimensions(vector.values, reference)

    def _count_agreeing_siblings(
        self,
        app_id: str,
        vector: MetricVector,
        siblings: Mapping[str, MetricVector],
    ) -> int:
        """Siblings whose current behaviour deviates in the same region.

        A sibling agrees when (a) it also deviates from the normal
        clusters (otherwise the deviation is local to this VM), and (b)
        its scaled metric vector lies close to this VM's scaled vector.
        """
        acceptance_radius = self.repository.acceptance_radius()
        own = vector.as_array()
        noise = max(getattr(self.repository, "measurement_noise", 0.05), 1e-3)
        agreeing = 0
        for sibling_vector in siblings.values():
            sibling_deviates = (
                self.repository.distance(app_id, sibling_vector) > acceptance_radius
            )
            if not sibling_deviates:
                continue
            other = sibling_vector.as_array()
            # Per-dimension difference measured in units of the assumed
            # measurement noise (same convention as the repository's
            # interference-signature matching), RMS-combined across
            # dimensions.  Two VMs undergoing the same workload change
            # end up within a few noise units of each other.
            scale = np.maximum(np.maximum(np.abs(own), np.abs(other)) * noise, 1e-9)
            gap = float(np.sqrt(np.mean(((own - other) / scale) ** 2)))
            if gap <= self.config.global_similarity_distance:
                agreeing += 1
        return agreeing

    # ------------------------------------------------------------------
    def learn_workload_change(self, app_id: str, vector: MetricVector) -> None:
        """Extend the normal-behaviour set after a corroborated workload change."""
        self.repository.add_normal(app_id, vector)
