"""A cluster of production hosts.

The cluster ties the per-host simulation together: it steps every host
each epoch, exposes the global view the warning system's "global
information" path needs (which VMs run the same application code on
which hosts), and executes migrations decided by the placement manager.

Two hardware substrates drive the per-epoch simulation:

* ``substrate="scalar"`` steps each host through the per-VM reference
  model (:meth:`~repro.virt.vmm.Host.step`);
* ``substrate="batch"`` (the default) resolves one epoch for **all VMs
  on all hosts at once** through the vectorized contention substrate
  (:mod:`repro.hardware.batch`), emitting the same counter samples and
  additionally recording a columnar per-epoch counter block that feeds
  the monitoring pipeline's :class:`~repro.metrics.matrix.MetricMatrix`
  without per-VM dictionary materialisation.

Both substrates are equivalent (same formulas, same noise draws; pinned
by ``tests/property/test_substrate_equivalence.py``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.hardware.batch import (
    N_COUNTERS,
    BatchBuffers,
    ClusterLayout,
    DemandMatrix,
    simulate_epoch_batch,
)
from repro.hardware.machine import outcome_from_batch
from repro.hardware.specs import MachineSpec, XEON_X5472
from repro.metrics.counters import CounterSample
from repro.virt.migration import MigrationEngine, MigrationRecord
from repro.virt.vm import VirtualMachine
from repro.virt.vmm import Host, VMPerformance


@dataclass
class CounterWindowView:
    """Columnar view of every VM's newest counters and smoothing window.

    ``latest`` and ``window_sum`` are raw ``(n, len(COUNTER_NAMES))``
    counter matrices (Table-1 column order): row ``i`` belongs to
    ``vm_names[i]``, ``window_sum[i]`` is the left-fold sum of the VM's
    last ``window`` epoch samples — exactly what the scalar path's
    ``aggregate_samples(history[-window:])`` computes.
    """

    vm_names: Tuple[str, ...]
    latest: np.ndarray
    window_sum: np.ndarray

    @cached_property
    def index(self) -> Dict[str, int]:
        """Row of each VM (built on first use)."""
        return dict(zip(self.vm_names, range(len(self.vm_names))))

    def __contains__(self, vm_name: str) -> bool:
        return vm_name in self.index


#: Where one batch group's hosts sit in its counter matrix: each host's
#: index in cluster host order, its VM count, and a ``(width, hosts)``
#: index array whose column ``h`` lists host ``h``'s rows, padded with
#: the index one past the matrix's last row (the zero row
#: :meth:`Cluster.step_host_sums` appends).
HostRowPlan = Tuple[np.ndarray, np.ndarray, np.ndarray]

_ZERO_ROW = np.zeros((1, N_COUNTERS), dtype=float)

_PLACEMENT_VERSION = attrgetter("placement_version")

#: One batch-substrate execution group: hosts sharing a machine spec and
#: epoch length, with their assembled cluster layout.
BatchGroup = Tuple[
    MachineSpec, float, List[Tuple[str, "Host", Tuple[str, ...]]], ClusterLayout
]


def _host_row_plan(
    order: Mapping[str, int], members: List[Tuple[str, "Host", Tuple[str, ...]]]
) -> HostRowPlan:
    """Row layout of one batch group (see :data:`HostRowPlan`)."""
    positions = np.asarray([order[name] for name, _, _ in members], dtype=np.intp)
    counts = np.asarray([len(names) for _, _, names in members], dtype=np.intp)
    starts = np.cumsum(counts) - counts
    width = np.arange(int(counts.max(initial=0)))[:, None]
    rows = np.where(width < counts, starts + width, counts.sum())
    return positions, counts, rows


class Cluster:
    """A set of production hosts plus the migration machinery."""

    def __init__(
        self,
        num_hosts: int = 1,
        spec: MachineSpec = XEON_X5472,
        epoch_seconds: float = 1.0,
        noise: float = 0.01,
        seed: Optional[int] = None,
        migration_engine: Optional[MigrationEngine] = None,
        host_prefix: str = "pm",
        substrate: str = "batch",
        track_performance: bool = True,
        cache_demands: bool = False,
        history_limit: Optional[int] = None,
        history_mode: str = "lazy",
    ) -> None:
        if num_hosts < 1:
            raise ValueError("a cluster needs at least one host")
        if substrate not in ("scalar", "batch"):
            raise ValueError(f"unknown hardware substrate {substrate!r}")
        self.epoch_seconds = epoch_seconds
        self.substrate = substrate
        self.hosts: Dict[str, Host] = {}
        for i in range(num_hosts):
            name = f"{host_prefix}{i}"
            self.hosts[name] = Host(
                name=name,
                spec=spec,
                noise=noise,
                seed=None if seed is None else seed + i,
                epoch_seconds=epoch_seconds,
                substrate=substrate,
                track_performance=track_performance,
                cache_demands=cache_demands,
                history_limit=history_limit,
                history_mode=history_mode,
            )
        self.migration_engine = migration_engine or MigrationEngine()
        #: Hosts currently out of service for maintenance.  Every
        #: placement flow respects it: the lifecycle engine's admission
        #: and drain evacuations, and the placement manager's
        #: mitigation migrations (:meth:`PlacementManager.resolve_interference`
        #: skips drained candidates).  Simulation still steps drained
        #: hosts (they may hold stranded VMs until capacity appears).
        self.drained_hosts: set = set()
        self.current_epoch = 0
        #: Cached VM -> (host, VM) placement map plus the placement
        #: signature it was built at (see :meth:`placement_signature`).
        self._placement_cache: Optional[Dict[str, Tuple[str, VirtualMachine]]] = None
        self._placement_signature_cached: Tuple[int, int] = (-1, -1)
        #: Cached batch-substrate spec groups + assembled layouts.
        self._batch_groups = None
        #: Cached packed demand matrices per group (steady-load epochs).
        self._batch_matrix_cache: Dict[int, Tuple[DemandMatrix, np.ndarray]] = {}
        #: Reusable batch-substrate output buffers per group (steady
        #: placements stop reallocating the epoch's counter matrix).
        self._batch_buffers: Dict[int, BatchBuffers] = {}
        #: Hosts already warned about a history_limit shorter than a
        #: requested monitoring window (one warning per host).
        self._short_history_warned: set = set()
        #: Row layout of each batch group's hosts plus which hosts held
        #: VMs, rebuilt with the groups.
        self._host_row_plans: Tuple[List[HostRowPlan], np.ndarray] = (
            [],
            np.zeros(0, dtype=bool),
        )
        #: The latest batch step's counter blocks: ``(placement
        #: signature, row plans, one counter matrix per group)``.
        self._last_step: Optional[tuple] = None

    # ------------------------------------------------------------------
    # Topology management
    # ------------------------------------------------------------------
    def host_names(self) -> List[str]:
        return sorted(self.hosts)

    def get_host(self, name: str) -> Host:
        return self.hosts[name]

    def add_host(self, host: Host) -> None:
        if host.name in self.hosts:
            raise ValueError(f"host {host.name!r} already in cluster")
        self.hosts[host.name] = host
        self._placement_cache = None

    def place_vm(
        self,
        vm: VirtualMachine,
        host_name: str,
        load: float = 0.0,
        cpu_cap: float = 1.0,
    ) -> None:
        """Place a VM on a named host."""
        self.hosts[host_name].add_vm(vm, load=load, cpu_cap=cpu_cap)

    def host_of(self, vm_name: str) -> Optional[str]:
        """The host currently running ``vm_name``, or None."""
        entry = self._placement().get(vm_name)
        return entry[0] if entry is not None else None

    def remove_vm(self, vm_name: str) -> VirtualMachine:
        """Remove a VM from the cluster entirely (a tenant departure).

        The host's placement version bumps, so every placement-derived
        cache (placement map, batch group layouts, packed demand
        matrices, counter-store ring segment) refreshes on the next
        epoch; the VM's counter/performance histories are retained on
        its last host, exactly as after :meth:`Host.remove_vm`.
        """
        host_name = self.host_of(vm_name)
        if host_name is None:
            raise KeyError(f"VM {vm_name!r} not placed in the cluster")
        return self.hosts[host_name].remove_vm(vm_name)

    def placement_signature(self) -> Tuple[int, int]:
        """Cheap fingerprint of the cluster's placement state.

        Host placement versions only ever increase, so any VM add/remove
        (including the two sides of a migration) changes the sum; the
        host count covers :meth:`add_host`.
        """
        return (len(self.hosts), sum(map(_PLACEMENT_VERSION, self.hosts.values())))

    def _placement(self) -> Dict[str, Tuple[str, VirtualMachine]]:
        """The cached VM -> (host name, VM) map, rebuilt only when the
        placement changed (migrations, added hosts/VMs)."""
        signature = self.placement_signature()
        if (
            self._placement_cache is None
            or signature != self._placement_signature_cached
        ):
            out: Dict[str, Tuple[str, VirtualMachine]] = {}
            for host_name, host in self.hosts.items():
                for vm_name, vm in host._vms.items():
                    out[vm_name] = (host_name, vm)
            self._placement_cache = out
            self._placement_signature_cached = signature
        return self._placement_cache

    def all_vms(self) -> Dict[str, Tuple[str, VirtualMachine]]:
        """All VMs in the cluster: vm name -> (host name, VM).

        Served from the placement cache; the returned dict is a copy, so
        callers may not observe later placement changes through it.
        """
        return dict(self._placement())

    def vm_count(self) -> int:
        """Number of placed VMs, straight off the placement cache.

        Unlike :meth:`all_vms` this copies nothing — fleet-level
        aggregation paths (``Fleet.stats()``, worker statistics
        collection) call it once per shard per snapshot, and a regional
        fleet multiplies shard counts tenfold.
        """
        return len(self._placement())

    def vms_running_app(self, app_id: str) -> List[Tuple[str, VirtualMachine]]:
        """All (host, VM) pairs running the given application code."""
        return [
            (host_name, vm)
            for host_name, vm in self._placement().values()
            if vm.app_id == app_id
        ]

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def step(
        self, loads: Optional[Mapping[str, float]] = None
    ) -> Dict[str, Dict[str, VMPerformance]]:
        """Advance every host by one epoch.

        Parameters
        ----------
        loads:
            Optional per-VM load overrides (VM name -> fraction of nominal),
            routed automatically to whichever host runs each VM.

        Returns
        -------
        dict
            host name -> (vm name -> performance record).
        """
        per_host_loads: Dict[str, Dict[str, float]] = {}
        if loads:
            placement = self._placement()
            for vm_name, load in loads.items():
                if vm_name not in placement:
                    raise KeyError(f"VM {vm_name!r} not placed in the cluster")
                host_name = placement[vm_name][0]
                per_host_loads.setdefault(host_name, {})[vm_name] = load

        if self.substrate == "batch":
            results = self._step_batch(per_host_loads)
        else:
            results = {
                host_name: host.step(per_host_loads.get(host_name))
                for host_name, host in self.hosts.items()
            }
        self.current_epoch += 1
        return results

    def _batch_group_plan(self, placement: Tuple[int, int]) -> List[BatchGroup]:
        """The (cached) spec groups and assembled layouts of the cluster.

        Rebuilt only when the placement changes: layouts depend on the
        VM sets, vCPU counts and pinning, not on per-epoch demand values.
        Hosts sharing a machine spec and epoch length form one batch;
        heterogeneous clusters simply split into a few batches.
        """
        signature = (
            placement,
            tuple(host.epoch_seconds for host in self.hosts.values()),
        )
        if self._batch_groups is not None and self._batch_groups[0] == signature:
            return self._batch_groups[1]
        self._batch_matrix_cache = {}
        self._batch_buffers = {}
        grouped: Dict[Tuple[int, float], List[Tuple[str, Host]]] = {}
        for host_name, host in self.hosts.items():
            key = (id(host.machine.spec), host.epoch_seconds)
            grouped.setdefault(key, []).append((host_name, host))
        built = []
        for (_, epoch_seconds), members in grouped.items():
            spec = members[0][1].machine.spec
            plans = []
            with_names: List[Tuple[str, Host, Tuple[str, ...]]] = []
            for host_name, host in members:
                plans.append(host.batch_plan_current())
                with_names.append((host_name, host, tuple(host._vms)))
            layout = ClusterLayout.assemble(plans, spec.architecture.cache_domains)
            built.append((spec, epoch_seconds, with_names, layout))
        self._batch_groups = (signature, built)
        order = {name: i for i, name in enumerate(self.hosts)}
        plans = [_host_row_plan(order, members) for _, _, members, _ in built]
        populated = np.zeros(len(self.hosts), dtype=bool)
        for positions, counts, _ in plans:
            populated[positions] = counts > 0
        self._host_row_plans = (plans, populated)
        return built

    def _step_batch(
        self, per_host_loads: Mapping[str, Mapping[str, float]]
    ) -> Dict[str, Dict[str, VMPerformance]]:
        """One vectorized epoch over all hosts of the cluster."""
        for host_name, host in self.hosts.items():
            host.collect_demand_rows(per_host_loads.get(host_name))
        results: Dict[str, Dict[str, VMPerformance]] = {}
        signature = self.placement_signature()
        groups = self._batch_group_plan(signature)
        step_counters: List[np.ndarray] = []
        for g, (spec, epoch_seconds, members, layout) in enumerate(groups):
            cached = self._batch_matrix_cache.get(g)
            if cached is None or any(host.demands_changed for _, host, _ in members):
                tables = [host.demand_row_matrix() for _, host, _ in members]
                caps: List[float] = []
                for _, host, _names in members:
                    caps.extend(host.cpu_cap_values())
                cached = (
                    DemandMatrix.from_table(np.vstack(tables)),
                    np.asarray(caps, dtype=float),
                )
                self._batch_matrix_cache[g] = cached
            demand_matrix, cap_array = cached
            noise_rngs = [
                (host.machine.noise, host.machine._rng) for _, host, _ in members
            ]

            buffers = self._batch_buffers.get(g)
            if buffers is None:
                buffers = self._batch_buffers[g] = BatchBuffers()
            batch = simulate_epoch_batch(
                spec,
                demand_matrix,
                layout,
                epoch_seconds,
                cap_array,
                noise_rngs,
                buffers=buffers,
            )
            step_counters.append(batch.counters)

            offset = 0
            for host_name, host, names in members:
                k = len(names)
                block = batch.counters[offset:offset + k]
                if host.track_performance:
                    # Ground-truth tracking materialises per-VM outcomes
                    # (and their samples) eagerly; fleet monitoring runs
                    # with tracking off and never enters this branch.
                    offered = host.offered_map()
                    samples = batch.samples(offset, offset + k)
                    outcomes = {
                        name: outcome_from_batch(batch, offset + j, samples[j])
                        for j, name in enumerate(names)
                    }
                    results[host_name] = host.commit_epoch(
                        outcomes,
                        offered,
                        counter_block=(names, block),
                    )
                else:
                    # The lean epoch edge: one ring ingest per host, no
                    # CounterSample objects, no per-VM dicts or appends.
                    host.commit_epoch_block(names, block)
                    results[host_name] = {}
                offset += k
        self._last_step = (signature, self._host_row_plans, step_counters)
        return results

    def step_host_sums(self) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Per-host totals of the latest batch step's counter block.

        Returns ``(sums, populated)`` in host order: ``populated[h]``
        says whether host ``h`` holds VMs *now* (a migration after the
        step may have emptied or filled it) and ``sums[h]`` adds up its
        rows of the step's counter matrix in row order — exactly
        ``block.sum(axis=0)`` of the block its counter store ingested —
        or is zero when the host holds no VMs now.  ``None`` when a
        populated host has no block from a batch step (scalar
        substrate, not stepped yet, or added since).
        """
        n_hosts = len(self.hosts)
        sums = np.zeros((n_hosts, N_COUNTERS), dtype=float)
        record = self._last_step
        if record is not None and record[0] == self.placement_signature():
            populated = record[1][1]
        else:
            populated = np.fromiter(
                (bool(host._vms) for host in self.hosts.values()),
                dtype=bool,
                count=n_hosts,
            )
            stepped = 0 if record is None else record[0][0]
            if populated[stepped:].any():
                return None
            if record is None:
                return sums, populated
        _, (plans, _), counters = record
        for (positions, _, rows), block in zip(plans, counters):
            # Row position j of every host at once; zero padding adds
            # nothing, so each host's rows are summed in row order.
            padded = np.concatenate((block, _ZERO_ROW))[rows]
            if positions.size == n_hosts:
                # One group holds every host, in host order.
                for rows_j in padded:
                    sums += rows_j
                continue
            acc = np.zeros((positions.size, N_COUNTERS), dtype=float)
            for rows_j in padded:
                acc += rows_j
            sums[positions] = acc
        if populated is not record[1][1]:
            sums[~populated] = 0.0
        return sums, populated

    # ------------------------------------------------------------------
    # Migration
    # ------------------------------------------------------------------
    def migrate_vm(self, vm_name: str, destination: str) -> MigrationRecord:
        """Migrate a VM to ``destination``, preserving its current load."""
        source = self.host_of(vm_name)
        if source is None:
            raise KeyError(f"VM {vm_name!r} not placed in the cluster")
        if destination not in self.hosts:
            raise KeyError(f"unknown destination host {destination!r}")
        if source == destination:
            raise ValueError("source and destination hosts are the same")
        src_host = self.hosts[source]
        dst_host = self.hosts[destination]
        load = src_host.get_load(vm_name)
        vm = src_host.remove_vm(vm_name)
        if not dst_host.can_fit(vm):
            # Roll back so the cluster stays consistent.
            src_host.add_vm(vm, load=load)
            raise ValueError(
                f"destination host {destination!r} cannot fit VM {vm_name!r}"
            )
        dst_host.add_vm(vm, load=load)
        return self.migration_engine.migrate(vm, source=source, destination=destination)

    # ------------------------------------------------------------------
    # Global introspection used by DeepDive's warning system
    # ------------------------------------------------------------------
    def counter_windows(
        self, window: int
    ) -> Dict[str, List[CounterSample]]:
        """The last ``window`` samples of every VM, in one pass.

        The scalar monitoring path's entry point: one bulk read per epoch
        instead of one host lookup per VM — the last entry of each
        window is the VM's newest sample.  VMs that have not completed
        an epoch yet are absent from the result.
        """
        if window < 1:
            raise ValueError("window must be at least 1")
        out: Dict[str, List[CounterSample]] = {}
        for host in self.hosts.values():
            store = host.counter_store
            for vm_name in host._vms:
                if vm_name in store and store.length(vm_name):
                    out[vm_name] = store.histories[vm_name][-window:]
        return out

    def counter_window_view(self, window: int) -> CounterWindowView:
        """Columnar equivalent of :meth:`counter_windows`.

        When a host's counter-store ring covers the requested window
        with a stable VM placement, the view is a few array slices and
        sums read straight from the ring; hosts where that is not the
        case (scalar substrate, recent migrations, VMs younger than the
        window) fall back to a per-VM assembly — itself served from raw
        ring rows wherever the epochs live there — so the view is always
        exactly equivalent to the scalar window assembly.

        A ``history_limit`` shorter than the window silently trims the
        smoothing windows to the retained epochs; the first time that
        happens on a host, a :class:`RuntimeWarning` names the host and
        limit so the misconfiguration is visible.
        """
        if window < 1:
            raise ValueError("window must be at least 1")
        names_parts: List[str] = []
        latest_parts: List[np.ndarray] = []
        sum_parts: List[np.ndarray] = []
        for host in self.hosts.values():
            if not host._vms:
                continue
            store = host.counter_store
            fast = store.window_view(
                window, tuple(host._vms), host.current_epoch
            )
            if fast is not None:
                names, latest, acc = fast
                names_parts.extend(names)
                latest_parts.append(latest)
                sum_parts.append(acc)
                continue
            if (
                host.history_limit is not None
                and window > host.history_limit
                and host.name not in self._short_history_warned
            ):
                self._short_history_warned.add(host.name)
                warnings.warn(
                    f"counter_window_view: host {host.name!r} retains only "
                    f"history_limit={host.history_limit} epochs but a "
                    f"window of {window} was requested; smoothing windows "
                    "on this host are trimmed to the retained epochs "
                    "(per-VM fallback assembly)",
                    RuntimeWarning,
                    stacklevel=2,
                )
            for vm_name in host._vms:
                if vm_name not in store:
                    continue
                fold = store.vm_window_fold(vm_name, window)
                if fold is None:
                    continue
                acc_row, latest_row = fold
                names_parts.append(vm_name)
                latest_parts.append(latest_row)
                sum_parts.append(acc_row)
        if not names_parts:
            empty = np.empty((0, N_COUNTERS), dtype=float)
            return CounterWindowView(vm_names=(), latest=empty, window_sum=empty)
        return CounterWindowView(
            vm_names=tuple(names_parts),
            latest=np.vstack(latest_parts),
            window_sum=np.vstack(sum_parts),
        )

    def latest_counters_for_app(
        self, app_id: str, exclude_vm: Optional[str] = None
    ) -> Dict[str, CounterSample]:
        """Latest counters of every VM running ``app_id`` (optionally excluding one)."""
        out: Dict[str, CounterSample] = {}
        for host_name, vm in self.vms_running_app(app_id):
            if exclude_vm is not None and vm.name == exclude_vm:
                continue
            sample = self.hosts[host_name].latest_counters(vm.name)
            if sample is not None:
                out[vm.name] = sample
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Cluster(hosts={self.host_names()})"
