"""Columnar-native monitoring epoch equivalence.

``DeepDive.run_epoch`` keeps its decisions as arrays from the warning
system's :class:`~repro.core.warning.DecisionBlock` to the fleet's
:class:`~repro.fleet.executor.ColumnarShardReport`, and builds objects
only for the non-NORMAL rows.  This suite pins that the arrays say
exactly what the per-VM objects say:

* the columnar shard reports equal the columns derived from
  ``report="full"`` observations — names, action codes, distances
  (``inf`` included), sibling counts, analyzed and confirmed flags —
  across epoch engines × hardware substrates × serial / process
  execution at 1 and 2 workers, on a churning fleet with interference
  episodes and mitigation;
* the NORMAL decisions a report materialises on access equal what the
  scalar :meth:`~repro.core.warning.WarningSystem.evaluate` returns;
* the shard counter totals are bit-identical to folding every host's
  newest counter-store block one host at a time, on hosts with 1–8 VMs.
"""

import numpy as np
import pytest

from repro.core.config import DeepDiveConfig
from repro.core.warning import ACTION_CODES, WarningAction
from repro.fleet import (
    InterferenceEpisode,
    RunOptions,
    build_fleet,
    churn_timeline,
    synthesize_datacenter,
)
from repro.fleet.executor import _shard_counter_totals
from repro.hardware.specs import CORE_I7_E5640
from repro.metrics.counters import N_COUNTERS
from repro.metrics.sample import MetricVector
from repro.virt.cluster import Cluster
from repro.virt.vm import VirtualMachine
from repro.virt.vmm import Host
from repro.workloads.cloud import DataServingWorkload

EPOCHS = 9

FULL = RunOptions(analyze=True, report="full")
COLUMNAR = RunOptions(analyze=True, report="columnar")


def _config() -> DeepDiveConfig:
    return DeepDiveConfig(
        profile_epochs=3,
        bootstrap_load_levels=3,
        bootstrap_epochs_per_level=3,
        min_normal_behaviors=8,
        placement_eval_epochs=3,
        smoothing_epochs=2,
    )


def _build(engine, substrate, executor="serial", max_workers=None):
    scenario = synthesize_datacenter(
        20,
        num_shards=2,
        seed=31,
        episodes=[
            InterferenceEpisode(
                shard=0, host_index=1, start_epoch=2, end_epoch=5, kind="memory"
            ),
            InterferenceEpisode(
                shard=1, host_index=0, start_epoch=4, end_epoch=8, kind="memory"
            ),
        ],
        timeline=churn_timeline(
            ["shard0", "shard1"],
            epochs=EPOCHS,
            seed=7,
            arrivals_per_epoch=1.0,
            mean_lifetime_epochs=5.0,
        ),
    )
    fleet = build_fleet(
        scenario,
        config=_config(),
        engine=engine,
        mitigate=True,
        substrate=substrate,
        executor=executor,
        max_workers=max_workers,
    )
    fleet.bootstrap()
    return fleet


def _full_columns(shard_report):
    """The columns a columnar report must carry, read off observations."""
    rows = list(shard_report.observations.items())
    return {
        "vm_names": tuple(name for name, _ in rows),
        "action_codes": np.array(
            [ACTION_CODES[obs.warning.action] for _, obs in rows], dtype=np.int8
        ),
        "distances": np.array([obs.warning.distance for _, obs in rows]),
        "siblings_consulted": np.array(
            [obs.warning.siblings_consulted for _, obs in rows], dtype=np.int32
        ),
        "siblings_agreeing": np.array(
            [obs.warning.siblings_agreeing for _, obs in rows], dtype=np.int32
        ),
        "analyzed": np.array([obs.analysis is not None for _, obs in rows], dtype=bool),
        "confirmed": np.array(
            [obs.interference_confirmed for _, obs in rows], dtype=bool
        ),
    }


def _columnar_columns(shard_report):
    return {
        "vm_names": tuple(shard_report.vm_names),
        "action_codes": np.array(shard_report.action_codes),
        "distances": np.array(shard_report.distances),
        "siblings_consulted": np.array(shard_report.siblings_consulted),
        "siblings_agreeing": np.array(shard_report.siblings_agreeing),
        "analyzed": np.array(shard_report.analyzed),
        "confirmed": np.array(shard_report.confirmed),
    }


def _fold_host_blocks(shard):
    """Reference counter totals: every populated host's newest ring
    block summed, hosts added one at a time in host order."""
    populated = [host for host in shard.cluster.hosts.values() if host._vms]
    total = np.zeros(N_COUNTERS, dtype=float)
    for host in populated:
        latest = host.counter_store.latest_block()
        if latest is None:
            return None
        total += latest.sum(axis=0)
    return total


def _run(fleet, options, fold=False):
    """Per-epoch shard columns (+ counter totals) of one fleet run."""
    epochs = []
    try:
        for _ in range(EPOCHS):
            report = fleet.run_epoch(options=options)
            columns = {}
            for shard_id, shard_report in report.shard_reports.items():
                if options.report == "full":
                    columns[shard_id] = _full_columns(shard_report)
                    continue
                columns[shard_id] = _columnar_columns(shard_report)
                totals = shard_report.counter_totals
                columns[shard_id]["counter_totals"] = (
                    None if totals is None else np.array(totals)
                )
                if fold:
                    columns[shard_id]["fold"] = _fold_host_blocks(
                        fleet.shards[shard_id]
                    )
            epochs.append(columns)
    finally:
        fleet.shutdown()
    return epochs


def _assert_same_columns(expected, actual, label):
    for epoch, (exp_epoch, act_epoch) in enumerate(zip(expected, actual)):
        assert list(exp_epoch) == list(act_epoch), f"{label}: shard set, epoch {epoch}"
        for shard_id, exp in exp_epoch.items():
            act = act_epoch[shard_id]
            where = f"{label}: {shard_id} epoch {epoch}"
            assert act["vm_names"] == exp["vm_names"], where
            for key in (
                "action_codes",
                "distances",
                "siblings_consulted",
                "siblings_agreeing",
                "analyzed",
                "confirmed",
            ):
                np.testing.assert_array_equal(
                    act[key], exp[key], err_msg=f"{where} {key}"
                )
    assert len(expected) == len(actual) == EPOCHS


_REFERENCES = {}


def _reference(engine, substrate):
    """The serial full-report and columnar runs of one engine × substrate."""
    key = (engine, substrate)
    if key not in _REFERENCES:
        _REFERENCES[key] = (
            _run(_build(engine, substrate), FULL),
            _run(_build(engine, substrate), COLUMNAR, fold=True),
        )
    return _REFERENCES[key]


GRID = [(e, s) for e in ("batch", "scalar") for s in ("batch", "scalar")]


class TestColumnarEpochEquivalence:
    def test_scenario_exercises_every_action_path(self):
        """Flagged rows of every kind must occur, or the equivalence
        below would only ever compare NORMAL rows."""
        full, _ = _reference("batch", "batch")
        codes = np.concatenate(
            [shard["action_codes"] for epoch in full for shard in epoch.values()]
        )
        analyzed = sum(
            int(shard["analyzed"].sum()) for epoch in full for shard in epoch.values()
        )
        confirmed = sum(
            int(shard["confirmed"].sum()) for epoch in full for shard in epoch.values()
        )
        distances = np.concatenate(
            [shard["distances"] for epoch in full for shard in epoch.values()]
        )
        assert (codes == ACTION_CODES[WarningAction.NORMAL]).any()
        assert (codes == ACTION_CODES[WarningAction.ANALYZE]).any()
        assert analyzed > 0 and confirmed > 0
        assert np.isinf(distances).any(), "conservative rows carry inf distances"

    @pytest.mark.parametrize("engine,substrate", GRID)
    def test_serial_columnar_equals_full_observations(self, engine, substrate):
        full, columnar = _reference(engine, substrate)
        _assert_same_columns(full, columnar, f"serial {engine}/{substrate}")

    @pytest.mark.parametrize("engine,substrate", GRID)
    @pytest.mark.parametrize("workers", [1, 2])
    def test_process_columnar_equals_full_observations(
        self, engine, substrate, workers
    ):
        full, serial = _reference(engine, substrate)
        process = _run(
            _build(engine, substrate, executor="process", max_workers=workers),
            COLUMNAR,
        )
        label = f"process x{workers} {engine}/{substrate}"
        _assert_same_columns(full, process, label)
        for epoch, (a, b) in enumerate(zip(serial, process)):
            for shard_id in a:
                ta, tb = a[shard_id]["counter_totals"], b[shard_id]["counter_totals"]
                assert (ta is None) == (tb is None), f"{label} epoch {epoch}"
                if ta is not None:
                    assert ta.tobytes() == tb.tobytes(), f"{label} epoch {epoch}"

    @pytest.mark.parametrize("engine,substrate", GRID)
    def test_counter_totals_match_host_fold(self, engine, substrate):
        """Totals through churn, episodes and mitigation migrations are
        the per-host fold, bit for bit (``None`` on the scalar
        substrate, which keeps no counter blocks)."""
        _, columnar = _reference(engine, substrate)
        for epoch, shards in enumerate(columnar):
            for shard_id, columns in shards.items():
                totals, fold = columns["counter_totals"], columns["fold"]
                if substrate == "scalar":
                    assert totals is None and fold is None
                    continue
                assert totals is not None and fold is not None
                assert totals.tobytes() == fold.tobytes(), (
                    f"{engine}/{substrate} {shard_id} epoch {epoch}"
                )


def _scalar_decision(deepdive, vm_name):
    """What the scalar warning system decides for one VM right now."""
    cluster = deepdive.cluster
    placement = cluster.all_vms()
    host_name, vm = placement[vm_name]
    windows = cluster.counter_windows(deepdive.config.smoothing_epochs)
    siblings = {
        other: MetricVector.from_sample(window[-1], label=other_vm.app_id)
        for other, window in windows.items()
        for _, other_vm in [placement[other]]
        if other != vm_name and other_vm.app_id == vm.app_id
    }
    return deepdive.warning_system.evaluate(
        vm_name=vm_name,
        app_id=vm.app_id,
        vector=deepdive._smoothed_vector(host_name, vm_name, vm.app_id),
        sibling_vectors=siblings,
    )


class TestLazyNormalDecisions:
    @pytest.mark.parametrize("engine", ["batch", "scalar"])
    def test_materialised_normal_decisions_equal_scalar_evaluate(self, engine):
        fleet = _build("batch", "batch")
        try:
            for _ in range(4):
                fleet.run_epoch(options=COLUMNAR)
            checked = 0
            for shard in fleet.shards.values():
                shard.cluster.step()
                report = shard.deepdive.run_epoch(
                    analyze=False, learn=False, engine=engine
                )
                normal_rows = np.flatnonzero(
                    report.action_codes == ACTION_CODES[WarningAction.NORMAL]
                )
                for row in normal_rows.tolist():
                    vm_name = report.vm_names[row]
                    lazy = report.observations[vm_name].warning
                    assert lazy == _scalar_decision(shard.deepdive, vm_name)
                    checked += 1
            assert checked > 0
        finally:
            fleet.shutdown()


def _cluster_with_hosts(vm_counts, substrate="batch"):
    cluster = Cluster(
        num_hosts=len(vm_counts), seed=11, substrate=substrate, track_performance=False
    )
    for h, count in enumerate(vm_counts):
        for j in range(count):
            cluster.place_vm(
                VirtualMachine(f"vm{h}-{j}", DataServingWorkload()),
                f"pm{h}",
                load=0.3 + 0.05 * j,
            )
    return cluster


class _Shard:
    def __init__(self, cluster):
        self.cluster = cluster


class TestCounterTotalsBitIdentical:
    def test_hosts_with_one_to_eight_vms(self):
        cluster = _cluster_with_hosts([1, 2, 3, 4, 5, 6, 7, 8, 0, 3])
        shard = _Shard(cluster)
        for _ in range(5):
            cluster.step()
            totals = _shard_counter_totals(shard)
            assert totals.tobytes() == _fold_host_blocks(shard).tobytes()

    def test_mixed_machine_specs(self):
        """Hosts of two machine specs step as two batch groups whose
        hosts interleave in host order."""
        cluster = _cluster_with_hosts([3, 1])
        for h, count in ((2, 4), (3, 2)):
            cluster.add_host(
                Host(
                    name=f"pm{h}",
                    spec=CORE_I7_E5640,
                    seed=11 + h,
                    substrate="batch",
                    track_performance=False,
                )
            )
            for j in range(count):
                cluster.place_vm(
                    VirtualMachine(f"vm{h}-{j}", DataServingWorkload()),
                    f"pm{h}",
                    load=0.4,
                )
        cluster.add_host(
            Host(name="pm4", seed=15, substrate="batch", track_performance=False)
        )
        cluster.place_vm(VirtualMachine("vm4-0", DataServingWorkload()), "pm4", 0.5)
        shard = _Shard(cluster)
        for _ in range(3):
            cluster.step()
            assert len(cluster._batch_groups[1]) == 2
            totals = _shard_counter_totals(shard)
            assert totals.tobytes() == _fold_host_blocks(shard).tobytes()

    def test_after_migration_and_departure(self):
        """A host emptied or filled after the step (mitigation) still
        folds exactly like its counter store's newest block."""
        cluster = _cluster_with_hosts([1, 4, 8, 0, 2])
        shard = _Shard(cluster)
        cluster.step()
        cluster.migrate_vm("vm0-0", "pm3")  # pm0 emptied, pm3 filled
        totals = _shard_counter_totals(shard)
        assert totals.tobytes() == _fold_host_blocks(shard).tobytes()
        cluster.remove_vm("vm2-7")
        cluster.step()
        totals = _shard_counter_totals(shard)
        assert totals.tobytes() == _fold_host_blocks(shard).tobytes()
