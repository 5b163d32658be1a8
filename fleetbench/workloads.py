"""The benchmark's three closed-loop fleet workloads.

Every workload is one fleet driven from a single process through the
public API; one fleet epoch is one operation, and the next epoch is
issued only when the previous one has returned.  The scenario is a pure
function of ``(workload, seed, epochs)``: the fleet receives only the
generated scenario, never the seed itself.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

from repro.core.config import DeepDiveConfig
from repro.fleet import (
    DatacenterScenario,
    FleetTimeline,
    InterferenceEpisode,
    churn_timeline,
    synthesize_datacenter,
)

#: Stress kinds cycled through the churn workload's episodes.
STRESS_KINDS: Tuple[str, ...] = ("memory", "disk", "network")

#: Timed epochs per second of ``--seconds``.  The epoch count is fixed
#: from ``--seconds`` (not by the clock), so a run's simulated outputs
#: are a pure function of its arguments and the output check can cover
#: every epoch.  At ``--seconds 20`` the timed epochs take ~18 s
#: (steady-serial), ~30 s (churn-interference) and ~11 s
#: (service-process) on a 2-vCPU host.
EPOCHS_PER_SECOND = 20

#: At least this many timed epochs, so that >= 10 lie beyond p90.
MIN_TIMED_EPOCHS = 100


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Production VMs at build time.
    num_vms: int
    num_shards: int
    executor: str
    max_workers: Optional[int]
    #: Staggered interference episodes, ~1%/epoch churn and mitigation.
    interference: bool
    #: Epochs run as part of set-up (learning phase, caches filled).
    warmup_epochs: int
    #: Set-ups per run; ``setup_s`` is their median.  Serial runs rotate
    #: CPUs per set-up and per snapshot (see ``harness._CpuTurns``), so
    #: they take an even number of each: a median of an odd count on
    #: 2 CPUs is the slower CPU's value whenever it got the extra sample.
    setups: int
    #: Back-to-back ``snapshot()`` pauses timed by traced runs.
    snapshots: int
    #: Fixed timed-epoch count (``None``: derived from ``--seconds``).
    timed_epochs: Optional[int] = None

    @property
    def scenario_key(self) -> str:
        """Workloads sharing a key run identical simulations."""
        return "churn" if self.interference else "steady"

    def epochs_for(self, seconds: int) -> int:
        if self.timed_epochs is not None:
            return self.timed_epochs
        return max(MIN_TIMED_EPOCHS, round(seconds * EPOCHS_PER_SECOND))

    def tiny(self) -> "Workload":
        """The same workload at self-test scale (a few epochs, ~100 VMs)."""
        return replace(
            self,
            num_vms=96 if self.interference else 128,
            warmup_epochs=3,
            setups=1,
            snapshots=1,
            timed_epochs=12,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="steady-serial",
            why=(
                "quiet 2k-VM fleet on the serial executor: the hot loop of "
                "hardware, metrics and warning with every placement cache hit"
            ),
            num_vms=2000,
            num_shards=4,
            executor="serial",
            max_workers=None,
            interference=False,
            warmup_epochs=10,
            setups=4,
            snapshots=8,
        ),
        Workload(
            name="churn-interference",
            why=(
                "500 VMs with staggered memory/disk/network episodes, 1%/epoch "
                "churn and mitigation: analyzer, sandbox, placement, lifecycle"
            ),
            num_vms=512,
            num_shards=4,
            executor="serial",
            max_workers=None,
            interference=True,
            warmup_epochs=10,
            setups=4,
            snapshots=8,
        ),
        Workload(
            name="service-process",
            why=(
                "steady-serial's scenario streamed on 2 process workers: isolates "
                "executor and shm transport; traced runs also time snapshot()"
            ),
            num_vms=2000,
            num_shards=4,
            executor="process",
            max_workers=2,
            interference=False,
            warmup_epochs=10,
            setups=3,
            snapshots=8,
        ),
    )
}


def deepdive_config() -> DeepDiveConfig:
    """Short sandbox runs, so bootstrap and analyses take seconds."""
    return DeepDiveConfig(
        profile_epochs=3,
        bootstrap_load_levels=3,
        bootstrap_epochs_per_level=3,
        min_normal_behaviors=8,
        placement_eval_epochs=3,
    )


#: Fleet-wide, one episode starts every this many epochs (shards take
#: turns).  Episode starts make the analyzer, sandbox and placement
#: epochs that form the latency tail; at one start per 3 epochs they
#: are ~15% of epochs, so p90 falls inside that cluster rather than on
#: the edge it had at one start per 5 epochs.
EPISODE_SPACING = 3
EPISODE_LENGTH = 10


def episodes_for(
    workload: Workload, horizon: int
) -> List[InterferenceEpisode]:
    """Episodes staggered across shards and hosts over the timed epochs."""
    if not workload.interference:
        return []
    hosts_per_shard = -(-workload.num_vms // (workload.num_shards * 2))
    episodes: List[InterferenceEpisode] = []
    start = workload.warmup_epochs
    k = 0
    while start + EPISODE_LENGTH <= horizon:
        shard = k % workload.num_shards
        rounds = k // workload.num_shards
        episodes.append(
            InterferenceEpisode(
                shard=shard,
                # A stride coprime with the host count visits every host
                # before reusing one.
                host_index=(7 * rounds + 3 * shard) % hosts_per_shard,
                start_epoch=start,
                end_epoch=start + EPISODE_LENGTH,
                kind=STRESS_KINDS[k % len(STRESS_KINDS)],
            )
        )
        start += EPISODE_SPACING
        k += 1
    return episodes


def build_scenario(
    workload: Workload, seed: int, timed_epochs: int
) -> DatacenterScenario:
    horizon = workload.warmup_epochs + timed_epochs
    timeline = None
    if workload.interference:
        churn = churn_timeline(
            [f"shard{s}" for s in range(workload.num_shards)],
            epochs=timed_epochs,
            seed=seed,
            # Half of the ~1%/epoch churn budget arrives; lifetimes make
            # departures match it once the first tenants expire.
            arrivals_per_epoch=0.005 * workload.num_vms,
            mean_lifetime_epochs=30.0,
        )
        # Churn starts with the timed epochs, as the episodes do, so the
        # warm-up epochs (part of ``setup_s``) are the same quiet learning
        # phase for every seed.  Arrivals during warm-up made set-up time
        # vary by a third between seeds.
        timeline = FleetTimeline(
            [
                replace(event, epoch=event.epoch + workload.warmup_epochs)
                for event in churn.events
            ]
        )
    return synthesize_datacenter(
        workload.num_vms,
        num_shards=workload.num_shards,
        seed=seed,
        episodes=episodes_for(workload, horizon),
        timeline=timeline,
    )
