"""Hot-path guard: a steady columnar epoch builds no per-VM objects.

The monitoring epoch keeps its decisions as arrays from the warning
system to the shard report; a :class:`~repro.core.deepdive.VMObservation`
or :class:`~repro.core.warning.WarningDecision` is built only for a row
whose warning is not NORMAL.  On a quiet fleet there are none, so the
constructions are counted here: a change that goes back to building one
object per VM per epoch fails deterministically, whatever the timing.
"""

import numpy as np
import pytest

from repro.core import deepdive as deepdive_module
from repro.core import warning as warning_module
from repro.core.config import DeepDiveConfig
from repro.core.warning import ACTION_CODES, WarningAction
from repro.fleet import RunOptions, build_fleet, synthesize_datacenter

COLUMNAR = RunOptions(analyze=True, report="columnar")
NORMAL = ACTION_CODES[WarningAction.NORMAL]


@pytest.fixture
def constructions(monkeypatch):
    """Count VMObservation and NORMAL WarningDecision constructions."""
    counts = {"observations": 0, "normal_decisions": 0, "decisions": 0}
    observation_init = deepdive_module.VMObservation.__init__
    decision_init = warning_module.WarningDecision.__init__

    def counting_observation(self, *args, **kwargs):
        counts["observations"] += 1
        observation_init(self, *args, **kwargs)

    def counting_decision(self, *args, **kwargs):
        decision_init(self, *args, **kwargs)
        counts["decisions"] += 1
        if self.action is WarningAction.NORMAL:
            counts["normal_decisions"] += 1

    monkeypatch.setattr(deepdive_module.VMObservation, "__init__", counting_observation)
    monkeypatch.setattr(warning_module.WarningDecision, "__init__", counting_decision)
    return counts


def _steady_fleet():
    scenario = synthesize_datacenter(96, num_shards=2, seed=3)
    fleet = build_fleet(
        scenario,
        config=DeepDiveConfig(
            profile_epochs=3,
            bootstrap_load_levels=3,
            bootstrap_epochs_per_level=3,
            min_normal_behaviors=8,
            placement_eval_epochs=3,
        ),
        executor="serial",
    )
    fleet.bootstrap()
    for _ in range(4):  # learning phase: the fleet certifies its behaviour
        fleet.run_epoch(options=COLUMNAR)
    return fleet


def test_steady_columnar_epochs_build_no_per_vm_objects(constructions):
    fleet = _steady_fleet()
    for counter in constructions:
        constructions[counter] = 0
    rows = flagged = 0
    for _ in range(6):
        report = fleet.run_epoch(options=COLUMNAR)
        for shard in report.shard_reports.values():
            rows += shard.observations()
            flagged += int(np.count_nonzero(shard.action_codes != NORMAL))
    fleet.shutdown()
    assert rows == 6 * 96
    assert flagged == 0, "the scenario must be steady for this guard"
    assert constructions == {"observations": 0, "normal_decisions": 0, "decisions": 0}


def test_flagged_rows_are_the_only_objects(constructions):
    """Objects appear exactly for non-NORMAL rows, and NORMAL ones are
    built only when a caller reads them."""
    fleet = _steady_fleet()
    shard = next(iter(fleet.shards.values()))
    shard.cluster.step()
    for counter in constructions:
        constructions[counter] = 0
    report = shard.deepdive.run_epoch(analyze=False, learn=False)
    assert constructions["normal_decisions"] == 0
    assert constructions["observations"] == len(report.flagged)
    first = report.vm_names[0]
    observation = report.observations[first]
    assert observation.warning.action is WarningAction.NORMAL
    assert constructions["normal_decisions"] == 1
    fleet.shutdown()
