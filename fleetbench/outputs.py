"""Output check: per-epoch fingerprints and recorded expected values.

The simulation is deterministic for a seed, so a change that only makes
the program faster leaves every simulated output identical.  Each epoch
is reduced to a fingerprint — observation count, one CRC over the VM
names, warning-action codes, sibling counts and analyzed/confirmed
flags (compared exactly), and the sum of finite Mahalanobis distances
(compared under ``DISTANCE_RTOL``).  The run's final simulated
statistics are compared the same way.  Expected values live in
``expected/<scenario>.json``, one entry per shipped seed, written by
``record_expected.py``.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

#: Relative tolerance on per-epoch distance sums and simulated seconds.
DISTANCE_RTOL = 1e-6

#: A seed recorded in ``expected/`` but never used while tuning the
#: benchmark, so a performance claim can be re-checked on fresh inputs.
HELD_OUT_SEED = 31


def epoch_fingerprint(report) -> List[object]:
    """``[observations, crc32 hex, finite distance sum, non-finite count]``."""
    crc = 0
    n = 0
    dist_sum = 0.0
    nonfinite = 0
    for shard_id, shard in report.shard_reports.items():
        n += shard.observations()
        crc = zlib.crc32(shard_id.encode(), crc)
        crc = zlib.crc32("\n".join(shard.vm_names or ()).encode(), crc)
        for array, dtype in (
            (shard.action_codes, np.int8),
            (shard.siblings_consulted, np.int32),
            (shard.siblings_agreeing, np.int32),
            (shard.analyzed, np.bool_),
            (shard.confirmed, np.bool_),
        ):
            crc = zlib.crc32(np.ascontiguousarray(array, dtype=dtype).tobytes(), crc)
        distances = np.asarray(shard.distances, dtype=float)
        finite = np.isfinite(distances)
        dist_sum += float(distances[finite].sum())
        nonfinite += int(distances.size - np.count_nonzero(finite))
    return [n, f"{crc:08x}", dist_sum, nonfinite]


def events_digest(events: Sequence[Tuple[str, object]], fields: Sequence[str]) -> List[object]:
    """``[count, crc32 hex]`` over ``(shard, event)`` pairs."""
    crc = 0
    for shard_id, event in events:
        parts = [shard_id] + [str(getattr(event, name)) for name in fields]
        crc = zlib.crc32(("|".join(parts) + "\n").encode(), crc)
    return [len(events), f"{crc:08x}"]


def _close(a: float, b: float, rtol: float = DISTANCE_RTOL) -> bool:
    return math.isclose(a, b, rel_tol=rtol, abs_tol=1e-12)


@dataclass
class OutputCheck:
    """Compares one run's outputs with the recorded values for its seed.

    ``expected`` is ``None`` for a seed or epoch count with no recorded
    values; the run then checks invariants only, and says so.
    """

    expected: Optional[Dict[str, object]]
    mismatches: List[str] = field(default_factory=list)

    @classmethod
    def load(cls, scenario_key: str, seed: int, epochs: int) -> "OutputCheck":
        path = EXPECTED_DIR / f"{scenario_key}.json"
        if not path.exists():
            return cls(None)
        recorded = json.loads(path.read_text())
        entry = recorded.get("seeds", {}).get(str(seed))
        if entry is None or len(entry["epochs"]) != epochs:
            return cls(None)
        return cls(entry)

    @property
    def recorded(self) -> bool:
        return self.expected is not None

    def epoch(self, index: int, fingerprint: List[object]) -> bool:
        """Check one epoch; ``False`` (and a note) on a mismatch."""
        if self.expected is None:
            return True
        want = self.expected["epochs"][index]
        same = (
            fingerprint[0] == want[0]
            and fingerprint[1] == want[1]
            and fingerprint[3] == want[3]
            and _close(fingerprint[2], want[2])
        )
        if not same:
            self.mismatches.append(f"epoch {index}: got {fingerprint}, want {want}")
        return same

    def final(self, outputs: Dict[str, object]) -> None:
        """Check the run's final simulated statistics and event digests."""
        if self.expected is None:
            return
        for key, want in self.expected["final"].items():
            got = outputs.get(key)
            if isinstance(want, float):
                same = isinstance(got, (int, float)) and _close(float(got), want)
            else:
                same = got == want
            if not same:
                self.mismatches.append(f"{key}: got {got}, want {want}")


def write_expected(scenario_key: str, seeds: Dict[int, Dict[str, object]]) -> Path:
    """Write ``expected/<scenario_key>.json``: exactly these seeds, one per line."""
    path = EXPECTED_DIR / f"{scenario_key}.json"
    header = {
        "scenario": scenario_key,
        "distance_rtol": DISTANCE_RTOL,
        "held_out_seed": HELD_OUT_SEED,
    }
    lines = [f"  {json.dumps(k)}: {json.dumps(v)}," for k, v in header.items()]
    entries = ",\n".join(
        f"    {json.dumps(str(seed))}: {json.dumps(entry, separators=(',', ':'))}"
        for seed, entry in sorted(seeds.items())
    )
    path.write_text("{\n" + "\n".join(lines) + '\n  "seeds": {\n' + entries + "\n  }\n}\n")
    return path
