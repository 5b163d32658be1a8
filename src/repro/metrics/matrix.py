"""The batch epoch engine's core data structure.

A :class:`MetricMatrix` holds the normalised metric vectors of *many*
VMs for one monitoring epoch as a single ``(n, d)`` NumPy array (rows in
a fixed VM order, columns in the canonical
:data:`~repro.metrics.sample.WARNING_METRICS` order).  The warning
system's batch path operates directly on the array, so one epoch over N
VMs is a handful of array operations instead of N dict-driven loops.

Rows are bit-identical to what the scalar path
(:meth:`MetricVector.from_sample` / :func:`aggregate_samples`) produces
for the same samples; ``tests/property/test_vectorized_equivalence.py``
pins that property.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.metrics.counters import CounterSample
from repro.metrics.normalization import (
    normalize_counter_matrix,
    samples_to_counter_matrix,
    windows_to_counter_matrix,
)
from repro.metrics.sample import WARNING_METRICS, MetricVector

#: Either one label for every row or a per-VM mapping.
Labels = Union[None, str, Mapping[str, str]]


def _resolve_labels(
    vm_names: Sequence[str], labels: Labels
) -> Tuple[Optional[str], ...]:
    if labels is None:
        return tuple(None for _ in vm_names)
    if isinstance(labels, str):
        return tuple(labels for _ in vm_names)
    return tuple(labels.get(name) for name in vm_names)


@dataclass
class MetricMatrix:
    """All VMs' normalised metric vectors for one epoch, as one array."""

    #: ``(n, len(WARNING_METRICS))`` normalised metric matrix.
    array: np.ndarray
    #: Row order: ``array[i]`` is the vector of ``vm_names[i]``.
    vm_names: Tuple[str, ...]
    #: Per-row application labels (``None`` when unknown).
    labels: Tuple[Optional[str], ...] = ()
    _index: Dict[str, int] = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self) -> None:
        self.array = np.atleast_2d(np.asarray(self.array, dtype=float))
        self.vm_names = tuple(self.vm_names)
        if not self.labels:
            self.labels = tuple(None for _ in self.vm_names)
        self.labels = tuple(self.labels)
        if self.array.shape[0] != len(self.vm_names):
            raise ValueError(
                f"matrix has {self.array.shape[0]} rows but {len(self.vm_names)} VM names"
            )
        if self.array.shape[1] != len(WARNING_METRICS):
            raise ValueError(
                f"matrix has {self.array.shape[1]} columns, expected "
                f"{len(WARNING_METRICS)} warning metrics"
            )
        if len(self.labels) != len(self.vm_names):
            raise ValueError("labels and vm_names must have equal length")
        self._index = dict(zip(self.vm_names, range(len(self.vm_names))))
        if len(self._index) != len(self.vm_names):
            raise ValueError("vm_names must be unique")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls) -> "MetricMatrix":
        return cls(
            array=np.empty((0, len(WARNING_METRICS)), dtype=float),
            vm_names=(),
        )

    @classmethod
    def from_samples(
        cls,
        samples: Mapping[str, CounterSample],
        labels: Labels = None,
    ) -> "MetricMatrix":
        """Batch-normalise one counter sample per VM."""
        vm_names = tuple(samples)
        if not vm_names:
            return cls.empty()
        raw = samples_to_counter_matrix([samples[name] for name in vm_names])
        return cls(
            array=normalize_counter_matrix(raw),
            vm_names=vm_names,
            labels=_resolve_labels(vm_names, labels),
        )

    @classmethod
    def from_windows(
        cls,
        windows: Mapping[str, Sequence[CounterSample]],
        labels: Labels = None,
    ) -> "MetricMatrix":
        """Batch-aggregate one smoothing window per VM, then normalise.

        Equivalent to ``MetricVector.from_sample(aggregate_samples(w))``
        per VM, in one pass.
        """
        vm_names = tuple(windows)
        if not vm_names:
            return cls.empty()
        raw = windows_to_counter_matrix(
            [windows[name] for name in vm_names], names=vm_names
        )
        return cls(
            array=normalize_counter_matrix(raw),
            vm_names=vm_names,
            labels=_resolve_labels(vm_names, labels),
        )

    @classmethod
    def from_vectors(
        cls, vectors: Mapping[str, MetricVector]
    ) -> "MetricMatrix":
        """Stack already-normalised metric vectors into a matrix."""
        vm_names = tuple(vectors)
        if not vm_names:
            return cls.empty()
        array = np.vstack([vectors[name].as_array() for name in vm_names])
        return cls(
            array=array,
            vm_names=vm_names,
            labels=tuple(vectors[name].label for name in vm_names),
        )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.vm_names)

    def __contains__(self, vm_name: str) -> bool:
        return vm_name in self._index

    @property
    def n_dimensions(self) -> int:
        return int(self.array.shape[1])

    def row(self, vm_name: str) -> np.ndarray:
        """The normalised metric vector of one VM as a NumPy row."""
        return self.array[self._index[vm_name]]

    def vector(self, vm_name: str) -> MetricVector:
        """Materialise one VM's row as a scalar-path :class:`MetricVector`."""
        i = self._index[vm_name]
        values = {name: float(v) for name, v in zip(WARNING_METRICS, self.array[i])}
        return MetricVector(values=values, label=self.labels[i])

    def to_vectors(self) -> Dict[str, MetricVector]:
        """Materialise every row (interop with the scalar code paths)."""
        return {name: self.vector(name) for name in self.vm_names}
