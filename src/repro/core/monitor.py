"""Workload Monitor — classify incoming writes (paper §III-B).

*"The Workload Monitor module is responsible for classifying the incoming
write data into file metadata, large files and small files."*  The boundary
between small and large is the configurable ``size_threshold`` (1 MB by
default, justified by Figure 5's latency knee); metadata is whatever flows
through the metadata write-through path.

The monitor also keeps running workload statistics (class counts, bytes,
a coarse size histogram) that the threshold-sensitivity ablation reads.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field

from repro.core.config import HyRDConfig
from repro.metrics.registry import HeldInstruments

__all__ = ["FileClass", "WorkloadMonitor", "WorkloadStats"]


class FileClass(enum.Enum):
    """The three data classes HyRD distinguishes."""

    METADATA = "metadata"
    SMALL = "small"
    LARGE = "large"


#: Histogram bucket edges (bytes): sub-4K, 4K-64K, 64K-1M, 1M-16M, >=16M.
_HISTOGRAM_EDGES = (4 * 1024, 64 * 1024, 1024 * 1024, 16 * 1024 * 1024)
_HISTOGRAM_LABELS = ("<4K", "4K-64K", "64K-1M", "1M-16M", ">=16M")


@dataclass
class WorkloadStats:
    """Aggregate view of everything the monitor has classified."""

    counts: Counter = field(default_factory=Counter)
    bytes_by_class: Counter = field(default_factory=Counter)
    histogram: Counter = field(default_factory=Counter)

    def fraction_small_bytes(self) -> float:
        total = sum(self.bytes_by_class.values())
        if total == 0:
            return 0.0
        return self.bytes_by_class[FileClass.SMALL] / total


class WorkloadMonitor:
    """Classifies writes and accumulates workload statistics.

    With a :class:`~repro.metrics.registry.MetricsRegistry` attached (HyRD
    passes the scheme registry), every observation is mirrored into the
    ``workload_writes_total{class}`` / ``workload_bytes_total{class}`` /
    ``workload_size_bucket_total{bucket}`` counters — which is what lets the
    time series (and the ``repro watch`` dashboard) show the small/large mix
    drifting over a trace replay instead of only a final tally.
    """

    def __init__(self, config: HyRDConfig, metrics=None) -> None:
        self.config = config
        self.stats = WorkloadStats()
        self.metrics = metrics
        self._held = HeldInstruments(metrics)

    def classify(self, size: int) -> FileClass:
        """Small/large decision for a file write of ``size`` bytes."""
        if size < 0:
            raise ValueError(f"size must be >= 0, got {size}")
        return FileClass.SMALL if size < self.config.size_threshold else FileClass.LARGE

    def observe(self, size: int, klass: FileClass | None = None) -> FileClass:
        """Classify and record one incoming write."""
        klass = klass if klass is not None else self.classify(size)
        bucket = self._bucket(size)
        self.stats.counts[klass] += 1
        self.stats.bytes_by_class[klass] += size
        self.stats.histogram[bucket] += 1
        if self.metrics is not None:
            held = self._held
            held["workload_writes_total", klass.value].inc()
            held["workload_bytes_total", klass.value].inc(size)
            held["workload_size_bucket_total", bucket].inc()
        return klass

    def observe_metadata(self, size: int) -> FileClass:
        """Record a metadata-group write (always the METADATA class)."""
        return self.observe(size, FileClass.METADATA)

    @staticmethod
    def _bucket(size: int) -> str:
        for edge, label in zip(_HISTOGRAM_EDGES, _HISTOGRAM_LABELS):
            if size < edge:
                return label
        return _HISTOGRAM_LABELS[-1]
