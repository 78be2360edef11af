"""HyRD configuration — every design choice §III calls out, as a knob.

Defaults are the paper's: 1 MB small/large threshold (picked from Figure 5's
latency knee), replication level 2 ("two concurrent cloud outages are
extremely rare"), RAID5 erasure coding for large files.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.resilience import ResilienceConfig

__all__ = ["HyRDConfig", "MB"]

MB = 1024 * 1024


@dataclass(frozen=True)
class HyRDConfig:
    """Tunable parameters of the HyRD client.

    Parameters
    ----------
    size_threshold:
        Files strictly smaller than this are "small" (replicated); others are
        "large" (erasure-coded).  Paper default: 1 MB.
    replication_level:
        Copies kept of small files and metadata groups.  Paper default: 2.
    erasure_codec:
        Registered codec name used for large files ("raid5", "rs", "fmsr").
    erasure_k:
        Data-fragment count for the large-file code; ``None`` derives it from
        the number of cost-oriented providers (k = count - 1 for raid5).
    metadata_cache_capacity:
        Directory metadata groups held in client memory (LRU).
    hot_file_threshold:
        Read count after which a large file is *promoted*: an extra full copy
        is placed on the fastest performance-oriented provider (Figure 2's
        "frequently accessed large files").  ``0`` disables promotion.
    min_distinct_regions:
        Placement policy (§VI feature-awareness): every placement must span
        at least this many distinct provider regions.  1 disables the
        constraint (the paper's implicit default).
    required_features:
        Boolean :class:`~repro.cloud.features.ProviderFeatures` names every
        chosen provider must offer (e.g. ``("geo_redundant",)``).
    resilience:
        Client reaction to provider misbehaviour: retry backoff, circuit
        breakers, hedged reads, health tracking
        (:class:`~repro.core.resilience.ResilienceConfig`).
    seed:
        Root seed for all stochastic behaviour (jitter, probes).
    """

    size_threshold: int = 1 * MB
    replication_level: int = 2
    erasure_codec: str = "raid5"
    erasure_k: int | None = None
    metadata_cache_capacity: int = 256
    hot_file_threshold: int = 4
    min_distinct_regions: int = 1
    required_features: tuple[str, ...] = ()
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.size_threshold < 0:
            raise ValueError(f"size_threshold must be >= 0, got {self.size_threshold}")
        if self.replication_level < 1:
            raise ValueError(
                f"replication_level must be >= 1, got {self.replication_level}"
            )
        if self.erasure_k is not None and self.erasure_k < 1:
            raise ValueError(f"erasure_k must be >= 1, got {self.erasure_k}")
        if self.metadata_cache_capacity < 1:
            raise ValueError("metadata_cache_capacity must be >= 1")
        if self.hot_file_threshold < 0:
            raise ValueError("hot_file_threshold must be >= 0")
        if self.min_distinct_regions < 1:
            raise ValueError(
                f"min_distinct_regions must be >= 1, got {self.min_distinct_regions}"
            )
