"""Request Dispatcher — placement policy (paper §III-B and Figure 2).

*"Based on the data type information (file system metadata, small file, or
large file), the Request Dispatcher module decides which redundancy scheme
should be used for the incoming data, and distributes the data to the
corresponding cloud storage providers."*

Policy reproduced here:

- metadata & small files -> replicated (level = ``replication_level``) on the
  fastest *performance-oriented* providers;
- large files -> erasure-coded (RAID5 by default) across the
  *cost-oriented* providers; when there are too few cost-oriented providers
  for the stripe, the fastest remaining providers fill in;
- frequently-read large files may additionally be *promoted*: one extra full
  copy on the fastest performance-oriented provider (Figure 2's overlap).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.config import HyRDConfig
from repro.core.evaluator import CostPerformanceEvaluator
from repro.core.monitor import FileClass
from repro.erasure.codec import ErasureCodec, get_codec
from repro.fs.namespace import FileEntry
from repro.metrics.registry import HeldInstruments

__all__ = ["DispatchDecision", "PlacementPolicyError", "RequestDispatcher"]


class PlacementPolicyError(ValueError):
    """The configured placement policy cannot be satisfied by the fleet."""


@dataclass(frozen=True)
class DispatchDecision:
    """Where and how one object should be stored."""

    klass: FileClass
    codec: ErasureCodec | None  # None = replication
    providers: tuple[str, ...]  # placement order = fragment index order

    @property
    def redundancy(self) -> str:
        return "replication" if self.codec is None else "erasure"


class RequestDispatcher:
    """Turns (class, size) into concrete placements."""

    def __init__(
        self,
        config: HyRDConfig,
        evaluator: CostPerformanceEvaluator,
        metrics=None,
    ) -> None:
        self.config = config
        self.evaluator = evaluator
        #: optional MetricsRegistry; decisions feed
        #: ``dispatch_decisions_total{redundancy}``
        self.metrics = metrics
        self._held = HeldInstruments(metrics)
        # Placement state derived from the evaluator's classification; valid
        # until :meth:`refresh`, which every evaluator mutation is followed by.
        self._codec_cache: ErasureCodec | None = None
        self._replica_cache: list[str] | None = None
        self._erasure_cache: list[str] | None = None
        self._usable_guard: Callable[[str], bool] | None = None

    def set_usable_guard(self, guard: Callable[[str], bool] | None) -> None:
        """Install a client-side usability predicate (circuit-breaker feed).

        The guard only influences *preference order* on replication paths:
        guard-passing providers sort first in :meth:`replica_targets` and
        :meth:`promotion_target`.  It never changes set membership — an
        outaged provider must still receive its placement slot so mutations
        land in the write log, and the erasure stripe's membership is pinned
        by the cached codec sizing.
        """
        self._usable_guard = guard

    def _prefer_usable(self, names: list[str]) -> list[str]:
        """A copy of ``names``, guard-passing providers stably sorted ahead
        of tripped ones.  Asked on every call: a breaker can trip between two."""
        if self._usable_guard is None:
            return list(names)
        guard = self._usable_guard
        return sorted(names, key=lambda n: 0 if guard(n) else 1)

    def refresh(self) -> None:
        """Drop cached placement state after a re-evaluation or exclusion.

        The target lists follow the evaluator's classification, and the
        erasure codec is sized to the erasure target set, so all three must
        be rebuilt whenever that classification can change.
        """
        self._codec_cache = self._replica_cache = self._erasure_cache = None

    # ----------------------------------------------- feature/region policy
    def _region_of(self, name: str) -> str:
        return self.evaluator.providers[name].features.region

    def _feature_eligible(self, names: list[str]) -> list[str]:
        """Drop providers missing any required feature (§VI policy)."""
        required = self.config.required_features
        if not required:
            return list(names)
        eligible = []
        for name in names:
            features = self.evaluator.providers[name].features
            if all(features.has(f) for f in required):
                eligible.append(name)
        return eligible

    def _enforce_regions(
        self, chosen: list[str], pool: list[str], count: int
    ) -> list[str]:
        """Ensure ``chosen`` (length ``count``) spans enough distinct regions.

        Greedy repair: swap lowest-priority members for pool candidates from
        unrepresented regions.  ``pool`` is priority-ordered and contains
        ``chosen`` as a prefix.
        """
        want = min(self.config.min_distinct_regions, count)
        if want <= 1:
            return chosen[:count]
        result = chosen[:count]
        regions = {self._region_of(n) for n in result}
        if len(regions) >= want:
            return result
        for candidate in pool:
            if len(regions) >= want:
                break
            region = self._region_of(candidate)
            if candidate in result or region in regions:
                continue
            # Evict the last member whose region is duplicated.
            for i in range(len(result) - 1, -1, -1):
                victim_region = self._region_of(result[i])
                if sum(1 for n in result if self._region_of(n) == victim_region) > 1:
                    result[i] = candidate
                    regions = {self._region_of(n) for n in result}
                    break
        if len({self._region_of(n) for n in result}) < want:
            raise PlacementPolicyError(
                f"cannot span {want} distinct regions with providers {pool}"
            )
        return result

    # ------------------------------------------------------------- targets
    def replica_targets(self) -> list[str]:
        """Fastest performance-oriented providers for replication."""
        if self._replica_cache is None:
            self._replica_cache = self._choose_replica_targets()
        # Preference-order only: a breaker-tripped provider keeps its slot
        # (its writes must land in the write log) but loses its priority.
        return self._prefer_usable(self._replica_cache)

    def _choose_replica_targets(self) -> list[str]:
        r = self.config.replication_level
        perf = self._feature_eligible(self.evaluator.performance_oriented())
        if len(perf) < r:
            # Too few performance-oriented providers: extend with the next
            # fastest ones so the replication level is always honoured.
            for name in self._feature_eligible(self.evaluator.ranked_by_speed()):
                if name not in perf:
                    perf.append(name)
                if len(perf) >= r:
                    break
        if len(perf) < r:
            raise PlacementPolicyError(
                f"only {len(perf)} providers satisfy {self.config.required_features}, "
                f"replication level {r} unreachable"
            )
        # The region-repair pool is every eligible provider, priority
        # ordered: performance-oriented first, then the remaining fleet.
        pool = list(perf)
        for name in self._feature_eligible(self.evaluator.ranked_by_speed()):
            if name not in pool:
                pool.append(name)
        return self._enforce_regions(perf[:r], pool, r)

    def erasure_targets(self) -> list[str]:
        """Cost-oriented providers for the large-file stripe.

        Ordering encodes the paper's read-cost optimisation ("by reading
        data from the cost-oriented cloud storage providers, HyRD's cloud
        cost due to the data out operations is also reduced"): *data*
        fragments (the first k slots, which normal reads fetch) go to the
        providers with the cheapest data-out price, leaving the expensive-
        egress provider holding parity that only degraded reads touch.
        """
        if self._erasure_cache is None:
            self._erasure_cache = self._choose_erasure_targets()
        return list(self._erasure_cache)

    def _choose_erasure_targets(self) -> list[str]:
        cost = self._feature_eligible(self.evaluator.cost_oriented())
        minimum = 3  # a stripe needs >= 2 data + 1 parity to beat replication
        if len(cost) < minimum:
            for name in self._feature_eligible(self.evaluator.ranked_by_speed()):
                if name not in cost:
                    cost.append(name)
                if len(cost) >= minimum:
                    break
        if len(cost) < minimum:
            raise PlacementPolicyError(
                f"only {len(cost)} providers satisfy {self.config.required_features}, "
                f"an erasure stripe needs >= {minimum}"
            )
        profiles = self.evaluator.profiles
        ordered = sorted(
            cost,
            key=lambda n: (
                profiles[n].egress_price,
                profiles[n].storage_price,
                profiles[n].latency_score,
            ),
        )
        return self._enforce_regions(ordered, ordered, len(ordered))

    def erasure_codec(self) -> ErasureCodec:
        """The large-file codec sized to the erasure target set."""
        if self._codec_cache is None:
            n = len(self.erasure_targets())
            k = self.config.erasure_k if self.config.erasure_k is not None else n - 1
            if not (0 < k < n):
                raise ValueError(
                    f"erasure_k={k} incompatible with {n} erasure providers"
                )
            if self.config.erasure_codec == "raid5":
                if k != n - 1:
                    raise ValueError("raid5 requires k = n - 1")
                self._codec_cache = get_codec("raid5", k=k)
            elif self.config.erasure_codec == "rs":
                self._codec_cache = get_codec("rs", k=k, m=n - k)
            elif self.config.erasure_codec == "fmsr":
                self._codec_cache = get_codec("fmsr", n=n, k=k)
            else:
                raise ValueError(
                    f"unsupported erasure codec {self.config.erasure_codec!r}"
                )
        return self._codec_cache

    # ------------------------------------------------------------ decisions
    def decide(self, klass: FileClass) -> DispatchDecision:
        """Placement for one object of the given class."""
        if klass in (FileClass.METADATA, FileClass.SMALL):
            decision = DispatchDecision(
                klass=klass,
                codec=None,
                providers=tuple(self.replica_targets()),
            )
        else:
            codec = self.erasure_codec()
            targets = self.erasure_targets()
            if len(targets) != codec.n:
                raise RuntimeError(
                    f"erasure targets ({len(targets)}) do not match codec n={codec.n}"
                )
            decision = DispatchDecision(
                klass=klass, codec=codec, providers=tuple(targets)
            )
        if self.metrics is not None:
            self._held["dispatch_decisions_total", decision.redundancy].inc()
        return decision

    def should_promote(self, entry: FileEntry) -> bool:
        """Figure 2: hot large files earn a copy on a fast provider."""
        if self.config.hot_file_threshold <= 0:
            return False
        return (
            entry.klass == FileClass.LARGE.value
            and entry.access_count >= self.config.hot_file_threshold
        )

    def promotion_target(self) -> str:
        """Fastest *usable* performance-oriented provider (hot-copy home)."""
        perf = self._prefer_usable(self.evaluator.performance_oriented())
        if perf:
            return perf[0]
        return self._prefer_usable(self.evaluator.ranked_by_speed())[0]
