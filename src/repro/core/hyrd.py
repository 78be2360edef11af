"""The HyRD client — the paper's contribution, assembled.

:class:`HyRDClient` is a :class:`~repro.schemes.base.Scheme` whose placement
policy is the hybrid of the paper:

- the **Workload Monitor** classifies each write (metadata / small / large);
- the **Request Dispatcher** replicates metadata and small files
  (``replication_level`` copies, default 2) on the fastest
  performance-oriented providers, and RAID5-stripes large files across the
  cost-oriented providers;
- the **Cost & Performance Evaluator** supplies the provider classification
  from measured latency probes and Table II price plans;
- outages are handled by the shared recovery machinery: degraded reads fall
  back to surviving replicas (small) or parity reconstruction (large), missed
  writes are logged and replayed as a consistency update on return;
- frequently-read large files are *promoted* — an extra full copy lands on
  the fastest performance provider (Figure 2) via a background upload; it
  is one more placement of the file's entry, kept in client memory, and
  reads pick whichever of copy and stripe the latency estimate favours.
"""

from __future__ import annotations

from dataclasses import replace

from repro.cloud.latency import ClientLink
from repro.cloud.provider import SimulatedProvider
from repro.core.config import HyRDConfig
from repro.core.dispatcher import RequestDispatcher
from repro.core.evaluator import CostPerformanceEvaluator
from repro.core.monitor import WorkloadMonitor
from repro.fs.namespace import FileEntry, HotCopy
from repro.metrics.collector import OpReport
from repro.schemes.base import CloudOp, Placement, Scheme
from repro.sim.clock import SimClock

__all__ = ["HyRDClient"]


class HyRDClient(Scheme):
    """Hybrid redundant data distribution over a Cloud-of-Clouds."""

    name = "hyrd"

    def __init__(
        self,
        providers: list[SimulatedProvider],
        clock: SimClock,
        link: ClientLink | None = None,
        config: HyRDConfig | None = None,
        tracer=None,
    ) -> None:
        self.config = config if config is not None else HyRDConfig()
        super().__init__(
            providers,
            clock,
            link,
            seed=self.config.seed,
            metadata_cache_capacity=self.config.metadata_cache_capacity,
            resilience=self.config.resilience,
            tracer=tracer,
        )
        self.monitor = WorkloadMonitor(self.config, metrics=self.registry)
        self.evaluator = CostPerformanceEvaluator(
            providers, self.config, metrics=self.registry
        )
        self.evaluator.evaluate()
        self.dispatcher = RequestDispatcher(
            self.config, self.evaluator, metrics=self.registry
        )
        # Breaker state feeds placement preference: tripped providers keep
        # their slots but lose priority (hot copies land elsewhere).
        self.dispatcher.set_usable_guard(self._provider_usable)

    # ----------------------------------------------------------- placement
    def _place(self, path: str, size: int, prev: FileEntry | None) -> Placement:
        # Zero-duration marker (the sim charges no time for local placement
        # logic): lets the attribution analyzer pin the dispatcher's
        # classify/decide step inside the op's queueing lead-in.
        with self.tracer.span("dispatch.decide", size=size):
            klass = self.monitor.observe(size)
            decision = self.dispatcher.decide(klass)
        codec = decision.codec
        if codec is None:
            codec_name = "replication"
            codec_params: tuple[tuple[str, int], ...] = (
                ("r", self.config.replication_level),
            )
        else:
            codec_name = self.config.erasure_codec
            codec_params = (("k", codec.k), ("m", codec.n - codec.k))
        return Placement(
            providers=decision.providers,
            klass=klass.value,
            codec=codec,
            codec_name=codec_name,
            codec_params=codec_params,
            access_count=prev.access_count if prev else 0,
        )

    def _rank_providers_by_index(self, by_index, size, codec) -> list[int]:
        # Slot order *is* HyRD's read preference, whatever the codec: the
        # dispatcher puts the first k slots on the cheapest-egress providers
        # (§III-B), so a non-systematic stripe reads those too instead of
        # chasing the fastest k.
        return sorted(by_index)

    # ------------------------------------------------------------- metadata
    def _meta_write_targets(self) -> list[str]:
        return self.dispatcher.replica_targets()

    def _persist_metadata(self, directory: str) -> None:
        super()._persist_metadata(directory)
        self.monitor.observe_metadata(self._meta_sizes.get(directory, 0))

    # ------------------------------------------------------------ promotion
    def _after_clean_get(self, entry: FileEntry, data: bytes) -> None:
        # Only a get decides a promotion, counting its own read: one decided
        # by a migrate's or repair's read would upload bytes an update may
        # have superseded by the next get.
        if self.dispatcher.should_promote(entry):
            self._promote(entry.path, data)

    def _promote(self, path: str, data: bytes) -> OpReport:
        """Upload a hot copy of ``path``'s current version to the fastest
        performance provider, as its own op after the get that decided it,
        and record it as that entry's hot placement."""
        target = self.dispatcher.promotion_target()
        entry = self.namespace.get(path)
        hot = HotCopy(target, f"{path}#hot.v{entry.version}", data)
        with self._op("promote", path) as op:
            self._run_phase([CloudOp(target, "put", self.container, hot.key, data)])
        self.namespace.upsert(replace(entry, hot=hot))
        return op.report

    def hot_copies(self) -> dict[str, tuple[str, int]]:
        """Currently promoted large files: path -> (provider, version)."""
        return {
            path: (entry.hot.provider, entry.version)
            for path in self.namespace.paths()
            if (entry := self.namespace.get(path)).hot is not None
        }

    # ------------------------------------------- adaptation & vendor mobility
    def reevaluate(self) -> dict[str, "object"]:
        """Re-probe every provider and refresh the classification.

        §VI's second future-work direction: provider characteristics drift
        (price changes, sustained congestion), so the Evaluator's snapshot
        goes stale.  Existing placements are untouched — use
        :meth:`misplaced_paths` / :meth:`migrate_object` to realign them lazily.
        """
        profiles = self.evaluator.evaluate()
        self.dispatcher.refresh()
        self._notify_policy_change()
        return profiles

    def refresh_health_ranking(self) -> dict[str, "object"]:
        """Re-classify providers from accumulated health, without re-probing.

        The cheap sibling of :meth:`reevaluate`: the scheme engine's
        :class:`~repro.core.resilience.ProviderHealth` trackers already hold
        EWMA error rates and observed slowdowns from live traffic, so the
        Evaluator can demote a browned-out performance provider (and restore
        it once its health recovers) with zero probe transactions.
        """
        profiles = self.evaluator.rerank(self.health)
        self.dispatcher.refresh()
        self._notify_policy_change()
        return profiles

    def _notify_policy_change(self) -> None:
        """Hand newly misplaced objects to the live migration engine.

        Only when a maintenance plane is attached: detached, policy changes
        keep their pre-maintenance behaviour (placements realign lazily via
        explicit :meth:`migrate_object` calls).
        """
        if self.maintenance is not None:
            self.maintenance.migration.sync_policy()

    def is_misplaced(self, path: str) -> bool:
        """Would the dispatcher place this file differently today?"""
        entry = self.namespace.get(path)
        klass = self.monitor.classify(entry.size)
        decision = self.dispatcher.decide(klass)
        if decision.codec is None:
            return entry.codec != "replication" or set(entry.providers) != set(
                decision.providers
            )
        return entry.codec == "replication" or tuple(entry.providers) != tuple(
            decision.providers
        )

    def misplaced_paths(self) -> list[str]:
        """Every file whose placement no longer matches current policy."""
        return [p for p in self.namespace.paths() if self.is_misplaced(p)]

    def decommission(self, provider: str) -> list[OpReport]:
        """Leave a vendor: exclude it from placement and evacuate its data.

        The §II-A mobility argument, executable: every file with a fragment
        or replica on ``provider`` is migrated to a placement that avoids
        it.  The provider stays registered throughout, so its fragments can
        serve as migration *sources*; afterwards nothing references it and
        the account can be closed.  Returns the per-file migration reports.

        With a maintenance plane attached the evacuation goes *live*
        instead: affected paths are queued on the plane's migration engine,
        which drains them incrementally under the maintenance bandwidth
        budget (returns ``[]``; progress is visible in ``migration_*``
        metrics and :meth:`MaintenancePlane.run_idle
        <repro.maintenance.MaintenancePlane.run_idle>` drives it forward).
        """
        self.evaluator.exclude(provider)
        self.dispatcher.refresh()
        if self.maintenance is not None:
            self.maintenance.migration.plan_decommission(provider)
            return []
        return [self.migrate_object(path) for path in self.placements_on(provider)]
