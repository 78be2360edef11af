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
  the fastest performance provider (Figure 2) via a background upload, and
  subsequent reads pick whichever path the latency estimate favours.
"""

from __future__ import annotations

from repro.cloud.latency import ClientLink
from repro.cloud.provider import SimulatedProvider
from repro.core.config import HyRDConfig
from repro.core.dispatcher import RequestDispatcher
from repro.core.evaluator import CostPerformanceEvaluator
from repro.core.monitor import FileClass, WorkloadMonitor
from repro.fs.namespace import FileEntry
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
        #: path -> (provider, version, uploaded object) of promoted hot
        #: copies (Figure 2)
        self._hot: dict[str, tuple[str, int, bytes]] = {}
        self._pending_promotion: tuple[str, bytes] | None = None

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

    def _write_placement(
        self, path: str, data: bytes, placement: Placement, version: int
    ) -> tuple[list[tuple[str, int]], tuple[str, ...]]:
        written = super()._write_placement(path, data, placement, version)
        # Any promoted copy is of the version this write supersedes.
        self._drop_hot_copy(path)
        return written

    # ----------------------------------------------------------------- read
    def _read_object(self, entry: FileEntry) -> tuple[bytes, bool]:
        if entry.codec == "replication":
            return super()._read_object(entry)
        data, degraded = self._read_large(entry)
        # Promotion check uses the access count *including* this read.  Only
        # a get decides one: a promotion decided by a migrate's or repair's
        # read would be uploaded by whichever get came next, by then maybe
        # of bytes an update has superseded.
        promoted_count = entry.access_count + 1
        if (
            self._current.kind == "get"
            and not degraded
            and entry.path not in self._hot
            and self.config.hot_file_threshold > 0
            and entry.klass == FileClass.LARGE.value
            and promoted_count >= self.config.hot_file_threshold
        ):
            # Deferred: uploaded outside this read's latency accounting.
            self._pending_promotion = (entry.path, data)
        return data, degraded

    def _read_large(self, entry: FileEntry) -> tuple[bytes, bool]:
        """Stripe fetch vs hot-copy fetch, whichever the estimate favours."""
        codec = self._codec_for(entry)
        assert codec is not None
        hot = self._hot.get(entry.path)
        if hot is not None:
            hot_provider, hot_version, promoted = hot
            if (
                hot_version == entry.version
                and self.provider(hot_provider).is_available()
                and not self._is_stale(
                    hot_provider, self.container, self._hot_key(entry.path, entry.version)
                )
            ):
                if self.scheduler is not None:
                    # Load-aware arm of the hot-copy-vs-stripe choice: both
                    # estimates price queueing and health, and the stripe
                    # side is the scheduler's best k-subset (parity
                    # included), not the fixed systematic set.
                    est_hot = self.scheduler.score_provider(
                        hot_provider, entry.size
                    )
                    est_stripe = self.scheduler.estimate_stripe(
                        {idx: prov for prov, idx in entry.placements},
                        entry.size,
                        codec,
                    )
                else:
                    est_hot = self._estimate_latency(
                        hot_provider, entry.size, "down"
                    )
                    frag = codec.fragment_size(entry.size)
                    est_stripe = max(
                        self._estimate_latency(prov, frag, "down")
                        for prov, idx in entry.placements
                        if idx < codec.k
                    )
                if est_hot <= est_stripe:
                    (got,) = self._run_phase(
                        [
                            CloudOp(
                                hot_provider,
                                "get",
                                self.container,
                                self._hot_key(entry.path, entry.version),
                            )
                        ]
                    )
                    # The copy was uploaded from a verified stripe read, and
                    # the object kept beside it is the reference: accept the
                    # very object (a zero-copy store hands it back), else the
                    # same bytes.
                    if got.ok and (got.response is promoted or got.response == promoted):
                        return got.response, False
                    # Hot copy raced an outage or was corrupted: fall
                    # through to the verified stripe.
        return super()._read_object(entry)

    def _rank_providers_by_index(self, by_index, size, codec) -> list[int]:
        # Slot order *is* HyRD's read preference, whatever the codec: the
        # dispatcher puts the first k slots on the cheapest-egress providers
        # (§III-B), so a non-systematic stripe reads those too instead of
        # chasing the fastest k.
        return sorted(by_index)

    # ------------------------------------------------------ update / remove
    def _rmw_striped(self, entry, offset, patch, new_content, codec) -> FileEntry:
        self._drop_hot_copy(entry.path)  # its content is about to go stale
        return super()._rmw_striped(entry, offset, patch, new_content, codec)

    def _forget(self, path: str) -> None:
        self._drop_hot_copy(path)

    # ------------------------------------------------------------- metadata
    def _meta_write_targets(self) -> list[str]:
        return self.dispatcher.replica_targets()

    def _persist_metadata(self, directory: str) -> None:
        super()._persist_metadata(directory)
        self.monitor.observe_metadata(self._meta_sizes.get(directory, 0))

    # ------------------------------------------------------------ promotion
    def _hot_key(self, path: str, version: int) -> str:
        return f"{path}#hot.v{version}"

    def _drop_hot_copy(self, path: str) -> None:
        hot = self._hot.pop(path, None)
        if hot is None:
            return
        provider, version, _promoted = hot
        if self.provider(provider).store.has(
            self.container, self._hot_key(path, version)
        ):
            self._run_phase(
                [CloudOp(provider, "remove", self.container, self._hot_key(path, version))]
            )
        else:
            self._write_logs[provider].discard(self.container, self._hot_key(path, version))

    def get(self, path: str):  # type: ignore[override]
        try:
            data, report = super().get(path)
        finally:
            # A get that raised still consumes its decision.
            pending, self._pending_promotion = self._pending_promotion, None
        if pending is not None:
            self._promote(*pending)
        return data, report

    def _promote(self, path: str, data: bytes) -> OpReport:
        """Background upload of a hot copy to the fastest performance provider."""
        target = self.dispatcher.promotion_target()
        entry = self.namespace.get(path)
        key = self._hot_key(path, entry.version)
        with self._op("promote", path) as op:
            self._run_phase([CloudOp(target, "put", self.container, key, data)])
        self._hot[path] = (target, entry.version, data)
        return op.report

    # --------------------------------------------------------------- intro
    def hot_copies(self) -> dict[str, tuple[str, int]]:
        """Currently promoted large files: path -> (provider, version)."""
        return {
            path: (provider, version)
            for path, (provider, version, _promoted) in self._hot.items()
        }

    def _extra_expected_keys(self) -> set[str]:
        # Promoted hot copies are scheme-private keys no namespace placement
        # accounts for; shield the *current* ones from the orphan sweep.
        # (A restarted client forgets its promotions, so a predecessor's hot
        # copies are swept — they are regenerable cache, not redundancy.)
        return {
            self._hot_key(path, version)
            for path, (_provider, version, _promoted) in self._hot.items()
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
