"""The metric catalog: every metric the runtime may emit, in one place.

Each :class:`MetricSpec` names one instrument: its type (counter / gauge /
histogram), the label keys it carries, its unit, and when it fires.  The
catalog is load-bearing twice over:

- a strict :class:`~repro.metrics.registry.MetricsRegistry` (the default
  everywhere in the scheme engine) refuses to instantiate any metric that is
  not declared here, so the list below is *exhaustive by construction*;
- the reference table in ``docs/metrics-reference.md`` is generated from
  this module (:func:`catalog_markdown_table`) and a test diffs the doc
  against the generator's output, so the documentation cannot silently rot.

To add a metric: declare the spec here, emit it through a registry, then
regenerate the doc table::

    PYTHONPATH=src python -m repro.metrics.catalog > /tmp/table.md
    # paste between the BEGIN/END markers in docs/metrics-reference.md
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["MetricSpec", "METRIC_CATALOG", "catalog_markdown_table"]


@dataclass(frozen=True)
class MetricSpec:
    """Declaration of one metric: name, type, labels, unit, meaning."""

    name: str
    type: str  # "counter" | "gauge" | "histogram"
    description: str
    labels: tuple[str, ...] = field(default=())
    unit: str = "1"

    def __post_init__(self) -> None:
        if self.type not in ("counter", "gauge", "histogram"):
            raise ValueError(f"unknown metric type {self.type!r}")
        if tuple(sorted(self.labels)) != self.labels:
            raise ValueError(f"labels for {self.name!r} must be sorted: {self.labels}")


_SPECS: tuple[MetricSpec, ...] = (
    # ---------------------------------------------------- operation metrics
    MetricSpec(
        "ops_total",
        "counter",
        "Completed scheme operations, split by op kind and whether the "
        "operation took a degraded (reconstruction / fallback) path.",
        labels=("degraded", "op"),
    ),
    MetricSpec(
        "op_latency_seconds",
        "histogram",
        "End-to-end simulated latency of each completed scheme operation, "
        "observed once per OpReport as it enters the collector.",
        labels=("op",),
        unit="s",
    ),
    # ------------------------------------------------------- codec data plane
    MetricSpec(
        "codec_encode_bytes_total",
        "counter",
        "Payload bytes erasure-encoded on striped write paths, by codec "
        "class.",
        labels=("codec",),
        unit="B",
    ),
    MetricSpec(
        "codec_decode_bytes_total",
        "counter",
        "Payload bytes reconstructed by codec decode on striped reads that "
        "missed the retained-payload cache (systematic joins included).",
        labels=("codec",),
        unit="B",
    ),
    # --------------------------------------------------- resilience counters
    MetricSpec(
        "retries",
        "counter",
        "Transient-failure retries burned by the scheme engine (one per "
        "backoff wait actually taken inside a request's retry chain).",
    ),
    MetricSpec(
        "breaker_open",
        "counter",
        "Circuit-breaker transitions into the open state observed by the "
        "scheme engine during phase execution.",
    ),
    MetricSpec(
        "breaker_half_open",
        "counter",
        "Circuit-breaker transitions into the half-open state (cooldown "
        "expired; a probe phase is admitted).",
    ),
    MetricSpec(
        "breaker_closed",
        "counter",
        "Circuit-breaker transitions back to closed (provider confirmed "
        "healthy by probe successes or a consistency-update replay).",
    ),
    MetricSpec(
        "breaker_fast_fail",
        "counter",
        "Requests skipped client-side because the target provider's "
        "breaker was open (zero wire cost; mutations go to the write log).",
    ),
    MetricSpec(
        "hedged_reads",
        "counter",
        "Hedged replicated reads that fired a backup request (primary slow, "
        "failed, or corrupt past the trigger delay).",
    ),
    MetricSpec(
        "hedge_wins",
        "counter",
        "Hedged reads where the backup's response was used (it answered "
        "first or the primary failed).",
    ),
    MetricSpec(
        "breaker_transitions_total",
        "counter",
        "Every circuit-breaker state change, recorded by the breaker itself "
        "with the provider and the state entered.",
        labels=("provider", "state"),
    ),
    MetricSpec(
        "provider_health_error_rate",
        "gauge",
        "EWMA per-attempt failure rate tracked by ProviderHealth (transient "
        "failures count even when a later retry succeeds).",
        labels=("provider",),
    ),
    MetricSpec(
        "provider_health_slowdown",
        "gauge",
        "EWMA of observed/expected latency ratio per provider; a brownout "
        "shows up here as a value well above 1 without a single error.",
        labels=("provider",),
        unit="ratio",
    ),
    # ------------------------------------------------------ write-log / heal
    MetricSpec(
        "write_log_entries_total",
        "counter",
        "Mutations logged client-side because the target provider was "
        "unavailable, breaker-tripped, or out of retries (the fallback that "
        "feeds the consistency update).",
        labels=("provider",),
    ),
    MetricSpec(
        "write_log_pending",
        "gauge",
        "Write-log entries currently pending replay for the provider "
        "(last-wins per key; 0 means the provider is fully healed).",
        labels=("provider",),
    ),
    MetricSpec(
        "heal_replayed_total",
        "counter",
        "Write-log entries replayed into the provider by consistency "
        "updates (the paper's §III-C recovery step).",
        labels=("provider",),
    ),
    MetricSpec(
        "writelog_pending_bytes",
        "gauge",
        "Payload bytes retained by the provider's write log awaiting "
        "replay, across memory and spill tiers (the consistency-update "
        "upload debt).",
        labels=("provider",),
        unit="B",
    ),
    MetricSpec(
        "writelog_spilled_bytes",
        "gauge",
        "Write-log payload bytes parked on client-local disk by the "
        "memory-limit spill policy (0 with no limit configured).",
        labels=("provider",),
        unit="B",
    ),
    # --------------------------------------------------- write-ahead journal
    MetricSpec(
        "journal_intents_total",
        "counter",
        "Write intents recorded by the crash-consistency journal before a "
        "mutating op's first fragment put, by op kind.",
        labels=("op",),
    ),
    MetricSpec(
        "journal_commits_total",
        "counter",
        "Journaled intents committed after their namespace publish (a "
        "commit closes the crash window the intent guarded).",
    ),
    MetricSpec(
        "journal_pending",
        "gauge",
        "Intents currently open in the journal; anything above 0 after "
        "recovery means an unresolved crash window.",
    ),
    MetricSpec(
        "journal_payload_bytes",
        "gauge",
        "Redo-payload bytes currently held by open journal intents.",
        unit="B",
    ),
    MetricSpec(
        "journal_rollforward_total",
        "counter",
        "Crash recoveries that redid the interrupted op from its journaled "
        "payload (enough planned placements had landed).",
    ),
    MetricSpec(
        "journal_rollback_total",
        "counter",
        "Crash recoveries that restored the pre-op namespace entry and "
        "garbage-collected the torn placements.",
    ),
    # -------------------------------------------------------- provider layer
    MetricSpec(
        "provider_requests_total",
        "counter",
        "Requests issued to the simulated provider, by the paper's five ops "
        "plus head; counted at entry, so failed requests are included.",
        labels=("op", "provider"),
    ),
    MetricSpec(
        "provider_errors_total",
        "counter",
        "Provider requests that raised, split into outage rejections "
        "(kind=unavailable) and transient 500/throttle faults "
        "(kind=transient).",
        labels=("kind", "provider"),
    ),
    MetricSpec(
        "provider_bytes_up_total",
        "counter",
        "Payload bytes accepted by the provider via Put.",
        labels=("provider",),
        unit="B",
    ),
    MetricSpec(
        "provider_bytes_down_total",
        "counter",
        "Payload bytes served by the provider via Get.",
        labels=("provider",),
        unit="B",
    ),
    # ------------------------------------------------------- workload monitor
    MetricSpec(
        "workload_writes_total",
        "counter",
        "Writes classified by the Workload Monitor, split by the HyRD data "
        "class the dispatcher will place (metadata / small / large).",
        labels=("class",),
    ),
    MetricSpec(
        "workload_bytes_total",
        "counter",
        "Payload bytes classified by the Workload Monitor, by data class.",
        labels=("class",),
        unit="B",
    ),
    MetricSpec(
        "workload_size_bucket_total",
        "counter",
        "Write-size histogram kept by the Workload Monitor (coarse buckets "
        "from <4K to >=16M) — the small/large mix the dashboard charts.",
        labels=("bucket",),
    ),
    # ----------------------------------------------------------- SLO tracker
    MetricSpec(
        "slo_read_availability",
        "gauge",
        "Sliding-window fraction of user-facing reads (get/stat/listdir) "
        "that completed without raising.",
        unit="ratio",
    ),
    MetricSpec(
        "slo_write_availability",
        "gauge",
        "Sliding-window fraction of user-facing writes (put/update/remove) "
        "that completed without raising.",
        unit="ratio",
    ),
    MetricSpec(
        "slo_degraded_read_fraction",
        "gauge",
        "Fraction of windowed successful reads that took a degraded "
        "(reconstruction / fallback) path.",
        unit="ratio",
    ),
    MetricSpec(
        "slo_error_budget_burn",
        "gauge",
        "Observed unavailability over allowed unavailability for the op "
        "class's SLO target; 1.0 burns the error budget exactly on schedule.",
        labels=("op_class",),
        unit="ratio",
    ),
    MetricSpec(
        "slo_window_ops",
        "gauge",
        "User-facing operations currently inside the SLO sliding window, "
        "per op class — the sample size behind the availability gauges.",
        labels=("op_class",),
    ),
    MetricSpec(
        "slo_provider_downtime_seconds",
        "gauge",
        "Cumulative provider downtime: feed=observed is rebuilt from "
        "circuit-breaker open/closed edges, feed=scheduled is the injected "
        "outage/fault ground truth.",
        labels=("feed", "provider"),
        unit="s",
    ),
    MetricSpec(
        "slo_provider_mtbf_seconds",
        "gauge",
        "Empirical mean time between failures per provider (mean up-gap "
        "between consecutive downtime intervals), by feed; undefined until "
        "a second failure is seen.",
        labels=("feed", "provider"),
        unit="s",
    ),
    MetricSpec(
        "slo_provider_mttr_seconds",
        "gauge",
        "Empirical mean time to repair per provider (mean closed downtime "
        "interval), by feed.",
        labels=("feed", "provider"),
        unit="s",
    ),
    # -------------------------------------------------------- control plane
    MetricSpec(
        "dispatch_decisions_total",
        "counter",
        "Placement decisions made by the Request Dispatcher, split by the "
        "redundancy family chosen (replication vs erasure).",
        labels=("redundancy",),
    ),
    MetricSpec(
        "evaluator_probes_total",
        "counter",
        "Latency probe rounds (create+put+get) issued per provider by the "
        "Cost & Performance Evaluator.",
        labels=("provider",),
    ),
    MetricSpec(
        "evaluator_probe_failures_total",
        "counter",
        "Probe rounds abandoned because the provider was unavailable or "
        "exhausted the probe retry policy (the provider scores inf).",
        labels=("provider",),
    ),
    # ----------------------------------------------------- maintenance plane
    MetricSpec(
        "scrub_cycles_total",
        "counter",
        "Anti-entropy scrub cycles completed (one cycle audits up to the "
        "configured number of namespace objects).",
    ),
    MetricSpec(
        "scrub_objects_checked_total",
        "counter",
        "Objects audited by the scrubber (every placement probed or "
        "digest-verified once per audit).",
    ),
    MetricSpec(
        "scrub_bytes_verified_total",
        "counter",
        "Fragment/replica bytes fetched and digest-verified by deep scrub "
        "passes (the scrub read amplification).",
        unit="B",
    ),
    MetricSpec(
        "scrub_findings_total",
        "counter",
        "Damaged or suspect placements discovered by scrub audits, by "
        "finding kind (corrupt / missing / stale / unreachable).",
        labels=("kind",),
    ),
    MetricSpec(
        "repair_enqueued_total",
        "counter",
        "Objects admitted to the proactive repair queue (deduplicated: a "
        "path already queued is re-prioritised, not double-counted).",
    ),
    MetricSpec(
        "repair_completed_total",
        "counter",
        "Repair executions that restored every repairable placement of "
        "their object.",
    ),
    MetricSpec(
        "repair_failed_total",
        "counter",
        "Repair executions abandoned because too few intact placements "
        "remained to reconstruct the payload (data loss until a provider "
        "returns).",
    ),
    MetricSpec(
        "repair_skipped_pending_total",
        "counter",
        "Placements a repair pass refused to rewrite because a write-log "
        "entry for the same key awaits replay (consistency update owns it).",
    ),
    MetricSpec(
        "repair_bytes_total",
        "counter",
        "Payload bytes uploaded by repair rewrites (budget-metered traffic).",
        unit="B",
    ),
    MetricSpec(
        "repair_queue_depth",
        "gauge",
        "Objects currently waiting in the priority repair queue "
        "(most-at-risk stripes drain first).",
    ),
    MetricSpec(
        "repair_time_seconds",
        "histogram",
        "Simulated time from damage detection to restored full redundancy, "
        "observed once per completed repair (MTTR-to-full-redundancy).",
        unit="s",
    ),
    MetricSpec(
        "repair_budget_throttled_total",
        "counter",
        "Repair cycles cut short because the token-bucket bandwidth budget "
        "could not cover the next object's estimated rewrite.",
    ),
    MetricSpec(
        "migration_enqueued_total",
        "counter",
        "Objects queued for live migration (policy reclassification or "
        "provider decommission).",
    ),
    MetricSpec(
        "migration_completed_total",
        "counter",
        "Objects re-striped/re-replicated to their new placement by the "
        "live migration engine.",
    ),
    MetricSpec(
        "migration_failed_total",
        "counter",
        "Migration attempts that raised (object stays on its old, intact "
        "placement and is re-queued).",
    ),
    MetricSpec(
        "migration_bytes_total",
        "counter",
        "Payload bytes uploaded by live migrations (budget-metered traffic).",
        unit="B",
    ),
    MetricSpec(
        "migration_pending",
        "gauge",
        "Objects still waiting in the live-migration queue.",
    ),
    MetricSpec(
        "slo_stripes_at_risk",
        "gauge",
        "Objects currently known to sit below full redundancy (at least one "
        "placement damaged or unreachable), per the latest scrub knowledge.",
    ),
    MetricSpec(
        "slo_durability_risk_seconds",
        "gauge",
        "Durability risk integral: sum over under-redundant objects of "
        "(now - first seen below full redundancy) — stripes below full "
        "redundancy weighted by exposure time.",
        unit="s",
    ),
    MetricSpec(
        "orphan_gc_pending",
        "gauge",
        "Orphaned cloud objects (torn-write fragments, stray hot copies) "
        "queued for budgeted deletion by the maintenance plane's sweeper.",
    ),
    MetricSpec(
        "orphan_gc_removed_total",
        "counter",
        "Orphaned cloud objects deleted by the maintenance plane's orphan "
        "sweeper, per provider.",
        labels=("provider",),
    ),
    # ------------------------------------------------------ chaos campaigns
    MetricSpec(
        "chaos_crashes_total",
        "counter",
        "Client crashes injected by the chaos engine's crash schedule "
        "(each one kills the client between two cloud requests).",
    ),
    MetricSpec(
        "chaos_invariant_violations_total",
        "counter",
        "Invariant checks failed at chaos-episode settlement, by invariant "
        "name; any non-zero value fails the campaign.",
        labels=("invariant",),
    ),
    MetricSpec(
        "partition_windows_total",
        "counter",
        "Network-partition windows scripted against the provider by the "
        "chaos engine's partition plan.",
        labels=("provider",),
    ),
    # --------------------------------------- attribution / load observatory
    MetricSpec(
        "hedge_wasted_seconds",
        "histogram",
        "Cancelled hedge-leg wire time: for each hedged read whose leg lost "
        "the race, the seconds that leg was on the wire before the winner's "
        "completion cancelled it.  Off the critical path by definition — "
        "kept out of latency histograms and provider health EWMAs.",
        labels=("provider",),
        unit="s",
    ),
    MetricSpec(
        "provider_load_inflight",
        "gauge",
        "Concurrent requests the provider served in the most recent "
        "executed phase (the simulator runs whole phases, so this is the "
        "instantaneous parallelism the provider actually saw).",
        labels=("provider",),
    ),
    MetricSpec(
        "provider_load_queue_depth",
        "gauge",
        "Little's-law queue-depth estimate for the provider: EWMA arrival "
        "rate times EWMA per-request service time.",
        labels=("provider",),
    ),
    MetricSpec(
        "provider_load_service_rate",
        "gauge",
        "Reciprocal of the provider's EWMA per-request service time — the "
        "request rate the provider sustains at its observed latency.",
        labels=("provider",),
        unit="1/s",
    ),
    MetricSpec(
        "provider_load_busy_seconds",
        "gauge",
        "Cumulative wire seconds of completed requests observed against the "
        "provider by the load observatory (hedge legs included).",
        labels=("provider",),
        unit="s",
    ),
    MetricSpec(
        "attribution_exemplars_total",
        "counter",
        "Operations retained as latency-histogram exemplars (first N trace "
        "IDs per op kind and latency bucket), by op kind.",
        labels=("op",),
    ),
    # ------------------------------------------- load-aware read scheduling
    MetricSpec(
        "sched_decisions_total",
        "counter",
        "Striped reads routed by the attached FragmentScheduler (one per "
        "load-aware subset decision; zero with the scheduler detached).",
    ),
    MetricSpec(
        "sched_parity_fragments_total",
        "counter",
        "Parity fragments the scheduler selected in place of systematic "
        "ones because a data fragment's provider was queued or unhealthy "
        "(each one costs a real decode that a systematic join would skip).",
    ),
    MetricSpec(
        "sched_rotations_total",
        "counter",
        "Scheduler decisions where the fractional split policy rotated the "
        "subset away from the pure score ranking to spread a hot path "
        "across the capacity region.",
    ),
    MetricSpec(
        "sched_hedges_total",
        "counter",
        "Capacity-aware hedges fired on striped reads: a backup fragment "
        "request issued because the gating provider's estimated queue wait "
        "exceeded the backup's wire-plus-decode cost.",
    ),
    MetricSpec(
        "sched_hedge_wins_total",
        "counter",
        "Scheduler hedges where the backup subset completed first (or the "
        "gating fragment failed) and the read decoded around the gating "
        "provider.",
    ),
    MetricSpec(
        "sched_queue_wait_seconds",
        "histogram",
        "Estimated queue wait behind the gating provider at scheduler "
        "hedge-decision time (the 'waiting is worse than hedging' side of "
        "the comparison), by gating provider.",
        labels=("provider",),
        unit="s",
    ),
    # --------------------------------------------- multi-tenant service plane
    MetricSpec(
        "tenant_requests_total",
        "counter",
        "Requests submitted to the service plane's frontend handlers per "
        "tenant, counted at arrival (before authentication, quota checks "
        "or admission).",
        labels=("tenant",),
    ),
    MetricSpec(
        "tenant_admitted_total",
        "counter",
        "Requests dispatched to the shared scheme backends for the tenant "
        "by the deficit-round-robin admission controller.",
        labels=("tenant",),
    ),
    MetricSpec(
        "tenant_shed_total",
        "counter",
        "Requests rejected by the service plane per tenant, by typed "
        "reason: auth, unknown_tenant, queue_full, ops_quota, bytes_quota "
        "or objects_quota.",
        labels=("reason", "tenant"),
    ),
    MetricSpec(
        "tenant_bytes_used",
        "gauge",
        "Logical bytes the tenant currently stores under its namespace "
        "prefix, as accounted by the quota engine at admission time.",
        labels=("tenant",),
        unit="B",
    ),
    MetricSpec(
        "tenant_objects_used",
        "gauge",
        "Objects the tenant currently stores under its namespace prefix, "
        "as accounted by the quota engine at admission time.",
        labels=("tenant",),
    ),
    MetricSpec(
        "tenant_queue_depth",
        "gauge",
        "Requests currently waiting in the tenant's bounded admission "
        "queue (updated on every enqueue/dispatch).",
        labels=("tenant",),
    ),
    MetricSpec(
        "tenant_slo_availability",
        "gauge",
        "Sliding-window success fraction of the tenant's user-facing ops, "
        "per op class — the per-tenant rollup of the aggregate slo_* "
        "availability gauges.",
        labels=("op_class", "tenant"),
        unit="ratio",
    ),
    MetricSpec(
        "tenant_slo_p95_seconds",
        "gauge",
        "Sliding-window p95 simulated latency of the tenant's successful "
        "user-facing ops.",
        labels=("tenant",),
        unit="s",
    ),
    MetricSpec(
        "admission_rounds_total",
        "counter",
        "Deficit-round-robin scheduling rounds completed by the admission "
        "controller (one round visits every backlogged tenant once).",
    ),
    MetricSpec(
        "admission_dispatched_total",
        "counter",
        "Requests the admission controller handed to a frontend for "
        "execution, per frontend handler.",
        labels=("frontend",),
    ),
    MetricSpec(
        "admission_queued",
        "gauge",
        "Total requests currently waiting across every tenant's admission "
        "queue.",
    ),
    MetricSpec(
        "admission_quota_deferrals_total",
        "counter",
        "Head-of-queue dispatches the admission controller deferred "
        "because the tenant's ops-per-second token bucket was empty (the "
        "request stays queued; deferral is not load shedding).",
    ),
    MetricSpec(
        "admission_fairness_index",
        "gauge",
        "Jain's fairness index over per-tenant admitted throughput since "
        "the last reset; 1.0 is perfectly fair, 1/n is maximally unfair.",
        unit="ratio",
    ),
)

#: name -> spec for every metric the runtime may emit.
METRIC_CATALOG: dict[str, MetricSpec] = {s.name: s for s in _SPECS}
if len(METRIC_CATALOG) != len(_SPECS):  # pragma: no cover - authoring guard
    raise RuntimeError("duplicate metric names in the catalog")


def catalog_markdown_table() -> str:
    """The reference table embedded in ``docs/metrics-reference.md``."""
    lines = [
        "| Name | Type | Labels | Unit | Meaning |",
        "|---|---|---|---|---|",
    ]
    for spec in sorted(_SPECS, key=lambda s: s.name):
        labels = ", ".join(f"`{label}`" for label in spec.labels) or "—"
        lines.append(
            f"| `{spec.name}` | {spec.type} | {labels} | {spec.unit} "
            f"| {spec.description} |"
        )
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover - doc regeneration helper
    print(catalog_markdown_table())
