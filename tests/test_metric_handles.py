"""Per-event metric sites hold their instruments (exact lookup counts).

Every site that mutates a metric per request, per phase or per op looks
each instrument up by name once per label set and keeps it.  These tests
count :meth:`MetricsRegistry._instrument` calls over a small open-loop
service drill and a small HyRD replay through an outage, and check that the
held instruments still mirror every mutation into the trace.
"""

import collections

import pytest

from repro.core.config import HyRDConfig
from repro.faults import OutageWindow
from repro.metrics.registry import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.trace import RecordingTracer
from repro.schemes import HyrdScheme
from repro.service import run_service_drill
from repro.workloads.trace import TraceOp, TraceReplayer

#: every metric a site mutates per request, per phase or per op
PER_EVENT = frozenset(
    {
        # cloud.provider
        "provider_requests_total",
        "provider_errors_total",
        "provider_bytes_up_total",
        "provider_bytes_down_total",
        # metrics.collector: ops, latencies and bump(name)
        "ops_total",
        "op_latency_seconds",
        "retries",
        "breaker_fast_fail",
        "breaker_open",
        "breaker_half_open",
        "breaker_closed",
        "hedged_reads",
        "hedge_wins",
        # core.monitor and core.dispatcher
        "workload_writes_total",
        "workload_bytes_total",
        "workload_size_bucket_total",
        "dispatch_decisions_total",
        # core.resilience
        "provider_health_error_rate",
        "provider_health_slowdown",
        # service.admission and service.frontend
        "tenant_requests_total",
        "tenant_queue_depth",
        "admission_queued",
        "tenant_admitted_total",
        "admission_fairness_index",
        "admission_dispatched_total",
        "admission_rounds_total",
        "admission_quota_deferrals_total",
        "tenant_shed_total",
        "tenant_bytes_used",
        "tenant_objects_used",
        # the scheme's per-phase sites
        "codec_encode_bytes_total",
        "codec_decode_bytes_total",
        "write_log_entries_total",
        "write_log_pending",
        "writelog_pending_bytes",
        "writelog_spilled_bytes",
        "heal_replayed_total",
        "hedge_wasted_seconds",
        "sched_decisions_total",
        "sched_parity_fragments_total",
        "sched_rotations_total",
        "sched_queue_wait_seconds",
        "sched_hedges_total",
        "sched_hedge_wins_total",
        "journal_intents_total",
        "journal_commits_total",
        "journal_pending",
        "journal_payload_bytes",
    }
)


@pytest.fixture
def counted(monkeypatch):
    """Count by-name lookups and mutations, both per registry."""
    lookups = collections.Counter()
    mutations = collections.Counter()
    instrument = MetricsRegistry._instrument

    def counting(self, cls, kind, name, labels, *args):
        lookups[self, name] += 1
        return instrument(self, cls, kind, name, labels, *args)

    monkeypatch.setattr(MetricsRegistry, "_instrument", counting)
    for cls, attr in ((Counter, "inc"), (Gauge, "set"), (Histogram, "observe")):
        mutate = getattr(cls, attr)

        def mutating(self, *args, _mutate=mutate):
            mutations[self._registry] += 1
            return _mutate(self, *args)

        monkeypatch.setattr(cls, attr, mutating)
    return lookups, mutations


def _assert_held(registry, tracer, lookups, mutations, expected: set[str]) -> None:
    label_sets = collections.Counter(m.name for m in registry.all_metrics())
    assert expected <= set(label_sets)
    for name in PER_EVENT & set(label_sets):
        assert lookups[registry, name] == label_sets[name], name
    per_event = sum(lookups[registry, name] for name in PER_EVENT)
    assert mutations[registry] > 20 * per_event
    mirrored = sum(1 for r in tracer.records if r["t"] == "metric")
    assert mirrored == mutations[registry]


def test_an_open_loop_drill_looks_each_instrument_up_once(counted):
    lookups, mutations = counted
    tracers = []

    def traced(providers, clock):
        tracers.append(RecordingTracer(clock))
        return HyrdScheme(providers, clock, config=HyRDConfig(seed=0), tracer=tracers[0])

    parts = {}
    report = run_service_drill(
        seed=0, tenants=4, mode="open", offered_load=4.0, queue_limit=4,
        horizon=5.0, scheme_factory=traced, parts=parts,
    )
    assert report["shed_by_reason"].get("queue_full", 0) > 0
    _assert_held(
        parts["registry"], tracers[0], lookups, mutations,
        {
            "provider_requests_total", "ops_total", "op_latency_seconds",
            "tenant_requests_total", "tenant_queue_depth", "admission_queued",
            "tenant_admitted_total", "admission_fairness_index",
            "admission_dispatched_total", "admission_rounds_total",
            "tenant_shed_total", "tenant_bytes_used", "tenant_objects_used",
        },
    )


def test_a_replay_through_an_outage_looks_each_instrument_up_once(
    counted, clock, providers
):
    lookups, mutations = counted
    tracer = RecordingTracer(clock)
    scheme = HyrdScheme(
        list(providers.values()), clock, config=HyRDConfig(seed=0), tracer=tracer
    )
    ops = [TraceOp("put", f"/d/s{i}", size=4096) for i in range(20)]
    ops += [TraceOp("put", f"/d/l{i}", size=2 << 20) for i in range(3)]
    ops += [TraceOp("get", f"/d/{p}") for p in ("s0", "s1", "l0", "l1")] * 5
    ops += [TraceOp("update", f"/d/{p}", size=64, offset=8) for p in ("s2", "l2")]
    replayer = TraceReplayer(seed=0)
    replayer.run(scheme, ops)
    providers["azure"].faults.add(OutageWindow(clock.now, clock.now + 30.0))
    replayer.run(scheme, ops)
    clock.advance(60.0)
    scheme.heal_returned()
    _assert_held(
        scheme.registry, tracer, lookups, mutations,
        {
            "provider_requests_total", "provider_errors_total",
            "provider_bytes_up_total", "provider_bytes_down_total",
            "ops_total", "op_latency_seconds", "workload_writes_total",
            "dispatch_decisions_total", "codec_encode_bytes_total",
            "write_log_entries_total", "write_log_pending", "heal_replayed_total",
        },
    )
