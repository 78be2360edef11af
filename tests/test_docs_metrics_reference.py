"""docs/metrics-reference.md must stay generated-identical to the catalog.

Two directions:

- the table between the BEGIN/END markers must equal
  :func:`repro.metrics.catalog.catalog_markdown_table` exactly (regenerate
  with ``PYTHONPATH=src python -m repro.metrics.catalog``);
- every metric name the runtime actually emits during a representative run
  must be declared in the catalog (and therefore appear in the doc).
"""

from pathlib import Path

import pytest

from repro.metrics.catalog import METRIC_CATALOG, catalog_markdown_table

DOC = Path(__file__).resolve().parent.parent / "docs" / "metrics-reference.md"
BEGIN = "<!-- BEGIN METRICS TABLE -->"
END = "<!-- END METRICS TABLE -->"


def _doc_table() -> str:
    text = DOC.read_text(encoding="utf-8")
    assert BEGIN in text and END in text, "metrics-reference.md lost its markers"
    return text.split(BEGIN, 1)[1].split(END, 1)[0].strip()


def test_doc_table_matches_catalog():
    assert _doc_table() == catalog_markdown_table().strip(), (
        "docs/metrics-reference.md is stale; regenerate the table with "
        "`PYTHONPATH=src python -m repro.metrics.catalog` and paste it "
        "between the markers"
    )


def test_every_catalog_name_documented_once():
    table = _doc_table()
    for name in METRIC_CATALOG:
        assert table.count(f"| `{name}` |") == 1


@pytest.fixture(scope="module")
def emitted_names():
    """Metric names from runs that exercise every subsystem: the traced
    fault-storm run behind ``repro report`` (with the SLO tracker and the
    time-series sampler attached, so the ``slo_*`` gauges fire), plus a
    fresh-brownout read burst with hedging on (the storm's seed happens not
    to hedge)."""
    from repro.cloud.provider import make_table2_cloud_of_clouds
    from repro.core.config import HyRDConfig
    from repro.core.resilience import ResilienceConfig
    from repro.faults import FaultProfile, LatencyBrownout
    from repro.obs import SloTracker, TimeSeriesSampler, run_fault_storm_report
    from repro.schemes import HyrdScheme
    from repro.sim.clock import SimClock

    slo = SloTracker()
    sampler = TimeSeriesSampler(cadence=30.0, slo=slo)
    report, _ = run_fault_storm_report(seed=0, slo=slo, sampler=sampler)
    # MTBF needs a second failure; the storm run is too short to see the
    # flapper go down twice, so script two more observed intervals and
    # publish once more — same code path a longer run would take.
    ledger = slo.provider("rackspace").observed
    t = 1e6
    ledger.mark_down(t), ledger.mark_up(t + 40.0)
    ledger.mark_down(t + 120.0), ledger.mark_up(t + 160.0)
    slo.publish(t + 200.0)
    names = set(report.registry.emitted_names())

    clock = SimClock()
    fleet = make_table2_cloud_of_clouds(clock)
    cfg = HyRDConfig(resilience=ResilienceConfig(hedge_reads=True))
    scheme = HyrdScheme(list(fleet.values()), clock, config=cfg)
    # The load observatory rides along: its gauges (provider_load_*), the
    # exemplar counter, and the hedge-waste histogram all fire on this
    # hedged burst.
    from repro.obs import ProviderLoadObservatory

    scheme.attach_observatory(ProviderLoadObservatory())
    for i in range(8):
        scheme.put(f"/h/f{i}", bytes(64 * 1024))
    fleet["aliyun"].faults = FaultProfile(
        [LatencyBrownout(clock.now, clock.now + 1e6, rtt_factor=10.0, bw_factor=0.05)]
    ).bind("aliyun")
    for i in range(8):
        scheme.get(f"/h/f{i}")
    names |= scheme.registry.emitted_names()

    # The load-aware read scheduler lights the sched_* family: a striped
    # read burst against a browned-out systematic provider forces parity
    # picks, and once the observatory's queue estimates warm up the scores
    # fall within the rotation margin and a capacity-aware hedge wins.
    from repro.core.scheduling import FragmentScheduler

    clock = SimClock()
    fleet = make_table2_cloud_of_clouds(clock)
    scheme = HyrdScheme(
        list(fleet.values()), clock, config=HyRDConfig(hot_file_threshold=0)
    )
    scheme.attach_observatory(ProviderLoadObservatory())
    scheme.attach_scheduler(FragmentScheduler())
    for i in range(4):
        scheme.put(f"/s/f{i}", bytes(2 * 1024 * 1024))
    fleet["rackspace"].faults = FaultProfile(
        [LatencyBrownout(clock.now, clock.now + 1e6, rtt_factor=10.0, bw_factor=0.05)]
    ).bind("rackspace")
    for _ in range(6):
        for i in range(4):
            scheme.get(f"/s/f{i}")
    names |= scheme.registry.emitted_names()

    # The maintenance drill lights up the scrub/repair/migration metrics;
    # a deliberately tight budget exercises the throttle counter too.
    from repro.maintenance.drill import run_maintenance_drill

    drill = run_maintenance_drill(
        seed=0,
        files=9,
        read_rounds=1,
        repair_rate_bytes_per_s=256 * 1024,
        repair_burst_bytes=512 * 1024,
    )
    names |= drill["scheme"].registry.emitted_names()

    # One chaos episode lights the campaign-level metrics (crash, partition
    # and invariant counters are published unconditionally at settlement);
    # the deterministic crash drill guarantees both journal recovery
    # outcomes, an orphan sweep and a write-log spill regardless of what
    # the episode's seed happens to draw.
    from repro.chaos import run_crash_drill, run_episode

    episode = run_episode("racs", seed=2026)
    names |= episode.scheme.registry.emitted_names()
    crash_drill = run_crash_drill(seed=0)
    for registry in crash_drill["registries"]:
        names |= registry.emitted_names()

    # The multi-tenant service plane: an overloaded open-loop drill with
    # bounded queues (queue_full sheds), a tight ops/s quota (dispatch
    # deferrals), and multiple backlogged tenants (DRR rounds) lights the
    # whole tenant_* / admission_* family, including the per-tenant SLO
    # gauges published at settlement.
    from repro.service import run_service_drill

    service_parts: dict = {}
    run_service_drill(
        seed=0,
        tenants=3,
        mode="open",
        offered_load=3.0,
        queue_limit=2,
        ops_quota_factor=0.5,
        horizon=4.0,
        parts=service_parts,
    )
    names |= service_parts["registry"].emitted_names()
    return names


def test_runtime_emits_only_documented_names(emitted_names):
    undocumented = emitted_names - set(METRIC_CATALOG)
    assert not undocumented, (
        f"runtime emitted metrics missing from the catalog/doc: {undocumented}"
    )


def test_catalog_is_exercised(emitted_names):
    """The canonical storm run lights up (nearly) the whole catalog — a
    spec that nothing can emit is dead weight.  Metrics tied to paths the
    storm does not take are explicitly allowed here."""
    allowed_unexercised = {
        # only fires when a probe round fails outright; both runs start
        # against healthy fleets, and mid-run re-probes are not scheduled
        # (unit-covered in tests/test_resilience.py territory)
        "evaluator_probe_failures_total",
        # the storm heals between ops and a heal replay closes a tripped
        # breaker directly, so the half-open probe path stays cold here
        "breaker_half_open",
        # maintenance failure paths: the drill fleet stays healthy, so no
        # repair/migration attempt ever raises and no scrubbed key overlaps
        # a pending write-log entry (unit-covered in
        # tests/test_maintenance_plane.py)
        "repair_failed_total",
        "repair_skipped_pending_total",
        "migration_failed_total",
    }
    unexercised = set(METRIC_CATALOG) - emitted_names - allowed_unexercised
    assert not unexercised, f"catalog entries never emitted: {unexercised}"
