"""Unit tests for the maintenance plane: budget, scrubber, repair, migration.

The end-to-end acceptance story (100% detection, budget-bounded foreground
impact) lives in ``benchmarks/test_maintenance_plane.py``; these tests pin
the component contracts the story is built from.
"""

import pytest

from repro.cloud.provider import make_table2_cloud_of_clouds
from repro.core.resilience import BREAKER_FAILURE_THRESHOLD
from repro.faults.ledger import CorruptionLedger, inject_bit_rot, inject_loss
from repro.maintenance import (
    AntiEntropyScrubber,
    MaintenanceConfig,
    MaintenancePlane,
    TokenBucket,
)
from repro.schemes import DepSkyScheme, DuraCloudScheme, HyrdScheme
from repro.sim.clock import SimClock
from repro.sim.rng import make_rng

KB, MB = 1024, 1024 * 1024


def _fleet(clock=None):
    clock = clock if clock is not None else SimClock()
    return clock, make_table2_cloud_of_clouds(clock)


def _duracloud(n_files=4, size=16 * KB, seed=0):
    clock, providers = _fleet()
    scheme = DuraCloudScheme([providers["amazon_s3"], providers["azure"]], clock)
    rng = make_rng(seed, "plane-test")
    contents = {}
    for i in range(n_files):
        path = f"/p/f{i}"
        contents[path] = rng.integers(0, 256, size, dtype="uint8").tobytes()
        scheme.put(path, contents[path])
    return scheme, providers, contents


def _site(scheme, path, placement=0):
    entry = scheme.namespace.get(path)
    prov, idx = entry.placements[placement]
    key = scheme._placement_storage_key(entry, idx)
    return prov, key


class TestTokenBucket:
    def test_unlimited_always_admits(self):
        bucket = TokenBucket(None, 1.0, SimClock())
        assert bucket.unlimited
        assert bucket.try_take(10**12)
        assert bucket.available() == float("inf")
        assert bucket.time_until(10**12) == 0.0

    def test_take_and_refill_on_sim_clock(self):
        clock = SimClock()
        bucket = TokenBucket(100.0, 1000.0, clock)
        assert bucket.try_take(800)
        assert not bucket.try_take(800)  # only 200 left
        clock.advance(6.0)  # +600
        assert bucket.available() == 800.0
        assert bucket.try_take(800)

    def test_oversized_object_admitted_only_at_full_bucket(self):
        clock = SimClock()
        bucket = TokenBucket(100.0, 1000.0, clock)
        assert bucket.try_take(5000)  # full bucket: admit, go into debt
        assert bucket.available() == -4000.0
        assert not bucket.try_take(5000)  # in debt: blocked
        clock.advance(50.0)  # refill exactly back to capacity
        assert bucket.try_take(5000)

    def test_settle_returns_overestimate(self):
        clock = SimClock()
        bucket = TokenBucket(100.0, 1000.0, clock)
        bucket.try_take(900)
        bucket.settle(900, 100)  # only 100 actually moved
        assert bucket.available() == 900.0

    def test_settle_never_exceeds_capacity(self):
        bucket = TokenBucket(100.0, 1000.0, SimClock())
        bucket.settle(500, 0)
        assert bucket.available() == 1000.0

    def test_time_until(self):
        clock = SimClock()
        bucket = TokenBucket(100.0, 1000.0, clock)
        bucket.try_take(1000)
        assert bucket.time_until(500) == 5.0
        # An ask beyond capacity needs only a full bucket, not the impossible.
        assert bucket.time_until(10_000) == 10.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(0.0, 100.0, SimClock())
        with pytest.raises(ValueError):
            TokenBucket(10.0, 0.0, SimClock())


class TestScrubber:
    def test_each_cycle_audits_the_whole_namespace_in_path_order(self):
        scheme, _providers, contents = _duracloud(n_files=5)
        scrubber = AntiEntropyScrubber(scheme)
        for _ in range(2):
            assert [a.path for a in scrubber.run_cycle()] == sorted(contents)
        assert scrubber.cycles == 2
        assert scheme.registry.counter_value("scrub_cycles_total") == 2

    def test_found_sites_accumulate_repairable_only(self):
        scheme, providers, contents = _duracloud()
        paths = sorted(contents)
        prov0, key0 = _site(scheme, paths[0])
        inject_bit_rot(providers[prov0], scheme.container, [key0])
        prov1, key1 = _site(scheme, paths[1])
        inject_loss(providers[prov1], scheme.container, [key1])
        scrubber = AntiEntropyScrubber(scheme)
        scrubber.full_pass()
        assert scrubber.found_sites == {
            (prov0, scheme.container, key0),
            (prov1, scheme.container, key1),
        }

    def test_concurrent_removal_is_skipped(self):
        scheme, _providers, contents = _duracloud(n_files=2)
        scrubber = AntiEntropyScrubber(scheme)
        missing = sorted(contents) + ["/p/never-existed"]
        audits = scrubber.audit_paths(missing)
        assert [a.path for a in audits] == sorted(contents)


class TestRepairScheduler:
    def test_priority_fewest_margin_first(self):
        scheme, _providers, _contents = _duracloud()
        plane = MaintenancePlane(scheme)
        plane.repair.enqueue("/p/f2", margin=2)
        plane.repair.enqueue("/p/f0", margin=0)
        plane.repair.enqueue("/p/f1", margin=1)
        results = plane.repair.run_cycle()
        assert [r.path for r in results] == ["/p/f0", "/p/f1", "/p/f2"]

    def test_dedupe_and_reprioritise(self):
        scheme, _providers, _contents = _duracloud()
        plane = MaintenancePlane(scheme)
        plane.repair.enqueue("/p/f1", margin=3)
        plane.repair.enqueue("/p/f1", margin=5)  # no-op: not riskier
        plane.repair.enqueue("/p/f2", margin=1)
        plane.repair.enqueue("/p/f1", margin=0)  # sharper: re-sorts ahead
        assert len(plane.repair) == 2
        assert scheme.registry.counter_value("repair_enqueued_total") == 2
        results = plane.repair.run_cycle()
        assert [r.path for r in results] == ["/p/f1", "/p/f2"]

    def test_budget_throttles_and_resumes(self):
        scheme, providers, contents = _duracloud(size=64 * KB)
        config = MaintenanceConfig(
            repair_rate_bytes_per_s=8 * KB, repair_burst_bytes=140 * KB
        )
        plane = MaintenancePlane(scheme, config)
        for path in sorted(contents)[:2]:
            prov, key = _site(scheme, path)
            inject_bit_rot(providers[prov], scheme.container, [key])
            plane.repair.enqueue_audit(scheme.verify_object(path))
        # Estimate is 2x64K per object; the 140K bucket covers exactly one.
        first = plane.repair.run_cycle()
        assert len(first) == 1
        assert scheme.registry.counter_value("repair_budget_throttled_total") == 1
        assert len(plane.repair) == 1
        scheme.clock.advance(3600.0)  # refill
        second = plane.repair.run_cycle()
        assert len(second) == 1
        assert len(plane.repair) == 0
        for path in contents:
            assert scheme.verify_object(path).ok

    def test_unrepairable_object_counts_failed_and_drops(self):
        scheme, providers, contents = _duracloud(n_files=1)
        path = next(iter(contents))
        # Both replicas corrupted: no intact source remains.
        for placement in (0, 1):
            prov, key = _site(scheme, path, placement)
            inject_bit_rot(providers[prov], scheme.container, [key])
        plane = MaintenancePlane(scheme)
        plane.repair.enqueue(path)
        results = plane.repair.run_cycle()
        assert results == []
        assert scheme.registry.counter_value("repair_failed_total") == 1
        assert len(plane.repair) == 0  # next scrub pass re-discovers it

    def test_pending_write_log_skips_repair(self):
        # Regression: a foreground write logged between scrub and repair must
        # keep ownership of the key — repairing it too would double-write.
        scheme, providers, contents = _duracloud()
        path = sorted(contents)[0]
        prov, key = _site(scheme, path)
        inject_bit_rot(providers[prov], scheme.container, [key])
        audit = scheme.verify_object(path)
        assert not audit.ok
        # The racing write lands in the provider's log after the scrub.
        scheme._write_logs[prov].log_put(
            scheme.container, key, contents[path], scheme.clock.now
        )
        result = scheme.repair_object(path, audit)
        assert result.repaired == ()
        assert [f.key for f in result.skipped_pending] == [key]
        assert not result.complete
        # The scheduler re-queues incomplete repairs rather than dropping.
        plane = MaintenancePlane(scheme)
        plane.repair.enqueue_audit(audit)
        plane.repair.run_cycle()
        assert plane.repair.pending_paths == [path]
        assert scheme.registry.counter_value("repair_skipped_pending_total") >= 1


class TestMigrationEngine:
    def _hyrd(self, n_files=6):
        clock, providers = _fleet()
        scheme = HyrdScheme(list(providers.values()), clock)
        rng = make_rng(0, "migration-test")
        for i in range(n_files):
            path = f"/m/f{i}"
            scheme.put(path, rng.integers(0, 256, 32 * KB, dtype="uint8").tobytes())
        return scheme, providers

    def test_plan_dedupes_and_counts(self):
        scheme, _providers = self._hyrd()
        plane = MaintenancePlane(scheme)
        assert plane.migration.plan(["/m/f0", "/m/f1", "/m/f0"]) == 2
        assert plane.migration.plan(["/m/f1"]) == 0
        assert scheme.registry.counter_value("migration_enqueued_total") == 2

    def test_decommission_drains_incrementally(self):
        scheme, _providers = self._hyrd()
        plane = scheme.attach_maintenance(
            MaintenanceConfig(migration_keys_per_cycle=2)
        )
        # Evacuate whichever provider actually holds the replicated files.
        victim = next(
            p for p in scheme.provider_names if scheme.placements_on(p)
        )
        assert scheme.decommission(victim) == []  # live path: queued
        queued = len(plane.migration)
        assert queued > 0
        plane.migration.run_cycle()
        assert len(plane.migration) == max(0, queued - 2)  # bounded slice
        plane.migration.drain()
        assert len(plane.migration) == 0
        assert scheme.placements_on(victim) == []
        assert (
            scheme.registry.counter_value("migration_completed_total") == queued
        )

    def test_interrupted_migration_is_resumable(self):
        scheme, _providers = self._hyrd()
        plane = MaintenancePlane(scheme, MaintenanceConfig(migration_keys_per_cycle=1))
        scheme.evaluator.exclude("azure")
        scheme.dispatcher.refresh()
        plane.migration.sync_policy()
        before = len(plane.migration)
        assert before > 1
        plane.migration.run_cycle()  # ... interruption here loses nothing:
        resumed = MaintenancePlane(scheme, MaintenanceConfig(migration_keys_per_cycle=8))
        resumed.migration.sync_policy()  # re-derived from namespace state
        assert len(resumed.migration) == before - 1
        resumed.migration.drain()
        assert scheme.misplaced_paths() == []


class TestMaintenancePlane:
    def test_attach_detach_lifecycle(self):
        scheme, _providers, _contents = _duracloud()
        plane = scheme.attach_maintenance()
        assert scheme.maintenance is plane
        assert plane.running
        with pytest.raises(RuntimeError):
            scheme.attach_maintenance()
        assert scheme.detach_maintenance() is plane
        assert scheme.maintenance is None
        assert not plane.running
        scheme.attach_maintenance()  # re-attachable after detach

    def test_detached_is_zero_cost_for_foreground(self):
        # Attached-but-never-pumped must also be invisible: identical op
        # streams, byte-identical reports.
        results = []
        for attach in (False, True):
            scheme, _providers, contents = _duracloud()
            if attach:
                scheme.attach_maintenance()
            for path, data in contents.items():
                got, _ = scheme.get(path)
                assert got == data
            results.append([r for r in scheme.collector.reports])
        baseline, attached = results
        assert baseline == attached

    def test_tick_scrubs_and_repairs(self):
        scheme, providers, contents = _duracloud()
        path = sorted(contents)[0]
        prov, key = _site(scheme, path)
        inject_bit_rot(providers[prov], scheme.container, [key])
        plane = scheme.attach_maintenance(MaintenanceConfig(scrub_interval=60.0))
        plane.run_idle(scheme.clock.now + 61.0)
        assert scheme.registry.counter_value("scrub_cycles_total") == 1
        assert scheme.registry.counter_value("repair_completed_total") == 1
        assert scheme.verify_object(path).ok

    def test_pump_fires_overdue_ticks_without_advancing(self):
        scheme, _providers, _contents = _duracloud()
        plane = scheme.attach_maintenance(MaintenanceConfig(scrub_interval=60.0))
        scheme.clock.advance(200.0)  # foreground moved time past two ticks
        now = scheme.clock.now
        plane.pump()
        assert scheme.clock.now >= now  # clock only moves via op simulation
        assert scheme.registry.counter_value("scrub_cycles_total") >= 1

    def test_durability_risk_gauges(self):
        scheme, providers, contents = _duracloud()
        path = sorted(contents)[0]
        prov, key = _site(scheme, path)
        inject_bit_rot(providers[prov], scheme.container, [key])
        plane = MaintenancePlane(
            scheme,
            MaintenanceConfig(repair_rate_bytes_per_s=1.0, repair_burst_bytes=1.0),
        )
        # An earlier oversized transfer left the budget deep in debt: the
        # damaged path is queued for repair but the queue cannot drain.
        assert plane.budget.try_take(1e12)
        plane.run_cycle()
        assert scheme.registry.gauge("slo_stripes_at_risk").value == 1
        scheme.clock.advance(120.0)
        plane.run_cycle()
        assert scheme.registry.gauge("slo_durability_risk_seconds").value >= 120.0
        scheme.repair_object(path)
        plane.run_cycle()
        assert scheme.registry.gauge("slo_stripes_at_risk").value == 0
        assert scheme.registry.gauge("slo_durability_risk_seconds").value == 0

    def test_breaker_close_edge_triggers_targeted_audit(self):
        scheme, _providers, contents = _duracloud()
        plane = MaintenancePlane(scheme)
        plane.start()
        for breaker in scheme._breakers.values():
            assert breaker.listeners == [
                scheme._note_breaker, plane._on_breaker_transition
            ]
        plane._on_breaker_transition("azure", "open", 0.0)
        plane._on_breaker_transition("azure", "closed", 1.0)
        audits = plane.run_cycle()
        # Every path placed on azure, audited ahead of the namespace walk.
        on_azure = sorted(scheme.placements_on("azure"))
        assert on_azure
        assert [a.path for a in audits] == on_azure + sorted(contents)
        plane.stop()
        for breaker in scheme._breakers.values():
            assert breaker.listeners == [scheme._note_breaker]

    def test_slo_listener_chain_preserved(self):
        from repro.obs import SloTracker

        scheme, _providers, _contents = _duracloud()
        slo = SloTracker()
        scheme.attach_slo(slo)
        plane = scheme.attach_maintenance()
        scheme._breakers["azure"]._transition("open", 5.0)
        # Both the SLO tracker and the plane saw the transition.
        assert slo.provider("azure").observed.down_since == 5.0
        assert "azure" in plane._opened
        scheme.detach_maintenance()
        assert scheme._breakers["azure"].listeners == [
            scheme._note_breaker, slo.on_breaker_transition
        ]

    @pytest.mark.parametrize("slo_first", [True, False])
    def test_breaker_edges_reach_slo_and_plane_in_either_attach_order(self, slo_first):
        """A breaker's listeners are a list: attaching the SLO tracker after
        the plane used to overwrite the plane's hook (no targeted scrub)."""
        from repro.obs import SloTracker

        scheme, _providers, _contents = _duracloud()
        slo = SloTracker()
        if slo_first:
            scheme.attach_slo(slo)
        plane = scheme.attach_maintenance()
        if not slo_first:
            scheme.attach_slo(slo)
        breaker = scheme._breakers["azure"]
        for _ in range(BREAKER_FAILURE_THRESHOLD):
            breaker.record_failure(5.0)
        assert breaker.state == "open"
        assert plane._opened == {"azure"}
        assert slo.provider("azure").observed.down_since == 5.0
        breaker.record_success(9.0)
        assert plane._suspects == {"azure"}
        assert slo.provider("azure").observed.down_since is None

    def test_stop_leaves_the_slo_hook_installed(self):
        """``stop()`` removes the plane's own listener, nobody else's — it
        used to reset the slot to whatever it saved at ``start()``."""
        from repro.obs import SloTracker

        scheme, _providers, _contents = _duracloud()
        plane = scheme.attach_maintenance()
        slo = SloTracker()
        scheme.attach_slo(slo)
        plane.stop()
        plane.stop()  # idempotent
        breaker = scheme._breakers["azure"]
        assert breaker.listeners == [scheme._note_breaker, slo.on_breaker_transition]
        for _ in range(BREAKER_FAILURE_THRESHOLD):
            breaker.record_failure(5.0)
        assert slo.provider("azure").observed.down_since == 5.0
        assert plane._opened == set()

    def test_detection_score_requires_ledger(self):
        scheme, _providers, _contents = _duracloud()
        plane = scheme.attach_maintenance()
        with pytest.raises(RuntimeError):
            plane.detection_score()

    def test_detection_score_with_ledger(self):
        scheme, providers, contents = _duracloud()
        ledger = CorruptionLedger()
        path = sorted(contents)[0]
        prov, key = _site(scheme, path)
        inject_bit_rot(providers[prov], scheme.container, [key], ledger=ledger)
        plane = scheme.attach_maintenance(ledger=ledger)
        plane.scrubber.full_pass()
        score = plane.detection_score()
        assert score == {"injected": 1, "detected": 1, "missed": [], "rate": 1.0}

    def test_loop_must_share_scheme_clock(self):
        from repro.sim.events import EventLoop

        scheme, _providers, _contents = _duracloud()
        with pytest.raises(ValueError):
            MaintenancePlane(scheme, loop=EventLoop(SimClock()))


class TestDepSkyMargins:
    def test_margin_orders_risk_correctly(self):
        clock, providers = _fleet()
        scheme = DepSkyScheme(list(providers.values()), clock)
        rng = make_rng(0, "margin-test")
        for path in ("/d/safe", "/d/critical"):
            scheme.put(path, rng.integers(0, 256, 8 * KB, dtype="uint8").tobytes())
        # 4 replicas, min_needed 1: losing one leaves margin 2, losing
        # three leaves margin 0 — the repair queue must drain that first.
        prov, key = _site(scheme, "/d/safe", 0)
        inject_loss(providers[prov], scheme.container, [key])
        for placement in range(3):
            prov, key = _site(scheme, "/d/critical", placement)
            inject_loss(providers[prov], scheme.container, [key])
        plane = MaintenancePlane(scheme)
        for path in ("/d/safe", "/d/critical"):
            plane.repair.enqueue_audit(scheme.verify_object(path))
        results = plane.repair.run_cycle()
        assert [r.path for r in results] == ["/d/critical", "/d/safe"]
        assert all(r.complete for r in results)


class TestOrphanSweeper:
    """Crash recovery routes orphan deletions through the plane's budgeted
    sweeper when one is attached, instead of deleting inline."""

    @staticmethod
    def _crash_orphans(attach_plane):
        """Overwrite-crash early enough to roll back, leaving the dead
        client's stray fragments as orphans; recover and report."""
        from repro.faults.crash import ClientCrash, CrashSchedule
        from repro.schemes import RacsScheme

        clock, providers = _fleet()
        fleet = [providers[p] for p in ("amazon_s3", "azure", "aliyun", "rackspace")]
        scheme = RacsScheme(fleet, clock)
        scheme.attach_journal()
        rng = make_rng(0, "orphan-route")
        old = rng.bytes(64 * KB)
        scheme.put("/gc/f0", old)
        # Ordinal 2: one fragment of the overwrite lands (< k), then death.
        scheme.install_crash_schedule(CrashSchedule([2]))
        with pytest.raises(ClientCrash):
            scheme.put("/gc/f0", rng.bytes(64 * KB))
        dead = scheme
        scheme = RacsScheme(fleet, clock)
        scheme.take_over(dead)
        plane = scheme.attach_maintenance() if attach_plane else None
        scheme.recover_namespace()
        summary = scheme.recover()
        assert summary["rolled_back"], "ordinal 2 must roll back"
        return scheme, plane, summary, old

    def test_without_plane_recovery_deletes_inline(self):
        scheme, _plane, summary, old = self._crash_orphans(attach_plane=False)
        assert sum(summary["orphans_removed"].values()) > 0
        data, _ = scheme.get("/gc/f0")
        assert data == old

    def test_with_plane_orphans_are_enqueued_not_deleted(self):
        scheme, plane, summary, _old = self._crash_orphans(attach_plane=True)
        assert summary["orphans_removed"] == {}  # deferred to the sweeper
        assert len(plane.orphans) > 0
        # the stray fragments are still on the providers, queue is truthful
        for provider, container, key in plane.orphans.pending():
            assert scheme.provider(provider).store.has(container, key)

    def test_sweeper_drains_under_per_cycle_key_budget(self):
        scheme, plane, _summary, old = self._crash_orphans(attach_plane=True)
        queued = plane.orphans.pending()
        cycles = 0
        while plane.orphans.run_cycle(max_keys=1):
            cycles += 1
            assert cycles <= len(queued) + 4
        # one key per cycle: draining took as many cycles as keys
        assert cycles == len(queued)
        assert len(plane.orphans) == 0
        for provider, container, key in queued:
            assert not scheme.provider(provider).store.has(container, key)
        # sweeping only removed garbage: the object still reads clean
        data, _ = scheme.get("/gc/f0")
        assert data == old
        audit = scheme.verify_object("/gc/f0", deep=True)
        assert audit.ok

    def test_enqueue_dedupes(self):
        scheme, plane, _summary, _old = self._crash_orphans(attach_plane=True)
        provider, container, key = plane.orphans.pending()[0]
        depth = len(plane.orphans)
        assert not plane.orphans.enqueue(provider, container, key)
        assert len(plane.orphans) == depth
