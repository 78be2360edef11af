"""Admission controller: DRR dispatch order, bounded queues, typed shedding."""

import pytest

from repro.metrics.registry import MetricsRegistry
from repro.service.admission import (
    REJECT_REASONS,
    AdmissionController,
    Request,
    jain_index,
)
from repro.service.tenant import Tenant, TenantQuota


def _req(tid: str, n: int = 0) -> Request:
    return Request(tenant_id=tid, token="tok", kind="get", path=f"/d/obj{n}")


def _fill(ac: AdmissionController, tenant: Tenant, n: int) -> None:
    for i in range(n):
        admitted, _ = ac.submit(tenant, _req(tenant.tenant_id, i))
        assert admitted


def _drain(ac: AdmissionController, now: float = 0.0) -> list[str]:
    order = []
    while True:
        req = ac.next_request(now)
        if req is None:
            break
        order.append(req.tenant_id)
    return order


class TestJainIndex:
    def test_equal_is_one(self):
        assert jain_index([3, 3, 3, 3]) == pytest.approx(1.0)

    def test_one_hot_is_one_over_n(self):
        assert jain_index([10, 0, 0, 0]) == pytest.approx(0.25)

    def test_empty_and_all_zero_are_one(self):
        assert jain_index([]) == 1.0
        assert jain_index([0, 0]) == 1.0


class TestSubmitAndShed:
    def test_queue_full_sheds_with_reason(self):
        ac = AdmissionController(queue_limit=2)
        t = Tenant("a", "tok")
        _fill(ac, t, 2)
        admitted, reason = ac.submit(t, _req("a", 9))
        assert not admitted and reason == "queue_full"
        assert ac.shed[("a", "queue_full")] == 1
        assert ac.backlog("a") == 2

    def test_shed_releases_the_reservation(self):
        ac = AdmissionController(queue_limit=1)
        t = Tenant("a", "tok", quota=TenantQuota(max_bytes=100))
        _fill(ac, t, 1)
        req = _req("a", 9)
        req.reservation = t.reserve_write("/d/obj9", 10)
        assert t.reserved_bytes == 10
        admitted, _ = ac.submit(t, req)
        assert not admitted
        assert t.reserved_bytes == 0 and req.reservation is None

    def test_queue_limit_zero_sheds_ops_quota(self):
        ac = AdmissionController(queue_limit=0)
        t = Tenant("a", "tok", quota=TenantQuota(max_ops_per_s=1.0))
        assert ac.submit(t, _req("a"))[0]  # burst token
        admitted, reason = ac.submit(t, _req("a", 1))
        assert not admitted and reason == "ops_quota"

    def test_unknown_reason_rejected(self):
        ac = AdmissionController()
        with pytest.raises(ValueError):
            ac.shed_request("a", "nope")
        assert "queue_full" in REJECT_REASONS

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(quantum=0.0)
        with pytest.raises(ValueError):
            AdmissionController(queue_limit=-1)


class TestDeficitRoundRobin:
    def test_unit_weights_interleave_per_round(self):
        ac = AdmissionController()
        a, b, c = Tenant("a", "t"), Tenant("b", "t"), Tenant("c", "t")
        for t in (a, b, c):
            _fill(ac, t, 2)
        assert _drain(ac) == ["a", "b", "c", "a", "b", "c"]
        assert ac.backlog() == 0

    def test_weight_two_serves_twice_per_round(self):
        ac = AdmissionController()
        heavy = Tenant("heavy", "t", weight=2.0)
        light = Tenant("light", "t")
        _fill(ac, heavy, 4)
        _fill(ac, light, 2)
        assert _drain(ac) == ["heavy", "heavy", "light", "heavy", "heavy", "light"]

    def test_fractional_weight_carries_deficit_across_rounds(self):
        ac = AdmissionController()
        slow = Tenant("slow", "t", weight=0.5)
        fast = Tenant("fast", "t")
        _fill(ac, slow, 2)
        _fill(ac, fast, 4)
        # 0.5 deficit per visit: slow dispatches every second round.
        assert _drain(ac) == ["fast", "slow", "fast", "fast", "slow", "fast"]

    def test_drained_tenant_forfeits_residual_deficit(self):
        ac = AdmissionController(quantum=5.0)
        a, b = Tenant("a", "t"), Tenant("b", "t")
        _fill(ac, a, 1)
        _fill(ac, b, 1)
        assert _drain(ac) == ["a", "b"]
        # DRR's idle rule: a tenant that drains keeps no residual credit
        # (each had 4.0 unspent from the 5.0 quantum).
        assert ac._deficit == {"a": 0.0, "b": 0.0}
        # Re-arrival starts from a fresh quantum, not banked credit: each
        # visit grants 5.0, enough for both queued requests back to back.
        _fill(ac, a, 2)
        _fill(ac, b, 2)
        assert _drain(ac) == ["a", "a", "b", "b"]

    def test_rounds_are_counted(self):
        ac = AdmissionController()
        a, b = Tenant("a", "t"), Tenant("b", "t")
        _fill(ac, a, 3)
        _fill(ac, b, 3)
        _drain(ac)
        assert ac.rounds == 2  # three rounds ran; the last has no re-visit

    def test_empty_controller_returns_none(self):
        ac = AdmissionController()
        assert ac.next_request(0.0) is None
        assert ac.backlog() == 0
        assert ac.next_eligible_time(0.0) is None


class TestOpsQuotaDeferral:
    def test_deferred_tenant_skipped_not_shed(self):
        ac = AdmissionController()
        limited = Tenant("lim", "t", quota=TenantQuota(max_ops_per_s=1.0))
        free = Tenant("free", "t")
        _fill(ac, limited, 3)
        _fill(ac, free, 3)
        order = _drain(ac, now=0.0)
        # limited spends its single burst token, then defers; free drains.
        assert order == ["lim", "free", "free", "free"]
        assert ac.backlog("lim") == 2
        assert ac.quota_deferrals > 0
        assert ac.shed_total() == 0

    def test_next_eligible_time_is_the_token_refill(self):
        ac = AdmissionController()
        limited = Tenant("lim", "t", quota=TenantQuota(max_ops_per_s=2.0))
        _fill(ac, limited, 5)
        assert ac.next_request(0.0) is not None  # burst: 2 tokens
        assert ac.next_request(0.0) is not None
        assert ac.next_request(0.0) is None
        at = ac.next_eligible_time(0.0)
        assert at == pytest.approx(0.5)
        assert ac.next_request(at) is not None

    def test_all_tokens_refill_over_time(self):
        ac = AdmissionController()
        limited = Tenant("lim", "t", quota=TenantQuota(max_ops_per_s=1.0))
        _fill(ac, limited, 3)
        served = [ac.next_request(float(now)) for now in (0, 1, 2)]
        assert all(r is not None for r in served)
        assert ac.backlog() == 0


class TestFairnessAccounting:
    def test_incremental_index_matches_recompute(self):
        ac = AdmissionController()
        a = Tenant("a", "t", weight=3.0)
        b = Tenant("b", "t")
        _fill(ac, a, 6)
        _fill(ac, b, 2)
        _drain(ac)
        expected = jain_index(ac.admitted.values())
        assert ac.fairness_index() == pytest.approx(expected)
        assert ac.admitted == {"a": 6, "b": 2}

    def test_index_is_one_with_no_admissions(self):
        assert AdmissionController().fairness_index() == 1.0


class TestRegistryBinding:
    def test_rebinding_counts_into_the_new_registry(self):
        """Instruments held from one registry are dropped at ``bind``: the
        very next request's depth, queued and admitted updates land in the
        new registry and leave the old one as it was."""
        first, second = MetricsRegistry(), MetricsRegistry()
        ac = AdmissionController(queue_limit=3)
        ac.bind(first, None)
        t = Tenant("a", "tok")
        _fill(ac, t, 3)
        assert ac.next_request(0.0) is not None
        before = [(m.name, m.labels, m.value) for m in first.all_metrics()]
        ac.bind(second, None)
        _fill(ac, t, 1)
        assert ac.submit(t, _req("a", 9)) == (False, "queue_full")
        assert ac.next_request(0.0) is not None
        assert [(m.name, m.labels, m.value) for m in first.all_metrics()] == before
        assert second.gauge("tenant_queue_depth", tenant="a").value == 2
        assert second.gauge("admission_queued").value == 2
        assert second.counter_value("tenant_admitted_total", tenant="a") == 1
        assert second.counter_value("tenant_shed_total", reason="queue_full", tenant="a") == 1
        assert first.counter_value("tenant_admitted_total", tenant="a") == 1
