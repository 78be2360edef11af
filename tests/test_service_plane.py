"""Frontend handlers, the service plane, traffic generation, and the drill."""

import json

import pytest

from repro.core.config import HyRDConfig
from repro.obs.slo import SloTracker
from repro.schemes import HyrdScheme
from repro.service import (
    AdmissionController,
    Request,
    ServicePlane,
    TenantQuota,
    TenantRegistry,
    TrafficConfig,
    TrafficGenerator,
    frontend,
    run_service_drill,
)
from repro.sim.events import EventLoop
from repro.sim.rng import stable_u64


@pytest.fixture
def plane(clock, providers):
    loop = EventLoop(clock)
    scheme = HyrdScheme(list(providers.values()), clock, config=HyRDConfig(seed=0))
    scheme.attach_slo(SloTracker())
    registry = TenantRegistry(seed=0)
    registry.create("alice")
    registry.create("bob", quota=TenantQuota(max_bytes=1024))
    p = ServicePlane(scheme, loop, registry, n_frontends=2)
    return p


def _req(plane, tid, kind, path, payload=None, token=None):
    return Request(
        tenant_id=tid,
        token=token if token is not None else plane.tenants.get(tid).token,
        kind=kind,
        path=path,
        size=len(payload) if payload else 0,
        payload=payload,
    )


class TestFrontendHandling:
    def test_put_executes_scoped_and_settles_quota(self, plane):
        admitted, reason = plane.route(_req(plane, "alice", "put", "/d/x", b"abcd"))
        assert admitted and reason is None
        plane.loop.run()
        alice = plane.tenants.get("alice")
        assert alice.objects == {"/d/x": 4}
        assert alice.reserved_bytes == 0
        # The object landed inside the tenant's namespace prefix.
        assert plane.scheme.get("/t/alice/d/x")[0] == b"abcd"

    def test_bad_token_sheds_auth(self, plane):
        admitted, reason = plane.route(
            _req(plane, "alice", "get", "/d/x", token="wrong")
        )
        assert not admitted and reason == "auth"
        assert plane.admission.shed[("alice", "auth")] == 1

    def test_unknown_tenant_sheds(self, plane):
        req = Request(tenant_id="mallory", token="t", kind="get", path="/d/x")
        admitted, reason = plane.route(req)
        assert not admitted and reason == "unknown_tenant"

    def test_bytes_quota_sheds_before_queueing(self, plane):
        admitted, reason = plane.route(
            _req(plane, "bob", "put", "/d/big", b"x" * 2048)
        )
        assert not admitted and reason == "bytes_quota"
        assert plane.admission.backlog() == 0
        assert plane.tenants.get("bob").reserved_bytes == 0

    def test_unknown_kind_raises(self, plane):
        with pytest.raises(ValueError):
            plane.route(_req(plane, "alice", "munge", "/d/x"))

    def test_failed_op_refunds_and_keeps_pumping(self, plane):
        # An update against a path that was never written fails inside the
        # scheme; the frontend must refund nothing (reads hold no quota),
        # count the failure, and still run the next request.
        plane.route(
            Request(
                tenant_id="alice",
                token=plane.tenants.get("alice").token,
                kind="update",
                path="/d/ghost",
                size=2,
                payload=b"zz",
            )
        )
        plane.route(_req(plane, "alice", "put", "/d/x", b"ok"))
        plane.loop.run()
        assert sum(fe.failures for fe in plane.frontends) == 1
        assert plane.scheme.get("/t/alice/d/x")[0] == b"ok"

    def test_an_update_reserves_the_growth_it_writes(self, plane):
        # bob holds 1024 B: an update that would grow a held object past
        # that sheds before queueing; one that fits commits its growth.
        def update(offset, patch):
            return plane.route(
                Request(
                    tenant_id="bob",
                    token=plane.tenants.get("bob").token,
                    kind="update",
                    path="/d/x",
                    size=len(patch),
                    payload=patch,
                    offset=offset,
                )
            )

        bob = plane.tenants.get("bob")
        plane.route(_req(plane, "bob", "put", "/d/x", b"x" * 100))
        plane.loop.run()
        assert update(100, b"y" * 4000) == (False, "bytes_quota")
        assert bob.reserved_bytes == 0 and plane.admission.backlog() == 0
        assert update(100, b"y" * 200) == (True, None)
        plane.loop.run()
        assert bob.objects == {"/d/x": 300} and bob.bytes_used == 300
        assert bob.reserved_bytes == 0
        assert plane.scheme.stat("/t/bob/d/x")[0].size == 300
        assert plane.route(_req(plane, "bob", "put", "/d/y", b"z" * 800)) == (
            False, "bytes_quota"
        )

    def test_tenant_attribution_reaches_slo(self, plane):
        plane.route(_req(plane, "alice", "put", "/d/x", b"abcd"))
        plane.route(_req(plane, "alice", "get", "/d/x"))
        plane.loop.run()
        slo = plane.scheme.slo
        assert "alice" in slo.tenants
        summary = slo.tenant("alice").summary(plane.clock.now)
        assert summary["ops"] == 2

    def test_home_frontend_is_stable(self, plane):
        homes = {plane.frontend_for(f"t{i}").name for i in range(64)}
        assert homes == {"fe0", "fe1"}  # both frontends get tenants
        assert all(
            plane.frontend_for("t7") is plane.frontend_for("t7") for _ in range(3)
        )


    def test_a_tenant_is_hashed_to_its_home_once(self, plane, monkeypatch):
        hashed = []

        def counting(*parts):
            hashed.append(parts)
            return stable_u64(*parts)

        monkeypatch.setattr(frontend, "stable_u64", counting)
        for i in range(5):
            plane.tenants.create(f"t{i}")
        for n in range(200):
            tid = f"t{n % 5}"
            request = _req(plane, tid, "put", "/d/x", b"abcd") if n < 5 else _req(
                plane, tid, "get", "/d/x"
            )
            assert plane.route(request) == (True, None)
            plane.loop.run()
        assert sum(fe.failures for fe in plane.frontends) == 0
        assert len(hashed) == 5  # one per tenant, not one per request
        for i in range(5):
            home = stable_u64("frontend-home", f"t{i}") % len(plane.frontends)
            assert plane.frontend_for(f"t{i}") is plane.frontends[home]


class TestTrafficGenerator:
    def test_streams_are_lazy_and_seeded(self):
        cfg = TrafficConfig(tenants=1000, ops_per_tenant=4)
        gen = TrafficGenerator(cfg, seed=3)
        assert gen._streams == {}  # nothing materialized up front
        ops_a = list(gen._stream("t00007"))
        ops_b = list(TrafficGenerator(cfg, seed=3)._stream("t00007"))
        assert ops_a == ops_b
        assert ops_a[0][0] == "put"  # first op always ingests

    def test_read_write_mix_tracks_ia_ratio(self):
        cfg = TrafficConfig(tenants=4, ops_per_tenant=500, read_request_ratio=3.5)
        gen = TrafficGenerator(cfg, seed=0)
        kinds = [k for tid in gen.tenant_ids for k, _, _ in gen._stream(tid)]
        reads = kinds.count("get")
        ratio = reads / (len(kinds) - reads)
        assert 3.5 * 0.8 < ratio < 3.5 * 1.2

    def test_rate_weights_span_the_skew(self):
        cfg = TrafficConfig(tenants=8, mode="open", skew=10.0)
        gen = TrafficGenerator(cfg, seed=0)
        w = gen.rate_weights()
        assert w[0] / w[-1] == pytest.approx(10.0)
        assert gen.rates().mean() == pytest.approx(cfg.rate_per_tenant)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrafficConfig(tenants=0)
        with pytest.raises(ValueError):
            TrafficConfig(mode="bursty")
        with pytest.raises(ValueError):
            TrafficConfig(skew=0.5)


class TestServiceDrill:
    def test_closed_drill_is_byte_deterministic(self):
        a = run_service_drill(seed=5, tenants=3, ops_per_tenant=4)
        b = run_service_drill(seed=5, tenants=3, ops_per_tenant=4)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        assert a["admitted_total"] == 12
        assert a["shed_total"] == 0
        assert a["fairness_index"] == pytest.approx(1.0)

    def test_seed_changes_the_report(self):
        a = run_service_drill(seed=5, tenants=3, ops_per_tenant=4)
        b = run_service_drill(seed=6, tenants=3, ops_per_tenant=4)
        assert a["sim_elapsed"] != b["sim_elapsed"]

    def test_open_drill_sheds_under_overload(self):
        report = run_service_drill(
            seed=0, tenants=4, mode="open", offered_load=4.0,
            queue_limit=4, horizon=5.0,
        )
        assert report["capacity_ops_per_s"] is not None
        assert report["shed_by_reason"].get("queue_full", 0) > 0
        assert report["admitted_total"] > 0
        # Uniform offered load: admission stays fair.
        assert report["fairness_index"] > 0.95

    def test_weights_skew_admitted_share(self):
        report = run_service_drill(
            seed=0, tenants=2, mode="open", offered_load=4.0,
            horizon=5.0, weights=[3.0, 1.0],
        )
        per = report["per_tenant"]
        heavy = per["t00000"]["admitted"]
        light = per["t00001"]["admitted"]
        assert heavy > 2 * light
