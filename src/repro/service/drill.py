"""The canonical service-plane drill: build, drive, report.

:func:`run_service_drill` assembles the whole stack — Table II provider
fleet, a :class:`~repro.schemes.HyrdScheme` backend with an SLO tracker
attached, a tenant registry with quotas, the admission controller, N
frontends on one event loop, and a seeded traffic generator — runs it to
completion, and returns one JSON-safe aggregate report.  Everything is
simulated and seeded, so the same arguments produce a byte-identical
report (``json.dumps(report, sort_keys=True)`` round-trips exactly); the
``repro serve`` CLI, ``benchmarks/test_service_plane.py`` and the
``service_plane`` facet of ``tests/data/simulated_golden.json`` all consume
this one entry point.

For open-loop runs the drill first *calibrates*: it pre-provisions one
object per tenant, measures a single read's simulated cost, and derives
per-tenant arrival rates as ``offered_load`` times the measured service
capacity — so "3x overload" means the same thing whatever the fleet's
latency parameters are.
"""

from __future__ import annotations

from typing import Any

from repro.cloud.provider import make_table2_cloud_of_clouds
from repro.core.config import HyRDConfig
from repro.obs.slo import SloTracker
from repro.schemes import HyrdScheme
from repro.service.admission import AdmissionController
from repro.service.frontend import ServicePlane
from repro.service.tenant import TenantQuota, TenantRegistry
from repro.service.traffic import TrafficConfig, TrafficGenerator
from repro.sim.clock import SimClock
from repro.sim.events import EventLoop

__all__ = ["run_service_drill"]

REPORT_SCHEMA = "repro-service-drill/1"


def _measure_read_cost(plane: ServicePlane, tenant, path: str) -> float:
    """Simulated seconds one admitted read costs (calibration, pre-window)."""
    t0 = plane.clock.now
    with plane.scheme.tenant_context(tenant.tenant_id):
        plane.scheme.get(tenant.scope(path))
    return plane.clock.now - t0


def run_service_drill(
    seed: int = 0,
    tenants: int = 4,
    frontends: int = 2,
    mode: str = "closed",
    ops_per_tenant: int = 6,
    payload_bytes: int = 16 * 1024,
    queue_limit: int = 16,
    skew: float = 1.0,
    offered_load: float = 3.0,
    horizon: float = 20.0,
    ops_quota_factor: float | None = None,
    max_bytes: int | None = None,
    max_objects: int | None = None,
    weights: list[float] | None = None,
    scheme_factory=None,
    parts: dict | None = None,
) -> dict[str, Any]:
    """Run one full multi-tenant drill; returns the aggregate report.

    ``mode="closed"`` runs ``ops_per_tenant`` ops per tenant with one
    outstanding request each; ``mode="open"`` schedules ``horizon`` sim
    seconds of arrivals at ``offered_load`` times the measured service
    capacity, skewed ``skew``:1 across tenants.  ``ops_quota_factor``
    gives every tenant an ops/s quota of that multiple of its fair share
    of measured capacity (open mode only — closed mode has no capacity
    measurement).

    ``parts``, when given, receives the live objects (scheme, plane,
    admission, slo, registry, clock) after the run — the report itself
    stays JSON-safe.
    """
    clock = SimClock()
    loop = EventLoop(clock)
    providers = make_table2_cloud_of_clouds(clock)
    if scheme_factory is None:
        scheme = HyrdScheme(
            list(providers.values()), clock, config=HyRDConfig(seed=seed)
        )
    else:
        scheme = scheme_factory(list(providers.values()), clock)
    slo = SloTracker()
    scheme.attach_slo(slo)

    registry = TenantRegistry(seed)
    config = TrafficConfig(
        tenants=tenants,
        mode=mode,
        ops_per_tenant=ops_per_tenant,
        payload_bytes=payload_bytes,
        skew=skew,
        horizon=horizon,
        # rate_per_tenant is recomputed below for open mode; the placeholder
        # just has to satisfy validation.
        rate_per_tenant=1.0,
    )
    traffic = TrafficGenerator(config, seed=seed)
    quota = TenantQuota(max_bytes=max_bytes, max_objects=max_objects)
    for i, tid in enumerate(traffic.tenant_ids):
        registry.create(
            tid,
            quota=quota,
            weight=weights[i] if weights is not None else 1.0,
        )

    admission = AdmissionController(queue_limit=queue_limit)
    plane = ServicePlane(
        scheme, loop, registry, admission=admission, n_frontends=frontends
    )

    capacity = None
    if mode == "open":
        # Pre-provision one object per tenant, then calibrate capacity from
        # a single measured read (all of this precedes the measured window).
        for tid in traffic.tenant_ids:
            tenant = registry.get(tid)
            path = traffic.seed_object_path(tid)
            plane.direct_put(tenant, path, traffic.payload(tid, path, payload_bytes))
        first = registry.get(traffic.tenant_ids[0])
        read_cost = _measure_read_cost(
            plane, first, traffic.seed_object_path(first.tenant_id)
        )
        capacity = 1.0 / read_cost
        rate = offered_load * capacity / tenants
        config = TrafficConfig(
            tenants=tenants,
            mode=mode,
            ops_per_tenant=ops_per_tenant,
            payload_bytes=payload_bytes,
            skew=skew,
            horizon=horizon,
            rate_per_tenant=rate,
        )
        traffic = TrafficGenerator(config, seed=seed)
        if ops_quota_factor is not None:
            per_tenant_quota = ops_quota_factor * capacity / tenants
            for tid in traffic.tenant_ids:
                registry.get(tid).set_quota(
                    TenantQuota(
                        max_bytes=max_bytes,
                        max_objects=max_objects,
                        max_ops_per_s=per_tenant_quota,
                    )
                )

    t0 = clock.now
    traffic.start(plane)
    loop.run()
    elapsed = clock.now - t0

    admitted_total = sum(admission.admitted.values())
    shed_total = admission.shed_total()
    submitted_total = traffic.submitted_total()
    shed_by_reason: dict[str, int] = {}
    for (_tid, reason), n in admission.shed.items():
        shed_by_reason[reason] = shed_by_reason.get(reason, 0) + n

    slo.publish(clock.now)
    per_tenant: dict[str, Any] = {}
    for tid in traffic.tenant_ids:
        tenant = registry.get(tid)
        admitted = admission.admitted.get(tid, 0)
        per_tenant[tid] = {
            "submitted": traffic.submitted.get(tid, 0),
            "admitted": admitted,
            "shed": sum(
                n for (t, _r), n in admission.shed.items() if t == tid
            ),
            "ops_per_s": admitted / elapsed if elapsed > 0 else 0.0,
            "bytes_used": tenant.bytes_used,
            "objects_used": tenant.objects_used,
        }

    report: dict[str, Any] = {
        "schema": REPORT_SCHEMA,
        "seed": seed,
        "mode": mode,
        "tenants": tenants,
        "frontends": frontends,
        "queue_limit": queue_limit,
        "skew": skew,
        "sim_elapsed": elapsed,
        "submitted_total": submitted_total,
        "admitted_total": admitted_total,
        "shed_total": shed_total,
        "shed_by_reason": shed_by_reason,
        "shed_fraction": (
            shed_total / submitted_total if submitted_total else 0.0
        ),
        "aggregate_ops_per_s": admitted_total / elapsed if elapsed > 0 else 0.0,
        "fairness_index": admission.fairness_index(),
        "quota_deferrals": admission.quota_deferrals,
        "drr_rounds": admission.rounds,
        "frontend_dispatched": {
            fe.name: fe.dispatched for fe in plane.frontends
        },
        "frontend_failures": sum(fe.failures for fe in plane.frontends),
        "capacity_ops_per_s": capacity,
        "slo": {
            "read_availability": slo.availability("read", clock.now),
            "write_availability": slo.availability("write", clock.now),
        },
        "per_tenant": per_tenant,
    }
    if parts is not None:
        parts.update(
            scheme=scheme,
            plane=plane,
            admission=admission,
            slo=slo,
            registry=scheme.registry,
            clock=clock,
        )
    return report
