"""Multi-tenant service plane: frontends, tenants, admission, traffic.

The evaluation harness drives one client over one trace; this package turns
the same substrate into a shared service in the style of hsds's
service-node / data-node split (ROADMAP item 1):

- :mod:`repro.service.tenant` — the :class:`Tenant` model (namespace prefix
  isolation, deterministic auth-token stub, quotas on bytes / objects /
  ops-per-second) and the :class:`TenantRegistry`;
- :mod:`repro.service.admission` — the :class:`AdmissionController`:
  bounded per-tenant queues, deficit-round-robin weighted fair queuing,
  typed load shedding, and Jain's fairness accounting;
- :mod:`repro.service.frontend` — N :class:`FrontendHandler` service nodes
  that authenticate, enforce quotas, and pump admitted requests into the
  shared :class:`~repro.schemes.base.Scheme` backend on the sim event loop,
  wired together by :class:`ServicePlane`;
- :mod:`repro.service.traffic` — the closed/open-loop
  :class:`TrafficGenerator`, scaling the IA trace shape to thousands of
  lazily materialized per-tenant workloads (seeded: same seed ⇒
  byte-identical aggregate report);
- :mod:`repro.service.drill` — :func:`run_service_drill`, the canonical
  end-to-end drill behind ``repro serve``, the service-plane benchmarks
  and the ``service_plane`` facet of ``tests/data/simulated_golden.json``.

Like the maintenance and scheduling planes, the service plane is strictly
additive: a scheme that never sees a :meth:`tenant_context
<repro.schemes.base.Scheme.tenant_context>` produces byte-identical
reports to a pre-service-plane build (gated in
``benchmarks/test_service_plane.py``).
"""

from repro.service.admission import (
    REJECT_REASONS,
    AdmissionController,
    Request,
    jain_index,
)
from repro.service.drill import run_service_drill
from repro.service.frontend import FrontendHandler, ServicePlane
from repro.service.tenant import (
    AuthError,
    QuotaExceeded,
    ServiceError,
    Tenant,
    TenantQuota,
    TenantRegistry,
    UnknownTenant,
)
from repro.service.traffic import TrafficConfig, TrafficGenerator

__all__ = [
    "REJECT_REASONS",
    "AdmissionController",
    "Request",
    "jain_index",
    "run_service_drill",
    "FrontendHandler",
    "ServicePlane",
    "AuthError",
    "QuotaExceeded",
    "ServiceError",
    "Tenant",
    "TenantQuota",
    "TenantRegistry",
    "UnknownTenant",
    "TrafficConfig",
    "TrafficGenerator",
]
