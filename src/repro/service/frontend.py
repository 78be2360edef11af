"""Frontend service nodes and the plane that wires them together.

hsds splits its service into *service nodes* (request validation, auth,
authorization) and *data nodes* (storage I/O); here the
:class:`FrontendHandler` plays the service-node role — authenticate,
scope the path into the tenant's namespace, reserve storage quota, hand
the request to the shared :class:`~repro.service.admission.AdmissionController`
— and the shared :class:`~repro.schemes.base.Scheme` over the provider
fleet is the data-node side.

Frontends run as *pump chains* on the sim event loop: each handler keeps at
most one pending pump event; a pump dispatches one admitted request,
executes it against the scheme under :meth:`tenant_context
<repro.schemes.base.Scheme.tenant_context>` (which attributes the OpReport,
trace span, and SLO rollup to the tenant), then reschedules itself while
backlog remains.  Scheme operations advance the shared sim clock, so N
frontends interleave at op granularity exactly like N workers sharing one
backend.  When every backlogged tenant is ops/s-deferred, the pump parks
until :meth:`AdmissionController.next_eligible_time
<repro.service.admission.AdmissionController.next_eligible_time>` instead
of spinning.

:class:`ServicePlane` bundles the pieces (scheme, loop, tenant registry,
admission controller, N frontends) and routes each tenant to a home
frontend by stable hash — the entry point the traffic generator and the
``repro serve`` drill drive.
"""

from __future__ import annotations

from repro.metrics.registry import HeldInstruments
from repro.service.admission import AdmissionController, Request
from repro.service.tenant import (
    AuthError,
    QuotaExceeded,
    Tenant,
    TenantRegistry,
    UnknownTenant,
)
from repro.sim.events import EventLoop
from repro.sim.rng import stable_u64

__all__ = ["FrontendHandler", "ServicePlane"]

#: request kinds a frontend will execute
_KINDS = frozenset({"put", "get", "stat", "remove", "list", "update"})


class FrontendHandler:
    """One service node: accept, authenticate, enforce quota, pump."""

    def __init__(self, name: str, plane: "ServicePlane") -> None:
        self.name = name
        self.plane = plane
        self.dispatched = 0
        self.failures = 0
        self._pump_pending = False
        self._pump_label = f"frontend-pump:{name}"

    # ----------------------------------------------------------------- intake
    def handle(self, request: Request) -> tuple[bool, str | None]:
        """Accept one request; returns ``(admitted, shed_reason)``.

        The full service-node checklist, shed with a typed reason at the
        first failing step: authenticate, validate, reserve storage quota
        (puts, and updates to a path the tenant holds), then queue with the
        admission controller.
        """
        plane = self.plane
        admission = plane.admission
        plane._held["tenant_requests_total", request.tenant_id].inc()
        try:
            tenant = plane.tenants.authenticate(request.tenant_id, request.token)
        except (AuthError, UnknownTenant) as exc:
            return admission.shed_request(request.tenant_id, exc.reason)
        if request.kind not in _KINDS:
            raise ValueError(f"unknown request kind {request.kind!r}")
        size = None
        if request.kind == "put":
            size = request.size
        elif request.kind == "update" and request.path in tenant.objects:
            # An update grows the object to cover its patch (Scheme.update);
            # one to a path the tenant never wrote holds nothing.
            size = max(
                tenant.objects[request.path],
                request.offset + len(request.payload or b""),
            )
        if size is not None:
            try:
                request.reservation = tenant.reserve_write(request.path, size)
            except QuotaExceeded as exc:
                return admission.shed_request(tenant.tenant_id, exc.reason)
        request.submitted_at = plane.clock.now
        admitted, reason = admission.submit(tenant, request)
        if admitted:
            plane.kick()
        return (admitted, reason)

    # ------------------------------------------------------------------ pumps
    def kick(self) -> None:
        """Ensure a pump event is pending (idempotent)."""
        if not self._pump_pending:
            self._pump_pending = True
            self.plane.loop.schedule(self.plane.clock.now, self._pump, label=self._pump_label)

    def _pump(self) -> None:
        self._pump_pending = False
        plane = self.plane
        request = plane.admission.next_request(plane.clock.now)
        if request is None:
            backlog = plane.admission.backlog()
            if backlog:
                # Every backlogged tenant is rate-deferred: park until the
                # earliest token, strictly later than now.
                at = plane.admission.next_eligible_time(plane.clock.now)
                if at is not None and at > plane.clock.now:
                    self._pump_pending = True
                    plane.loop.schedule(at, self._pump, label=self._pump_label)
            return
        self.dispatched += 1
        plane._held["admission_dispatched_total", self.name].inc()
        self._execute(request)
        if plane.admission.backlog():
            self.kick()
        plane.notify_complete(request)

    def _execute(self, request: Request) -> None:
        """Run one admitted request on the shared scheme, settle quota."""
        plane = self.plane
        scheme = plane.scheme
        tenant = plane.tenants.get(request.tenant_id)
        scoped = tenant.scope(request.path)
        try:
            with scheme.tenant_context(tenant.tenant_id):
                if request.kind == "put":
                    scheme.put(scoped, request.payload or b"")
                elif request.kind == "get":
                    scheme.get(scoped)
                elif request.kind == "stat":
                    scheme.stat(scoped)
                elif request.kind == "list":
                    scheme.listdir(scoped)
                elif request.kind == "update":
                    scheme.update(scoped, request.offset, request.payload or b"")
                elif request.kind == "remove":
                    scheme.remove(scoped)
        except Exception:
            # The op failed cleanly (e.g. DataUnavailable under an outage
            # storm): the scheme already recorded the SLO failure under the
            # tenant; the service node refunds any quota hold and moves on —
            # one tenant's failing op must not kill the shared pump chain.
            self.failures += 1
            if request.reservation is not None:
                tenant.release(request.reservation)
                request.reservation = None
            return
        if request.reservation is not None:
            tenant.commit(request.reservation)
            request.reservation = None
            plane.publish_usage(tenant)
        elif request.kind == "remove":
            tenant.note_removed(request.path)
            plane.publish_usage(tenant)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FrontendHandler({self.name!r}, dispatched={self.dispatched})"


class ServicePlane:
    """The bundle: scheme backend, event loop, tenants, admission, frontends."""

    def __init__(
        self,
        scheme,
        loop: EventLoop,
        tenants: TenantRegistry,
        admission: AdmissionController | None = None,
        n_frontends: int = 2,
    ) -> None:
        if n_frontends < 1:
            raise ValueError(f"need at least one frontend, got {n_frontends}")
        self.scheme = scheme
        self.loop = loop
        self.clock = loop.clock
        self.tenants = tenants
        self.admission = admission if admission is not None else AdmissionController()
        self.registry = scheme.registry
        self.admission.bind(self.registry, self.clock)
        self._held = HeldInstruments(self.registry)
        self.frontends = [
            FrontendHandler(f"fe{i}", self) for i in range(n_frontends)
        ]
        #: tenant id -> home frontend, hashed on the tenant's first request
        #: (``frontends`` is never mutated, so a home never moves)
        self._homes: dict[str, FrontendHandler] = {}
        #: completion hook for closed-loop traffic: called with the executed
        #: Request after each dispatch (None = nobody listening)
        self.on_complete = None

    # ---------------------------------------------------------------- routing
    def frontend_for(self, tenant_id: str) -> FrontendHandler:
        """The tenant's home frontend (stable hash over the fleet)."""
        home = self._homes.get(tenant_id)
        if home is None:
            home = self._homes[tenant_id] = self.frontends[
                stable_u64("frontend-home", tenant_id) % len(self.frontends)
            ]
        return home

    def route(self, request: Request) -> tuple[bool, str | None]:
        """Deliver a request to its home frontend."""
        return self.frontend_for(request.tenant_id).handle(request)

    def kick(self) -> None:
        """Wake every frontend that has no pump pending."""
        for fe in self.frontends:
            fe.kick()

    # ------------------------------------------------------------- accounting
    def publish_usage(self, tenant: Tenant) -> None:
        held, tid = self._held, tenant.tenant_id
        held["tenant_bytes_used", tid].set(tenant.bytes_used)
        held["tenant_objects_used", tid].set(tenant.objects_used)

    def notify_complete(self, request: Request) -> None:
        if self.on_complete is not None:
            self.on_complete(request)

    # ------------------------------------------------------------ direct path
    def direct_put(self, tenant: Tenant, path: str, payload: bytes) -> None:
        """Provision an object outside admission (setup traffic, not load).

        Used by the open-loop traffic generator to seed each tenant's
        namespace before the measured window; quota accounting still runs
        so usage gauges and later quota checks see the data.
        """
        reservation = tenant.reserve_write(path, len(payload))
        try:
            with self.scheme.tenant_context(tenant.tenant_id):
                self.scheme.put(tenant.scope(path), payload)
        except Exception:
            tenant.release(reservation)
            raise
        tenant.commit(reservation)
        self.publish_usage(tenant)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ServicePlane(frontends={len(self.frontends)}, "
            f"tenants={len(self.tenants)})"
        )
