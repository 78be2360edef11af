"""Admission control: bounded queues, deficit round-robin, typed shedding.

The :class:`AdmissionController` sits between the frontend handlers and the
shared scheme backend.  Each tenant gets a bounded FIFO of accepted
requests; dispatch order across tenants is **deficit round-robin** (DRR):
every backlogged tenant sits in a rotation, a visit grants it
``QUANTUM * weight`` deficit, and each dispatched request spends one unit.
With the default unit weights this degenerates to exact per-request
round-robin — every backlogged tenant is served once per full round of the
active set, which is the starvation-freedom property
``tests/test_property_admission.py`` checks; weights buy proportionally
more service without ever silencing anyone.

Load is shed — never silently dropped — with a typed reason from
:data:`REJECT_REASONS`:

- ``auth`` / ``unknown_tenant``: the frontend could not authenticate the
  request;
- ``bytes_quota`` / ``objects_quota``: the write could not reserve storage
  quota (checked *before* queueing, so a queued request can always run);
- ``queue_full``: the tenant's bounded queue is at capacity;
- ``ops_quota`` is *not* a shed reason at dispatch — an empty ops/s token
  bucket defers the tenant (request stays queued, counted in
  ``admission_quota_deferrals_total``).  It only sheds at submit when
  queueing is disabled (``queue_limit=0``).

Fairness is tracked incrementally: Jain's index over per-tenant admitted
counts is maintained from running ``sum`` / ``sum of squares``, so the
``admission_fairness_index`` gauge costs O(1) per dispatch even with
thousands of tenants.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable

from repro.metrics.registry import HeldInstruments
from repro.service.tenant import Tenant

__all__ = ["REJECT_REASONS", "Request", "AdmissionController", "jain_index"]

#: the full typed rejection vocabulary (``tenant_shed_total``'s reason label)
REJECT_REASONS = (
    "auth",
    "unknown_tenant",
    "queue_full",
    "ops_quota",
    "bytes_quota",
    "objects_quota",
)

#: deficit spent per dispatched request
_COST = 1.0
#: deficit a DRR visit grants per unit of tenant weight
QUANTUM = 1.0


def jain_index(values: Iterable[float]) -> float:
    """Jain's fairness index: ``(sum x)^2 / (n * sum x^2)``.

    1.0 when every value is equal, ``1/n`` when one value holds everything;
    1.0 by convention for empty or all-zero inputs.
    """
    xs = list(values)
    total = sum(xs)
    sq = sum(x * x for x in xs)
    if not xs or sq == 0.0:
        return 1.0
    return (total * total) / (len(xs) * sq)


@dataclass
class Request:
    """One tenant request as it moves through the service plane."""

    tenant_id: str
    token: str
    kind: str  # "put" | "get" | "stat" | "remove" | "list" | "update"
    path: str  # tenant-relative; frontends scope it into the prefix
    size: int = 0
    payload: bytes | None = None
    offset: int = 0
    #: quota reservation held while queued (writes only); settled at execution
    reservation: object | None = field(default=None, repr=False)
    submitted_at: float = 0.0


class AdmissionController:
    """Bounded per-tenant queues drained by deficit round-robin."""

    def __init__(self, queue_limit: int = 16) -> None:
        if queue_limit < 0:
            raise ValueError(f"queue_limit must be >= 0, got {queue_limit}")
        self.queue_limit = queue_limit
        self.registry = None
        self.clock = None
        self._queues: dict[str, deque[Request]] = {}
        self._tenants: dict[str, Tenant] = {}
        #: rotation of backlogged tenant ids, in DRR visit order
        self._rotation: deque[str] = deque()
        self._deficit: dict[str, float] = {}
        #: round anchor: a round completes each time the rotation's visits
        #: come back to this tenant (re-anchored when it drains away)
        self._anchor: str | None = None
        # fairness accounting: admitted count per tenant plus running moments
        self.admitted: dict[str, int] = {}
        self._admit_sum = 0
        self._admit_sumsq = 0
        self.shed: dict[tuple[str, str], int] = {}
        self.rounds = 0
        self.quota_deferrals = 0
        self._queued_total = 0

    # ---------------------------------------------------------------- wiring
    def bind(self, registry, clock) -> None:
        """Give the controller its metric outlet and the sim clock.

        Instruments held from an earlier registry are dropped here, so the
        next update lands in ``registry``.
        """
        self.registry = registry
        self.clock = clock
        self._held = HeldInstruments(registry)

    # --------------------------------------------------------------- queries
    def backlog(self, tenant_id: str | None = None) -> int:
        """Requests waiting (for one tenant, or in total)."""
        if tenant_id is not None:
            q = self._queues.get(tenant_id)
            return len(q) if q is not None else 0
        return self._queued_total

    def fairness_index(self) -> float:
        """Jain's index over per-tenant admitted counts so far."""
        if not self.admitted or self._admit_sumsq == 0:
            return 1.0
        s = self._admit_sum
        return (s * s) / (len(self.admitted) * self._admit_sumsq)

    def shed_total(self) -> int:
        return sum(self.shed.values())

    def next_eligible_time(self, now: float) -> float | None:
        """Earliest sim time any backlogged tenant can dispatch, or None.

        ``now`` itself means work is dispatchable immediately; a later time
        means every backlogged tenant is ops/s-deferred until then.
        """
        if not self._rotation:
            return None
        return min(
            self._tenants[tid].next_token_time(now) for tid in self._rotation
        )

    # ------------------------------------------------------------ accounting
    def _count_shed(self, tenant_id: str, reason: str) -> None:
        key = (tenant_id, reason)
        self.shed[key] = self.shed.get(key, 0) + 1
        if self.registry is not None:
            self._held["tenant_shed_total", reason, tenant_id].inc()

    def _count_admitted(self, tenant_id: str) -> None:
        old = self.admitted.get(tenant_id, 0)
        self.admitted[tenant_id] = old + 1
        self._admit_sum += 1
        self._admit_sumsq += 2 * old + 1  # (old+1)^2 - old^2
        if self.registry is not None:
            self._held["tenant_admitted_total", tenant_id].inc()
            self._held["admission_fairness_index"].set(self.fairness_index())

    def _publish_depth(self, tenant_id: str) -> None:
        if self.registry is not None:
            self._held["tenant_queue_depth", tenant_id].set(self.backlog(tenant_id))
            self._held["admission_queued"].set(self._queued_total)

    def _note_visit(self, tid: str) -> None:
        """Round bookkeeping: visiting the anchor again closes a round.

        The anchor is cleared when its tenant drains out of the rotation
        (see :meth:`next_request`), so membership never needs re-checking.
        """
        if self._anchor is None:
            self._anchor = tid
        elif tid == self._anchor:
            self.rounds += 1
            if self.registry is not None:
                self._held["admission_rounds_total"].inc()

    # ----------------------------------------------------------------- intake
    def shed_request(self, tenant_id: str, reason: str) -> tuple[bool, str]:
        """Record a frontend-side rejection (auth / quota) as shed load."""
        if reason not in REJECT_REASONS:
            raise ValueError(f"unknown reject reason {reason!r}")
        self._count_shed(tenant_id, reason)
        return (False, reason)

    def submit(self, tenant: Tenant, request: Request) -> tuple[bool, str | None]:
        """Queue an authenticated, quota-reserved request for dispatch.

        Returns ``(True, None)`` when queued, ``(False, reason)`` when shed.
        With ``queue_limit=0`` (queueing disabled) a request whose ops/s
        bucket is empty sheds as ``ops_quota`` instead of waiting.
        """
        tid = tenant.tenant_id
        self._tenants[tid] = tenant
        q = self._queues.get(tid)
        if q is None:
            q = self._queues[tid] = deque()
        if self.queue_limit == 0:
            now = self.clock.now if self.clock is not None else 0.0
            if not tenant.take_op_token(now):
                self._release(request, tenant)
                return self.shed_request(tid, "ops_quota")
        elif len(q) >= self.queue_limit:
            self._release(request, tenant)
            return self.shed_request(tid, "queue_full")
        if not q:
            self._rotation.append(tid)
            self._deficit.setdefault(tid, 0.0)
        q.append(request)
        self._queued_total += 1
        self._publish_depth(tid)
        return (True, None)

    def _release(self, request: Request, tenant: Tenant) -> None:
        if request.reservation is not None:
            tenant.release(request.reservation)
            request.reservation = None

    # --------------------------------------------------------------- dispatch
    def next_request(self, now: float) -> Request | None:
        """The next request under DRR order, or None.

        None means either no backlog at all, or every backlogged tenant is
        ops/s-deferred (distinguish via :meth:`backlog` /
        :meth:`next_eligible_time`).  A tenant whose weight is under one
        quantum merely needs extra rounds for its deficit to accumulate, so
        the scan keeps going while any tenant is deficit-limited — work
        conservation holds for every weight assignment; only rate-limit
        deferral can leave backlog behind.
        """
        rotation = self._rotation
        while rotation:
            deficit_limited = False
            for _ in range(len(rotation)):
                tid = rotation[0]
                tenant = self._tenants[tid]
                if self._deficit[tid] < _COST:
                    # First visit this round: top up the deficit.
                    self._note_visit(tid)
                    self._deficit[tid] += QUANTUM * tenant.weight
                if self._deficit[tid] < _COST:
                    # Weight so small one quantum doesn't cover a dispatch
                    # yet; the deficit carries over to the next round.
                    deficit_limited = True
                    rotation.rotate(-1)
                    continue
                if not tenant.take_op_token(now):
                    self.quota_deferrals += 1
                    if self.registry is not None:
                        self._held["admission_quota_deferrals_total"].inc()
                    rotation.rotate(-1)
                    continue
                q = self._queues[tid]
                request = q.popleft()
                self._queued_total -= 1
                self._deficit[tid] -= _COST
                if not q:
                    # Drained: leave the rotation and forfeit residual
                    # deficit — DRR's rule that idle tenants cannot bank
                    # credit.
                    rotation.popleft()
                    self._deficit[tid] = 0.0
                    if self._anchor == tid:
                        self._anchor = None
                elif self._deficit[tid] < _COST:
                    rotation.rotate(-1)
                self._count_admitted(tid)
                self._publish_depth(tid)
                return request
            if not deficit_limited:
                # Every backlogged tenant is ops/s-deferred; more rounds
                # cannot help until sim time advances.
                return None
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AdmissionController(queued={self._queued_total}, "
            f"tenants={len(self._rotation)}, admitted={self._admit_sum})"
        )
