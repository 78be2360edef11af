"""Sliding-window SLO tracking: live availability, the paper's own yardstick.

The analytic model (:mod:`repro.analysis.availability`) predicts what a
placement *should* deliver from assumed MTBF/MTTR; the run report says what a
run *did* deliver, after the fact.  This module watches a run while it
happens:

- :class:`IntervalLedger` — half-open downtime intervals for one provider,
  built either from edges (:meth:`~IntervalLedger.mark_down` /
  :meth:`~IntervalLedger.mark_up`) or whole windows
  (:meth:`~IntervalLedger.add_window`), with empirical MTBF/MTTR derived from
  them.
- :class:`ProviderSlo` — two ledgers per provider.  ``observed`` is fed by
  circuit-breaker transitions (the client's view: open = down edge, closed =
  up edge — it lags the true outage by the failures needed to trip).
  ``scheduled`` ingests the injected ground truth (each provider's
  :meth:`faults.downtime_windows <repro.faults.profile.FaultProfile.downtime_windows>`), so
  tests can demand *exact* agreement with the fault schedule while the
  breaker view is compared with tolerance.
- :class:`SloTracker` — the aggregate: a sliding window of operation
  outcomes (fed by the exit of the op scope,
  :meth:`Scheme._op <repro.schemes.base.Scheme>` — successes and failures
  under the same op kind) yielding read/write availability, the
  degraded-read fraction, and error-budget burn rates against
  :data:`SLO_TARGET`.  :meth:`SloTracker.publish` writes everything
  into the metric registry as ``slo_*`` gauges, which is how the time series
  and the ``repro watch`` dashboard see it.

Attach with ``scheme.attach_slo(SloTracker())``.  Detached (the default),
every hook is a single ``is None`` check — the zero-cost bar the tracer and
registry already meet; the tracker never moves the clock or draws RNG, so
attaching it cannot perturb simulated latencies either.

Error-budget math (``docs/slo.md``): a target of 99.9% leaves a budget of
0.1% unavailability.  Burn rate is observed unavailability divided by that
budget over the sliding window — 1.0 means exactly on budget, above 1.0 the
budget depletes early.
"""

from __future__ import annotations

from collections import deque
from typing import Any

__all__ = [
    "SLO_WINDOW",
    "SLO_TARGET",
    "IntervalLedger",
    "ProviderSlo",
    "SloTracker",
    "TenantRollup",
    "op_class",
]


#: Which availability class each scheme op counts toward.  Heals and
#: namespace recovery are background repair, not user-facing traffic, and are
#: excluded from availability (but still visible in the op counters).
_OP_CLASS: dict[str, str] = {
    "get": "read",
    "stat": "read",
    "list": "read",
    "put": "write",
    "update": "write",
    "remove": "write",
}


def op_class(op: str) -> str | None:
    """``"read"`` / ``"write"`` for user-facing ops, None for repair traffic."""
    return _OP_CLASS.get(op)


#: sliding-window length, sim seconds
SLO_WINDOW = 3600.0
#: availability target of both op classes, reads and writes
SLO_TARGET = 0.999


class IntervalLedger:
    """Downtime intervals for one provider, from edges or whole windows."""

    def __init__(self) -> None:
        #: closed half-open ``[down, up)`` intervals, in order
        self.intervals: list[tuple[float, float]] = []
        self._down_since: float | None = None

    # ------------------------------------------------------------------ feeds
    def mark_down(self, t: float) -> None:
        """A down edge; repeated down marks while down are ignored."""
        if self._down_since is None:
            self._down_since = float(t)

    def mark_up(self, t: float) -> None:
        """An up edge closes the open interval; up while up is ignored."""
        if self._down_since is None:
            return
        if t < self._down_since:
            raise ValueError(
                f"up edge at t={t} precedes down edge at t={self._down_since}"
            )
        if t > self._down_since:  # zero-length blips carry no information
            self.intervals.append((self._down_since, float(t)))
        self._down_since = None

    def add_window(self, start: float, end: float) -> None:
        """Append one whole ``[start, end)`` interval (scheduled feed)."""
        if end <= start:
            raise ValueError(f"window must have end > start, got [{start}, {end})")
        if self.intervals and start < self.intervals[-1][1]:
            raise ValueError(
                f"window [{start}, {end}) overlaps or precedes "
                f"[{self.intervals[-1][0]}, {self.intervals[-1][1]})"
            )
        self.intervals.append((float(start), float(end)))

    # ---------------------------------------------------------------- queries
    @property
    def down_since(self) -> float | None:
        """Start of the still-open downtime, or None when up."""
        return self._down_since

    def downtime(self, now: float) -> float:
        """Total down seconds so far, the open interval clipped at ``now``."""
        total = sum(b - a for a, b in self.intervals)
        if self._down_since is not None and now > self._down_since:
            total += now - self._down_since
        return total

    def mttr(self) -> float | None:
        """Mean duration of closed downtime intervals (None before the first)."""
        if not self.intervals:
            return None
        return sum(b - a for a, b in self.intervals) / len(self.intervals)

    def mtbf(self) -> float | None:
        """Mean up time between failures: gaps from each recovery to the next
        down edge.  Needs two failures to yield a gap (None before that); the
        lead-in before the first failure is excluded — it measures when the
        run started, not how often the provider fails."""
        starts = [a for a, _ in self.intervals]
        if self._down_since is not None:
            starts.append(self._down_since)
        if len(starts) < 2:
            return None
        gaps = [starts[i + 1] - self.intervals[i][1] for i in range(len(starts) - 1)]
        return sum(gaps) / len(gaps)

    def __len__(self) -> int:
        return len(self.intervals)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        open_part = f", down since {self._down_since}" if self._down_since else ""
        return f"IntervalLedger({len(self.intervals)} intervals{open_part})"


class ProviderSlo:
    """One provider's downtime ledgers: client-observed and ground truth."""

    def __init__(self, name: str) -> None:
        self.name = name
        #: breaker-edge feed — what the client could actually see
        self.observed = IntervalLedger()
        #: injected-schedule feed — what the simulation actually did
        self.scheduled = IntervalLedger()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ProviderSlo({self.name!r}, observed={len(self.observed)}, "
            f"scheduled={len(self.scheduled)})"
        )


class _TrailingWindow:
    """The trailing :data:`SLO_WINDOW` sim-seconds of op outcomes,
    ``(t, op_class, ok, detail)``, evicted as new ones arrive."""

    def __init__(self) -> None:
        self._ops: deque[tuple[float, str, bool, Any]] = deque()

    def record(self, t: float, cls: str, ok: bool, detail: Any) -> None:
        ops = self._ops
        ops.append((float(t), cls, ok, detail))
        cutoff = t - SLO_WINDOW
        while ops and ops[0][0] < cutoff:
            ops.popleft()

    def window_ops(self, now: float, cls: str | None = None) -> list[tuple]:
        """The retained ops in ``[now - SLO_WINDOW, now]``, optionally one class."""
        cutoff = now - SLO_WINDOW
        return [
            o for o in self._ops if o[0] >= cutoff and (cls is None or o[1] == cls)
        ]

    def availability(self, cls: str, now: float) -> float | None:
        """Windowed success fraction for one op class (None with no traffic)."""
        ops = self.window_ops(now, cls)
        if not ops:
            return None
        return sum(1 for o in ops if o[2]) / len(ops)


class TenantRollup(_TrailingWindow):
    """Sliding-window SLO state for one service-plane tenant.

    Materialized lazily by :class:`SloTracker` the first time an
    :class:`~repro.metrics.collector.OpReport` arrives carrying that
    tenant's id (via :meth:`Scheme.tenant_context
    <repro.schemes.base.Scheme.tenant_context>`), so runs without the
    service plane never allocate one.  Tracks the same trailing window as
    the aggregate tracker: per-class availability plus a latency
    distribution for the p95 rollup (each op's ``detail`` is its elapsed
    seconds).
    """

    def __init__(self, tenant: str) -> None:
        super().__init__()
        self.tenant = tenant

    def p95_latency(self, now: float) -> float | None:
        """p95 of windowed *successful* op latencies (None with no traffic)."""
        lats = sorted(o[3] for o in self.window_ops(now) if o[2])
        if not lats:
            return None
        return lats[int(0.95 * (len(lats) - 1))]

    def summary(self, now: float) -> dict[str, Any]:
        out: dict[str, Any] = {"ops": len(self.window_ops(now))}
        for cls in ("read", "write"):
            out[f"{cls}_availability"] = self.availability(cls, now)
        out["p95_latency"] = self.p95_latency(now)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TenantRollup({self.tenant!r}, ops={len(self._ops)})"


class SloTracker(_TrailingWindow):
    """Sliding-window SLO state for one scheme run.

    Hooked in by :meth:`repro.schemes.base.Scheme.attach_slo`: completed
    operations arrive via :meth:`record_op`, failed public ops via
    :meth:`record_failure`, breaker transitions via
    :meth:`on_breaker_transition`.  All computations are over the trailing
    :data:`SLO_WINDOW` sim-seconds (each op's ``detail`` is whether it took a
    degraded path); provider MTBF/MTTR is over the whole run (failures are
    too rare for a one-hour window to hold two of them).
    """

    def __init__(self) -> None:
        super().__init__()
        self.registry = None
        self.clock = None
        self.providers: dict[str, ProviderSlo] = {}
        #: per-tenant rollups, materialized lazily on the first attributed op
        self.tenants: dict[str, TenantRollup] = {}

    # ------------------------------------------------------------------ hooks
    def bind(self, registry, clock) -> None:
        """Called by ``Scheme.attach_slo``; gives :meth:`publish` its outlet."""
        self.registry = registry
        self.clock = clock

    def provider(self, name: str) -> ProviderSlo:
        p = self.providers.get(name)
        if p is None:
            p = self.providers[name] = ProviderSlo(name)
        return p

    def on_breaker_transition(self, provider: str, state: str, now: float) -> None:
        """Breaker edges are the client's best downtime estimate.

        ``open`` marks the provider down, ``closed`` marks it up again;
        ``half_open`` is a probe admission, not evidence either way.
        """
        ledger = self.provider(provider).observed
        if state == "open":
            ledger.mark_down(now)
        elif state == "closed":
            ledger.mark_up(now)

    def tenant(self, name: str) -> TenantRollup:
        """The rollup for ``name``, created on first use."""
        rollup = self.tenants.get(name)
        if rollup is None:
            rollup = self.tenants[name] = TenantRollup(name)
        return rollup

    def record_op(self, report, t: float) -> None:
        """Fold one completed :class:`~repro.metrics.collector.OpReport`."""
        cls = op_class(report.op)
        if cls is None:
            return
        self.record(t, cls, True, report.degraded)
        tenant = getattr(report, "tenant", None)
        if tenant is not None:
            self.tenant(tenant).record(t, cls, True, float(report.elapsed))

    def record_failure(self, op: str, t: float, tenant: str | None = None) -> None:
        """Fold one public op that raised (unavailability the user felt)."""
        cls = op_class(op)
        if cls is None:
            return
        self.record(t, cls, False, False)
        if tenant is not None:
            self.tenant(tenant).record(t, cls, False, 0.0)

    def ingest_ground_truth(self, providers, t0: float, t1: float) -> None:
        """Load the injected fault schedule into each ``scheduled`` ledger.

        ``providers`` is any iterable of
        :class:`~repro.cloud.provider.SimulatedProvider`.  Call once, after
        (or during) a run, with the sim-time range actually exercised.
        """
        for p in providers:
            ledger = self.provider(p.name).scheduled
            for a, b in p.faults.downtime_windows(t0, t1):
                ledger.add_window(a, b)

    # ----------------------------------------------------------- computations
    def degraded_read_fraction(self, now: float) -> float | None:
        """Fraction of windowed successful reads that took a degraded path."""
        reads = [o for o in self.window_ops(now, "read") if o[2]]
        if not reads:
            return None
        return sum(1 for o in reads if o[3]) / len(reads)

    def error_budget_burn(self, cls: str, now: float) -> float | None:
        """Observed unavailability over the allowed unavailability.

        1.0 = consuming the budget exactly as fast as the SLO allows;
        0.0 = no budget burned this window; 10.0 = the window's budget is
        gone in a tenth of the time.
        """
        avail = self.availability(cls, now)
        if avail is None:
            return None
        return (1.0 - avail) / (1.0 - SLO_TARGET)

    # ---------------------------------------------------------------- outputs
    def publish(self, now: float | None = None) -> None:
        """Write the current SLO view into the registry as ``slo_*`` gauges.

        The sampler calls this just before every snapshot, so the time
        series (and the dashboard) carry the SLO state at each sample
        instant.  Quantities that are undefined (no traffic yet, fewer than
        two failures) are simply not set.
        """
        if self.registry is None:
            raise RuntimeError("SloTracker is not bound; call scheme.attach_slo")
        now = self.clock.now if now is None else now
        reg = self.registry
        for cls, gauge_name in (
            ("read", "slo_read_availability"),
            ("write", "slo_write_availability"),
        ):
            avail = self.availability(cls, now)
            if avail is not None:
                reg.gauge(gauge_name).set(avail)
            burn = self.error_budget_burn(cls, now)
            if burn is not None:
                reg.gauge("slo_error_budget_burn", op_class=cls).set(burn)
            reg.gauge("slo_window_ops", op_class=cls).set(
                len(self.window_ops(now, cls))
            )
        frac = self.degraded_read_fraction(now)
        if frac is not None:
            reg.gauge("slo_degraded_read_fraction").set(frac)
        for name, rollup in sorted(self.tenants.items()):
            for cls in ("read", "write"):
                avail = rollup.availability(cls, now)
                if avail is not None:
                    reg.gauge(
                        "tenant_slo_availability", op_class=cls, tenant=name
                    ).set(avail)
            p95 = rollup.p95_latency(now)
            if p95 is not None:
                reg.gauge("tenant_slo_p95_seconds", tenant=name).set(p95)
        for name, pslo in sorted(self.providers.items()):
            for feed, ledger in (
                ("observed", pslo.observed),
                ("scheduled", pslo.scheduled),
            ):
                reg.gauge(
                    "slo_provider_downtime_seconds", provider=name, feed=feed
                ).set(ledger.downtime(now))
                mttr = ledger.mttr()
                if mttr is not None:
                    reg.gauge(
                        "slo_provider_mttr_seconds", provider=name, feed=feed
                    ).set(mttr)
                mtbf = ledger.mtbf()
                if mtbf is not None:
                    reg.gauge(
                        "slo_provider_mtbf_seconds", provider=name, feed=feed
                    ).set(mtbf)

    def summary(self, now: float | None = None) -> dict[str, Any]:
        """One JSON-safe dict of the current SLO view (the drill verdict)."""
        if now is None:
            if self.clock is None:
                raise RuntimeError("summary() needs a time when unbound")
            now = self.clock.now
        out: dict[str, Any] = {
            "window": SLO_WINDOW,
            "now": now,
            "read": {
                "target": SLO_TARGET,
                "availability": self.availability("read", now),
                "budget_burn": self.error_budget_burn("read", now),
                "ops": len(self.window_ops(now, "read")),
            },
            "write": {
                "target": SLO_TARGET,
                "availability": self.availability("write", now),
                "budget_burn": self.error_budget_burn("write", now),
                "ops": len(self.window_ops(now, "write")),
            },
            "degraded_read_fraction": self.degraded_read_fraction(now),
            "providers": {},
        }
        for name, pslo in sorted(self.providers.items()):
            out["providers"][name] = {
                feed: {
                    "downtime": ledger.downtime(now),
                    "mtbf": ledger.mtbf(),
                    "mttr": ledger.mttr(),
                    "failures": len(ledger),
                }
                for feed, ledger in (
                    ("observed", pslo.observed),
                    ("scheduled", pslo.scheduled),
                )
            }
        if self.tenants:
            # Only present on service-plane runs, so single-client summaries
            # stay identical to pre-tenant ones.
            out["tenants"] = {
                name: rollup.summary(now)
                for name, rollup in sorted(self.tenants.items())
            }
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SloTracker(window={SLO_WINDOW}, ops={len(self._ops)}, "
            f"providers={sorted(self.providers)})"
        )
