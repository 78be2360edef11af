"""Client-side resilience: retry policies, circuit breakers, health tracking.

The fault side (:mod:`repro.faults`) makes providers misbehave in richer
ways than a clean outage; this module is the client's adaptive reaction:

- :class:`RetryPolicy` — exponential backoff with deterministic jitter and a
  per-request backoff deadline, all in *sim time*.  Replaces the seed's
  fixed-count immediate retries; the same seed reproduces the same retry
  timestamps.
- :class:`CircuitBreaker` — per-provider closed/open/half-open breaker on
  the sim clock.  After :data:`BREAKER_FAILURE_THRESHOLD` consecutive
  request failures the provider is skipped exactly like an outaged one
  (mutations fall into the write log); after :data:`BREAKER_RESET_TIMEOUT`
  sim-seconds a half-open probe decides whether to close it again.
- :class:`ProviderHealth` — EWMA tracker of per-provider error rate and
  observed/expected latency slowdown.  Feeds the Cost & Performance
  Evaluator's re-ranking (a browned-out provider gets demoted from the
  performance class) and sizes the hedged-read trigger delay.
- :class:`ResilienceConfig` — the three settings callers choose (retry
  policy, hedged reads, write-log memory budget), hung off
  :class:`~repro.core.config.HyRDConfig` and accepted by every scheme.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "RetryPolicy",
    "BreakerState",
    "CircuitBreaker",
    "ProviderHealth",
    "ResilienceConfig",
    "NO_BACKOFF",
    "BREAKER_FAILURE_THRESHOLD",
    "BREAKER_RESET_TIMEOUT",
    "BREAKER_HALF_OPEN_SUCCESSES",
    "HEALTH_ALPHA",
    "HEALTH_ERROR_WEIGHT",
    "HEDGE_QUANTILE_DEV",
    "HEDGE_MIN_DELAY_FACTOR",
]

#: consecutive request failures that open a closed breaker
BREAKER_FAILURE_THRESHOLD = 3
#: sim seconds an open breaker waits before admitting a half-open probe
BREAKER_RESET_TIMEOUT = 60.0
#: half-open successes that close the breaker again
BREAKER_HALF_OPEN_SUCCESSES = 2
#: EWMA smoothing of :class:`ProviderHealth`'s error rate and slowdown
HEALTH_ALPHA = 0.2
#: error-rate weight in :meth:`ProviderHealth.penalty`
HEALTH_ERROR_WEIGHT = 4.0
#: ``k`` in :meth:`ProviderHealth.p95_slowdown` (mean + k deviations)
HEDGE_QUANTILE_DEV = 2.0
#: a replicated read's hedge never fires before ``estimate x`` this — a
#: cold health tracker would otherwise hedge every read
HEDGE_MIN_DELAY_FACTOR = 1.1


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic jitter, in sim time.

    ``backoff(attempt, rng)`` returns the wait before retry ``attempt + 1``
    (0-based failure index): ``base_delay * multiplier**attempt`` capped at
    ``max_delay``, scaled by ±``jitter`` drawn from ``rng``.  Jitter is
    *deterministic*: the rng is a seeded stream, so the same seed and the
    same failure sequence produce the same retry timestamps.

    ``deadline`` bounds the total backoff a single request may accumulate;
    once the next wait would exceed it, the request gives up (and, for
    mutations, falls into the write log like any exhausted retry).

    ``op_deadline`` is the *overall* per-request budget: failed-attempt
    round trips **plus** backoff waits together may never exceed it.  The
    attempt count alone cannot bound wall time (a browned-out provider can
    burn an arbitrary RTT per failed attempt); with an op deadline set, the
    retry chain stops scheduling further attempts the moment its serialized
    penalty reaches the budget.  ``None`` (the default) keeps the
    historical attempt-count-only behaviour.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.25
    deadline: float = 30.0
    op_deadline: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay < 0 or self.max_delay < 0 or self.deadline < 0:
            raise ValueError("delays must be >= 0")
        if self.op_deadline is not None and self.op_deadline <= 0:
            raise ValueError(
                f"op_deadline must be > 0 when set, got {self.op_deadline}"
            )
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if not (0.0 <= self.jitter < 1.0):
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")

    def backoff(self, attempt: int, rng: np.random.Generator | None = None) -> float:
        """Wait in seconds after 0-based failed ``attempt``."""
        if attempt < 0:
            raise ValueError(f"attempt must be >= 0, got {attempt}")
        delay = min(self.base_delay * self.multiplier**attempt, self.max_delay)
        if rng is not None and self.jitter > 0.0 and delay > 0.0:
            delay *= 1.0 + self.jitter * (2.0 * float(rng.random()) - 1.0)
        return delay

    def schedule(self, rng: np.random.Generator | None = None) -> list[float]:
        """Every backoff the policy would apply, deadline-truncated.

        ``len(schedule) + 1`` is the worst-case attempt count.
        """
        waits: list[float] = []
        spent = 0.0
        for attempt in range(self.max_attempts - 1):
            delay = self.backoff(attempt, rng)
            if spent + delay > self.deadline:
                break
            waits.append(delay)
            spent += delay
        return waits

    def without_backoff(self) -> "RetryPolicy":
        """Same attempt budget, zero wait (the seed's behaviour; ablations)."""
        return replace(self, base_delay=0.0, max_delay=0.0, jitter=0.0)


#: Immediate retries, no waiting — the seed's original client behaviour.
NO_BACKOFF = RetryPolicy().without_backoff()


class BreakerState:
    """Circuit breaker states (plain strings so reports stay readable)."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """Per-provider circuit breaker driven by the sim clock.

    closed --[:data:`BREAKER_FAILURE_THRESHOLD` consecutive failures]--> open
    open   --[:data:`BREAKER_RESET_TIMEOUT` elapsed, next ``allow``]--> half_open
    half_open --[:data:`BREAKER_HALF_OPEN_SUCCESSES` successes]--> closed
    half_open --[any failure]--> open (cooldown restarts)

    ``allow`` is consulted once per phase per provider by the scheme engine;
    a denied provider is skipped client-side at zero wire cost and its
    mutations land in the write log.  ``record_success`` from *any* state
    closes the breaker — a confirmed healthy response is better evidence
    than any timer (it is how the consistency-update replay re-admits a
    healed provider immediately).
    """

    def __init__(self, name: str, metrics=None) -> None:
        self.name = name
        #: optional MetricsRegistry; transitions feed
        #: ``breaker_transitions_total{provider,state}`` when attached
        self.metrics = metrics
        #: callables ``(provider, state, now)`` invoked in order on every
        #: state change — the SLO tracker turns open/closed edges into
        #: observed downtime intervals, the maintenance plane into targeted
        #: post-outage scrubs.  Consumers append (and remove) their own.
        self.listeners: list = []
        self.state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._half_open_ok = 0
        self._opened_at = 0.0
        #: every state change as (sim time, new state) — asserted by tests
        self.transitions: list[tuple[float, str]] = []

    def _transition(self, state: str, now: float) -> None:
        if state == self.state:
            return
        self.state = state
        self.transitions.append((now, state))
        if self.metrics is not None:
            self.metrics.counter(
                "breaker_transitions_total", provider=self.name, state=state
            ).inc()
        for listener in self.listeners:
            listener(self.name, state, now)
        if state == BreakerState.OPEN:
            self._opened_at = now
            self._half_open_ok = 0
        elif state == BreakerState.CLOSED:
            self._consecutive_failures = 0
            self._half_open_ok = 0

    # ------------------------------------------------------------- decisions
    def would_allow(self, now: float) -> bool:
        """Non-mutating check: would a request to this provider proceed?"""
        if self.state != BreakerState.OPEN:
            return True
        return now - self._opened_at >= BREAKER_RESET_TIMEOUT

    def allow(self, now: float) -> bool:
        """Gate one phase; an expired open breaker moves to half-open."""
        if self.state == BreakerState.OPEN:
            if now - self._opened_at < BREAKER_RESET_TIMEOUT:
                return False
            self._transition(BreakerState.HALF_OPEN, now)
        return True

    # -------------------------------------------------------------- feedback
    def record_success(self, now: float) -> None:
        self._consecutive_failures = 0
        if self.state == BreakerState.HALF_OPEN:
            self._half_open_ok += 1
            if self._half_open_ok >= BREAKER_HALF_OPEN_SUCCESSES:
                self._transition(BreakerState.CLOSED, now)
        elif self.state == BreakerState.OPEN:
            # Forced traffic (consistency-update replay) proved it healthy.
            self._transition(BreakerState.CLOSED, now)

    def record_failure(self, now: float) -> None:
        if self.state == BreakerState.HALF_OPEN:
            self._transition(BreakerState.OPEN, now)
            return
        if self.state == BreakerState.OPEN:
            self._opened_at = now  # still failing: restart the cooldown
            return
        self._consecutive_failures += 1
        if self._consecutive_failures >= BREAKER_FAILURE_THRESHOLD:
            self._transition(BreakerState.OPEN, now)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CircuitBreaker({self.name!r}, state={self.state!r})"


class ProviderHealth:
    """EWMA view of one provider's recent behaviour.

    Two signals, both updated from real request outcomes by the scheme
    engine:

    - ``error_rate`` — EWMA of per-attempt failure indicators (transient
      failures count even when a retry later succeeds: a provider burning
      retries is less healthy than one that answers first time);
    - ``slowdown`` — EWMA of observed/expected latency ratios, where
      *expected* comes from the provider's clean latency model.  A brownout
      shows up here as a ratio well above 1 without a single error.

    ``p95_slowdown`` (mean + :data:`HEDGE_QUANTILE_DEV` deviations) sizes
    the hedged-read trigger delay; ``penalty`` condenses both signals into
    one multiplicative factor for the evaluator's health-aware re-ranking.
    """

    def __init__(self, name: str, metrics=None) -> None:
        self.name = name
        #: optional MetricsRegistry; the two EWMAs are published as the
        #: ``provider_health_error_rate`` / ``provider_health_slowdown`` gauges
        self.metrics = metrics
        #: the two gauges, bound on the first sample (``metrics`` and ``name``
        #: never change), so an unsampled provider still emits no metric
        self._error_rate_gauge = None
        self._slowdown_gauge = None
        self.error_rate = 0.0
        self.slowdown = 1.0
        self.slowdown_dev = 0.0
        self.samples = 0
        #: empirical latency-vs-load curve from the load observatory:
        #: ((concurrency level, EWMA request seconds, samples), ...)
        self.load_curve: tuple[tuple[int, float, int], ...] = ()

    def record_attempt(self, ok: bool) -> None:
        """Fold one request attempt (success or failure) into the error EWMA."""
        self.error_rate += HEALTH_ALPHA * ((0.0 if ok else 1.0) - self.error_rate)
        self.samples += 1
        if self.metrics is not None:
            gauge = self._error_rate_gauge
            if gauge is None:
                gauge = self._error_rate_gauge = self.metrics.gauge(
                    "provider_health_error_rate", provider=self.name
                )
            gauge.set(self.error_rate)

    def record_latency(self, observed: float, expected: float) -> None:
        """Fold one successful request's observed/expected latency ratio."""
        if expected <= 0.0 or observed < 0.0:
            return
        ratio = observed / expected
        self.slowdown += HEALTH_ALPHA * (ratio - self.slowdown)
        self.slowdown_dev += HEALTH_ALPHA * (abs(ratio - self.slowdown) - self.slowdown_dev)
        if self.metrics is not None:
            gauge = self._slowdown_gauge
            if gauge is None:
                gauge = self._slowdown_gauge = self.metrics.gauge(
                    "provider_health_slowdown", provider=self.name
                )
            gauge.set(self.slowdown)

    def note_load_curve(
        self, curve: tuple[tuple[int, float, int], ...]
    ) -> None:
        """Accept the observatory's latency-vs-load curve for this provider.

        This is the per-provider service-capacity signal the load-aware
        coded-read scheduler consumes: :meth:`capacity_slope` and
        :meth:`queue_wait` both read it when pricing a fragment fetch
        (see :mod:`repro.core.scheduling`).
        """
        self.load_curve = curve

    def expected_latency_at(self, load: int) -> float | None:
        """EWMA request latency at the nearest observed concurrency level.

        Returns None until the observatory has fed at least one curve point.
        """
        if not self.load_curve:
            return None
        level, ewma, _ = min(
            self.load_curve, key=lambda c: (abs(c[0] - load), c[0])
        )
        return ewma

    def capacity_slope(self) -> float:
        """Marginal EWMA seconds per added unit of concurrency, >= 0.

        The secant slope across the observed span of the latency-vs-load
        curve: how much slower one request gets for each extra concurrent
        request the provider carries.  A flat (or improving) curve — the
        provider still has capacity headroom — reads as 0; the estimate
        needs at least two distinct observed concurrency levels.
        """
        if len(self.load_curve) < 2:
            return 0.0
        pts = sorted(self.load_curve)
        lo, hi = pts[0], pts[-1]
        if hi[0] <= lo[0]:
            return 0.0
        return max(0.0, (hi[1] - lo[1]) / (hi[0] - lo[0]))

    def queue_wait(self, depth: float) -> float:
        """Estimated extra seconds spent queued behind ``depth`` requests.

        Prices the marginal request off the load curve's congestion slope;
        0 until the observatory has fed enough curve to know better.  The
        scheduler adds this on top of the Little's-law wait so a provider
        whose latency climbs steeply with load is avoided *before* its
        queue estimate catches up.
        """
        if depth <= 0.0:
            return 0.0
        return depth * self.capacity_slope()

    def p95_slowdown(self) -> float:
        """Upper-tail slowdown estimate (>= 1): mean + k deviations
        (:data:`HEDGE_QUANTILE_DEV`)."""
        return max(1.0, self.slowdown + HEDGE_QUANTILE_DEV * self.slowdown_dev)

    def penalty(self) -> float:
        """Multiplicative score penalty: 1.0 means perfectly healthy."""
        return max(1.0, self.slowdown) * (1.0 + HEALTH_ERROR_WEIGHT * self.error_rate)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ProviderHealth({self.name!r}, err={self.error_rate:.3f}, "
            f"slow={self.slowdown:.2f})"
        )


@dataclass(frozen=True)
class ResilienceConfig:
    """The resilience settings callers choose.

    The breaker, health and hedge-delay values are this module's constants;
    the Evaluator's probe retry is
    :data:`repro.core.evaluator.PROBE_RETRY`.

    Parameters
    ----------
    retry:
        Backoff policy for normal scheme requests (puts/gets/etc.).
    hedge_reads:
        Enable hedged reads on the replicated read path: when the primary
        replica's response has not arrived by the estimated p95 latency, a
        backup request goes to the next-ranked replica and the first
        response wins.  Off by default — hedging trades extra requests (and
        egress) for tail latency, which is a policy decision.
    write_log_memory_limit:
        In-memory byte budget per provider write log; retained put payloads
        beyond it spill to client-local disk (see
        :class:`~repro.core.recovery.WriteLog`).  ``None`` never spills.
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    hedge_reads: bool = False
    write_log_memory_limit: int | None = None
