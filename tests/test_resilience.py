"""Unit tests for retry policies, circuit breakers and health tracking."""

import numpy as np
import pytest

from repro.core.resilience import (
    NO_BACKOFF,
    BreakerState,
    CircuitBreaker,
    ProviderHealth,
    ResilienceConfig,
    RetryPolicy,
)
from repro.metrics.registry import MetricsRegistry
from repro.obs.trace import RecordingTracer
from repro.sim.clock import SimClock
from repro.sim.rng import make_rng


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-0.1)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)

    def test_backoff_grows_exponentially_without_jitter(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=10.0, jitter=0.0)
        assert policy.backoff(0) == pytest.approx(0.1)
        assert policy.backoff(1) == pytest.approx(0.2)
        assert policy.backoff(2) == pytest.approx(0.4)

    def test_backoff_caps_at_max_delay(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=10.0, max_delay=2.0, jitter=0.0)
        assert policy.backoff(5) == 2.0

    def test_jitter_stays_in_band(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=1.0, max_delay=1.0, jitter=0.25)
        rng = np.random.default_rng(0)
        for _ in range(100):
            d = policy.backoff(0, rng)
            assert 0.75 <= d <= 1.25

    def test_jitter_is_deterministic_per_seed(self):
        policy = RetryPolicy(jitter=0.25)
        a = [policy.backoff(i, make_rng(7, "retry")) for i in range(4)]
        b = [policy.backoff(i, make_rng(7, "retry")) for i in range(4)]
        assert a == b

    def test_schedule_truncated_by_deadline(self):
        policy = RetryPolicy(
            max_attempts=10, base_delay=1.0, multiplier=2.0, max_delay=100.0,
            jitter=0.0, deadline=5.0,
        )
        # waits 1, 2, 4 -> cumulative 1, 3, 7: the third wait breaks the deadline
        assert policy.schedule() == [1.0, 2.0]

    def test_without_backoff_keeps_attempts(self):
        policy = RetryPolicy(max_attempts=5).without_backoff()
        assert policy.max_attempts == 5
        assert policy.backoff(3, np.random.default_rng(0)) == 0.0
        assert NO_BACKOFF.backoff(0) == 0.0


class TestCircuitBreaker:
    def make(self, **kw):
        kw.setdefault("failure_threshold", 3)
        kw.setdefault("reset_timeout", 10.0)
        kw.setdefault("half_open_successes", 2)
        return CircuitBreaker("p", **kw)

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker("p", failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker("p", reset_timeout=0.0)
        with pytest.raises(ValueError):
            CircuitBreaker("p", half_open_successes=0)

    def test_opens_after_threshold_consecutive_failures(self):
        b = self.make()
        b.record_failure(1.0)
        b.record_failure(2.0)
        assert b.state == BreakerState.CLOSED
        b.record_failure(3.0)
        assert b.state == BreakerState.OPEN
        assert b.transitions == [(3.0, BreakerState.OPEN)]

    def test_success_resets_consecutive_count(self):
        b = self.make()
        b.record_failure(1.0)
        b.record_failure(2.0)
        b.record_success(3.0)
        b.record_failure(4.0)
        b.record_failure(5.0)
        assert b.state == BreakerState.CLOSED

    def test_open_denies_until_cooldown(self):
        b = self.make()
        for t in (1.0, 2.0, 3.0):
            b.record_failure(t)
        assert not b.allow(5.0)
        assert not b.would_allow(5.0)
        assert b.would_allow(13.5)
        assert b.state == BreakerState.OPEN  # would_allow never mutates

    def test_half_open_probe_then_close(self):
        b = self.make()
        for t in (1.0, 2.0, 3.0):
            b.record_failure(t)
        assert b.allow(14.0)  # cooldown expired -> half-open probe admitted
        assert b.state == BreakerState.HALF_OPEN
        b.record_success(14.5)
        assert b.state == BreakerState.HALF_OPEN  # needs 2 successes
        b.record_success(15.0)
        assert b.state == BreakerState.CLOSED
        assert [s for _, s in b.transitions] == [
            BreakerState.OPEN,
            BreakerState.HALF_OPEN,
            BreakerState.CLOSED,
        ]

    def test_half_open_failure_reopens(self):
        b = self.make()
        for t in (1.0, 2.0, 3.0):
            b.record_failure(t)
        b.allow(14.0)
        b.record_failure(14.5)
        assert b.state == BreakerState.OPEN
        assert not b.would_allow(20.0)  # cooldown restarted at 14.5
        assert b.would_allow(24.5)

    def test_failure_while_open_restarts_cooldown(self):
        b = self.make()
        for t in (1.0, 2.0, 3.0):
            b.record_failure(t)
        b.record_failure(9.0)  # forced traffic (heal) still failing
        assert not b.would_allow(13.5)
        assert b.would_allow(19.0)

    def test_success_while_open_closes_immediately(self):
        # The consistency-update replay bypasses the breaker; a confirmed
        # healthy response is decisive evidence.
        b = self.make()
        for t in (1.0, 2.0, 3.0):
            b.record_failure(t)
        b.record_success(4.0)
        assert b.state == BreakerState.CLOSED


class TestProviderHealth:
    def test_validation(self):
        with pytest.raises(ValueError):
            ProviderHealth("p", alpha=0.0)

    def test_error_rate_ewma(self):
        h = ProviderHealth("p", alpha=0.5)
        h.record_attempt(False)
        assert h.error_rate == pytest.approx(0.5)
        h.record_attempt(True)
        assert h.error_rate == pytest.approx(0.25)

    def test_slowdown_tracks_ratio(self):
        h = ProviderHealth("p", alpha=0.5)
        for _ in range(20):
            h.record_latency(observed=3.0, expected=1.0)
        assert h.slowdown == pytest.approx(3.0, rel=0.01)
        assert h.p95_slowdown() >= h.slowdown

    def test_degenerate_samples_ignored(self):
        h = ProviderHealth("p")
        h.record_latency(observed=1.0, expected=0.0)
        h.record_latency(observed=-1.0, expected=1.0)
        assert h.slowdown == 1.0

    def test_penalty_combines_signals(self):
        h = ProviderHealth("p", alpha=1.0)
        assert h.penalty() == pytest.approx(1.0)  # healthy: no penalty
        h.record_latency(observed=2.0, expected=1.0)
        h.record_attempt(False)
        assert h.penalty(error_weight=4.0) == pytest.approx(2.0 * 5.0)

    def test_p95_floor_is_one(self):
        h = ProviderHealth("p", alpha=1.0)
        h.record_latency(observed=0.5, expected=1.0)  # faster than expected
        assert h.p95_slowdown() >= 1.0


    def test_gauges_are_bound_on_the_first_sample(self, monkeypatch):
        """A tracker's registry and name never change, so it looks its two
        gauges up once — and never before there is a sample to publish."""
        clock = SimClock()
        tracer = RecordingTracer(clock)
        registry = MetricsRegistry(tracer=tracer)
        lookups = []
        instrument = MetricsRegistry._instrument

        def counting(self, cls, kind, name, labels, *args):
            lookups.append(name)
            return instrument(self, cls, kind, name, labels, *args)

        monkeypatch.setattr(MetricsRegistry, "_instrument", counting)
        h = ProviderHealth("p", metrics=registry)
        assert registry.emitted_names() == set() and lookups == []
        for i in range(1000):
            h.record_attempt(i % 7 != 0)
            h.record_latency(observed=1.0 + i % 3, expected=1.0)
        assert sorted(lookups) == ["provider_health_error_rate", "provider_health_slowdown"]
        mirrored = [r for r in tracer.records if r["t"] == "metric"]
        assert len(mirrored) == 2000  # still one event per sample
        assert registry.gauge("provider_health_error_rate", provider="p").value == h.error_rate
        assert registry.gauge("provider_health_slowdown", provider="p").value == h.slowdown


class TestResilienceConfig:
    def test_defaults_mirror_seed_behaviour(self):
        cfg = ResilienceConfig()
        # probe policy = 6 immediate attempts (the old hard-coded loop)
        assert cfg.probe_retry.max_attempts == 6
        assert cfg.probe_retry.backoff(0) == 0.0
        assert not cfg.hedge_reads

    def test_factories_apply_knobs(self):
        cfg = ResilienceConfig(
            breaker_failure_threshold=5,
            breaker_reset_timeout=7.0,
            breaker_half_open_successes=3,
            health_alpha=0.4,
        )
        b = cfg.make_breaker("x")
        assert b.failure_threshold == 5
        assert b.reset_timeout == 7.0
        assert b.half_open_successes == 3
        assert cfg.make_health("x").alpha == 0.4

    def test_validation(self):
        with pytest.raises(ValueError):
            ResilienceConfig(hedge_min_delay_factor=0.5)
        with pytest.raises(ValueError):
            ResilienceConfig(hedge_quantile_dev=-1.0)
        with pytest.raises(ValueError):
            ResilienceConfig(health_error_weight=-1.0)


class TestOpDeadline:
    """``RetryPolicy.op_deadline`` bounds a request's total wall time.

    Attempt counts alone cannot: against a browned-out provider every
    failed attempt burns a (huge) RTT before the client can react, so ten
    attempts of a slow provider cost minutes.  The op deadline stops the
    retry chain once the serialized penalty reaches the budget.
    """

    def test_validation_and_default(self):
        assert RetryPolicy().op_deadline is None
        RetryPolicy(op_deadline=0.5)  # valid
        with pytest.raises(ValueError):
            RetryPolicy(op_deadline=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(op_deadline=-1.0)

    @staticmethod
    def _slow_provider_put(op_deadline):
        """One replicated put against a scripted slow provider: azure fails
        ~every request and answers 60x slower than its SLA."""
        from repro.cloud.provider import make_table2_cloud_of_clouds
        from repro.faults import FaultProfile, LatencyBrownout, TransientErrorBurst
        from repro.schemes import DuraCloudScheme
        from repro.sim.clock import SimClock

        clock = SimClock()
        profile = FaultProfile(
            [
                TransientErrorBurst(0.0, 1e6, rate=0.999),
                LatencyBrownout(0.0, 1e6, rtt_factor=60.0, bw_factor=1.0),
            ],
            seed=3,
        ).bind("azure")
        fleet = make_table2_cloud_of_clouds(clock, faults={"azure": profile})
        policy = RetryPolicy(
            max_attempts=10,
            base_delay=0.05,
            jitter=0.0,
            deadline=1e9,
            op_deadline=op_deadline,
        )
        scheme = DuraCloudScheme(
            [fleet["amazon_s3"], fleet["azure"]],
            clock,
            resilience=ResilienceConfig(retry=policy),
        )
        scheme.put("/d/slow", b"x" * 4096)
        return scheme

    def test_deadline_caps_retry_spend_against_slow_provider(self):
        unbounded = self._slow_provider_put(op_deadline=None)
        bounded = self._slow_provider_put(op_deadline=3.0)
        # strictly fewer retries burned, strictly less simulated time
        assert bounded.collector.counter("retries") < unbounded.collector.counter(
            "retries"
        )
        assert bounded.clock.now < unbounded.clock.now
        # the slow provider's missed mutation still lands in its write log
        # either way — giving up early must not drop the consistency update
        assert bounded._write_logs["azure"].has_pending(
            bounded.container, next(iter(bounded._write_logs["azure"].peek())).key
        )
        assert unbounded._write_logs["azure"]

    def test_deadline_is_deterministic(self):
        a = self._slow_provider_put(op_deadline=3.0)
        b = self._slow_provider_put(op_deadline=3.0)
        assert a.clock.now == b.clock.now
        assert a.collector.reports == b.collector.reports
