"""Integration tests: the resilience layer driving real scheme traffic.

Covers the acceptance scenarios of the resilience PR: deterministic backoff
schedules, breaker state machines exercised by live phases, container-init
failures routed through the write log, the evaluator's config-exposed probe
retry policy and health-driven demotion, hedged reads, and the end-to-end
fault storm on HyRD (zero data loss, breakers trip and recover, logs drain).
"""

import math

import numpy as np
import pytest

from repro.cloud.errors import CircuitOpenError, TransientProviderError
from repro.cloud.latency import LatencyModel
from repro.cloud.pricing import PRICE_PLANS
from repro.cloud.provider import SimulatedProvider, make_table2_cloud_of_clouds
from repro.core.config import HyRDConfig
from repro.core.evaluator import CostPerformanceEvaluator
from repro.core.resilience import BreakerState, ResilienceConfig, RetryPolicy
from repro.faults import (
    FaultProfile,
    LatencyBrownout,
    OutageWindow,
    TransientErrorBurst,
    make_fault_storm,
)
from repro.schemes import HyrdScheme, SingleCloudScheme
from repro.schemes.base import DataUnavailable
from repro.sim.clock import SimClock

KB = 1024


def _flaky(clock, *effects):
    return SimulatedProvider(
        name="flaky",
        clock=clock,
        latency=LatencyModel(
            rtt=0.05, upload_bw=5e6, download_bw=5e6, rtt_sigma=0.0, bw_sigma=0.0
        ),
        pricing=PRICE_PLANS["aliyun"],
        faults=FaultProfile(list(effects)),
    )


def _rate(rate):
    """A constant transient-error rate: a burst over all of sim time."""
    return TransientErrorBurst(0.0, math.inf, rate=rate)


class TestBackoffAtSchemeLevel:
    def _run(self, payload):
        clock = SimClock()
        scheme = SingleCloudScheme(_flaky(clock, _rate(0.3)), clock)
        for i in range(12):
            scheme.put(f"/d/f{i}", payload(2 * KB))
        return scheme

    def test_backoff_schedule_is_deterministic(self, payload):
        """Same seed -> same retry count and the same simulated timestamps."""
        rng = np.random.default_rng(0xC0FFEE)

        def mk():
            return rng.integers(0, 256, size=2 * KB, dtype=np.uint8).tobytes()

        datas = [mk() for _ in range(12)]
        ends = []
        retries = []
        for _ in range(2):
            clock = SimClock()
            scheme = SingleCloudScheme(_flaky(clock, _rate(0.3)), clock)
            for i, data in enumerate(datas):
                scheme.put(f"/d/f{i}", data)
            ends.append(clock.now)
            retries.append(scheme.collector.counter("retries"))
        assert retries[0] > 0  # the flakiness actually burned retries
        assert retries[0] == retries[1]
        assert ends[0] == ends[1]

    def test_backoff_waits_cost_sim_time(self, payload):
        """Same fault sequence, backoff on vs off: identical retries, but
        the backoff run spends strictly more simulated time waiting."""
        results = {}
        for label, retry in (
            ("backoff", RetryPolicy(base_delay=0.2, jitter=0.0)),
            ("immediate", RetryPolicy(base_delay=0.2, jitter=0.0).without_backoff()),
        ):
            clock = SimClock()
            scheme = SingleCloudScheme(
                _flaky(clock, _rate(0.3)),
                clock,
                resilience=ResilienceConfig(retry=retry),
            )
            for i in range(12):
                scheme.put(f"/d/f{i}", bytes(2 * KB))
            results[label] = (scheme.collector.counter("retries"), clock.now)
        assert results["backoff"][0] == results["immediate"][0]
        assert results["backoff"][1] > results["immediate"][1]

    def test_retries_surface_in_op_reports(self):
        clock = SimClock()
        scheme = SingleCloudScheme(_flaky(clock, _rate(0.4)), clock)
        for i in range(10):
            scheme.put(f"/d/f{i}", bytes(KB))
        total = sum(r.retries for r in scheme.collector.reports)
        assert total == scheme.collector.counter("retries")
        assert total > 0


class TestBreakerIntegration:
    def _breaker_config(self):
        return ResilienceConfig(
            breaker_failure_threshold=2,
            breaker_reset_timeout=5.0,
            breaker_half_open_successes=1,
        )

    def test_outage_trips_breaker_and_fast_fails(self):
        clock = SimClock()
        scheme = SingleCloudScheme(
            _flaky(clock, OutageWindow(0.0, 60.0)), clock, resilience=self._breaker_config()
        )
        for i in range(5):
            scheme.put(f"/d/f{i}", bytes(KB))
        breaker = scheme._breakers["flaky"]
        assert breaker.state == BreakerState.OPEN
        assert scheme.collector.counter("breaker_open") == 1
        assert scheme.collector.counter("breaker_fast_fail") > 0
        # every mutation is still write-logged, fast-failed or not
        keys = {e.key for e in scheme.pending_log("flaky").peek()}
        assert {f"/d/f{i}#v1" for i in range(5)} <= keys

    def test_fast_fail_costs_no_wire_time(self):
        clock = SimClock()
        scheme = SingleCloudScheme(
            _flaky(clock, OutageWindow(0.0, 60.0)), clock, resilience=self._breaker_config()
        )
        scheme.put("/d/a", bytes(KB))
        scheme.put("/d/b", bytes(KB))  # trips the breaker (threshold 2)
        t0 = clock.now
        report = scheme.put("/d/c", bytes(KB))
        assert clock.now == t0  # breaker open: no request left the client
        assert report.elapsed == 0.0

    def test_breaker_recovers_through_half_open_probe(self):
        # Trip the breaker with failed *reads*: unlike mutations they leave no
        # write-log entry behind, so no heal replay precedes the next access
        # and recovery has to walk the genuine open -> half-open -> closed path.
        clock = SimClock()
        provider = _flaky(clock)
        scheme = SingleCloudScheme(provider, clock, resilience=self._breaker_config())
        scheme.put("/d/a", bytes(KB))
        provider.faults.add(TransientErrorBurst(clock.now, clock.now + 10.0, rate=0.999))
        breaker = scheme._breakers["flaky"]
        while breaker.state != BreakerState.OPEN:
            with pytest.raises(DataUnavailable):
                scheme.get("/d/a")
        clock.advance(20.0)  # cooldown (5s) expired: the next read is the probe
        got, _ = scheme.get("/d/a")
        assert got == bytes(KB)
        assert breaker.state == BreakerState.CLOSED
        assert [s for _, s in breaker.transitions] == [
            BreakerState.OPEN,
            BreakerState.HALF_OPEN,
            BreakerState.CLOSED,
        ]
        assert scheme.collector.counter("breaker_half_open") == 1
        assert scheme.collector.counter("breaker_closed") == 1

    def test_heal_replay_closes_open_breaker_directly(self):
        # Mutations during an outage land in the write log; on the next access
        # the heal replay runs first (breaker bypassed) and its success is
        # decisive evidence, closing the breaker without a half-open stop.
        clock = SimClock()
        scheme = SingleCloudScheme(
            _flaky(clock, OutageWindow(0.0, 10.0)), clock, resilience=self._breaker_config()
        )
        scheme.put("/d/a", bytes(KB))
        scheme.put("/d/b", bytes(KB))
        breaker = scheme._breakers["flaky"]
        assert breaker.state == BreakerState.OPEN
        clock.advance(20.0)  # outage over and cooldown expired
        scheme.put("/d/c", bytes(KB))
        assert breaker.state == BreakerState.CLOSED
        assert [s for _, s in breaker.transitions] == [
            BreakerState.OPEN,
            BreakerState.CLOSED,
        ]
        assert not scheme.pending_log("flaky")

    def test_heal_bypasses_open_breaker(self):
        """The consistency update must run even while the breaker is open —
        and its success closes the breaker without waiting for the cooldown."""
        clock = SimClock()
        cfg = ResilienceConfig(
            breaker_failure_threshold=2,
            breaker_reset_timeout=1e6,  # would never half-open by timer
            breaker_half_open_successes=1,
        )
        scheme = SingleCloudScheme(_flaky(clock, OutageWindow(0.0, 10.0)), clock, resilience=cfg)
        scheme.put("/d/a", bytes(KB))
        scheme.put("/d/b", bytes(KB))
        assert scheme._breakers["flaky"].state == BreakerState.OPEN
        clock.advance(15.0)  # outage over, breaker still open
        scheme.heal_returned()
        assert not scheme.pending_log("flaky")
        assert scheme._breakers["flaky"].state == BreakerState.CLOSED
        got, _ = scheme.get("/d/a")
        assert got == bytes(KB)

    def test_circuit_open_error_is_a_provider_unavailable(self):
        from repro.cloud.errors import ProviderUnavailable

        err = CircuitOpenError("p", 1.0)
        assert isinstance(err, ProviderUnavailable)


class TestContainerInitWriteLog:
    def test_exhausted_create_retries_are_logged_and_healed(self):
        clock = SimClock()
        provider = _flaky(clock)
        real_create = provider.create
        attempts = []

        def failing_create(container, *, exist_ok=False):
            attempts.append(container)
            raise TransientProviderError("flaky", clock.now)

        provider.create = failing_create
        scheme = SingleCloudScheme(provider, clock)
        # the whole retry budget was spent, then the failure was recorded
        assert len(attempts) == scheme.retry_policy.max_attempts
        (entry,) = scheme.pending_log("flaky").peek()
        assert entry.kind == "create"
        assert entry.container == scheme.container
        # provider recovers: the consistency update creates the container
        provider.create = real_create
        scheme.heal_returned()
        assert not scheme.pending_log("flaky")
        assert provider.store.has_container(scheme.container)
        scheme.put("/d/f", b"x" * KB)
        got, _ = scheme.get("/d/f")
        assert got == b"x" * KB

    def test_outage_at_init_is_logged_and_healed(self):
        clock = SimClock()
        provider = _flaky(clock, OutageWindow(0.0, 10.0))
        scheme = SingleCloudScheme(provider, clock)
        (entry,) = scheme.pending_log("flaky").peek()
        assert entry.kind == "create"
        clock.advance(15.0)
        scheme.heal_returned()
        assert not scheme.pending_log("flaky")
        assert provider.store.has_container(scheme.container)


class TestEvaluatorRetryPolicy:
    def test_probe_policy_comes_from_config(self):
        clock = SimClock()
        fleet = make_table2_cloud_of_clouds(clock)
        probe = RetryPolicy(max_attempts=9, base_delay=0.0, max_delay=0.0, jitter=0.0)
        cfg = HyRDConfig(resilience=ResilienceConfig(probe_retry=probe))
        ev = CostPerformanceEvaluator(list(fleet.values()), cfg)
        assert ev.retry_policy is probe
        override = RetryPolicy(max_attempts=2)
        ev2 = CostPerformanceEvaluator(
            list(fleet.values()), cfg, retry_policy=override
        )
        assert ev2.retry_policy is override

    def test_probe_scores_are_deterministic_per_seed(self):
        """Regression for the hard-coded range(6) loop: two evaluators with
        the same seed converge on identical scores and classification."""
        runs = []
        for _ in range(2):
            clock = SimClock()
            fleet = make_table2_cloud_of_clouds(clock)
            for p in fleet.values():
                p.faults.add(_rate(0.15))
            ev = CostPerformanceEvaluator(list(fleet.values()), HyRDConfig(seed=3))
            profiles = ev.evaluate()
            runs.append(
                {n: (p.latency_score, p.category) for n, p in profiles.items()}
            )
        assert runs[0] == runs[1]

    def test_single_attempt_policy_gives_up_on_flaky_provider(self):
        clock = SimClock()
        fleet = make_table2_cloud_of_clouds(clock)
        fleet["rackspace"].faults.add(_rate(0.9))
        cfg = HyRDConfig(
            resilience=ResilienceConfig(probe_retry=RetryPolicy(max_attempts=1))
        )
        ev = CostPerformanceEvaluator(list(fleet.values()), cfg)
        profiles = ev.evaluate()  # other providers keep it evaluable
        assert profiles["rackspace"].latency_score == float("inf")


class TestHealthDemotion:
    def test_browned_out_provider_loses_performance_class(self):
        clock = SimClock()
        fleet = make_table2_cloud_of_clouds(clock)
        scheme = HyrdScheme(list(fleet.values()), clock)
        assert "aliyun" in scheme.evaluator.performance_oriented()

        # A harsh brownout starts *after* the clean probes ran.
        t0 = clock.now
        fleet["aliyun"].faults = FaultProfile(
            [LatencyBrownout(t0, t0 + 1e6, rtt_factor=10.0, bw_factor=0.1)]
        ).bind("aliyun")
        for i in range(15):  # live traffic teaches the health tracker
            scheme.put(f"/d/f{i}", bytes(64 * KB))
            scheme.get(f"/d/f{i}")
        assert scheme.health["aliyun"].slowdown > 2.0

        scheme.refresh_health_ranking()
        assert "aliyun" not in scheme.evaluator.performance_oriented()
        # the classification still names enough performance providers
        assert scheme.evaluator.performance_oriented()

    def test_rerank_restores_once_health_recovers(self):
        clock = SimClock()
        fleet = make_table2_cloud_of_clouds(clock)
        scheme = HyrdScheme(list(fleet.values()), clock)
        t0 = clock.now
        fleet["aliyun"].faults = FaultProfile(
            [LatencyBrownout(t0, t0 + 50.0, rtt_factor=10.0, bw_factor=0.1)]
        ).bind("aliyun")
        for i in range(15):
            scheme.put(f"/d/b{i}", bytes(64 * KB))
            scheme.get(f"/d/b{i}")
        scheme.refresh_health_ranking()
        assert "aliyun" not in scheme.evaluator.performance_oriented()
        # Brownout ends.  Demotion removed aliyun from the replication
        # targets, but it keeps its cost-oriented stripe slot, so large-file
        # traffic keeps sampling it — that is what washes the EWMA back down.
        clock.advance(60.0)
        for i in range(25):
            scheme.put(f"/d/L{i}", bytes(2 * 1024 * KB))
        scheme.refresh_health_ranking()
        assert "aliyun" in scheme.evaluator.performance_oriented()


class TestHedgedReads:
    def _hedge_scheme(self, clock, fleet):
        cfg = HyRDConfig(resilience=ResilienceConfig(hedge_reads=True))
        return HyrdScheme(list(fleet.values()), clock, config=cfg)

    def test_hedge_fires_on_slow_primary_and_backup_wins(self):
        clock = SimClock()
        fleet = make_table2_cloud_of_clouds(clock)
        scheme = self._hedge_scheme(clock, fleet)
        data = bytes(range(256)) * 256  # 64 KB -> replicated small file
        scheme.put("/d/small", data)
        t0 = clock.now
        fleet["aliyun"].faults = FaultProfile(
            [LatencyBrownout(t0, t0 + 1e6, rtt_factor=10.0, bw_factor=0.05)]
        ).bind("aliyun")
        got, report = scheme.get("/d/small")
        assert got == data
        assert report.hedged
        assert not report.degraded  # the primary never *failed*
        assert scheme.collector.counter("hedged_reads") == 1
        assert scheme.collector.counter("hedge_wins") == 1

    def test_fast_primary_never_hedges(self):
        clock = SimClock()
        fleet = make_table2_cloud_of_clouds(clock)
        scheme = self._hedge_scheme(clock, fleet)
        data = bytes(64 * KB)
        scheme.put("/d/small", data)
        for _ in range(3):
            got, report = scheme.get("/d/small")
            assert got == data
            assert not report.hedged
        assert scheme.collector.counter("hedged_reads") == 0

    def test_hedging_off_by_default(self):
        clock = SimClock()
        fleet = make_table2_cloud_of_clouds(clock)
        scheme = HyrdScheme(list(fleet.values()), clock)
        assert not scheme.resilience.hedge_reads

    def test_hedged_read_is_cheaper_than_waiting_out_the_brownout(self):
        """The hedge's point: tail latency under a brownout beats the
        non-hedged read by a wide margin."""
        elapsed = {}
        for label, hedge in (("hedged", True), ("plain", False)):
            clock = SimClock()
            fleet = make_table2_cloud_of_clouds(clock)
            cfg = HyRDConfig(resilience=ResilienceConfig(hedge_reads=hedge))
            scheme = HyrdScheme(list(fleet.values()), clock, config=cfg)
            data = bytes(256 * KB)
            scheme.put("/d/small", data)
            t0 = clock.now
            fleet["aliyun"].faults = FaultProfile(
                [LatencyBrownout(t0, t0 + 1e6, rtt_factor=10.0, bw_factor=0.05)]
            ).bind("aliyun")
            got, report = scheme.get("/d/small")
            assert got == data
            elapsed[label] = report.elapsed
        assert elapsed["hedged"] < elapsed["plain"]


class TestFaultStormEndToEnd:
    def test_hyrd_survives_the_three_front_storm(self, payload):
        """Acceptance scenario: brownout + transient burst + flapping outage
        at once.  Every read returns correct bytes throughout (degraded or
        hedged allowed), breakers trip and recover, and once the storm
        passes the write logs drain to empty."""
        clock = SimClock()
        fleet = make_table2_cloud_of_clouds(clock)
        cfg = HyRDConfig(
            resilience=ResilienceConfig(
                hedge_reads=True,
                breaker_failure_threshold=3,
                breaker_reset_timeout=15.0,
            )
        )
        scheme = HyrdScheme(list(fleet.values()), clock, config=cfg)

        storm = make_fault_storm(t0=clock.now, duration=3600.0, seed=5)
        storm.apply(fleet)

        contents = {}
        rng = np.random.default_rng(17)
        for step in range(60):
            i = step % 12
            path = f"/d/f{i}"
            if path not in contents or rng.random() < 0.4:
                size = int(rng.integers(1, 4)) * 64 * KB  # replicated smalls
                if rng.random() < 0.3:
                    size = 2 * 1024 * KB  # and some erasure-coded larges
                contents[path] = rng.integers(0, 256, size, dtype=np.uint8).tobytes()
                scheme.put(path, contents[path])
            got, _ = scheme.get(path)
            assert got == contents[path]  # zero data loss, mid-storm
            clock.advance(7.0)  # walk across flapping cycles
            scheme.heal_returned()

        # The flapper tripped its breaker and the breaker recovered.
        breaker = scheme._breakers["rackspace"]
        states = [s for _, s in breaker.transitions]
        assert BreakerState.OPEN in states
        assert BreakerState.CLOSED in states
        assert scheme.collector.counter("retries") > 0

        # Storm over: heal until every log drains, then everything serves
        # cleanly (no degraded path needed).
        storm.clear(fleet)
        for _ in range(50):
            if not any(scheme.pending_log(n) for n in scheme.provider_names):
                break
            scheme.heal_returned()
            clock.advance(1.0)
        assert not any(scheme.pending_log(n) for n in scheme.provider_names)
        for path, data in contents.items():
            got, report = scheme.get(path)
            assert got == data
            assert not report.degraded
