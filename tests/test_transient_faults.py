"""Tests for transient request failures and client-side retries.

Real cloud APIs fail a fraction of individual requests even when "up"
(throttling, HTTP 500s); clients retry.  The simulator injects these as a
``TransientErrorBurst`` in the provider's fault profile (a constant rate is
a burst over ``[0, inf)``) and the scheme engine retries each request
up to ``RetryPolicy.max_attempts - 1`` times, write-logging mutations that exhaust
their retries so consistency is still restored by the healer.
"""

import math

import numpy as np
import pytest

from repro.cloud.errors import TransientProviderError
from repro.cloud.latency import LatencyModel
from repro.cloud.pricing import PRICE_PLANS
from repro.cloud.provider import SimulatedProvider, make_table2_cloud_of_clouds
from repro.faults import FaultProfile, TransientErrorBurst
from repro.schemes import HyrdScheme, RacsScheme, SingleCloudScheme
from repro.sim.clock import SimClock

KB = 1024


def _rate(rate):
    """A constant transient-error rate: a burst over all of sim time."""
    return TransientErrorBurst(0.0, math.inf, rate=rate)


def _flaky_provider(clock, rate):
    return SimulatedProvider(
        name="flaky",
        clock=clock,
        latency=LatencyModel(rtt=0.05, upload_bw=5e6, download_bw=5e6),
        pricing=PRICE_PLANS["aliyun"],
        faults=FaultProfile([_rate(rate)]),
    )


class TestProviderFaultInjection:
    def test_default_rate_is_zero(self, providers):
        for p in providers.values():
            assert not p.faults
            assert p.faults.extra_fault_rate(0.0) == 0.0

    def test_rate_validation(self, clock):
        with pytest.raises(ValueError):
            _flaky_provider(clock, 1.0)
        with pytest.raises(ValueError):
            _flaky_provider(clock, -0.1)

    def test_faults_occur_at_configured_rate(self, clock):
        provider = _flaky_provider(clock, 0.3)
        provider.create("c", exist_ok=True)
        failures = 0
        for i in range(400):
            try:
                provider.put("c", f"k{i}", b"x")
            except TransientProviderError:
                failures += 1
        assert 0.2 < failures / 400 < 0.4

    def test_fault_is_not_an_outage(self, clock):
        provider = _flaky_provider(clock, 0.99)
        assert provider.is_available()  # up, just flaky


class TestSchemeRetries:
    def test_retries_mask_moderate_flakiness(self, clock, payload):
        """At 20% request-failure rate, 2 retries make ops effectively
        reliable: a whole workload completes with correct content."""
        provider = _flaky_provider(clock, 0.2)
        scheme = SingleCloudScheme(provider, clock)
        contents = {}
        for i in range(20):
            path = f"/d/f{i}"
            contents[path] = payload(4 * KB)
            scheme.put(path, contents[path])
        scheme.heal_returned()  # replay anything that exhausted retries
        for path, data in contents.items():
            got, _ = scheme.get(path)
            assert got == data

    def test_retries_cost_extra_round_trips(self, clock, payload):
        flaky = _flaky_provider(clock, 0.35)
        scheme_flaky = SingleCloudScheme(flaky, clock)
        clock2 = SimClock()
        clean = _flaky_provider(clock2, 0.0)
        scheme_clean = SingleCloudScheme(clean, clock2)
        data = payload(4 * KB)
        for i in range(10):
            scheme_flaky.put(f"/d/f{i}", data)
            scheme_clean.put(f"/d/f{i}", data)
        assert (
            scheme_flaky.collector.summary("put").mean
            > scheme_clean.collector.summary("put").mean
        )

    def test_exhausted_retries_are_write_logged(self, clock, payload):
        from repro.schemes.base import DataUnavailable

        # Rate high enough that some op burns all 3 attempts.
        provider = _flaky_provider(clock, 0.6)
        scheme = SingleCloudScheme(provider, clock)
        logged_any = False
        for i in range(15):
            scheme.put(f"/d/f{i}", payload(KB))
            logged_any = logged_any or bool(scheme.pending_log("flaky"))
        assert logged_any  # at 60% fault rate some op exhausted its retries
        # Heal drains whatever was missed; afterwards all content serves.
        for _ in range(50):
            if not scheme.pending_log("flaky"):
                break
            scheme.heal_returned()
        assert not scheme.pending_log("flaky")
        for i in range(15):
            for _ in range(20):  # reads themselves may fail transiently
                try:
                    got, _ = scheme.get(f"/d/f{i}")
                    break
                except DataUnavailable:
                    continue
            assert len(got) == KB

    def test_redundant_schemes_shrug_off_flaky_provider(self, payload):
        """One persistently flaky provider: HyRD and RACS still serve
        everything correctly (reads route around failed requests)."""
        for builder in (
            lambda p, c: HyrdScheme(list(p.values()), c),
            lambda p, c: RacsScheme(list(p.values()), c),
        ):
            clock = SimClock()
            fleet = make_table2_cloud_of_clouds(clock)
            fleet["rackspace"].faults.add(_rate(0.3))
            scheme = builder(fleet, clock)
            contents = {}
            rng = np.random.default_rng(5)
            for i in range(12):
                path = f"/d/f{i}"
                contents[path] = rng.integers(0, 256, 8 * KB, dtype=np.uint8).tobytes()
                scheme.put(path, contents[path])
            scheme.heal_returned()
            for path, data in contents.items():
                got, _ = scheme.get(path)
                assert got == data


class TestEvaluatorUnderFaults:
    def test_probing_survives_flaky_fleet(self, clock):
        from repro.core.config import HyRDConfig
        from repro.core.evaluator import CostPerformanceEvaluator

        fleet = make_table2_cloud_of_clouds(clock)
        for p in fleet.values():
            p.faults.add(_rate(0.15))
        ev = CostPerformanceEvaluator(list(fleet.values()), HyRDConfig())
        profiles = ev.evaluate()
        assert len(profiles) == 4
        assert all(p.latency_score < float("inf") for p in profiles.values())
