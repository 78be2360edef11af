"""Unit tests for the load-aware read scheduler (repro.core.scheduling).

The scheduler is pure decision-making over the scheme's latency model,
health trackers, breakers, and (optionally) the load observatory — these
tests pin the scoring formula, the deterministic rotation policy, the
capacity-aware hedge condition, and the ProviderHealth capacity helpers
it consumes.
"""

import math

import pytest

from repro.core.resilience import ProviderHealth
from repro.core.scheduling import FragmentScheduler, SchedulerConfig
from repro.schemes import RacsScheme

MB = 1024 * 1024


@pytest.fixture
def racs(providers, clock):
    scheme = RacsScheme(list(providers.values()), clock)
    scheme.attach_scheduler(FragmentScheduler())
    return scheme


def _by_index(scheme):
    return dict(enumerate(scheme.provider_names))


class TestProviderHealthCapacity:
    def test_slope_needs_two_levels(self):
        h = ProviderHealth("p")
        assert h.capacity_slope() == 0.0
        h.note_load_curve(((2, 0.5, 3),))
        assert h.capacity_slope() == 0.0

    def test_slope_is_secant_over_observed_span(self):
        h = ProviderHealth("p")
        h.note_load_curve(((1, 0.2, 5), (3, 0.4, 5), (5, 1.0, 5)))
        assert h.capacity_slope() == pytest.approx((1.0 - 0.2) / (5 - 1))

    def test_improving_curve_reads_as_headroom(self):
        h = ProviderHealth("p")
        h.note_load_curve(((1, 1.0, 5), (4, 0.5, 5)))
        assert h.capacity_slope() == 0.0
        assert h.queue_wait(10.0) == 0.0

    def test_queue_wait_prices_depth_by_slope(self):
        h = ProviderHealth("p")
        h.note_load_curve(((1, 0.2, 5), (5, 1.0, 5)))
        assert h.queue_wait(2.0) == pytest.approx(2.0 * 0.2)
        assert h.queue_wait(0.0) == 0.0


class TestScoring:
    def test_healthy_score_is_static_estimate(self, racs):
        sched = racs.scheduler
        for name in racs.provider_names:
            assert sched.score_provider(name, MB) == pytest.approx(
                racs._estimate_latency(name, MB, "down")
            )

    def test_degraded_health_inflates_score(self, racs):
        sched = racs.scheduler
        name = racs.provider_names[0]
        base = sched.score_provider(name, MB)
        for _ in range(20):
            racs.health[name].record_latency(observed=50.0, expected=1.0)
        assert sched.score_provider(name, MB) > 10 * base

    def test_open_breaker_scores_infinite(self, racs, clock):
        sched = racs.scheduler
        name = racs.provider_names[0]
        breaker = racs._breakers[name]
        for _ in range(breaker.failure_threshold):
            breaker.record_failure(clock.now)
        assert sched.score_provider(name, MB) == math.inf

    def test_half_open_breaker_is_handicapped(self, racs, clock):
        sched = racs.scheduler
        name = racs.provider_names[0]
        base = sched.score_provider(name, MB)
        breaker = racs._breakers[name]
        for _ in range(breaker.failure_threshold):
            breaker.record_failure(clock.now)
        clock.advance(breaker.reset_timeout + 1.0)
        assert breaker.allow(clock.now)  # open -> half_open probe admitted
        assert sched.score_provider(name, MB) == pytest.approx(
            base * sched.config.half_open_penalty
        )

    def test_queue_wait_zero_without_observatory(self, racs):
        assert racs.scheduler.queue_wait(racs.provider_names[0]) == 0.0

    def test_estimate_stripe_is_gating_score_of_best_subset(self, racs):
        sched = racs.scheduler
        by_index = _by_index(racs)
        scores = sorted(
            sched.score_provider(p, racs.codec.fragment_size(9000))
            for p in by_index.values()
        )
        assert sched.estimate_stripe(by_index, 9000, racs.codec) == pytest.approx(
            scores[racs.codec.k - 1]
        )


class _StubObservatory:
    """Minimal observatory double: fixed queue depth / service rate."""

    def __init__(self, depth, rate):
        self._depth, self._rate = depth, rate

    def bind(self, registry, clock, health=None):
        pass

    def on_phase(self, now, outcomes):
        pass

    def on_op(self, report, trace_id):
        pass

    def queue_depth(self, name):
        return self._depth.get(name, 0.0)

    def service_rate(self, name):
        return self._rate.get(name, 0.0)


class TestDecide:
    def test_parity_fragments_carry_decode_penalty(self, providers, clock):
        scheme = RacsScheme(list(providers.values()), clock)
        sched = FragmentScheduler(SchedulerConfig(rotation_margin=0.0))
        scheme.attach_scheduler(sched)
        by_index = _by_index(scheme)
        decision = sched.decide(
            "/tie", by_index, 9000, scheme.codec, lambda i: True
        )
        # Recorded candidate scores: parity indices (>= k) carry exactly the
        # multiplicative decode handicap on top of the provider score.
        frag = scheme.codec.fragment_size(9000)
        k = scheme.codec.k
        smap = dict(decision.scores)
        for idx, name in by_index.items():
            raw = sched.score_provider(name, frag)
            expected = raw * sched.config.parity_penalty if idx >= k else raw
            assert smap[idx] == pytest.approx(expected)

    def test_saturated_provider_priced_out(self, racs):
        sched = racs.scheduler
        by_index = _by_index(racs)
        slow = by_index[0]
        for _ in range(20):
            racs.health[slow].record_latency(observed=100.0, expected=1.0)
        decision = sched.decide(
            "/hot", by_index, 9000, racs.codec, lambda i: True
        )
        assert 0 not in decision.chosen
        assert decision.parity_picks >= 1  # parity replaced the slow holder

    def test_unusable_placements_are_skipped(self, racs):
        sched = racs.scheduler
        by_index = _by_index(racs)
        decision = sched.decide(
            "/part", by_index, 9000, racs.codec, lambda i: i != 1
        )
        assert 1 not in decision.order
        assert len(decision.chosen) == racs.codec.k

    def test_short_placements_return_all_usable(self, racs):
        sched = racs.scheduler
        by_index = _by_index(racs)
        usable = {0}
        decision = sched.decide(
            "/gone", by_index, 9000, racs.codec, lambda i: i in usable
        )
        assert decision.chosen == (0,)
        assert decision.hedge is None

    def test_rotation_is_deterministic_and_cycles(self, providers, clock):
        scheme = RacsScheme(list(providers.values()), clock)
        sched = FragmentScheduler(SchedulerConfig(rotation_margin=1e9))
        scheme.attach_scheduler(sched)
        by_index = _by_index(scheme)

        def sequence(n):
            return [
                sched.decide("/hot", by_index, 9000, scheme.codec, lambda i: True).chosen
                for _ in range(n)
            ]

        first = sequence(8)
        assert len({c for c in first}) > 1, "rotation never moved the subset"
        # Same inputs, fresh scheduler: byte-identical subset sequence.
        scheme2 = RacsScheme(list(providers.values()), clock)
        sched2 = FragmentScheduler(SchedulerConfig(rotation_margin=1e9))
        scheme2.attach_scheduler(sched2)
        second = [
            sched2.decide("/hot", by_index, 9000, scheme2.codec, lambda i: True).chosen
            for _ in range(8)
        ]
        assert first == second

    def test_rotation_counter_is_per_key(self, racs):
        sched = racs.scheduler
        by_index = _by_index(racs)
        sched.decide("/a", by_index, 9000, racs.codec, lambda i: True)
        sched.decide("/a", by_index, 9000, racs.codec, lambda i: True)
        sched.decide("/b", by_index, 9000, racs.codec, lambda i: True)
        assert sched.reads_of("/a") == 2
        assert sched.reads_of("/b") == 1

    def test_idle_fleet_never_hedges(self, racs):
        decision = racs.scheduler.decide(
            "/idle", _by_index(racs), 9000, racs.codec, lambda i: True
        )
        assert decision.hedge is None

    def test_hedge_fires_when_waiting_beats_wire_cost(self, providers, clock):
        scheme = RacsScheme(list(providers.values()), clock)
        sched = FragmentScheduler(SchedulerConfig(rotation_margin=0.0))
        scheme.attach_scheduler(sched)
        by_index = _by_index(scheme)
        # Every chosen provider drowning in queue: the gating provider's
        # estimated wait dwarfs the spare fragment's wire cost, and the
        # backup's own score stays within the winnable band.
        depth = {name: 50.0 for name in scheme.provider_names}
        rate = {name: 10.0 for name in scheme.provider_names}
        scheme.attach_observatory(_StubObservatory(depth, rate))
        decision = sched.decide(
            "/queued", by_index, 9000, scheme.codec, lambda i: True
        )
        assert decision.hedge is not None
        assert decision.hedge.backup not in decision.chosen
        assert decision.hedge.gating in decision.chosen
        assert decision.hedge.wait > decision.hedge.cost

    def test_hedge_skips_unwinnable_backup(self, providers, clock):
        scheme = RacsScheme(list(providers.values()), clock)
        sched = FragmentScheduler(SchedulerConfig(rotation_margin=0.0))
        scheme.attach_scheduler(sched)
        by_index = _by_index(scheme)
        depth = {name: 50.0 for name in scheme.provider_names}
        rate = {name: 10.0 for name in scheme.provider_names}
        scheme.attach_observatory(_StubObservatory(depth, rate))
        baseline = sched.decide(
            "/queued", by_index, 9000, scheme.codec, lambda i: True
        )
        assert baseline.hedge is not None
        # Ruin the backup candidate's health: its full score leaves the
        # winnable band and the hedge must not fire.
        backup_name = by_index[baseline.hedge.backup]
        for _ in range(30):
            scheme.health[backup_name].record_latency(observed=500.0, expected=1.0)
        decision = sched.decide(
            "/queued", by_index, 9000, scheme.codec, lambda i: True
        )
        assert decision.hedge is None or decision.hedge.backup != baseline.hedge.backup


class TestAttachDetach:
    def test_attach_binds_and_detach_returns(self, providers, clock):
        scheme = RacsScheme(list(providers.values()), clock)
        sched = FragmentScheduler()
        assert not sched.bound
        scheme.attach_scheduler(sched)
        assert sched.bound and scheme.scheduler is sched
        returned = scheme.detach_scheduler()
        assert returned is sched
        assert not sched.bound and scheme.scheduler is None
        assert scheme.detach_scheduler() is None  # idempotent

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SchedulerConfig(parity_penalty=0.5)
        with pytest.raises(ValueError):
            SchedulerConfig(rotation_margin=-0.1)
        with pytest.raises(ValueError):
            SchedulerConfig(half_open_penalty=0.9)
        with pytest.raises(ValueError):
            SchedulerConfig(hedge_margin=0.0)
        with pytest.raises(ValueError):
            SchedulerConfig(hedge_winnable=0.5)
        with pytest.raises(ValueError):
            SchedulerConfig(queue_weight=-1.0)
