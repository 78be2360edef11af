"""Hedge accounting: lost-race legs are waste plus a *censored* sample.

The regression this suite pins: a hedged read's losing leg used to feed its
full (counterfactual) completion time into the provider's latency EWMA —
a number the client never observed, because it cancelled the leg the moment
the winner answered.  Post-fix the books are honest:

- the winner's real latency feeds :meth:`ProviderHealth.record_latency`;
- the loser's on-wire time until cancellation lands in the
  ``hedge_wasted_seconds`` histogram and a ``hedge.wasted`` trace event;
- the loser's health gets that same *censored* wait ("still pending after
  this long") — the only brownout signal available once hedging routes
  around a slow primary — never the counterfactual finish.
"""

import pytest

from repro.cloud.provider import make_table2_cloud_of_clouds
from repro.core.config import HyRDConfig
from repro.core.resilience import HEALTH_ALPHA, ResilienceConfig
from repro.faults import FaultProfile, LatencyBrownout
from repro.obs import RecordingTracer, attribute_trace
from repro.schemes import HyrdScheme
from repro.sim.clock import SimClock

KB = 1024


def _hedge_scheme(clock, fleet, tracer=None):
    cfg = HyRDConfig(resilience=ResilienceConfig(hedge_reads=True))
    return HyrdScheme(list(fleet.values()), clock, config=cfg, tracer=tracer)


def _brownout(fleet, clock, name, rtt_factor=10.0, bw_factor=0.05):
    t0 = clock.now
    fleet[name].faults = FaultProfile(
        [LatencyBrownout(t0, t0 + 1e6, rtt_factor=rtt_factor, bw_factor=bw_factor)]
    ).bind(name)


def _expected_get(scheme, provider, size):
    """The clean-model read expectation health ratios are computed against."""
    lat = scheme.provider(provider).latency
    return lat.rtt + size / min(lat.download_bw, scheme.link.downlink)


def _wasted_series(scheme):
    """provider -> (count, sum) over the hedge_wasted_seconds histograms."""
    from repro.metrics.registry import Histogram

    out = {}
    for m in scheme.registry.all_metrics():
        if isinstance(m, Histogram) and m.name == "hedge_wasted_seconds":
            s = m.summary()
            out[dict(m.labels)["provider"]] = (int(s["count"]), s["mean"] * s["count"])
    return out


class TestScriptedSlowPrimaryHedge:
    """The ISSUE's scripted scenario: primary browns out, backup wins."""

    def _run(self):
        clock = SimClock()
        fleet = make_table2_cloud_of_clouds(clock)
        tracer = RecordingTracer(clock)
        scheme = _hedge_scheme(clock, fleet, tracer)
        data = bytes(range(256)) * 256  # 64 KB -> replicated small file
        scheme.put("/d/small", data)
        _brownout(fleet, clock, "aliyun")
        s0 = scheme.health["aliyun"].slowdown
        got, report = scheme.get("/d/small")
        assert got == data and report.hedged
        assert scheme.collector.counter("hedge_wins") == 1
        return scheme, s0

    def _loser_leg_duration(self, scheme):
        fired = next(
            r for r in scheme.tracer.records
            if r.get("t") == "event" and r["name"] == "hedge.fired"
        )
        leg = next(
            r for r in scheme.tracer.records
            if r.get("t") == "span" and r["name"] == "request"
            and r["attrs"].get("kind") == "get"
            and r["attrs"]["provider"] == fired["attrs"]["primary"]
        )
        return leg["end"] - leg["start"]

    def test_loser_health_fed_censored_wait_not_counterfactual(self):
        scheme, s0 = self._run()
        (count, wasted) = _wasted_series(scheme)["aliyun"]
        assert count == 1
        full = self._loser_leg_duration(scheme)
        # Censoring truncated a real in-flight leg: the metered waste is the
        # wait until cancellation, strictly less than the browned-out leg's
        # counterfactual wire time.
        assert 0.0 < wasted < full
        expected = _expected_get(scheme, "aliyun", 64 * KB)
        censored = s0 + HEALTH_ALPHA * (wasted / expected - s0)
        counterfactual = s0 + HEALTH_ALPHA * (full / expected - s0)
        assert scheme.health["aliyun"].slowdown == pytest.approx(censored)
        # The pre-fix behavior — EWMA folded the full finish — is pinned out.
        assert scheme.health["aliyun"].slowdown < counterfactual - 0.1
        # And the brownout still registers: the censored sample adapts.
        assert scheme.health["aliyun"].slowdown > s0

    def test_trigger_delay_floors_the_p95_estimate(self):
        # Two clean puts leave aliyun's p95 slowdown under 1.1, so the
        # hedge waits 1.1 x the clean read estimate before firing.
        clock = SimClock()
        fleet = make_table2_cloud_of_clouds(clock)
        tracer = RecordingTracer(clock)
        scheme = _hedge_scheme(clock, fleet, tracer)
        data = bytes(range(256)) * 256
        scheme.put("/d/small", data)
        _brownout(fleet, clock, "aliyun")
        assert scheme.health["aliyun"].p95_slowdown() < 1.1
        estimate = scheme._estimate_latency("aliyun", len(data), "down")
        scheme.get("/d/small")
        (fired,) = _events(tracer, "hedge.fired")
        assert fired["attrs"]["primary"] == "aliyun"
        assert fired["attrs"]["delay"] == pytest.approx(1.1 * estimate)

    def test_wasted_wire_time_is_metered(self):
        scheme, _ = self._run()
        wasted = _wasted_series(scheme)
        assert set(wasted) == {"aliyun"}
        count, total = wasted["aliyun"]
        assert count == 1 and total > 0.0

    def test_trace_carries_hedge_wasted_event_and_hedge_wait_phase(self):
        scheme, _ = self._run()
        events = [
            r for r in scheme.tracer.records
            if r.get("t") == "event" and r["name"] == "hedge.wasted"
        ]
        assert len(events) == 1
        assert events[0]["attrs"]["provider"] == "aliyun"
        assert events[0]["attrs"]["wasted"] > 0.0
        report = attribute_trace(scheme.tracer.records)
        hedged = [o for o in report.ops if o.hedged]
        assert len(hedged) == 1
        o = hedged[0]
        # The lead-in where only the doomed primary was on the wire.
        assert o.phases["hedge_wait"] > 0.0
        assert o.hedge_wasted == {
            "aliyun": pytest.approx(events[0]["attrs"]["wasted"])
        }
        assert sum(o.phases.values()) == pytest.approx(o.duration)

    def test_backup_span_sits_at_its_true_offset(self):
        scheme, _ = self._run()
        spans = [
            r for r in scheme.tracer.records
            if r.get("t") == "span" and r["name"] == "request"
            and r["attrs"].get("kind") == "get"
        ]
        fired = next(
            r for r in scheme.tracer.records
            if r.get("t") == "event" and r["name"] == "hedge.fired"
        )
        primary = next(
            s for s in spans if s["attrs"]["provider"] == fired["attrs"]["primary"]
        )
        backup = next(
            s for s in spans if s["attrs"]["provider"] == fired["attrs"]["backup"]
        )
        # The backup leg fired hedge_delay after the primary, and the trace
        # must say so (span_offset) — not show both legs starting together.
        assert backup["start"] == pytest.approx(
            primary["start"] + fired["attrs"]["delay"]
        )

    def test_health_adapts_so_repeat_reads_stop_hedging(self):
        """The point of the censored feed: after a few hedged reads the
        health ranking routes around the browned-out primary and reads go
        back to single-leg."""
        clock = SimClock()
        fleet = make_table2_cloud_of_clouds(clock)
        scheme = _hedge_scheme(clock, fleet)
        data = bytes(64 * KB)
        for i in range(6):
            scheme.put(f"/d/f{i}", data)
        _brownout(fleet, clock, "aliyun")
        for i in range(6):
            got, _ = scheme.get(f"/d/f{i}")
            assert got == data
        assert scheme.collector.counter("hedged_reads") < 6
        assert scheme.health["aliyun"].slowdown > 1.0


class TestPrimaryWinsHedge:
    def test_slow_backup_is_wasted_not_sampled_in_full(self):
        clock = SimClock()
        fleet = make_table2_cloud_of_clouds(clock)
        tracer = RecordingTracer(clock)
        scheme = _hedge_scheme(clock, fleet, tracer)
        data = bytes(64 * KB)
        scheme.put("/d/small", data)
        # Mild brownout on everyone: the primary gets slow enough to trigger
        # the hedge but still beats a backup suffering the same factor plus
        # the trigger delay.
        for name in fleet:
            _brownout(fleet, clock, name, rtt_factor=4.0, bw_factor=0.3)
        got, report = scheme.get("/d/small")
        assert got == data and report.hedged
        assert scheme.collector.counter("hedged_reads") == 1
        assert scheme.collector.counter("hedge_wins") == 0
        fired = next(
            r for r in tracer.records
            if r.get("t") == "event" and r["name"] == "hedge.fired"
        )
        loser = fired["attrs"]["backup"]
        winner = fired["attrs"]["primary"]
        wasted = _wasted_series(scheme)
        assert set(wasted) == {loser}
        # The winner's real, browned-out latency fed health in full.
        assert scheme.health[winner].slowdown > 1.2
        # The loser's censored wait is bounded by the time the client
        # actually spent racing it — not its counterfactual finish.
        loser_leg = next(
            r for r in tracer.records
            if r.get("t") == "span" and r["name"] == "request"
            and r["attrs"].get("kind") == "get"
            and r["attrs"]["provider"] == loser
        )
        _, loser_wasted = wasted[loser]
        assert loser_wasted < loser_leg["end"] - loser_leg["start"]


class TestNoHedgeNoWaste:
    def test_fast_primary_leaves_no_waste_series(self):
        clock = SimClock()
        fleet = make_table2_cloud_of_clouds(clock)
        scheme = _hedge_scheme(clock, fleet)
        data = bytes(64 * KB)
        scheme.put("/d/small", data)
        for _ in range(3):
            got, report = scheme.get("/d/small")
            assert got == data and not report.hedged
        assert _wasted_series(scheme) == {}

    def test_unhedged_reads_still_feed_health(self):
        clock = SimClock()
        fleet = make_table2_cloud_of_clouds(clock)
        scheme = _hedge_scheme(clock, fleet)
        data = bytes(64 * KB)
        scheme.put("/d/small", data)
        before = {n: h.slowdown for n, h in scheme.health.items()}
        scheme.get("/d/small")
        assert any(h.slowdown != before[n] for n, h in scheme.health.items())


# --------------------------------------------------------------------------
# Every exit of the one hedged race (``Scheme._hedged_fetch``), for both of
# its callers: a replicated read racing a backup replica after a trigger
# delay, and a scheduled striped read racing a backup fragment at once.


def _events(tracer, name):
    return [r for r in tracer.records if r.get("t") == "event" and r["name"] == name]


def _get_spans(tracer):
    """provider -> the object-get request spans sent to it, in order."""
    spans = {}
    for r in tracer.records:
        if (
            r.get("t") == "span"
            and r["name"] == "request"
            and r["attrs"].get("kind") == "get"
        ):
            spans.setdefault(r["attrs"]["provider"], []).append(r)
    return spans


def _lose(scheme, fleet, provider, key):
    from repro.faults import inject_loss

    inject_loss(fleet[provider], scheme.container, [key])


def _corrupt(fleet, clock, name):
    from repro.faults import SilentCorruption

    t0 = clock.now
    fleet[name].faults = FaultProfile([SilentCorruption(t0, t0 + 1e6, rate=1.0)]).bind(name)


class _ReplicatedRace:
    """A 64 KiB HyRD file, hedging on; ``ranked`` is the read's candidate
    order (primary first), known before the read so faults can target it."""

    def __init__(self, replicas=2):
        self.clock = SimClock()
        self.fleet = make_table2_cloud_of_clouds(self.clock)
        self.tracer = RecordingTracer(self.clock)
        cfg = HyRDConfig(
            replication_level=replicas,
            resilience=ResilienceConfig(hedge_reads=True),
        )
        self.scheme = HyrdScheme(
            list(self.fleet.values()), self.clock, config=cfg, tracer=self.tracer
        )
        self.data = bytes(range(256)) * 256
        self.scheme.put("/d/small", self.data)
        entry = self.scheme.namespace.get("/d/small")
        self.key = self.scheme._version_key("/d/small", entry.version)
        self.ranked = self.scheme._rank_providers(
            list(entry.providers), entry.size, "down", adaptive=True
        )
        assert len(self.ranked) == replicas

    def read(self):
        got, report = self.scheme.get("/d/small")
        assert got == self.data and report.hedged
        (fired,) = _events(self.tracer, "hedge.fired")
        assert fired["attrs"]["primary"] == self.ranked[0]
        assert fired["attrs"]["backup"] == self.ranked[1]
        return report, fired

    def counters(self):
        c = self.scheme.collector
        return c.counter("hedged_reads"), c.counter("hedge_wins")


class TestReplicatedHedgeExits:
    def test_failed_primary_releases_the_backup_at_its_failure(self):
        race = _ReplicatedRace()
        primary, backup = race.ranked
        _lose(race.scheme, race.fleet, primary, race.key)
        report, fired = race.read()
        assert report.degraded
        assert race.counters() == (1, 1)
        spans = _get_spans(race.tracer)
        (p,), (b,) = spans[primary], spans[backup]
        assert p["attrs"]["ok"] is False and b["attrs"]["ok"] is True
        # The failure answered before the trigger delay, and the backup
        # left at that instant — not at the delay.
        assert p["end"] - p["start"] < fired["attrs"]["delay"]
        assert b["start"] == pytest.approx(p["end"])
        assert b["start"] < p["start"] + fired["attrs"]["delay"]

    def test_corrupt_primary_loses_to_the_backup_and_degrades(self):
        race = _ReplicatedRace()
        primary, backup = race.ranked
        _corrupt(race.fleet, race.clock, primary)
        report, _fired = race.read()
        assert report.degraded
        assert race.counters() == (1, 1)
        (win,) = _events(race.tracer, "hedge.win")
        assert win["attrs"]["provider"] == backup
        spans = _get_spans(race.tracer)
        # The corrupt answer released the backup as it arrived.
        assert spans[backup][0]["start"] == pytest.approx(spans[primary][0]["end"])

    def test_both_legs_failing_falls_back_to_the_third_replica(self):
        race = _ReplicatedRace(replicas=3)
        primary, backup, third = race.ranked
        _lose(race.scheme, race.fleet, primary, race.key)
        _lose(race.scheme, race.fleet, backup, race.key)
        report, _fired = race.read()
        assert report.degraded
        assert race.counters() == (1, 0)
        assert _events(race.tracer, "hedge.win") == []
        spans = _get_spans(race.tracer)
        (p,), (b,), (t,) = spans[primary], spans[backup], spans[third]
        assert t["attrs"]["ok"] is True
        # The fallback waited out both failed legs first.
        assert t["start"] == pytest.approx(max(p["end"], b["end"]))

    def test_answered_corrupt_legs_are_waited_on_when_neither_wins(self):
        """Neither leg answered intact: the client waited for both, so
        both answers feed health like any observed request — the rule a
        striped hedge that no subset wins has always followed."""
        race = _ReplicatedRace(replicas=3)
        primary, backup, third = race.ranked
        for name in (primary, backup):
            _corrupt(race.fleet, race.clock, name)
        before = {n: race.scheme.health[n].slowdown for n in race.ranked}
        report, _fired = race.read()
        assert report.degraded
        assert race.counters() == (1, 0)
        assert _wasted_series(race.scheme) == {}
        for name in race.ranked:
            assert race.scheme.health[name].slowdown != before[name], name


class _Queued:
    """Load-observatory double: every provider reports the same standing
    queue, so the scheduler's gating wait beats the backup fragment's wire
    cost and every striped read hedges."""

    def bind(self, registry, clock, health=None):
        pass

    def on_phase(self, now, outcomes):
        pass

    def on_op(self, report, trace_id):
        pass

    def queue_depth(self, name):
        return 50.0

    def service_rate(self, name):
        return 10.0


class _StripedRace:
    """A 2 MiB striped file read through a scheduler with a scripted queue;
    ``plan`` is the hedge the read will make (decided by a scheduler that
    is then replaced by a fresh one, so the read is its key's first)."""

    def __init__(self, name="racs"):
        from repro.core.scheduling import FragmentScheduler
        from repro.schemes import build_scheme

        self.clock = SimClock()
        self.fleet = make_table2_cloud_of_clouds(self.clock)
        self.tracer = RecordingTracer(self.clock)
        self.scheme = build_scheme(name, self.fleet, self.clock, tracer=self.tracer)
        self.scheme.attach_observatory(_Queued())
        self.scheme.attach_scheduler(FragmentScheduler())
        self.data = bytes(range(256)) * 8192
        self.scheme.put("/s/f", self.data)
        entry = self.scheme.namespace.get("/s/f")
        self.k = self.scheme._codec_for(entry).k
        self.by_index = {idx: prov for prov, idx in entry.placements}
        self.stem = self.scheme._version_key("/s/f", entry.version)
        decision = self.scheme.scheduler.decide(
            "/s/f", self.by_index, entry.size, self.scheme._codec_for(entry),
            lambda i: True,
        )
        self.chosen, self.plan = decision.chosen, decision.hedge
        assert self.plan is not None
        self.scheme.detach_scheduler()
        self.scheme.attach_scheduler(FragmentScheduler())

    def lose(self, idx):
        _lose(self.scheme, self.fleet, self.by_index[idx], f"{self.stem}.{idx}")

    def read(self):
        got, report = self.scheme.get("/s/f")
        assert got == self.data and report.hedged
        (fired,) = _events(self.tracer, "hedge.fired")
        assert fired["attrs"] == {
            "primary": self.by_index[self.plan.gating],
            "backup": self.by_index[self.plan.backup],
            "delay": 0.0,
        }
        return report

    def counters(self):
        reg = self.scheme.registry
        return (
            self.scheme.collector.counter("hedged_reads"),
            self.scheme.collector.counter("hedge_wins"),
            int(reg.counter_value("sched_hedges_total")),
            int(reg.counter_value("sched_hedge_wins_total")),
        )


class TestStripedHedgeExits:
    def test_main_subset_wins_and_the_backup_is_fired_anyway(self):
        # A striped hedge fires its backup at 0 s: the main subset can win
        # the race but never skips it, unlike a replicated primary that
        # answers inside its trigger delay.
        race = _StripedRace()
        report = race.read()
        assert not report.degraded
        assert race.counters() == (1, 0, 1, 0)
        assert report.cloud_ops == race.k + 1
        assert _events(race.tracer, "hedge.win") == []
        assert set(_wasted_series(race.scheme)) == {race.by_index[race.plan.backup]}

    def test_failed_gating_fragment_is_decoded_around(self):
        race = _StripedRace()
        race.lose(race.plan.gating)
        report = race.read()
        assert report.degraded
        assert race.counters() == (1, 1, 1, 1)
        assert report.cloud_ops == race.k + 1
        (win,) = _events(race.tracer, "hedge.win")
        assert win["attrs"]["provider"] == race.by_index[race.plan.backup]

    def test_failed_fragment_beside_the_gating_one_keeps_both_legs(self):
        race = _StripedRace()
        other = next(i for i in race.chosen if i != race.plan.gating)
        race.lose(other)
        report = race.read()
        assert report.degraded
        assert race.counters() == (1, 0, 1, 0)
        # The backup's fragment stands in for the lost one: no top-up get.
        assert report.cloud_ops == race.k + 1

    def test_a_short_race_tops_up_from_the_remaining_placements(self):
        # RS(2, 2): two fragments race one backup.  Losing the non-gating
        # fragment and the backup leaves one intact answer, which the read
        # keeps; the spare placement tops the stripe up.
        race = _StripedRace("depsky-ca")
        assert race.k == 2 and len(race.by_index) == 4
        other = next(i for i in race.chosen if i != race.plan.gating)
        (spare,) = set(race.by_index) - {*race.chosen, race.plan.backup}
        race.lose(other)
        race.lose(race.plan.backup)
        report = race.read()
        assert report.degraded
        assert race.counters() == (1, 0, 1, 0)
        spans = _get_spans(race.tracer)
        (kept,) = spans[race.by_index[race.plan.gating]]
        assert kept["attrs"]["ok"] is True
        (topped,) = spans[race.by_index[spare]]
        assert topped["attrs"]["ok"] is True
        assert topped["start"] >= kept["end"]
