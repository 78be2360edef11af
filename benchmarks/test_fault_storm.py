"""Extension — the fault storm: HyRD availability under compound faults.

Runs the same PostMark workload against a clean fleet and against the
scripted fault storm (one browned-out performance provider, one provider in
a transient-error burst with throttling, one flapping provider), with and
without hedged reads.  The replayer verifies every byte inline, so the
benchmark demonstrates the paper's availability claim under far harsher
conditions than §IV's single-outage windows: latency degrades, correctness
never does.
"""

import numpy as np

from repro.analysis.tables import render_table
from repro.cloud.provider import make_table2_cloud_of_clouds
from repro.core.config import HyRDConfig
from repro.core.resilience import ResilienceConfig
from repro.faults import FaultProfile, LatencyBrownout, make_fault_storm
from repro.schemes import HyrdScheme
from repro.sim.clock import SimClock
from repro.sim.rng import make_rng
from repro.workloads.filesizes import LogUniformFileSizes
from repro.workloads.postmark import PostMarkConfig, generate_postmark
from repro.workloads.trace import TraceReplayer

KB, MB = 1024, 1024 * 1024


def _run(storm=False, hedge=False, seed=0):
    clock = SimClock()
    fleet = make_table2_cloud_of_clouds(clock)
    # A low striping threshold keeps the cost-oriented providers (the
    # flapping one among them) on the critical path of much of the workload.
    config = HyRDConfig(
        size_threshold=256 * KB, resilience=ResilienceConfig(hedge_reads=hedge)
    )
    # Build (and evaluate) against a healthy fleet, then let the storm land
    # mid-deployment — otherwise the initial probes would classify the
    # faulted providers straight out of the placement classes and the run
    # would route around the storm instead of riding it out.
    scheme = HyrdScheme(list(fleet.values()), clock, config=config)
    if storm:
        # t0 > 0 so the storm begins against *warm* health trackers: the
        # first browned-out reads are slower than every expectation, which is
        # the window hedged reads exist for (until the EWMA adapts and
        # ranking routes around the slow replica).
        make_fault_storm(t0=15.0, duration=36000.0, seed=seed).apply(fleet)
    # Long enough that the run spans the flapping provider's first downtime
    # *and* its return, so the benchmark sees trip, fast-fail and recovery.
    # Log-uniform sizes put roughly half the files above the threshold,
    # keeping the erasure path (and the flapper) busy.
    ops = generate_postmark(
        PostMarkConfig(
            file_pool=15,
            transactions=120,
            sizes=LogUniformFileSizes(lo=64 * KB, hi=8 * MB),
        ),
        make_rng(seed, "fault-storm"),
    )
    collector = TraceReplayer(seed=seed).run(scheme, ops, heal_between=True)
    user_ops = [r.elapsed for r in collector.reports if r.op != "heal"]
    counters = scheme.collector  # resilience counters live on the scheme side
    return {
        "mean": float(np.mean(user_ops)),
        "degraded": collector.degraded_fraction(),
        "retries": counters.counter("retries"),
        "fast_fails": counters.counter("breaker_fast_fail"),
        "breaker_open": counters.counter("breaker_open"),
        "breaker_closed": counters.counter("breaker_closed"),
        "hedged": counters.counter("hedged_reads"),
    }


def test_fault_storm(benchmark, emit):
    def experiment():
        return {
            "clean": _run(),
            "storm": _run(storm=True),
            "storm+hedge": _run(storm=True, hedge=True),
        }

    runs = benchmark.pedantic(experiment, rounds=1, iterations=1)

    cols = ["mean", "degraded", "retries", "fast_fails", "breaker_open",
            "breaker_closed", "hedged"]
    emit(
        render_table(
            ["Run"] + cols,
            [[name] + [runs[name][c] for c in cols] for name in runs],
            title="HyRD under the fault storm (every byte verified inline)",
        )
    )

    clean, storm = runs["clean"], runs["storm"]
    # The clean run never needs the resilience machinery.
    assert clean["retries"] == 0
    assert clean["breaker_open"] == 0
    assert clean["degraded"] == 0.0
    # The storm costs latency, bounded — never correctness (verified inline).
    assert storm["mean"] > clean["mean"]
    assert storm["mean"] < 10 * clean["mean"]
    # The machinery actually engaged: retries burned, the flapping provider's
    # breaker tripped and recovered, open-circuit requests were skipped.
    assert storm["retries"] > 0
    assert storm["breaker_open"] >= 1
    assert storm["breaker_closed"] >= 1
    assert storm["fast_fails"] >= 1
    # Hedging never makes the storm worse (first response wins; a hedge
    # that loses costs nothing on the critical path).  Its latency *benefit*
    # shows in test_hedged_reads_cut_the_brownout_tail below, where the
    # brownout hits cold health trackers.
    assert runs["storm+hedge"]["mean"] <= 1.1 * storm["mean"]


def test_fault_storm_run_report(benchmark, emit):
    """The observability pipeline on the storm: one traced run, one report.

    Exercises the whole ``repro.obs`` stack end to end — recording tracer,
    its closing registry snapshot, and the ``repro report`` renderer — and proves the
    round-trip guarantee on a benchmark-sized run: the JSON-lines trace
    replays into the byte-identical report.
    """
    from repro.obs import RunReport, parse_jsonl, run_fault_storm_report

    def experiment():
        return run_fault_storm_report(seed=0)

    report, tracer = benchmark.pedantic(experiment, rounds=1, iterations=1)
    rendered = report.render()
    emit(rendered)

    replayed = RunReport.from_trace(parse_jsonl(tracer.to_jsonl().splitlines()))
    assert replayed.render() == rendered
    # The storm engaged the machinery the report exists to show.
    assert report.registry.counter_value("retries") > 0
    assert any(r.degraded for r in report.reports)


def test_hedged_reads_cut_the_brownout_tail(benchmark, emit):
    """Hedged reads exist for the window between a latency cliff appearing
    and the health EWMA catching up: the first reads into a fresh brownout
    would otherwise wait out the slow replica in full."""

    def one(hedge):
        clock = SimClock()
        fleet = make_table2_cloud_of_clouds(clock)
        cfg = HyRDConfig(resilience=ResilienceConfig(hedge_reads=hedge))
        scheme = HyrdScheme(list(fleet.values()), clock, config=cfg)
        for i in range(10):
            scheme.put(f"/d/f{i}", bytes(128 * KB))
        t0 = clock.now
        fleet["aliyun"].faults = FaultProfile(
            [LatencyBrownout(t0, t0 + 1e6, rtt_factor=10.0, bw_factor=0.05)]
        ).bind("aliyun")
        lats = []
        for i in range(10):
            _, report = scheme.get(f"/d/f{i}")
            lats.append(report.elapsed)
        return {
            "mean": float(np.mean(lats)),
            "worst": max(lats),
            "hedged": scheme.collector.counter("hedged_reads"),
            "wins": scheme.collector.counter("hedge_wins"),
        }

    def experiment():
        return {"plain": one(False), "hedged": one(True)}

    runs = benchmark.pedantic(experiment, rounds=1, iterations=1)

    cols = ["mean", "worst", "hedged", "wins"]
    emit(
        render_table(
            ["Run"] + cols,
            [[name] + [runs[name][c] for c in cols] for name in runs],
            title="Reads into a fresh brownout: hedged vs plain",
        )
    )

    assert runs["plain"]["hedged"] == 0
    assert runs["hedged"]["hedged"] > 0
    assert runs["hedged"]["wins"] > 0
    # The hedge pays off exactly where it should: the worst read (the one
    # that hit the browned-out replica before health adapted) is far
    # cheaper, and the mean follows.
    assert runs["hedged"]["worst"] < runs["plain"]["worst"]
    assert runs["hedged"]["mean"] < runs["plain"]["mean"]
