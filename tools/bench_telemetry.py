#!/usr/bin/env python
"""Simulated-number golden: build and exact-check ``telemetry_golden.json``.

Runs a curated scenario subset and records its *simulated* outputs — seeded
sim-clock arithmetic, bit-for-bit reproducible — as one golden file,
``tests/data/telemetry_golden.json`` (keys ``seed`` + ``deterministic``).
Host time is not measured here: wall-clock throughput, per-layer CPU shares
and A/B noise bounds belong to ``perfbench/``.  The facets:

- **latency** — per-op latency summaries (count/mean/p50/p95/p99/max, from
  the schemes' own ``op_latency_seconds`` histograms) and the degraded-op
  fraction, for HyRD / DuraCloud / RACS on a clean fleet plus HyRD under the
  canonical fault storm;
- **availability** — the analytic k-of-n model's availability and nines per
  standard placement;
- **codec** — fragment fingerprints (CRC32 per fragment) for every codec on
  a seeded payload, with ``encode_views`` cross-checked against ``encode``
  at generation time.  A fingerprint that moves means encode output changed;
- **replay throughput** — the fig3-scale IA replay through HyRD: op count,
  mean access latency, simulated elapsed time;
- **maintenance** — the seeded maintenance drill (scrub / budgeted repair /
  live migration against a ground-truth corruption ledger): detection rate,
  repair counts and bytes, mean time to full redundancy, foreground p95;
- **attribution** — the critical-path phase decomposition
  (``repro.obs.attribution``) of the traced fig3-scale replay: attributed
  op count, phase seconds and shares for the fixed taxonomy, with the
  exact-coverage invariant machine-checked at generation time (a gap
  raises instead of recording).  Plus a scripted brownout hedge — the
  storm's seed happens never to hedge — pinning the hedge-waste
  accounting: ``hedge_wait`` on the critical path, wasted loser-leg wire
  seconds off it;
- **read scheduling** — the Zipf-skewed striped-read experiment from
  ``benchmarks/test_read_scheduling.py`` at telemetry scale: simulated
  ops/s with the :class:`~repro.core.scheduling.FragmentScheduler`
  attached vs static fragment selection against a saturated + browned-out
  fleet, the resulting speedup, the scheduler's parity-pick count, and
  the subset-choice histogram (which provider subsets served the
  workload) — a routing change that shifts the histogram fails
  ``--check``.  Generation also asserts scheduled strictly beats static
  (the hard 1.3x floor lives in the benchmark suite);
- **service plane** — the multi-tenant drill from
  ``benchmarks/test_service_plane.py`` at telemetry scale: closed-loop
  aggregate ops/s at 1 / 32 / 512 tenants (same per-tenant stream shape,
  metadata cache sized to the working set so the series measures tenancy
  overhead), plus one open-loop 10:1-skew overload run recording the
  shed fraction and Jain's fairness index over admitted throughput.
  Generation asserts the same floors the benchmark gates enforce
  (512-tenant scale ratio >= 0.8, fairness >= 0.9).

Rebuilding on the same code reproduces the golden exactly, so *any*
difference is a real behaviour change: ``--check`` rebuilds, compares with
``==`` and (exit 1) prints every leaf that differs.  Tier-1
(``tests/test_bench_telemetry.py``) runs the same comparison.

Usage::

    PYTHONPATH=src python tools/bench_telemetry.py --check  # rebuild, == golden
    PYTHONPATH=src python tools/bench_telemetry.py          # rewrite the golden
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:  # allow running without PYTHONPATH=src
    sys.path.insert(0, str(ROOT / "src"))

GOLDEN = ROOT / "tests" / "data" / "telemetry_golden.json"
#: absolute slack ``compare`` adds to a non-zero tolerance (guards ~0 baselines)
ABS_EPSILON = 1e-9

KB, MB = 1024, 1024 * 1024


# ----------------------------------------------------------------- collection
def _scheme_metrics(registry) -> dict:
    """Latency summaries by op + degraded fraction from a finished run's registry."""
    from repro.metrics.registry import Histogram

    ops: dict[str, dict] = {}
    for m in registry.all_metrics():
        if isinstance(m, Histogram) and m.name == "op_latency_seconds":
            op = dict(m.labels).get("op", "?")
            s = m.summary()
            ops[op] = {
                "count": int(s["count"]),
                "mean": s["mean"],
                "p50": s["p50"],
                "p95": s["p95"],
                "p99": s["p99"],
                "max": s["max"],
            }
    split = registry.breakdown("ops_total", "op", "degraded")
    degraded = sum(v for (_, flag), v in split.items() if flag == "true")
    total = sum(split.values())
    return {
        "ops": dict(sorted(ops.items())),
        "degraded_fraction": degraded / total if total else 0.0,
    }


def _clean_workload(seed: int):
    from repro.sim.rng import make_rng
    from repro.workloads.filesizes import LogUniformFileSizes
    from repro.workloads.postmark import PostMarkConfig, generate_postmark

    return generate_postmark(
        PostMarkConfig(
            file_pool=12,
            transactions=80,
            sizes=LogUniformFileSizes(lo=64 * KB, hi=4 * MB),
        ),
        make_rng(seed, "bench-telemetry"),
    )


def run_clean_scenario(seed: int) -> dict:
    """HyRD and the two headline baselines on a healthy Table II fleet."""
    from repro.cloud.provider import make_table2_cloud_of_clouds
    from repro.core.config import HyRDConfig
    from repro.schemes import DuraCloudScheme, HyrdScheme, RacsScheme
    from repro.sim.clock import SimClock
    from repro.workloads.trace import TraceReplayer

    out: dict[str, dict] = {}
    builders = {
        "hyrd": lambda fleet, clock: HyrdScheme(
            list(fleet.values()), clock, config=HyRDConfig(size_threshold=256 * KB)
        ),
        "duracloud": lambda fleet, clock: DuraCloudScheme(
            list(fleet.values()), clock, seed=seed
        ),
        "racs": lambda fleet, clock: RacsScheme(
            list(fleet.values()), clock, seed=seed
        ),
    }
    for name, build in builders.items():
        clock = SimClock()
        fleet = make_table2_cloud_of_clouds(clock)
        scheme = build(fleet, clock)
        TraceReplayer(seed=seed).run(scheme, _clean_workload(seed))
        out[name] = _scheme_metrics(scheme.registry)
    return out


def run_storm_scenario(seed: int) -> dict:
    """HyRD through the canonical fault storm (same run as ``repro report``)."""
    from repro.obs.report import run_fault_storm_report

    report, _ = run_fault_storm_report(seed=seed, trace=False)
    return {"hyrd": _scheme_metrics(report.registry)}


def run_availability() -> dict:
    """Analytic availability + nines for every standard placement."""
    from repro.analysis.availability import analytic_report, nines

    report = analytic_report()
    return {
        name: {"availability": avail, "nines": nines(avail)}
        for name, avail in sorted(report.items())
    }


#: codecs fingerprinted by the codec facet — label -> factory args
CODEC_MATRIX = (
    ("raid5_k3", "raid5", {"k": 3}),
    ("rs_k2_m2", "rs", {"k": 2, "m": 2}),
    ("rs_k3_m2", "rs", {"k": 3, "m": 2}),
    ("fmsr_4_2", "fmsr", {"n": 4}),
)

def run_codec_facet(seed: int) -> dict:
    """Deterministic per-fragment CRC32 fingerprints for every codec.

    Generation asserts that ``encode_views`` and ``encode`` agree, then
    records one CRC32 per fragment.  The golden is
    compared exactly, so a changed fragment fails unless its new CRC32
    collides with the old one (2^-32).
    """
    import zlib

    from repro.erasure.codec import get_codec
    from repro.sim.rng import make_rng

    # Odd size on purpose: exercises tail-column handling and padding.
    payload = make_rng(seed, "bench-codec-facet").integers(
        0, 256, size=1 * MB + 3, dtype="uint8"
    ).tobytes()
    out: dict[str, dict] = {}
    for label, name, kwargs in CODEC_MATRIX:
        codec = get_codec(name, **kwargs)
        reference = [bytes(f) for f in codec.encode(payload)]
        views = [bytes(f) for f in codec.encode_views(payload)]
        if views != reference:
            raise AssertionError(f"{label}: encode_views != encode")
        out[label] = {
            "fragment_bytes": len(reference[0]),
            "fragments_crc32": {
                str(i): zlib.crc32(f) for i, f in enumerate(reference)
            },
        }
    return out


def run_replay_throughput(seed: int) -> dict:
    """The fig3-scale replay's simulated outputs, from one run.

    That repeated runs yield identical simulated results is not re-asserted
    here: ``tests/test_results_identity.py``,
    ``tests/test_obs_timeseries.py::TestZeroCost``,
    ``benchmarks/test_replay_throughput.py`` and perfbench's per-trial
    ``(sim, fingerprint)`` equality (``perfbench/run.py``) all enforce it.
    """
    import numpy as np

    from repro.analysis.experiments import run_fig3
    from repro.cloud.provider import make_table2_cloud_of_clouds
    from repro.schemes import HyrdScheme
    from repro.sim.clock import SimClock
    from repro.workloads.trace import TraceReplayer

    ops = run_fig3(seed=seed).ops
    clock = SimClock()
    providers = make_table2_cloud_of_clouds(clock)
    scheme = HyrdScheme(list(providers.values()), clock)
    collector = TraceReplayer(seed=seed).run(scheme, ops)
    samples = [
        r.elapsed for r in collector.reports if r.op not in ("heal", "promote")
    ]
    return {
        "fig3_replay": {
            "trace_ops": len(ops),
            "mean_access_latency_s": float(np.mean(samples)),
            "simulated_elapsed_s": clock.now,
        }
    }


#: the drill-summary fields the maintenance facet records
MAINTENANCE_FIELDS = (
    "injected",
    "detected",
    "detection_rate",
    "scrub_cycles",
    "scrub_bytes_verified",
    "repairs_completed",
    "repair_bytes",
    "repair_throttled",
    "mttr_mean_s",
    "migrations_completed",
    "migration_bytes",
    "residual_findings",
    "foreground_p95_s",
    "foreground_mean_s",
    "sim_time_s",
)


def run_maintenance(seed: int) -> dict:
    """The default maintenance drill's simulated outputs — all deterministic.

    Booleans (``read_back_ok``, ``decommission_evacuated``) are asserted here
    rather than recorded: a drill that fails either invariant should fail
    loudly at generation time, not be committed as a golden.
    """
    from repro.maintenance.drill import run_maintenance_drill

    summary = run_maintenance_drill(seed=seed)["summary"]
    if not (summary["read_back_ok"] and summary["decommission_evacuated"]):
        raise AssertionError(f"maintenance drill invariants failed: {summary}")
    return {"drill": {field: summary[field] for field in MAINTENANCE_FIELDS}}


def run_read_scheduling_facet(seed: int) -> dict:
    """Scheduled vs static striped reads under skew — all simulated-time.

    A reduced-scale copy of the ``benchmarks/test_read_scheduling.py``
    scenario: Zipf-skewed reads of striped files against a fleet whose two
    systematic fragment holders are saturated and browned out, run once
    with the scheduler + load observatory attached and once static.  Both
    throughputs are simulated ops/s (sim-clock arithmetic, bit-for-bit
    reproducible), and the subset-choice histogram records exactly which
    provider subsets served the workload — the routing behaviour itself is
    what the golden freezes.
    """
    import numpy as np

    from repro.cloud.provider import make_table2_cloud_of_clouds
    from repro.core.config import HyRDConfig
    from repro.core.scheduling import FragmentScheduler
    from repro.faults import FaultProfile, LatencyBrownout
    from repro.obs import ProviderLoadObservatory
    from repro.schemes import HyrdScheme
    from repro.sim.clock import SimClock
    from repro.sim.rng import make_rng

    files, reads = 6, 60

    def once(schedule: bool):
        clock = SimClock()
        providers = make_table2_cloud_of_clouds(clock)
        # Promotion off: a promoted full copy would route around the
        # stripe for scheduler and static alike.
        scheme = HyrdScheme(
            list(providers.values()),
            clock,
            config=HyRDConfig(hot_file_threshold=0),
        )
        if schedule:
            scheme.attach_observatory(ProviderLoadObservatory())
            scheme.attach_scheduler(FragmentScheduler())
        rng = make_rng(seed, "bench-read-sched")
        payloads = {}
        for i in range(files):
            data = rng.integers(0, 256, 2 * MB, dtype="uint8").tobytes()
            scheme.put(f"/s/f{i}", data)
            payloads[i] = data
        placements = dict(
            (idx, prov) for prov, idx in scheme.namespace.get("/s/f0").placements
        )
        horizon = clock.now + 1e9
        providers[placements[0]].faults = FaultProfile(
            [LatencyBrownout(clock.now, horizon, rtt_factor=10.0, bw_factor=0.05)]
        ).bind(placements[0])
        providers[placements[1]].faults = FaultProfile(
            [LatencyBrownout(clock.now, horizon, rtt_factor=2.0, bw_factor=0.5)]
        ).bind(placements[1])
        weights = np.array([1.0 / (i + 1) ** 1.2 for i in range(files)])
        sequence = rng.choice(files, size=reads, p=weights / weights.sum())
        t0 = clock.now
        histogram: dict[str, int] = {}
        for j in sequence:
            data, report = scheme.get(f"/s/f{j}")
            if data != payloads[j]:
                raise AssertionError("scheduled read returned wrong bytes")
            key = "+".join(sorted(report.providers))
            histogram[key] = histogram.get(key, 0) + 1
        return reads / (clock.now - t0), scheme, histogram

    scheduled, scheme, histogram = once(True)
    static, _, _ = once(False)
    if scheduled <= static:
        raise AssertionError(
            f"scheduled {scheduled:.3f} ops/s did not beat static {static:.3f}"
        )
    registry = scheme.registry
    return {
        "skewed_load": {
            "reads": reads,
            "scheduled_ops_per_sim_s": scheduled,
            "static_ops_per_sim_s": static,
            "speedup": scheduled / static,
            "parity_fragments": int(
                registry.counter_value("sched_parity_fragments_total")
            ),
            "rotations": int(registry.counter_value("sched_rotations_total")),
            "distinct_subsets": len(histogram),
            "subset_histogram": dict(sorted(histogram.items())),
        }
    }


def run_service_plane_facet(seed: int) -> dict:
    """Multi-tenant service plane at telemetry scale — all simulated-time.

    Two seeded drills through :func:`repro.service.run_service_drill`:

    - **closed-loop scaling** — aggregate admitted ops/s at 1 / 32 / 512
      tenants, every tenant running the same 8-op stream shape, with the
      client metadata cache sized to the 512-directory working set so the
      series measures tenancy overhead (DRR rotation, quota checks, pump
      chains) rather than cache thrash;
    - **skewed overload** — 32 open-loop tenants at 3x measured capacity
      with a 10:1 geometric rate skew, bounded queues, and per-tenant
      ops/s quotas; records submitted/admitted counts, the shed fraction,
      and Jain's index over per-tenant admitted counts.

    Generation asserts the same floors the benchmark gates enforce so a
    regression can never be committed as a golden.
    """
    from repro.core.config import HyRDConfig
    from repro.schemes import HyrdScheme
    from repro.service import run_service_drill

    def factory(providers, clock):
        return HyrdScheme(
            providers,
            clock,
            config=HyRDConfig(seed=seed, metadata_cache_capacity=1024),
        )

    rates: dict[int, float] = {}
    for tenants in (1, 32, 512):
        report = run_service_drill(
            seed=seed,
            tenants=tenants,
            mode="closed",
            ops_per_tenant=8,
            scheme_factory=factory,
        )
        if report["shed_total"]:
            raise AssertionError(
                f"closed-loop drill at {tenants} tenants shed "
                f"{report['shed_total']} requests"
            )
        rates[tenants] = report["aggregate_ops_per_s"]
    scale_ratio = rates[512] / rates[1]
    if scale_ratio < 0.8:
        raise AssertionError(
            f"512-tenant scale ratio {scale_ratio:.3f} fell below the 0.8 floor"
        )

    skewed = run_service_drill(
        seed=seed,
        tenants=32,
        mode="open",
        skew=10.0,
        offered_load=3.0,
        queue_limit=8,
        ops_quota_factor=2.0,
    )
    if skewed["fairness_index"] < 0.9:
        raise AssertionError(
            f"fairness index {skewed['fairness_index']:.4f} under skew "
            "fell below the 0.9 floor"
        )
    return {
        "closed_scaling": {
            "ops_per_s_1": rates[1],
            "ops_per_s_32": rates[32],
            "ops_per_s_512": rates[512],
            "scale_ratio_512": scale_ratio,
        },
        "skewed_overload": {
            "submitted": skewed["submitted_total"],
            "admitted": skewed["admitted_total"],
            "shed_fraction": skewed["shed_fraction"],
            "fairness_index": skewed["fairness_index"],
            "quota_deferrals": skewed["quota_deferrals"],
        },
    }


def run_attribution_facet(seed: int) -> dict:
    """Critical-path phase decomposition — all simulated-time, all gated.

    Two runs:

    - the traced fig3-scale replay (same trace as ``replay_throughput``),
      attributed op by op.  ``attribute_trace`` machine-checks the
      exact-coverage invariant — any op whose phases fail to tile its
      wall-clock raises ``CoverageError`` at generation time, so a broken
      decomposition can never be committed as a golden;
    - a scripted brownout hedge (put a replicated small file, brown out
      the read primary, read it back) pinning hedge accounting: the
      storm and replay seeds happen never to hedge, so without this the
      ``hedge_wait``/waste books would be zero everywhere and silently
      ungated.
    """
    from repro.analysis.experiments import run_fig3
    from repro.cloud.provider import make_table2_cloud_of_clouds
    from repro.core.config import HyRDConfig
    from repro.core.resilience import ResilienceConfig
    from repro.faults import FaultProfile, LatencyBrownout
    from repro.obs import PHASES, RecordingTracer, attribute_trace
    from repro.schemes import HyrdScheme
    from repro.sim.clock import SimClock
    from repro.workloads.trace import TraceReplayer

    ops = run_fig3(seed=seed).ops
    clock = SimClock()
    providers = make_table2_cloud_of_clouds(clock)
    tracer = RecordingTracer(clock)
    scheme = HyrdScheme(list(providers.values()), clock, tracer=tracer)
    TraceReplayer(seed=seed).run(scheme, ops)
    report = attribute_trace(tracer.records)  # raises CoverageError on a gap
    fig3 = {
        "ops_attributed": len(report.ops),
        "phase_seconds": report.totals(),
        "phase_shares": report.shares(),
    }

    clock = SimClock()
    fleet = make_table2_cloud_of_clouds(clock)
    tracer = RecordingTracer(clock)
    scheme = HyrdScheme(
        list(fleet.values()),
        clock,
        config=HyRDConfig(resilience=ResilienceConfig(hedge_reads=True)),
        tracer=tracer,
    )
    scheme.put("/bench/hedge", bytes(64 * KB))
    fleet["aliyun"].faults = FaultProfile(
        [LatencyBrownout(clock.now, clock.now + 1e6, rtt_factor=10.0, bw_factor=0.05)]
    ).bind("aliyun")
    scheme.get("/bench/hedge")
    hedged = [o for o in attribute_trace(tracer.records).ops if o.hedged]
    if len(hedged) != 1:
        raise AssertionError(
            f"scripted hedge run hedged {len(hedged)} times, expected exactly 1"
        )
    (op,) = hedged
    if op.phases["hedge_wait"] <= 0.0 or not op.hedge_wasted:
        raise AssertionError("scripted hedge produced no hedge_wait/waste")
    assert set(fig3["phase_seconds"]) == set(PHASES)
    return {
        "fig3_replay": fig3,
        "scripted_hedge": {
            "hedge_wait_s": op.phases["hedge_wait"],
            "hedge_wasted_s": sum(op.hedge_wasted.values()),
            "read_latency_s": op.duration,
        },
    }


def build_payload(seed: int = 0) -> dict:
    return {
        "seed": seed,
        "deterministic": {
            "latency": {
                "clean": run_clean_scenario(seed),
                "fault_storm": run_storm_scenario(seed),
            },
            "availability": run_availability(),
            "codec": run_codec_facet(seed),
            "replay_throughput": run_replay_throughput(seed),
            "maintenance": run_maintenance(seed),
            "attribution": run_attribution_facet(seed),
            "read_scheduling": run_read_scheduling_facet(seed),
            "service_plane": run_service_plane_facet(seed),
        },
    }


# ------------------------------------------------------------------- checking
def numeric_leaves(obj, prefix: str = "") -> list[tuple[str, int | float]]:
    """Flatten nested dicts to ``(dotted.path, value)`` for every number."""
    out: list[tuple[str, int | float]] = []
    if isinstance(obj, bool):
        return out
    if isinstance(obj, (int, float)):
        return [(prefix, obj)]
    if isinstance(obj, dict):
        for k in sorted(obj):
            sub_prefix = f"{prefix}.{k}" if prefix else str(k)
            out.extend(numeric_leaves(obj[k], sub_prefix))
    return out


def compare(baseline: dict, fresh: dict, tolerance: float) -> list[str]:
    """Diff printer: one line per deterministic leaf that differs.

    The gate is ``==`` on the whole payload; this names the leaves (old ->
    new, full precision) once that has failed, so it is called with
    ``tolerance`` 0, which compares exactly.  Values missing on either side
    are differences too — a vanished op or placement is a behaviour change.
    """
    old = dict(numeric_leaves(baseline.get("deterministic", {})))
    new = dict(numeric_leaves(fresh.get("deterministic", {})))
    problems: list[str] = []
    for path in sorted(set(old) | set(new)):
        if path not in old:
            problems.append(f"NEW    {path} = {new[path]!r} (not in baseline)")
            continue
        if path not in new:
            problems.append(f"GONE   {path} (baseline {old[path]!r})")
            continue
        a, b = old[path], new[path]
        abs_tol = ABS_EPSILON if tolerance else 0.0
        if math.isclose(a, b, rel_tol=tolerance, abs_tol=abs_tol):
            continue
        rel = (b - a) / max(abs(a), ABS_EPSILON)
        problems.append(f"DRIFT  {path}: baseline {a!r} -> fresh {b!r} ({rel:+.3g} rel)")
    return problems


# ----------------------------------------------------------------------- main
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        metavar="PATH",
        type=Path,
        default=GOLDEN,
        help="where to write the rebuilt payload (default: the golden itself)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="rebuild and compare exactly against the committed golden",
    )
    args = parser.parse_args(argv)

    if args.check:
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
        fresh = build_payload(golden["seed"])
        if fresh == golden:
            print(f"bench-telemetry: OK — rebuild equals {GOLDEN.name} exactly")
            return 0
        problems = compare(golden, fresh, 0.0)
        print(
            f"bench-telemetry: {len(problems)} leaf/leaves differ from "
            f"{GOLDEN.name}:",
            file=sys.stderr,
        )
        for p in problems:
            print(f"  {p}", file=sys.stderr)
        return 1

    args.out.write_text(
        json.dumps(build_payload(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"bench-telemetry: wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
