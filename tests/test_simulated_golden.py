"""Every simulated number the repo pins, rebuilt and compared exactly.

``tests/data/simulated_golden.json`` holds ten facets of seeded sim-clock
output, each bit-for-bit reproducible on the same code:

- ``latency`` — per-op latency summaries (count/mean/p50/p95/p99/max, from
  the schemes' own ``op_latency_seconds`` histograms) and the degraded-op
  fraction, for HyRD / DuraCloud / RACS on a clean Table II fleet plus HyRD
  through the canonical fault storm;
- ``availability`` — the analytic k-of-n model's availability and nines per
  standard placement;
- ``codec`` — one CRC32 per fragment for every codec on a seeded payload;
- ``replay_throughput`` — the Fig. 3 IA trace replayed through HyRD: op
  count, mean access latency, simulated elapsed time;
- ``maintenance`` — the seeded maintenance drill (scrub, budgeted repair,
  live migration against a ground-truth corruption ledger);
- ``attribution`` — the critical-path phase decomposition
  (``repro.obs.attribution``) of the traced Fig. 3 replay, plus a scripted
  brownout hedge that pins the hedge-waste accounting (the storm's seed
  never hedges);
- ``read_scheduling`` — ``benchmarks/test_read_scheduling.py`` at reduced
  scale: Zipf-skewed striped reads with the ``FragmentScheduler`` against
  static fragment selection on a saturated, browned-out fleet, and which
  provider subsets served the reads;
- ``service_plane`` — ``benchmarks/test_service_plane.py`` at reduced
  scale: closed-loop ops/s at 1 / 32 / 512 tenants and one open-loop
  10:1-skew overload (shed fraction, Jain's index);
- ``fig3_stats`` — the IA trace's monthly statistics (Fig. 3);
- ``fig6`` — a reduced Fig. 6 run: mean access latency per scheme in the
  normal and the outage state, and the degraded-op fraction.

Host time is not measured here: it belongs to ``perfbench/``.  Building
asserts each scenario's own invariants (``encode_views`` equals
``encode``, attribution covers every op exactly, the drill reads back,
scheduled reads beat static ones, the service plane's scaling and fairness
floors), so a broken run raises instead of being recorded.

The check is exact: every leaf of the rebuild must have the golden's
``repr``, and a failure names each leaf that differs.  A change that is
*meant* to move a simulated number regenerates the file with
``PYTHONPATH=src python tests/test_simulated_golden.py --write`` and says
why.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.availability import analytic_report, nines
from repro.analysis.experiments import run_fig3, run_fig6
from repro.cloud.provider import make_table2_cloud_of_clouds
from repro.core.config import HyRDConfig
from repro.core.resilience import ResilienceConfig
from repro.core.scheduling import FragmentScheduler
from repro.erasure.codec import get_codec
from repro.faults import FaultProfile, LatencyBrownout
from repro.maintenance.drill import run_maintenance_drill
from repro.metrics.registry import Histogram
from repro.obs import PHASES, ProviderLoadObservatory, RecordingTracer, attribute_trace
from repro.obs.report import run_fault_storm_report
from repro.schemes import DuraCloudScheme, HyrdScheme, RacsScheme
from repro.service import run_service_drill
from repro.sim.clock import SimClock
from repro.sim.rng import make_rng
from repro.workloads.filesizes import LogUniformFileSizes
from repro.workloads.postmark import PostMarkConfig, generate_postmark
from repro.workloads.trace import TraceReplayer

GOLDEN = Path(__file__).parent / "data" / "simulated_golden.json"

KB, MB = 1024, 1024 * 1024

#: the reduced PostMark run behind the ``fig6`` facet
FIG6_CONFIG = PostMarkConfig(
    file_pool=8, transactions=30, size_lo=1 * KB, size_hi=2 * MB
)

#: codecs fingerprinted by the ``codec`` facet: label -> factory args
CODEC_MATRIX = (
    ("raid5_k3", "raid5", {"k": 3}),
    ("rs_k2_m2", "rs", {"k": 2, "m": 2}),
    ("rs_k3_m2", "rs", {"k": 3, "m": 2}),
    ("fmsr_4_2", "fmsr", {"n": 4}),
)

#: the drill-summary fields the ``maintenance`` facet records
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


# ------------------------------------------------------------------- facets
def _scheme_metrics(registry) -> dict:
    """Latency summaries by op + degraded fraction from a finished run's registry."""
    ops: dict[str, dict] = {}
    for m in registry.all_metrics():
        if isinstance(m, Histogram) and m.name == "op_latency_seconds":
            s = m.summary()
            ops[dict(m.labels).get("op", "?")] = {
                "count": int(s["count"]),
                **{q: s[q] for q in ("mean", "p50", "p95", "p99", "max")},
            }
    split = registry.breakdown("ops_total", "op", "degraded")
    degraded = sum(v for (_, flag), v in split.items() if flag == "true")
    total = sum(split.values())
    return {
        "ops": dict(sorted(ops.items())),
        "degraded_fraction": degraded / total if total else 0.0,
    }


def _latency(seed: int) -> dict:
    """HyRD and the two headline baselines on a healthy Table II fleet, and
    HyRD through the canonical fault storm (the run ``repro report`` makes)."""
    workload = generate_postmark(
        PostMarkConfig(
            file_pool=12,
            transactions=80,
            sizes=LogUniformFileSizes(lo=64 * KB, hi=4 * MB),
        ),
        make_rng(seed, "bench-telemetry"),
    )
    builders = {
        "hyrd": lambda fleet, clock: HyrdScheme(
            list(fleet.values()), clock, config=HyRDConfig(size_threshold=256 * KB)
        ),
        "duracloud": lambda fleet, clock: DuraCloudScheme(
            list(fleet.values()), clock, seed=seed
        ),
        "racs": lambda fleet, clock: RacsScheme(list(fleet.values()), clock, seed=seed),
    }
    clean: dict[str, dict] = {}
    for name, make in builders.items():
        clock = SimClock()
        scheme = make(make_table2_cloud_of_clouds(clock), clock)
        TraceReplayer(seed=seed).run(scheme, workload)
        clean[name] = _scheme_metrics(scheme.registry)
    report, _ = run_fault_storm_report(seed=seed, trace=False)
    return {"clean": clean, "fault_storm": {"hyrd": _scheme_metrics(report.registry)}}


def _availability() -> dict:
    return {
        name: {"availability": avail, "nines": nines(avail)}
        for name, avail in sorted(analytic_report().items())
    }


def _codec(seed: int) -> dict:
    """One CRC32 per fragment: a changed fragment fails unless its new CRC32
    collides with the old one (2^-32)."""
    # Odd size on purpose: exercises tail-column handling and padding.
    payload = make_rng(seed, "bench-codec-facet").integers(
        0, 256, size=1 * MB + 3, dtype="uint8"
    ).tobytes()
    out: dict[str, dict] = {}
    for label, name, kwargs in CODEC_MATRIX:
        codec = get_codec(name, **kwargs)
        reference = [bytes(f) for f in codec.encode(payload)]
        if [bytes(f) for f in codec.encode_views(payload)] != reference:
            raise AssertionError(f"{label}: encode_views != encode")
        out[label] = {
            "fragment_bytes": len(reference[0]),
            "fragments_crc32": {str(i): zlib.crc32(f) for i, f in enumerate(reference)},
        }
    return out


def _replay_throughput(seed: int, ops) -> dict:
    clock = SimClock()
    scheme = HyrdScheme(list(make_table2_cloud_of_clouds(clock).values()), clock)
    collector = TraceReplayer(seed=seed).run(scheme, ops)
    samples = [r.elapsed for r in collector.reports if r.op not in ("heal", "promote")]
    return {
        "fig3_replay": {
            "trace_ops": len(ops),
            "mean_access_latency_s": float(np.mean(samples)),
            "simulated_elapsed_s": clock.now,
        }
    }


def _maintenance(seed: int) -> dict:
    summary = run_maintenance_drill(seed=seed)["summary"]
    if not (summary["read_back_ok"] and summary["decommission_evacuated"]):
        raise AssertionError(f"maintenance drill invariants failed: {summary}")
    return {"drill": {field: summary[field] for field in MAINTENANCE_FIELDS}}


def _attribution(seed: int, ops) -> dict:
    """The traced Fig. 3 replay, attributed op by op (``attribute_trace``
    raises ``CoverageError`` when an op's phases fail to tile it), and one
    scripted hedge: brown out a small file's read primary and read it."""
    clock = SimClock()
    tracer = RecordingTracer(clock)
    scheme = HyrdScheme(
        list(make_table2_cloud_of_clouds(clock).values()), clock, tracer=tracer
    )
    TraceReplayer(seed=seed).run(scheme, ops)
    report = attribute_trace(tracer.records)
    if set(report.totals()) != set(PHASES):
        raise AssertionError(f"phases {sorted(report.totals())} != {sorted(PHASES)}")

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
        raise AssertionError(f"scripted hedge run hedged {len(hedged)} times, not 1")
    (op,) = hedged
    if op.phases["hedge_wait"] <= 0.0 or not op.hedge_wasted:
        raise AssertionError("scripted hedge produced no hedge_wait/waste")
    return {
        "fig3_replay": {
            "ops_attributed": len(report.ops),
            "phase_seconds": report.totals(),
            "phase_shares": report.shares(),
        },
        "scripted_hedge": {
            "hedge_wait_s": op.phases["hedge_wait"],
            "hedge_wasted_s": sum(op.hedge_wasted.values()),
            "read_latency_s": op.duration,
        },
    }


def _read_scheduling(seed: int) -> dict:
    """Zipf-skewed reads of striped files whose two systematic fragment
    holders are saturated and browned out, with the scheduler and load
    observatory attached and without."""
    files, reads = 6, 60

    def once(schedule: bool):
        clock = SimClock()
        providers = make_table2_cloud_of_clouds(clock)
        # Promotion off: a promoted full copy would route around the
        # stripe for scheduler and static alike.
        scheme = HyrdScheme(
            list(providers.values()), clock, config=HyRDConfig(hot_file_threshold=0)
        )
        if schedule:
            scheme.attach_observatory(ProviderLoadObservatory())
            scheme.attach_scheduler(FragmentScheduler())
        rng = make_rng(seed, "bench-read-sched")
        payloads = {}
        for i in range(files):
            payloads[i] = rng.integers(0, 256, 2 * MB, dtype="uint8").tobytes()
            scheme.put(f"/s/f{i}", payloads[i])
        holders = {idx: prov for prov, idx in scheme.namespace.get("/s/f0").placements}
        horizon = clock.now + 1e9
        for idx, rtt, bw in ((0, 10.0, 0.05), (1, 2.0, 0.5)):
            providers[holders[idx]].faults = FaultProfile(
                [LatencyBrownout(clock.now, horizon, rtt_factor=rtt, bw_factor=bw)]
            ).bind(holders[idx])
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
        return reads / (clock.now - t0), scheme.registry, histogram

    scheduled, registry, histogram = once(True)
    static, _, _ = once(False)
    if scheduled <= static:
        raise AssertionError(f"scheduled {scheduled} ops/s did not beat static {static}")
    return {
        "skewed_load": {
            "reads": reads,
            "scheduled_ops_per_sim_s": scheduled,
            "static_ops_per_sim_s": static,
            "speedup": scheduled / static,
            "parity_fragments": int(registry.counter_value("sched_parity_fragments_total")),
            "rotations": int(registry.counter_value("sched_rotations_total")),
            "distinct_subsets": len(histogram),
            "subset_histogram": dict(sorted(histogram.items())),
        }
    }


def _service_plane(seed: int) -> dict:
    """Closed-loop scaling (every tenant the same 8-op stream, the metadata
    cache sized to the 512-directory working set so the series measures
    tenancy overhead, not cache thrash) and an open-loop overload: 32
    tenants at 3x capacity, 10:1 rate skew, bounded queues, ops/s quotas."""

    def factory(providers, clock):
        return HyrdScheme(
            providers, clock, config=HyRDConfig(seed=seed, metadata_cache_capacity=1024)
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
            raise AssertionError(f"closed loop at {tenants} tenants shed requests")
        rates[tenants] = report["aggregate_ops_per_s"]
    scale_ratio = rates[512] / rates[1]
    if scale_ratio < 0.8:
        raise AssertionError(f"512-tenant scale ratio {scale_ratio} is below 0.8")
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
        raise AssertionError(f"fairness index {skewed['fairness_index']} is below 0.9")
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


def _fig6(result) -> dict:
    return {
        section: dict(getattr(result, section))
        for section in ("normal", "outage", "degraded_fraction")
    }


def _render(payload: dict) -> str:
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def build(seed: int = 0) -> dict:
    """Every facet at ``seed``, as the golden file stores it."""
    trace = run_fig3(seed=seed)
    payload = {
        "seed": seed,
        "latency": _latency(seed),
        "availability": _availability(),
        "codec": _codec(seed),
        "replay_throughput": _replay_throughput(seed, trace.ops),
        "maintenance": _maintenance(seed),
        "attribution": _attribution(seed, trace.ops),
        "read_scheduling": _read_scheduling(seed),
        "service_plane": _service_plane(seed),
        "fig3_stats": [dataclasses.asdict(s) for s in trace.stats],
        "fig6": _fig6(run_fig6(seed=seed, config=FIG6_CONFIG)),
    }
    # Through JSON: exactly what ``--write`` puts on disk.
    return json.loads(_render(payload))


# -------------------------------------------------------------------- check
def _leaves(node, path: str = ""):
    """``(dotted.path, value)`` for every scalar and every empty container."""
    if isinstance(node, (dict, list)) and node:
        items = sorted(node.items()) if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield from _leaves(child, f"{path}.{key}" if path else str(key))
    else:
        yield path, node


def check(golden, rebuilt) -> None:
    """Raise naming every leaf whose ``repr`` differs or that one side lacks."""
    old, new = dict(_leaves(golden)), dict(_leaves(rebuilt))
    lines = []
    for path in sorted(old.keys() | new.keys()):
        was, now = (repr(side[path]) if path in side else "<absent>" for side in (old, new))
        if was != now:
            lines.append(f"{path}: golden {was} -> rebuilt {now}")
    if lines:
        raise AssertionError(
            f"{len(lines)} leaf/leaves differ from {GOLDEN.name}:\n" + "\n".join(lines)
        )


# -------------------------------------------------------------------- tests
# ``simulated_golden`` and ``simulated_rebuild`` (the session's one build)
# are fixtures of ``tests/conftest.py``.
def test_rebuild_equals_golden(simulated_golden, simulated_rebuild):
    check(simulated_golden, simulated_rebuild)


def test_parallel_fig6_runner_matches_golden(simulated_golden):
    result = run_fig6(
        seed=simulated_golden["seed"], config=FIG6_CONFIG, parallel=True, max_workers=2
    )
    check(simulated_golden["fig6"], json.loads(_render(_fig6(result))))


#: one leaf per facet, each moved by the smallest step its type has
PERTURBED = (
    "latency.fault_storm.hyrd.ops.get.p95",
    "availability.hyrd.nines",
    "codec.rs_k2_m2.fragments_crc32.0",
    "replay_throughput.fig3_replay.mean_access_latency_s",
    "maintenance.drill.repair_bytes",
    "attribution.scripted_hedge.hedge_wait_s",
    "read_scheduling.skewed_load.parity_fragments",
    "service_plane.skewed_overload.fairness_index",
    "fig3_stats.11.bytes_read",
    "fig6.outage.hyrd",
)


@pytest.mark.parametrize("leaf", PERTURBED, ids=lambda leaf: leaf.split(".")[0])
def test_a_one_step_change_in_any_facet_fails_naming_its_leaf(
    simulated_golden, simulated_rebuild, leaf
):
    damaged = copy.deepcopy(simulated_rebuild)
    cell = damaged
    *parents, key = leaf.split(".")
    for name in parents:
        cell = cell[int(name) if isinstance(cell, list) else name]
    was = cell[key]
    assert isinstance(was, (int, float)) and not isinstance(was, bool)
    cell[key] = was + 1 if isinstance(was, int) else math.nextafter(was, math.inf)
    with pytest.raises(AssertionError) as failure:
        check(simulated_golden, damaged)
    assert str(failure.value).splitlines()[1:] == [
        f"{leaf}: golden {was!r} -> rebuilt {cell[key]!r}"
    ]


def test_a_leaf_only_one_side_has_fails_naming_it(simulated_golden, simulated_rebuild):
    damaged = copy.deepcopy(simulated_rebuild)
    del damaged["latency"]["clean"]["racs"]["ops"]["get"]["p99"]
    damaged["fig6"]["normal"]["single"] = 0.5
    with pytest.raises(AssertionError) as failure:
        check(simulated_golden, damaged)
    was = simulated_golden["latency"]["clean"]["racs"]["ops"]["get"]["p99"]
    assert str(failure.value).splitlines()[1:] == [
        "fig6.normal.single: golden <absent> -> rebuilt 0.5",
        f"latency.clean.racs.ops.get.p99: golden {was!r} -> rebuilt <absent>",
    ]


def main(argv: list[str], path: Path = GOLDEN) -> None:
    """``--write``: rebuild every facet at seed 0 and write it to ``path``."""
    if argv != ["--write"]:
        raise SystemExit(f"usage: {sys.argv[0]} --write")
    path.write_text(_render(build()), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
