"""The five perfbench workloads: seeded inputs, one trial in a fresh world.

Every workload is two functions.  ``build(seed, scale)`` makes the inputs
from the seed — the program is handed only these.  ``trial(inputs, traced)``
constructs a fresh world (clock, Table II fleet, scheme), runs the inputs
through the program's public entry points, checks the outputs and returns a
:class:`Trial` carrying both clocks: host seconds measured here with
``perf_counter`` and simulated seconds read from the seeded simulation.

Sizes are drawn with :class:`StratifiedSizes` (one size per
equal-probability stratum) so a workload's byte total barely depends on the
seed; otherwise the sampling noise of a few hundred heavy-tailed sizes
(about 20 % between seeds on the IA trace) would swamp every host metric.
"""

from __future__ import annotations

import gc
import hashlib
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.cloud.outage import OutageWindow
from repro.cloud.provider import make_table2_cloud_of_clouds
from repro.core.config import HyRDConfig
from repro.obs import RecordingTracer, attribute_trace
from repro.schemes import HyrdScheme, NCCloudScheme
from repro.service import ServicePlane, run_service_drill
from repro.sim.clock import SimClock
from repro.sim.rng import make_rng
from repro.workloads import (
    IATraceConfig,
    PostMarkConfig,
    TraceReplayer,
    generate_postmark,
    synthesize_ia_trace,
)
from repro.workloads.filesizes import FileSizeDistribution

KB = 1024
MB = 1024 * 1024

#: the top-level Scheme ops a client issues; each is timed as one host sample
SCHEME_OPS = ("put", "get", "update", "remove", "stat", "listdir")
#: reports that are not foreground client ops (excluded from sim latency)
BACKGROUND_OPS = ("heal", "promote")
#: the media mix of ``MediaLibraryFileSizes(scale=0.125)`` (Fig. 3 content),
#: restated as (lo, hi, weight) bands; ``test_perfbench`` checks it against
#: the program's own table
MEDIA_BANDS = (
    (128, 8 * KB, 0.35),
    (8 * KB, 128 * KB, 0.20),
    (128 * KB, 2 * MB, 0.30),
    (2 * MB, 16 * MB, 0.15),
)
#: how long the outage window is held open, in simulated seconds; the clock
#: is advanced to its end and the jump is left out of ``sim_ops_per_s``
OUTAGE_HOLD_S = 6 * 3600.0
#: open-loop arrival rate: 1.5x the 37.3 ops/sim s the 4-frontend plane
#: served when this benchmark was defined
OVERLOAD_ARRIVALS_PER_SIM_S = 56.0


class StratifiedSizes(FileSizeDistribution):
    """A log-uniform band mixture drawn one size per equal-probability stratum.

    ``sample(rng, n)`` has the marginal law of the program's band mixtures,
    but the n draws cover the n quantile strata exactly once (in seeded
    random order, jittered inside each stratum), so the batch total is
    nearly seed-independent.  Single draws are served from a stratified
    block of ``block`` sizes for the same reason.
    """

    def __init__(self, bands, block: int = 64) -> None:
        self._lo = np.log([b[0] for b in bands])
        self._hi = np.log([b[1] for b in bands])
        weights = np.array([b[2] for b in bands], dtype=float)
        self._weights = weights / weights.sum()
        self._cum = np.concatenate(([0.0], np.cumsum(self._weights)))
        self._block = block
        self._pending: list[int] = []

    def _stratified(self, rng: np.random.Generator, n: int) -> np.ndarray:
        u = (rng.permutation(n) + rng.random(n)) / n
        band = np.minimum(np.searchsorted(self._cum, u, side="right") - 1, len(self._lo) - 1)
        frac = (u - self._cum[band]) / self._weights[band]
        sizes = np.exp(self._lo[band] + frac * (self._hi[band] - self._lo[band]))
        return sizes.astype(np.int64).clip(1)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if n != 1:
            return self._stratified(rng, n)
        if not self._pending:
            self._pending = self._stratified(rng, self._block).tolist()
        return np.array([self._pending.pop()], dtype=np.int64)


class ProportionalRng:
    """The seeded Generator, except that a weighted ``choice`` returns every
    category in its exact proportion (in seeded random order).

    PostMark draws each transaction's kind with one weighted ``choice``; with
    a few hundred transactions the count of the expensive kinds (updates,
    puts) otherwise moves 10-20 % between seeds and host time with it.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng

    def choice(self, n: int, size: int, p) -> np.ndarray:
        exact = np.asarray(p, dtype=float) * size
        counts = np.floor(exact).astype(int)
        for i in np.argsort(counts - exact)[: size - counts.sum()]:  # largest remainders
            counts[i] += 1
        draws = np.repeat(np.arange(n), counts)
        self._rng.shuffle(draws)
        return draws

    def __getattr__(self, name: str):
        return getattr(self._rng, name)


@dataclass
class Trial:
    """What one trial measured, on both clocks."""

    ops: int  # workload ops attempted
    failed: int  # raised, failed verification, or were left unissued
    refused: int  # shed by admission control
    user_bytes: int  # payload bytes put + got + patched
    host_s: float  # host seconds of the timed region
    windows: list[tuple[float, float]]  # the timed region as perf_counter intervals
    world_s: float  # host seconds building the fresh world (set-up, untimed)
    op_host_s: list[float]  # host seconds of each top-level Scheme op
    sim: dict[str, float]  # the exact metrics, by end-to-end metric name
    fingerprint: str  # SHA-256 over the ordered (op, elapsed, providers) list
    facts: dict = field(default_factory=dict)  # check inputs and layer facts


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int, float], dict]
    trial: Callable[[dict, bool], Trial]
    check: Callable[[Trial], list[str]]


class OpMeter:
    """Times each top-level Scheme op from outside and counts its user bytes.

    Wraps the six public op methods on one scheme *instance*: one
    ``perf_counter`` pair per op, nothing inside the scheme changes.
    """

    def __init__(self) -> None:
        self.host_s: list[float] = []
        self.user_bytes = 0

    def attach(self, scheme) -> None:
        for kind in SCHEME_OPS:
            setattr(scheme, kind, self._timed(getattr(scheme, kind), kind))

    def _timed(self, fn, kind: str):
        samples = self.host_s
        clock = time.perf_counter

        def op(*args):
            t0 = clock()
            out = fn(*args)
            samples.append(clock() - t0)
            if kind == "get":
                self.user_bytes += len(out[0])
            elif kind == "put":
                self.user_bytes += len(args[1])
            elif kind == "update":
                self.user_bytes += len(args[2])
            return out

        return op


def percentile_nearest_rank(sorted_values, q: float) -> float:
    """The q-th percentile by nearest rank (exact, no interpolation)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return float(sorted_values[rank - 1])


def _fingerprint(reports) -> str:
    h = hashlib.sha256()
    for r in reports:
        h.update(repr((r.op, r.elapsed, r.providers)).encode())
    return h.hexdigest()


def _sim_metrics(
    latencies, completed, attempted, bad, sim_elapsed, wire, requests, user_bytes, stored, logical
) -> dict[str, float]:
    lat = sorted(latencies)
    return {
        "sim_mean_latency_s": math.fsum(lat) / len(lat) if lat else 0.0,
        "sim_p95_latency_s": percentile_nearest_rank(lat, 95),
        "sim_ops_per_s": completed / sim_elapsed if sim_elapsed > 0 else 0.0,
        "sim_wire_bytes_per_user_byte": wire / user_bytes if user_bytes else 0.0,
        "sim_cloud_requests_per_op": requests / completed if completed else 0.0,
        "stored_bytes_per_user_byte": stored / logical if logical else 0.0,
        "ok_op_share": 1.0 - bad / attempted if attempted else 0.0,
    }


def _add_phase_totals(totals: dict[str, float], scheme) -> None:
    """Add a traced scheme's simulated seconds per attribution phase."""
    for phase, seconds in attribute_trace(scheme.tracer.records).totals().items():
        totals[phase] = totals.get(phase, 0.0) + seconds


def _codec_bytes(scheme) -> int:
    registry = scheme.registry
    return sum(registry.counters("codec_encode_bytes_total").values()) + sum(
        registry.counters("codec_decode_bytes_total").values()
    )


# ------------------------------------------------------------ replay workloads
def _hyrd(providers, clock, tracer):
    return HyrdScheme(providers, clock, tracer=tracer)


def _hyrd_rs(providers, clock, tracer):
    return HyrdScheme(providers, clock, config=HyRDConfig(erasure_codec="rs"), tracer=tracer)


def _nccloud(providers, clock, tracer):
    return NCCloudScheme(providers, clock, tracer=tracer)


def _replay_trial(inputs: dict, traced: bool) -> Trial:
    """Replay the ops through each scheme in turn, each in a fresh world.

    ``inputs["outage"]`` names the provider that is out over the middle
    third of the ops; it returns for the final third, which is replayed
    with ``heal_between=True``.
    """
    ops = inputs["ops"]
    seed = inputs["seed"]
    outage = inputs.get("outage")
    third = len(ops) // 3
    meter = OpMeter()
    latencies: list[float] = []
    reports_all = []
    facts: dict = {"scheme_host_s": {}, "scheme_ops": {}, "degraded_share": {}, "heals": {},
                   "codec_bytes": 0}
    if traced:
        facts["phase_sim_s"] = {}
    windows = []
    host_s = world_s = sim_elapsed = 0.0
    wire = requests = stored = logical = 0
    for label, factory in inputs["schemes"]:
        t0 = time.perf_counter()
        clock = SimClock()
        providers = make_table2_cloud_of_clouds(clock)
        tracer = RecordingTracer(clock) if traced else None
        scheme = factory(list(providers.values()), clock, tracer)
        replayer = TraceReplayer(seed=seed, verify=True)
        meter.attach(scheme)
        world_s += time.perf_counter() - t0

        idle = 0.0
        done_before = len(meter.host_s)
        t0 = time.perf_counter()
        try:
            if outage is None:
                replayer.run(scheme, ops)
            else:
                replayer.run(scheme, ops[:third])
                window = OutageWindow(clock.now, clock.now + OUTAGE_HOLD_S)
                providers[outage].outages.add(window)
                during = replayer.run(scheme, ops[third : 2 * third])
                idle = max(0.0, window.end - clock.now)
                clock.advance_to(max(clock.now, window.end))
                replayer.run(scheme, ops[2 * third :], heal_between=True)
                gets = [r for r in during.reports if r.op == "get"]
                facts["degraded_share"][label] = (
                    sum(r.degraded for r in gets) / len(gets) if gets else 0.0
                )
        except Exception as exc:  # a failed or mis-verified op ends this replay
            facts.setdefault("errors", []).append(f"{label}: {exc!r}")
        dt = time.perf_counter() - t0
        windows.append((t0, t0 + dt))
        host_s += dt
        facts["scheme_host_s"][label] = dt
        facts["scheme_ops"][label] = len(meter.host_s) - done_before

        reports = scheme.collector.reports
        reports_all.extend(reports)
        latencies.extend(r.elapsed for r in reports if r.op not in BACKGROUND_OPS)
        facts["heals"][label] = sum(1 for r in reports if r.op == "heal")
        facts["codec_bytes"] += _codec_bytes(scheme)
        sim_elapsed += clock.now - idle
        wire += sum(scheme.collector.total_bytes())
        requests += scheme.collector.total_cloud_ops()
        stored += scheme.total_stored_bytes()
        logical += scheme.namespace.total_bytes()
        if traced:
            _add_phase_totals(facts["phase_sim_s"], scheme)
        # This world is garbage now, and full of reference cycles; collect it
        # so the next scheme does not page-fault its way through fresh memory
        # while these payloads are still mapped.
        del scheme, providers, replayer
        gc.collect()

    attempted = len(ops) * len(inputs["schemes"])
    completed = len(meter.host_s)
    failed = attempted - completed
    return Trial(
        ops=attempted,
        failed=failed,
        refused=0,
        user_bytes=meter.user_bytes,
        host_s=host_s,
        windows=windows,
        world_s=world_s,
        op_host_s=meter.host_s,
        sim=_sim_metrics(
            latencies, completed, attempted, failed, sim_elapsed,
            wire, requests, meter.user_bytes, stored, logical,
        ),
        fingerprint=_fingerprint(reports_all),
        facts=facts,
    )


def _count(base: int, scale: float, floor: int = 1) -> int:
    return max(floor, int(round(base * scale)))


def _build_ia_replay(seed: int, scale: float) -> dict:
    params = {
        "months": 12,
        "writes_per_month": _count(40, scale, 2),
        "sizes": "MediaLibraryFileSizes(scale=0.125), stratified",
        "scheme": "HyrdScheme defaults, Table II fleet, verified reads",
    }
    config = IATraceConfig(
        months=params["months"],
        writes_per_month=params["writes_per_month"],
        sizes=StratifiedSizes(MEDIA_BANDS),
    )
    trace = synthesize_ia_trace(config, make_rng(seed, "perfbench", "ia_replay"))
    return {"seed": seed, "params": params, "ops": trace.ops, "schemes": [("hyrd", _hyrd)]}


def _build_postmark_meta(seed: int, scale: float) -> dict:
    params = {
        "file_pool": _count(500, scale, 20),
        "transactions": _count(5000, scale, 40),
        "size_lo": 1 * KB,
        "size_hi": 256 * KB,
        "subdirectories": 20,
        "op_mix": "default: get 38 / stat 22 / update 14 / put 12 / list 8 / remove 6",
        "scheme": "HyrdScheme defaults",
    }
    config = PostMarkConfig(
        file_pool=params["file_pool"],
        transactions=params["transactions"],
        size_lo=params["size_lo"],
        size_hi=params["size_hi"],
        subdirectories=params["subdirectories"],
        sizes=StratifiedSizes([(params["size_lo"], params["size_hi"], 1.0)]),
    )
    ops = generate_postmark(config, ProportionalRng(make_rng(seed, "perfbench", "postmark_meta")))
    return {"seed": seed, "params": params, "ops": ops, "schemes": [("hyrd", _hyrd)]}


def _build_outage_coded(seed: int, scale: float) -> dict:
    params = {
        "file_pool": _count(24, scale, 6),
        "transactions": _count(160, scale, 20),
        "size_lo": 1 * MB,
        "size_hi": 2 * MB,
        "op_mix": "get 35 / update 30 / put 25 / remove 10",
        "schemes": "HyrdScheme (raid5), HyrdScheme(erasure_codec='rs'), NCCloudScheme (fmsr)",
        "outage": "aliyun out over the middle third, heal_between on the final third",
    }
    config = PostMarkConfig(
        file_pool=params["file_pool"],
        transactions=params["transactions"],
        size_lo=params["size_lo"],
        size_hi=params["size_hi"],
        sizes=StratifiedSizes([(params["size_lo"], params["size_hi"], 1.0)], block=16),
        op_mix=(("get", 0.35), ("update", 0.30), ("put", 0.25), ("remove", 0.10)),
    )
    ops = generate_postmark(config, ProportionalRng(make_rng(seed, "perfbench", "outage_coded")))
    return {
        "seed": seed,
        "params": params,
        "ops": ops,
        "outage": "aliyun",
        "schemes": [("hyrd", _hyrd), ("hyrd_rs", _hyrd_rs), ("nccloud", _nccloud)],
    }


def _check_replay(trial: Trial) -> list[str]:
    problems = list(trial.facts.get("errors", []))
    if trial.failed:
        problems.append(f"{trial.failed} of {trial.ops} ops failed or were left unissued")
    return problems


def _check_postmark_meta(trial: Trial) -> list[str]:
    problems = _check_replay(trial)
    if trial.facts["codec_bytes"]:
        problems.append(
            f"codec ran over {trial.facts['codec_bytes']} bytes; every file must be replicated"
        )
    return problems


def _check_outage_coded(trial: Trial) -> list[str]:
    problems = _check_replay(trial)
    for label, share in trial.facts["degraded_share"].items():
        if share < 0.5:
            problems.append(f"{label}: only {share:.2f} of middle-third reads were degraded")
    for label, heals in trial.facts["heals"].items():
        if heals < 1:
            problems.append(f"{label}: no heal ran after the provider returned")
    return problems


# ----------------------------------------------------------- service workloads
@contextmanager
def _record_sojourns():
    """Collect submission→completion simulated seconds of every dispatched
    request, through the plane's own completion hook."""
    sojourns: list[float] = []
    original = ServicePlane.notify_complete

    def notify_complete(self, request):
        sojourns.append(self.clock.now - request.submitted_at)
        original(self, request)

    ServicePlane.notify_complete = notify_complete
    try:
        yield sojourns
    finally:
        ServicePlane.notify_complete = original


def _service_trial(inputs: dict, traced: bool) -> Trial:
    seed = inputs["seed"]
    drill = inputs["drill"]
    meter = OpMeter()
    parts: dict = {}

    def factory(providers, clock):
        tracer = RecordingTracer(clock) if traced else None
        scheme = HyrdScheme(providers, clock, config=HyRDConfig(seed=seed), tracer=tracer)
        meter.attach(scheme)
        return scheme

    with _record_sojourns() as sojourns:
        t0 = time.perf_counter()
        report = run_service_drill(seed=seed, scheme_factory=factory, parts=parts, **drill)
        host_s = time.perf_counter() - t0

    scheme = parts["scheme"]
    submitted = report["submitted_total"]
    if drill["mode"] == "closed":
        attempted = drill["tenants"] * drill["ops_per_tenant"]
    else:
        attempted = submitted
    failed = report["frontend_failures"] + (attempted - submitted)
    refused = report["shed_total"]
    completed = report["admitted_total"] - report["frontend_failures"]
    ordered = sorted(sojourns)
    facts = {
        "frontend_failures": report["frontend_failures"],
        "drr_rounds": report["drr_rounds"],
        "fairness_index": report["fairness_index"],
        "shed_share": report["shed_fraction"],
        "sojourn_p50_sim_s": percentile_nearest_rank(ordered, 50),
        "sojourn_p95_sim_s": percentile_nearest_rank(ordered, 95),
        "generator_lateness_sim_s": 0.0,  # arrivals are events in simulated time
        "scheme_host_s": {"hyrd": host_s},
        "scheme_ops": {"hyrd": submitted},
        "codec_bytes": _codec_bytes(scheme),
    }
    if traced:
        facts["phase_sim_s"] = {}
        _add_phase_totals(facts["phase_sim_s"], scheme)
    return Trial(
        ops=attempted,
        failed=failed,
        refused=refused,
        user_bytes=meter.user_bytes,
        host_s=host_s,
        windows=[(t0, t0 + host_s)],
        world_s=0.0,  # the drill builds its world itself, inside the timed call
        op_host_s=meter.host_s,
        sim=_sim_metrics(
            sojourns, completed, attempted, failed + refused, report["sim_elapsed"],
            sum(scheme.collector.total_bytes()), scheme.collector.total_cloud_ops(),
            meter.user_bytes, scheme.total_stored_bytes(), scheme.namespace.total_bytes(),
        ),
        fingerprint=_fingerprint(scheme.collector.reports),
        facts=facts,
    )


def _build_service_closed(seed: int, scale: float) -> dict:
    drill = {
        "mode": "closed",
        "tenants": _count(512, scale, 8),
        "frontends": 4,
        "ops_per_tenant": 12,
        "payload_bytes": 16 * KB,
    }
    params = dict(drill, metadata_cache="default 256 directories, below the tenant count")
    return {"seed": seed, "params": params, "drill": drill}


def _build_service_overload(seed: int, scale: float) -> dict:
    """Open loop at a *fixed* arrival rate.

    The drill derives its rate as ``offered_load`` x a capacity it calibrates
    from one read, and that single sample moves 30-43 ops/sim s with the seed
    while the plane's real service rate stays at 37.3.  A throw-away drill
    reads the calibration for this seed, and ``offered_load`` is set so the
    product is always ``OVERLOAD_ARRIVALS_PER_SIM_S`` — the same arrivals on
    every commit, whatever the program measures its capacity to be.
    """
    shape = {"mode": "open", "tenants": 64, "frontends": 4, "skew": 10.0, "queue_limit": 16,
             "payload_bytes": 16 * KB}
    calibrated = run_service_drill(seed=seed, offered_load=1.0, horizon=1e-3, **shape)
    drill = dict(
        shape,
        offered_load=OVERLOAD_ARRIVALS_PER_SIM_S / calibrated["capacity_ops_per_s"],
        horizon=max(40.0, 400.0 * scale),
    )
    params = dict(
        drill,
        arrivals_per_sim_s=OVERLOAD_ARRIVALS_PER_SIM_S,
        loop="open: arrivals are events in simulated time, so generator lateness is 0",
    )
    return {"seed": seed, "params": params, "drill": drill}


def _check_service(trial: Trial) -> list[str]:
    problems = []
    if trial.facts["frontend_failures"]:
        problems.append(f"{trial.facts['frontend_failures']} requests failed in a frontend")
    if trial.failed:
        problems.append(f"{trial.failed} of {trial.ops} requests failed or were left unissued")
    return problems


def _check_service_closed(trial: Trial) -> list[str]:
    problems = _check_service(trial)
    if trial.refused:
        problems.append(f"{trial.refused} requests were shed in a closed loop")
    return problems


def _check_service_overload(trial: Trial) -> list[str]:
    problems = _check_service(trial)
    if trial.facts["drr_rounds"] <= 0:
        problems.append("admission never completed a deficit-round-robin round")
    if not trial.refused:
        problems.append("nothing was shed at 1.5x offered load")
    return problems


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "ia_replay",
            "byte-bound Fig. 3 IA trace on HyRD: payload synthesis, RAID5 encode, striping "
            "and the digest pool do the work; per-op overhead is a rounding error",
            _build_ia_replay, _replay_trial, _check_replay,
        ),
        Workload(
            "postmark_meta",
            "op-bound PostMark of small replicated files: metadata JSON, the phase executor, "
            "the metrics registry and the bandwidth model do the work; the codec never runs",
            _build_postmark_meta, _replay_trial, _check_postmark_meta,
        ),
        Workload(
            "outage_coded",
            "outage and recovery on coded data through RAID5, RS and FMSR: degraded reads do "
            "real GF/XOR arithmetic, writes are logged and replayed when the provider returns",
            _build_outage_coded, _replay_trial, _check_outage_coded,
        ),
        Workload(
            "service_closed",
            "closed loop of 512 tenants over 4 frontends with a working set above the metadata "
            "cache: event loop, frontends, quotas and metadata-cache misses do the work",
            _build_service_closed, _service_trial, _check_service_closed,
        ),
        Workload(
            "service_overload",
            "open loop at 1.5x capacity with 10:1 tenant skew and bounded queues: admission "
            "control, deficit round-robin and shedding do the work",
            _build_service_overload, _service_trial, _check_service_overload,
        ),
    )
}
