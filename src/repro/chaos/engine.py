"""Seeded chaos campaign engine: episodes, recovery driving, reports.

One *episode* is a closed world: a fresh Table II fleet, one scheme client,
and four independently seeded plans drawn from ``make_rng(seed, "chaos",
scheme, <plan>)`` —

- a **workload** plan: ~60 mixed operations (put/get/update/remove/stat)
  over a small path pool, with sizes straddling HyRD's 1 MB threshold and
  think-time gaps that let scripted faults land mid-workload;
- a **storm** plan: per-provider latency brownouts, transient-error bursts
  and flapping outages over drawn windows;
- a **partition** plan: :class:`~repro.faults.profile.OutageWindow`
  windows that cut the client off from 0–2 providers;
- a **crash** plan: 1–3 ordinals in the client's cloud-request stream at
  which the process dies (:class:`~repro.faults.crash.CrashSchedule`).

The driver keeps no shadow state of its own: it applies every operation
through a :class:`~repro.chaos.model.ReferenceModel`, which knows per path
what the client may legitimately read back.  After the workload the model
*settles* the world: advances past every fault window, drains the write
logs, runs :meth:`~repro.schemes.base.Scheme.recover`, takes a
verify/repair pass, reads everything back and evaluates the five
invariants.

Crash handling mirrors a real deployment: a replacement client takes over
the dead client's **durable local state** — the fsynced intent journal and
the spilled/retained write logs
(:meth:`~repro.schemes.base.Scheme.take_over`) — re-learns the namespace
from cloud metadata and runs recovery with the crash schedule disarmed.
Everything in-memory (hot-copy promotions, breaker state, cached keys) is
lost, exactly as it would be.

Determinism: every number in an episode derives from ``(seed, scheme)``;
reports contain no wall-clock timestamps, so the same seed yields a
byte-identical ``json.dumps(report, sort_keys=True)`` — which is what the
CI smoke job diffs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from repro.cloud.errors import CloudError
from repro.cloud.provider import TABLE2_FLEET, make_table2_cloud_of_clouds
from repro.core.resilience import ResilienceConfig
from repro.faults.crash import ClientCrash, CrashSchedule
from repro.faults.profile import (
    FaultEffect,
    FaultProfile,
    FlappingOutage,
    LatencyBrownout,
    OutageWindow,
    TransientErrorBurst,
)
from repro.fs.journal import IntentJournal
from repro.schemes import build_scheme
from repro.sim.clock import SimClock
from repro.sim.rng import make_rng

from repro.chaos.model import INVARIANTS, ReferenceModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.schemes.base import Scheme

__all__ = [
    "CHAOS_SCHEMES",
    "EpisodeResult",
    "chaos_resilience",
    "replace_client",
    "run_campaign",
    "run_episode",
]

#: every scheme the campaign exercises by default
CHAOS_SCHEMES = (
    "duracloud",
    "racs",
    "hyrd",
    "depsky",
    "depsky-ca",
    "nccloud",
    "single",
)

#: sim-seconds one episode spans before settlement
_HORIZON = 3600.0

#: object sizes straddling HyRD's 1 MB small/large threshold
_SIZES = (2_048, 65_536, 524_288, 2_097_152)
_SIZE_P = (0.35, 0.30, 0.20, 0.15)

_OP_KINDS = ("put", "get", "update", "remove", "stat")
_OP_P = (0.40, 0.30, 0.15, 0.05, 0.10)

def chaos_resilience() -> ResilienceConfig:
    """The client configuration every chaos episode runs under.

    Two deliberate deviations from the defaults: a per-operation retry
    deadline (a chaos client must not spin forever inside one op while the
    schedule waits to kill it) and a small in-memory write-log budget so
    the spill path is exercised under real fault pressure.
    """
    base = ResilienceConfig()
    return replace(
        base,
        retry=replace(base.retry, op_deadline=120.0),
        write_log_memory_limit=256 * 1024,
    )


# --------------------------------------------------------------------- plans
def _draw_storm(
    rng: np.random.Generator, horizon: float
) -> tuple[dict[str, list[FaultEffect]], dict[str, list[str]]]:
    """Per-provider degradation effects (never a full scripted partition)."""
    effects: dict[str, list[FaultEffect]] = {}
    described: dict[str, list[str]] = {}
    for name in TABLE2_FLEET:
        kind = str(rng.choice(["brownout", "burst", "flap", "none"], p=[0.25, 0.25, 0.3, 0.2]))
        if kind == "none":
            continue
        start = float(rng.uniform(0.05, 0.5)) * horizon
        end = min(start + float(rng.uniform(0.1, 0.35)) * horizon, horizon * 0.9)
        effect: FaultEffect
        if kind == "brownout":
            effect = LatencyBrownout(
                start,
                end,
                rtt_factor=float(rng.uniform(2.0, 8.0)),
                bw_factor=float(rng.uniform(0.2, 0.8)),
            )
            label = f"brownout[{start:.0f},{end:.0f}) rtt*{effect.rtt_factor:.1f}"
        elif kind == "burst":
            effect = TransientErrorBurst(start, end, rate=float(rng.uniform(0.2, 0.6)))
            label = f"burst[{start:.0f},{end:.0f}) rate={effect.rate:.2f}"
        else:
            period = float(rng.uniform(90.0, 300.0))
            effect = FlappingOutage(
                start,
                end,
                period=period,
                downtime=float(rng.uniform(0.3, 0.6)) * period,
            )
            label = f"flap[{start:.0f},{end:.0f}) period={period:.0f}s"
        effects.setdefault(name, []).append(effect)
        described.setdefault(name, []).append(label)
    return effects, described


def _draw_partitions(
    rng: np.random.Generator, horizon: float
) -> dict[str, list[tuple[float, float]]]:
    """0–2 network partition windows, each cutting off one provider."""
    windows: dict[str, list[tuple[float, float]]] = {}
    for _ in range(int(rng.integers(0, 3))):
        name = str(rng.choice(list(TABLE2_FLEET)))
        start = float(rng.uniform(0.0, 0.7)) * horizon
        end = min(start + float(rng.uniform(90.0, 600.0)), horizon * 0.95)
        if end > start:
            windows.setdefault(name, []).append((start, end))
    return windows


def _draw_crashes(rng: np.random.Generator) -> tuple[int, ...]:
    """1–3 kill ordinals in the client's cloud-request stream.

    Ordinals beyond the episode's actual request count simply never fire —
    short workloads on cheap schemes crash less, which is realistic.
    """
    count = 1 + int(rng.integers(0, 3))
    return tuple(sorted({int(rng.integers(1, 600)) for _ in range(count)}))


def replace_client(dead: "Scheme", scheme: "Scheme") -> dict:
    """``scheme`` takes over the crashed ``dead`` client and recovers.

    It adopts the durable state (:meth:`~repro.schemes.base.Scheme.take_over`),
    re-learns the namespace from cloud metadata and resolves the journal.
    While no metadata copy is reachable, or a coded group's reachable
    fragments include a damaged one (``ValueError`` until the missing
    provider returns), it waits out the weather; after 40 waits of 90 s it
    re-raises.  Returns the recovery summary.
    """
    scheme.take_over(dead)
    for attempt in range(40):
        try:
            scheme.recover_namespace()
            break
        except (CloudError, ValueError):
            if attempt == 39:
                raise
            scheme.clock.advance(90.0)
    return scheme.recover()


# -------------------------------------------------------------------- driver
@dataclass
class EpisodeResult:
    """One settled episode: the canonical report plus live handles."""

    report: dict
    scheme: "Scheme" = field(repr=False)
    journal: IntentJournal = field(repr=False)

    @property
    def ok(self) -> bool:
        return bool(self.report["ok"])

    def to_json(self) -> str:
        """Canonical byte-stable serialisation (what CI diffs)."""
        return json.dumps(self.report, sort_keys=True, separators=(",", ":"))


class _EpisodeDriver:
    """Runs one scheme through one seeded episode and judges the wreckage."""

    def __init__(self, scheme_name: str, seed: int, ops: int) -> None:
        self.scheme_name = scheme_name
        self.seed = seed
        self.n_ops = ops
        self.rng_w = make_rng(seed, "chaos", scheme_name, "workload")
        storm_rng = make_rng(seed, "chaos", scheme_name, "storm")
        part_rng = make_rng(seed, "chaos", scheme_name, "partition")
        crash_rng = make_rng(seed, "chaos", scheme_name, "crash")

        storm_effects, self.storm_desc = _draw_storm(storm_rng, _HORIZON)
        self.partitions = _draw_partitions(part_rng, _HORIZON)
        self.crash_ordinals = _draw_crashes(crash_rng)

        self.clock = SimClock()
        profiles: dict[str, FaultProfile] = {}
        self._max_effect_end = 0.0
        for name in TABLE2_FLEET:
            effects = list(storm_effects.get(name, ()))
            effects += [OutageWindow(s, e) for s, e in self.partitions.get(name, ())]
            if effects:
                self._max_effect_end = max(self._max_effect_end, *(e.end for e in effects))
                profiles[name] = FaultProfile(effects, seed=seed).bind(name)
        self.fleet = make_table2_cloud_of_clouds(self.clock, faults=profiles)
        self.resilience = chaos_resilience()
        self.scheme = self._build()
        self.journal = self.scheme.attach_journal()
        self.schedule = CrashSchedule(self.crash_ordinals)
        self.scheme.install_crash_schedule(self.schedule)

        self.pool = [f"/chaos/f{i:02d}" for i in range(12)]
        self.model = ReferenceModel()
        self.counts = {k: 0 for k in _OP_KINDS}
        self.failed = 0
        self.skipped = 0
        self.degraded_reads = 0
        self.crashes: list[int] = []
        self.recoveries: list[dict] = []

    def _build(self) -> "Scheme":
        return build_scheme(self.scheme_name, self.fleet, self.clock, resilience=self.resilience)

    # -------------------------------------------------------------- running
    def run(self) -> EpisodeResult:
        for _ in range(self.n_ops):
            kind = str(self.rng_w.choice(list(_OP_KINDS), p=list(_OP_P)))
            try:
                self._step(kind)
            except ClientCrash as crash:
                self._rebuild(crash)
            self._safe_heal()
            self.clock.advance(float(self.rng_w.uniform(5.0, 40.0)))
        return self._settle()

    def _step(self, kind: str) -> None:
        live = self.model.live()
        if kind == "put" or not live:
            path = self.pool[int(self.rng_w.integers(0, len(self.pool)))]
            size = int(self.rng_w.choice(np.array(_SIZES), p=list(_SIZE_P)))
            self._apply("put", self.model.put, path, self.rng_w.bytes(size))
            return
        path = live[int(self.rng_w.integers(0, len(live)))]
        if kind != "update":
            ops = {
                "get": self.model.get,
                "remove": self.model.remove,
                "stat": lambda scheme, path: scheme.stat(path),
            }
            self._apply(kind, ops[kind], path)
            return
        base = self.model.base_for_update(self.scheme, path)
        if base is None:
            self.skipped += 1  # content ambiguous: cannot predict the patch result
            return
        offset = int(self.rng_w.integers(0, len(base) + 1))
        patch = self.rng_w.bytes(int(self.rng_w.integers(1, 4097)))
        self._apply("update", self.model.update, path, offset, patch)

    def _apply(self, kind: str, op, path: str, *args) -> None:
        """Run one op through the model and count it: applied, failed (a
        mutation that was not acknowledged — the old state stands, stray
        fragments become orphans for recovery to sweep) or a degraded read."""
        try:
            op(self.scheme, path, *args)
        except FileNotFoundError:
            if kind in ("update", "remove") and None not in self.model.allowed(path):
                self.failed += 1
        except CloudError:
            if kind == "get":
                self.degraded_reads += 1
            elif kind != "stat":
                self.failed += 1
        else:
            self.counts[kind] += 1

    def _safe_heal(self) -> None:
        try:
            self.scheme.heal_returned()
        except ClientCrash as crash:
            self._rebuild(crash)

    # ------------------------------------------------------------- recovery
    def _rebuild(self, crash: ClientCrash) -> None:
        """Replace the dead client, hand over durable state, recover."""
        self.crashes.append(crash.at_op)
        dead, self.scheme = self.scheme, self._build()
        summary = replace_client(dead, self.scheme)
        self.recoveries.append(
            {
                "at_op": crash.at_op,
                "rolled_forward": len(summary["rolled_forward"]),
                "rolled_back": len(summary["rolled_back"]),
                "removals_completed": len(summary["removals_completed"]),
                "orphans_removed": {
                    k: int(v) for k, v in sorted(summary["orphans_removed"].items())
                },
            }
        )
        self.model.recovered(summary)
        self.scheme.install_crash_schedule(self.schedule)

    # ----------------------------------------------------------- settlement
    def _settle(self) -> EpisodeResult:
        recovery, results = self.model.settle(
            self.scheme, self.journal, max(self.clock.now, self._max_effect_end + 61.0)
        )
        self._publish_metrics(results)
        report = self._report(recovery, results)
        return EpisodeResult(report=report, scheme=self.scheme, journal=self.journal)

    def _publish_metrics(self, results: dict[str, list[dict]]) -> None:
        registry = self.scheme.registry
        registry.counter("chaos_crashes_total").inc(len(self.crashes))
        for name in TABLE2_FLEET:
            registry.counter("partition_windows_total", provider=name).inc(
                len(self.partitions.get(name, ()))
            )
        for invariant in INVARIANTS:
            registry.counter(
                "chaos_invariant_violations_total", invariant=invariant
            ).inc(len(results[invariant]))
        for name in self.scheme._write_logs:
            self.scheme._publish_write_log(name)

    def _report(self, recovery: dict, results: dict[str, list[dict]]) -> dict:
        ok = all(not v for v in results.values())
        return {
            "schema": "chaos-episode/v1",
            "scheme": self.scheme_name,
            "seed": self.seed,
            "horizon_s": _HORIZON,
            "workload": {
                "ops": self.n_ops,
                "applied": dict(sorted(self.counts.items())),
                "failed": self.failed,
                "skipped": self.skipped,
                "degraded_reads": self.degraded_reads,
            },
            "faults": {
                "storm": {k: v for k, v in sorted(self.storm_desc.items())},
                "partitions": {
                    name: [[round(s, 3), round(e, 3)] for s, e in windows]
                    for name, windows in sorted(self.partitions.items())
                },
            },
            "crashes": {
                "scheduled": list(self.crash_ordinals),
                "fired": self.crashes,
                "recoveries": self.recoveries,
            },
            "settlement": {
                "rolled_forward": len(recovery["rolled_forward"]),
                "rolled_back": len(recovery["rolled_back"]),
                "orphans_removed": {
                    k: int(v) for k, v in sorted(recovery["orphans_removed"].items())
                },
                "journal_pending": len(self.journal),
            },
            "invariants": {
                name: {"ok": not results[name], "violations": results[name]}
                for name in INVARIANTS
            },
            "ok": ok,
        }


# ----------------------------------------------------------------- frontend
def run_episode(scheme: str, seed: int, ops: int = 60) -> EpisodeResult:
    """Run one seeded chaos episode against ``scheme`` and judge it."""
    return _EpisodeDriver(scheme, seed, ops).run()


def run_campaign(
    schemes: tuple[str, ...] | list[str] | None = None,
    episodes: int = 8,
    base_seed: int = 2026,
    ops: int = 60,
    check_determinism: bool = False,
) -> dict:
    """Run ``episodes`` seeded episodes per scheme; returns the campaign report.

    With ``check_determinism`` every scheme's first episode is re-run and
    its canonical JSON compared byte for byte — any drift is reported as a
    first-class failure, same as an invariant violation.
    """
    names = tuple(schemes) if schemes else CHAOS_SCHEMES
    for name in names:
        if name not in CHAOS_SCHEMES:
            raise ValueError(f"unknown chaos scheme {name!r}; choose from {CHAOS_SCHEMES}")
    episode_reports: list[dict] = []
    drift: list[dict] = []
    violations = 0
    crashes = 0
    for name in names:
        for i in range(episodes):
            seed = base_seed + 1000 * i
            result = run_episode(name, seed, ops=ops)
            episode_reports.append(result.report)
            crashes += len(result.report["crashes"]["fired"])
            violations += sum(
                len(result.report["invariants"][inv_name]["violations"])
                for inv_name in INVARIANTS
            )
            if check_determinism and i == 0:
                rerun = run_episode(name, seed, ops=ops)
                if rerun.to_json() != result.to_json():
                    drift.append({"scheme": name, "seed": seed})
    report = {
        "schema": "chaos-campaign/v1",
        "schemes": list(names),
        "episodes_per_scheme": episodes,
        "base_seed": base_seed,
        "episodes": episode_reports,
        "determinism_drift": drift,
        "totals": {
            "episodes": len(episode_reports),
            "crashes": crashes,
            "violations": violations,
        },
        "ok": violations == 0 and not drift,
    }
    return report
