"""End-to-end maintenance drill: inject, scrub, repair, migrate, verify.

One deterministic scenario shared by the ``repro maintain`` CLI verb, the
maintenance benchmarks and the ``maintenance`` facet of
``tests/data/simulated_golden.json``:

1. A HyRD client over the Table II cloud-of-clouds writes a mixed namespace
   (replicated small files, RAID5-striped large files).
2. Persistent damage — flipped bytes, truncations, lost objects — is
   injected at one placement per victim path, recorded in a ground-truth
   :class:`~repro.faults.ledger.CorruptionLedger`.  One placement per path
   keeps every object reconstructible, so this is exactly the damage the
   scrubber must catch *before* redundancy erodes further.
3. Foreground reads run with the maintenance plane ticking in the gaps;
   the plane scrubs, queues repairs by remaining fault margin, and drains
   them under the byte budget.
4. One provider is decommissioned; the live migration engine evacuates it
   incrementally.
5. A final full scrub pass verifies the namespace is damage-free and every
   byte reads back intact.

``maintenance=False`` runs the identical foreground schedule with no plane
attached — the baseline for the "background work must not hurt foreground
p95" acceptance check.
"""

from __future__ import annotations

import numpy as np

from repro.cloud.provider import make_table2_cloud_of_clouds
from repro.core.hyrd import HyRDClient
from repro.faults.ledger import CorruptionLedger, inject_bit_rot, inject_loss
from repro.sim.clock import SimClock
from repro.sim.rng import make_rng

from repro.maintenance.plane import MaintenanceConfig, MaintenancePlane
from repro.maintenance.repair import REPAIR_TIME_BOUNDS

__all__ = ["run_maintenance_drill"]

KB = 1024
MB = 1024 * 1024

#: damage shape cycle: digest-detectable rot, truncation, silent loss
_DAMAGE_KINDS = ("corrupt", "truncate", "lose")


def _percentile(samples: list[float], q: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    idx = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[idx]


def run_maintenance_drill(
    seed: int = 0,
    *,
    maintenance: bool = True,
    files: int = 18,
    damage_every: int = 2,
    read_rounds: int = 3,
    scrub_interval: float = 300.0,
    repair_rate_bytes_per_s: float | None = 4 * MB,
    repair_burst_bytes: float = 8 * MB,
    decommission_provider: str = "rackspace",
    max_idle_cycles: int = 60,
) -> dict:
    """Run the drill; returns a summary dict plus the live objects.

    The summary's numeric fields are pure functions of ``seed`` and the
    parameters (simulated time only — no wall clock), so they can gate
    drift in bench telemetry.
    """
    clock = SimClock()
    providers = make_table2_cloud_of_clouds(clock)
    scheme = HyRDClient(list(providers.values()), clock)
    rng = make_rng(seed, "maintenance-drill")

    contents: dict[str, bytes] = {}
    for i in range(files):
        path = f"/drill/f{i:02d}"
        if i % 3 == 0:  # above the 1 MB threshold: RAID5-striped
            size = int(rng.integers(2 * MB, 4 * MB))
        else:  # replicated small file
            size = int(rng.integers(4 * KB, 64 * KB))
        data = rng.integers(0, 256, size, dtype=np.uint8).tobytes()
        contents[path] = data
        scheme.put(path, data)

    # ---- inject persistent damage: one placement per victim path ----------
    ledger = CorruptionLedger()
    victims = scheme.namespace.paths()[::damage_every]
    for i, path in enumerate(victims):
        entry = scheme.namespace.get(path)
        pick = int(rng.integers(0, len(entry.placements)))
        prov_name, idx = entry.placements[pick]
        key = scheme._placement_storage_key(entry, idx)
        provider = providers[prov_name]
        kind = _DAMAGE_KINDS[i % len(_DAMAGE_KINDS)]
        if kind == "lose":
            inject_loss(provider, scheme.container, [key], ledger=ledger, now=clock.now)
        else:
            inject_bit_rot(
                provider,
                scheme.container,
                [key],
                seed=seed + i,
                ledger=ledger,
                now=clock.now,
                truncate=(kind == "truncate"),
            )

    plane: MaintenancePlane | None = None
    if maintenance:
        config = MaintenanceConfig(
            scrub_interval=scrub_interval,
            repair_rate_bytes_per_s=repair_rate_bytes_per_s,
            repair_burst_bytes=repair_burst_bytes,
            migration_keys_per_cycle=6,
        )
        plane = scheme.attach_maintenance(config, ledger=ledger)

    # ---- foreground reads with maintenance ticking in the idle gaps -------
    latencies: list[float] = []
    for _round in range(read_rounds):
        for path, expected in contents.items():
            t0 = clock.now
            got, _report = scheme.get(path)
            latencies.append(clock.now - t0)
            # Redundancy + digest verification must mask injected damage.
            if got != expected:
                raise AssertionError(f"foreground read of {path} returned wrong bytes")
            if plane is not None:
                plane.pump()
        if plane is not None:
            plane.run_idle(clock.now + scrub_interval)
        else:
            clock.advance_to(clock.now + scrub_interval)

    # ---- drain repairs under the budget -----------------------------------
    if plane is not None:
        for _ in range(max_idle_cycles):
            if len(plane.repair) == 0:
                break
            plane.run_idle(clock.now + scrub_interval)

        # ---- live decommission: evacuate one provider incrementally -------
        scheme.decommission(decommission_provider)
        for _ in range(max_idle_cycles):
            if len(plane.migration) == 0:
                break
            plane.run_idle(clock.now + scrub_interval)

    # ---- verify ------------------------------------------------------------
    residual_findings = 0
    detection = {"injected": len(ledger.sites()), "detected": 0, "rate": 0.0, "missed": []}
    evacuated = True
    if plane is not None:
        detection = plane.detection_score()
        final_audits = plane.scrubber.full_pass()
        residual_findings = sum(len(a.findings) for a in final_audits)
        evacuated = scheme.placements_on(decommission_provider) == []
    read_back_ok = all(scheme.get(path)[0] == data for path, data in contents.items())

    registry = scheme.registry
    mttr_mean = 0.0
    if maintenance and registry.counter_value("repair_completed_total"):
        mttr_mean = registry.histogram(
            "repair_time_seconds", bounds=REPAIR_TIME_BOUNDS
        ).mean

    summary = {
        "seed": seed,
        "files": files,
        "bytes_stored": sum(len(d) for d in contents.values()),
        "maintenance": maintenance,
        "injected": detection["injected"] if maintenance else len(ledger.sites()),
        "detected": detection["detected"],
        "detection_rate": detection["rate"],
        "scrub_cycles": registry.counter_value("scrub_cycles_total"),
        "scrub_bytes_verified": registry.counter_value("scrub_bytes_verified_total"),
        "repairs_completed": registry.counter_value("repair_completed_total"),
        "repair_bytes": registry.counter_value("repair_bytes_total"),
        "repair_throttled": registry.counter_value("repair_budget_throttled_total"),
        "mttr_mean_s": round(mttr_mean, 6),
        "migrations_completed": registry.counter_value("migration_completed_total"),
        "migration_bytes": registry.counter_value("migration_bytes_total"),
        "residual_findings": residual_findings,
        "decommission_evacuated": evacuated,
        "read_back_ok": read_back_ok,
        "foreground_p95_s": round(_percentile(latencies, 0.95), 6),
        "foreground_mean_s": round(sum(latencies) / len(latencies), 6),
        "sim_time_s": round(clock.now, 3),
    }
    return {"summary": summary, "scheme": scheme, "plane": plane, "ledger": ledger}
