"""A deterministic crash-recovery drill: one crash each way, one spill.

The chaos engine explores crash points randomly; this drill pins down the
three canonical recovery outcomes in one scripted, seed-stable scenario so
docs, tests and the metrics fixture have a guaranteed specimen of each:

- **roll-back**: the client dies so early in a scatter that fewer than
  ``k`` fragments landed — recovery restores the previous version and the
  stray fragments are swept as orphans;
- **roll-forward**: the client dies after enough fragments landed —
  recovery republishes the write it could have acknowledged;
- **write-log spill**: a put during a network partition retains the
  missed fragment in the provider's write log, whose in-memory budget of
  zero forces an immediate spill; healing after the partition drains it.

Rather than hard-coding the cloud-request ordinal at which each outcome
occurs (which would silently break when the engine's op order changes),
the drill *searches* ascending crash ordinals until it has seen one
roll-back with orphans and one roll-forward — a few milliseconds of
simulated worlds, and self-correcting by construction.
"""

from __future__ import annotations

from dataclasses import replace

from repro.chaos.engine import replace_client
from repro.cloud.provider import make_table2_cloud_of_clouds
from repro.core.resilience import ResilienceConfig
from repro.faults.crash import ClientCrash, CrashSchedule
from repro.faults.profile import FaultProfile, OutageWindow
from repro.schemes import RacsScheme
from repro.sim.clock import SimClock
from repro.sim.rng import make_rng

__all__ = ["run_crash_drill"]


def _drill_resilience() -> ResilienceConfig:
    base = ResilienceConfig()
    return replace(base, write_log_memory_limit=0)  # spill every retained payload


def _crash_trial(seed: int, ordinal: int) -> tuple[str, dict, object]:
    """Put, crash at ``ordinal`` during an overwrite, recover.

    Returns ``(outcome, recovery_summary, registry)`` where outcome is
    ``committed`` (the schedule never fired), ``rolled_back`` or
    ``rolled_forward``.
    """
    rng = make_rng(seed, "crash-drill", ordinal)
    clock = SimClock()
    fleet = make_table2_cloud_of_clouds(clock)
    resilience = _drill_resilience()
    scheme = RacsScheme(list(fleet.values()), clock, resilience=resilience)
    scheme.attach_journal()
    path = "/drill/crash"
    old = rng.bytes(64 * 1024)
    new = rng.bytes(64 * 1024)
    scheme.put(path, old)
    scheme.install_crash_schedule(CrashSchedule([ordinal]))
    try:
        scheme.put(path, new)
    except ClientCrash:
        pass
    else:
        return "committed", {}, scheme.registry
    # The replacement client inherits the durable journal + write logs.
    dead, scheme = scheme, RacsScheme(list(fleet.values()), clock, resilience=resilience)
    summary = replace_client(dead, scheme)
    if summary["rolled_back"]:
        outcome = "rolled_back"
        want = old
    elif summary["rolled_forward"]:
        outcome = "rolled_forward"
        want = new
    else:
        raise AssertionError(f"crash at ordinal {ordinal} resolved no intent")
    data, _ = scheme.get(path)
    if data != want:
        raise AssertionError(f"{outcome} recovery served the wrong payload")
    return outcome, summary, scheme.registry


def _spill_trial(seed: int) -> tuple[dict, object]:
    """Put through a partition (forcing a zero-budget spill), then heal."""
    rng = make_rng(seed, "crash-drill", "spill")
    clock = SimClock()
    cut = OutageWindow(clock.now + 1.0, clock.now + 600.0)
    fleet = make_table2_cloud_of_clouds(
        clock, faults={"rackspace": FaultProfile([cut], seed=seed).bind("rackspace")}
    )
    scheme = RacsScheme(
        list(fleet.values()), clock, resilience=_drill_resilience()
    )
    scheme.attach_journal()
    clock.advance(5.0)  # inside the partition window
    payload = rng.bytes(256 * 1024)
    scheme.put("/drill/spill", payload)
    log = scheme._write_logs["rackspace"]
    spilled = int(log.spilled_bytes())
    clock.advance(700.0)  # partition over
    scheme.heal_returned()
    data, _ = scheme.get("/drill/spill")
    if data != payload:
        raise AssertionError("healed read served the wrong payload")
    drained = not log
    return {"spilled_bytes": spilled, "drained": drained}, scheme.registry


def run_crash_drill(seed: int = 0, max_ordinal: int = 40) -> dict:
    """Run the drill; returns a summary with the registries it touched.

    The summary is deterministic in ``seed``.  ``registries`` (not part of
    the deterministic surface) carries every metrics registry the drill's
    clients used, so callers can audit which metric names recovery emits.
    """
    registries: list[object] = []
    rollback: dict | None = None
    rollforward: dict | None = None
    for ordinal in range(1, max_ordinal + 1):
        outcome, summary, registry = _crash_trial(seed, ordinal)
        registries.append(registry)
        orphans = sum(summary.get("orphans_removed", {}).values()) if summary else 0
        if outcome == "rolled_back" and rollback is None and orphans > 0:
            rollback = {"ordinal": ordinal, "orphans_removed": orphans}
        elif outcome == "rolled_forward" and rollforward is None:
            rollforward = {"ordinal": ordinal}
        if rollback is not None and rollforward is not None:
            break
    if rollback is None or rollforward is None:
        raise AssertionError(
            f"no ordinal <= {max_ordinal} produced both recovery outcomes"
        )
    spill, spill_registry = _spill_trial(seed)
    registries.append(spill_registry)
    if spill["spilled_bytes"] <= 0 or not spill["drained"]:
        raise AssertionError(f"spill leg failed: {spill}")
    return {
        "rollback": rollback,
        "rollforward": rollforward,
        "spill": spill,
        "registries": registries,
    }
