"""Scripted fault injection: composable per-provider fault profiles."""

from repro.faults.crash import ClientCrash, CrashPoint, CrashSchedule
from repro.faults.profile import (
    FaultEffect,
    FaultProfile,
    FlappingOutage,
    LatencyBrownout,
    OutageWindow,
    SilentCorruption,
    TransientErrorBurst,
)
from repro.faults.ledger import (
    CorruptionLedger,
    DamageEvent,
    inject_bit_rot,
    inject_loss,
)
from repro.faults.scenario import FaultScenario, make_fault_storm, poisson_outages

__all__ = [
    "ClientCrash",
    "CorruptionLedger",
    "CrashPoint",
    "CrashSchedule",
    "DamageEvent",
    "FaultEffect",
    "FaultProfile",
    "FaultScenario",
    "FlappingOutage",
    "LatencyBrownout",
    "OutageWindow",
    "SilentCorruption",
    "TransientErrorBurst",
    "inject_bit_rot",
    "inject_loss",
    "make_fault_storm",
    "poisson_outages",
]
