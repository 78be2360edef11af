"""Chaos campaigns: seeded fault storms, client crashes, hard invariants.

The replay and availability experiments measure *performance under
faults*; this package interrogates *correctness under faults*.  A campaign
composes, per episode, a random-but-seeded fault storm, network partition
plan and client-crash schedule over a mixed workload, then settles the
world and machine-verifies five system-wide invariants (no acknowledged
write lost, no torn stripe readable, journal drained, write logs
converged, namespace/provider audit clean) against one
:class:`ReferenceModel` (:mod:`repro.chaos.model`).  Same seed, same
report — byte for byte.

Entry points: :func:`run_episode`, :func:`run_campaign`, the ``repro
chaos`` CLI command, and :func:`run_crash_drill` (a deterministic
single-crash recovery walkthrough used by docs and the metrics fixture).
See ``docs/chaos.md``.
"""

from repro.chaos.drill import run_crash_drill
from repro.chaos.engine import (
    CHAOS_SCHEMES,
    EpisodeResult,
    chaos_resilience,
    run_campaign,
    run_episode,
)
from repro.chaos.model import INVARIANTS, ReferenceModel

__all__ = [
    "CHAOS_SCHEMES",
    "EpisodeResult",
    "INVARIANTS",
    "ReferenceModel",
    "chaos_resilience",
    "run_campaign",
    "run_crash_drill",
    "run_episode",
]
