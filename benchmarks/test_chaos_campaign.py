"""Extension — the chaos campaign's acceptance story, end to end.

A fixed-seed smoke campaign: three episodes per scheme across all seven
schemes (21 episodes), each composing a fault storm, a network-partition
plan and a scripted crash schedule over a random workload.  Two hard
gates:

1. **Zero invariant violations.**  After every episode the five
   machine-verified invariants (no acked write lost, no torn stripe
   readable, journal drained, write-log convergence, namespace/provider
   audit) must all hold.
2. **Determinism.**  Re-running a scheme's first episode with the same
   seed must reproduce a byte-identical canonical JSON report — any drift
   means a hidden RNG/clock/ordering dependency crept into the engine.
"""

import json

from repro.analysis.tables import render_table
from repro.chaos import CHAOS_SCHEMES, run_campaign
from repro.chaos.model import INVARIANTS

_EPISODES = 3  # per scheme; 7 schemes -> 21 episodes
_BASE_SEED = 2026


def test_chaos_campaign_smoke(benchmark, emit, results_dir):
    report = benchmark.pedantic(
        lambda: run_campaign(
            episodes=_EPISODES, base_seed=_BASE_SEED, check_determinism=True
        ),
        rounds=1,
        iterations=1,
    )

    per_scheme: dict[str, dict] = {
        name: {"crashes": 0, "degraded": 0, "violations": 0}
        for name in CHAOS_SCHEMES
    }
    for episode in report["episodes"]:
        row = per_scheme[episode["scheme"]]
        row["crashes"] += len(episode["crashes"]["fired"])
        row["degraded"] += episode["workload"]["degraded_reads"]
        row["violations"] += sum(
            len(episode["invariants"][name]["violations"]) for name in INVARIANTS
        )

    emit(
        render_table(
            ["Scheme", "Episodes", "Crashes", "Degraded reads", "Violations"],
            [
                [name, _EPISODES, row["crashes"], row["degraded"], row["violations"]]
                for name, row in per_scheme.items()
            ],
            title=(
                f"Chaos campaign smoke ({len(report['episodes'])} episodes, "
                f"base seed {_BASE_SEED}, determinism-checked)"
            ),
        )
    )
    (results_dir / "chaos_campaign.json").write_text(
        json.dumps(report, sort_keys=True, indent=2) + "\n"
    )

    # Gate 0 — the campaign actually stressed the system.
    assert report["totals"]["episodes"] == _EPISODES * len(CHAOS_SCHEMES)
    assert report["totals"]["crashes"] > 0
    assert any(row["degraded"] > 0 for row in per_scheme.values())

    # Gate 1 — no episode violated any invariant.
    assert report["totals"]["violations"] == 0

    # Gate 2 — same seed, byte-identical report.
    assert report["determinism_drift"] == []
    assert report["ok"]
