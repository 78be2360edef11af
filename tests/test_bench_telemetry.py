"""The telemetry facets of the simulated-number golden, checked as a group.

The eight telemetry facets (``latency`` through ``service_plane``) of
``tests/data/simulated_golden.json`` against the session's one rebuild
(``tests/conftest.py``); ``tests/test_simulated_golden.py`` owns the
builder, the exact check and the ``--write`` command.
"""

import copy
import json

import pytest

from tests import test_simulated_golden as golden_module
from tests.test_simulated_golden import GOLDEN, check

TELEMETRY = (
    "latency",
    "availability",
    "codec",
    "replay_throughput",
    "maintenance",
    "attribution",
    "read_scheduling",
    "service_plane",
)


def _telemetry(payload: dict) -> dict:
    return {facet: payload[facet] for facet in TELEMETRY}


class TestBaselineFile:
    def test_baseline_covers_all_three_schemes(self, simulated_golden):
        assert sorted(simulated_golden) == sorted(
            ("seed", *TELEMETRY, "fig3_stats", "fig6")
        )
        clean = simulated_golden["latency"]["clean"]
        assert sorted(clean) == ["duracloud", "hyrd", "racs"]


class TestCompare:
    def test_identical_is_clean(self, simulated_rebuild):
        check(simulated_rebuild, copy.deepcopy(simulated_rebuild))


class TestReproducibility:
    def test_fresh_build_matches_committed_baseline(self, simulated_golden, simulated_rebuild):
        assert simulated_rebuild["seed"] == simulated_golden["seed"]
        check(_telemetry(simulated_golden), _telemetry(simulated_rebuild))

    def test_deterministic_sections_are_bit_identical(self, simulated_golden, simulated_rebuild):
        for facet in TELEMETRY:
            got = json.dumps(simulated_rebuild[facet], sort_keys=True)
            assert got == json.dumps(simulated_golden[facet], sort_keys=True), facet


class TestCliModes:
    def test_check_mode_passes_against_committed_baseline(
        self, monkeypatch, tmp_path, simulated_rebuild
    ):
        """``--write`` on unchanged code leaves the committed file byte-identical."""
        monkeypatch.setattr(golden_module, "build", lambda seed=0: simulated_rebuild)
        out = tmp_path / "simulated_golden.json"
        golden_module.main(["--write"], path=out)
        assert out.read_bytes() == GOLDEN.read_bytes()
        with pytest.raises(SystemExit, match="usage"):
            golden_module.main(["--check"], path=out)
