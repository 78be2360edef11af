"""The simulated-number golden: one build, compared exactly, and the diff printer.

``tools/`` is not a package, so the module is loaded straight from its file.
"""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "bench_telemetry", ROOT / "tools" / "bench_telemetry.py"
)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


@pytest.fixture(scope="module")
def baseline():
    return json.loads(bench.GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def fresh(baseline):
    """The one real ``build_payload`` call of this module (~5 s)."""
    return bench.build_payload(baseline["seed"])


class TestBaselineFile:
    def test_baseline_covers_all_three_schemes(self, baseline):
        assert sorted(baseline) == ["deterministic", "seed"]
        clean = baseline["deterministic"]["latency"]["clean"]
        assert sorted(clean) == ["duracloud", "hyrd", "racs"]


class TestNumericLeaves:
    def test_flattens_nested_paths(self):
        leaves = dict(
            bench.numeric_leaves({"a": {"b": 1.5, "c": {"d": 2}}, "e": 3})
        )
        assert leaves == {"a.b": 1.5, "a.c.d": 2, "e": 3}

    def test_skips_non_numbers_and_bools(self):
        leaves = bench.numeric_leaves({"s": "x", "flag": True, "n": 4})
        assert leaves == [("n", 4)]


def _compare_payload(p95):
    return {
        "deterministic": {
            "latency": {"clean": {"hyrd": {"ops": {"get": {"p95": p95}}}}}
        }
    }


class TestCompare:
    BASE = _compare_payload(0.100)

    def fresh(self, p95):
        return _compare_payload(p95)

    def test_identical_is_clean(self):
        assert bench.compare(self.BASE, self.fresh(0.100), 0.10) == []

    def test_within_tolerance_is_clean(self):
        assert bench.compare(self.BASE, self.fresh(0.109), 0.10) == []

    def test_drift_beyond_tolerance_flagged(self):
        lines = bench.compare(self.BASE, self.fresh(0.120), 0.10)
        assert len(lines) == 1
        assert "DRIFT" in lines[0]

    def test_missing_and_new_leaves_flagged(self):
        gone = bench.compare(self.BASE, {"deterministic": {}}, 0.10)
        assert any("GONE" in line for line in gone)
        extra = copy.deepcopy(self.BASE)
        ops = extra["deterministic"]["latency"]["clean"]["hyrd"]["ops"]
        ops["get"]["p50"] = 0.05
        new = bench.compare(self.BASE, extra, 0.10)
        assert any("NEW" in line for line in new)

    def test_informational_section_never_gated(self):
        base = {"informational": {"codec_throughput": {"rs_k2_m2": {"encode_mb_s": 100.0}}}}
        fresh = {"informational": {"codec_throughput": {"rs_k2_m2": {"encode_mb_s": 10.0}}}}
        assert bench.compare(base, fresh, 0.10) == []

    def test_near_zero_baseline_guarded(self):
        base = {"deterministic": {"x": 0.0}}
        fresh = {"deterministic": {"x": 1e-12}}
        assert bench.compare(base, fresh, 0.10) == []


class TestReproducibility:
    def test_fresh_build_matches_committed_baseline(self, baseline, fresh):
        """The golden must be regenerable from the current code at its own
        seed — the same comparison ``--check`` makes."""
        assert fresh == baseline, "\n".join(bench.compare(baseline, fresh, 0.0))

    def test_deterministic_sections_are_bit_identical(self, baseline, fresh):
        # Through JSON: what a rewrite of the golden would put on disk.
        rewritten = json.loads(json.dumps(fresh, sort_keys=True))
        assert rewritten["deterministic"] == baseline["deterministic"], "\n".join(
            bench.compare(baseline, rewritten, 0.0)
        )


class TestCliModes:
    @pytest.fixture(autouse=True)
    def _reuse_build(self, monkeypatch, fresh):
        monkeypatch.setattr(bench, "build_payload", lambda seed=0: fresh)

    def test_check_mode_passes_against_committed_baseline(self, capsys):
        assert bench.main(["--check"]) == 0
        assert "OK" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "leaf, bump",
        [
            ("read_scheduling.skewed_load.parity_fragments", lambda v: v + 1),
            ("codec.rs_k2_m2.fragments_crc32.0", lambda v: v + v // 100),
        ],
    )
    def test_check_mode_is_exact(self, monkeypatch, capsys, fresh, leaf, bump):
        """No tolerance: a count off by one fails, and so does a CRC32 off by 1 %."""
        damaged = copy.deepcopy(fresh)
        *parents, key = leaf.split(".")
        cell = damaged["deterministic"]
        for name in parents:
            cell = cell[name]
        cell[key] = bump(cell[key])
        monkeypatch.setattr(bench, "build_payload", lambda seed=0: damaged)
        assert bench.main(["--check"]) == 1
        assert f"DRIFT  {leaf}:" in capsys.readouterr().err

    def test_out_writes_schema_valid_payload(self, tmp_path, baseline):
        out = tmp_path / "golden.json"
        assert bench.main(["--out", str(out)]) == 0
        assert json.loads(out.read_text(encoding="utf-8")) == baseline
