"""Smoke test of the benchmark itself: ``python -m pytest perfbench -q``.

Runs every workload through the real command line at ``--scale 0.05`` (the
whole file takes well under 30 s) and checks what the driver relies on: the
names printed are exactly the names ``BENCHMARK.json`` declares, the checks
pass, spans form a tree and cover the traced trial.  Not collected by the
tier-1 suite (``testpaths = ["tests"]``).
"""

from __future__ import annotations

import json
import re

import pytest

import run as perfbench

SPEC = perfbench.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _run(capsys, tmp_path, workload: str, trace: int) -> tuple[dict, dict]:
    """One CLI run; returns (the driver's last line, the written result)."""
    code = perfbench.main(
        ["--workload", workload, "--seed", "3", "--seconds", "0", "--scale", "0.05",
         "--trace", str(trace), "--out", str(tmp_path)]
    )
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    stem = workload + (".trace" if trace else "")
    result = json.loads((tmp_path / f"{stem}.json").read_text())["workloads"][workload]
    assert code == 0 and line["correct"], result["problems"]
    return line, result


def test_spec_names_are_well_formed_and_unique():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + WORKLOADS
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert SPEC["paths"] == ["perfbench"]
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_workloads_match_spec():
    workloads = perfbench.import_program()[0]
    assert list(workloads.WORKLOADS) == WORKLOADS
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()
    }


def test_media_bands_restate_the_programs_table():
    workloads = perfbench.import_program()[0]
    from repro.workloads import MediaLibraryFileSizes

    program = [(b.lo, b.hi, b.weight) for b in MediaLibraryFileSizes(scale=0.125)._bands]
    assert [tuple(map(float, b)) for b in workloads.MEDIA_BANDS] == program


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_run_prints_the_declared_metrics(workload, capsys, tmp_path):
    line, result = _run(capsys, tmp_path, workload, trace=0)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for name, entry in line["metrics"].items():
        assert entry["unit"] == units[name]
        assert entry["value"] > 0, f"{name} must never be 0"
    assert line["attempted"] >= 1 and line["failed"] == 0
    assert result["trials"] >= perfbench.MIN_TRIALS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_the_declared_layer_metrics(workload, capsys, tmp_path):
    line, result = _run(capsys, tmp_path, workload, trace=1)
    assert set(line["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert line["metrics"]["trace.coverage_share"]["value"] >= 0.9

    spans = [json.loads(s) for s in (tmp_path / f"{workload}.spans.jsonl").read_text().splitlines()]
    assert len(spans) >= result["spans_per_trial"] > 0
    ids = {s["id"] for s in spans}
    assert len(ids) == len(spans)
    assert all(s["parent"] == 0 or s["parent"] in ids for s in spans)
    assert all(s["op"] == 0 or s["op"] in ids for s in spans)
    assert all(s["end"] >= s["start"] for s in spans)

    if workload == "postmark_meta":
        assert line["metrics"]["erasure.encode_calls"]["value"] == 0
        assert line["metrics"]["erasure.decode_calls"]["value"] == 0
    if workload == "service_overload":
        assert line["metrics"]["service.drr_rounds"]["value"] > 0
        assert line["metrics"]["service.shed_share"]["value"] > 0
