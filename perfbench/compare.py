#!/usr/bin/env python3
"""Compare two perfbench result files, or this code against itself.

    python3 perfbench/compare.py A.json B.json
    python3 perfbench/compare.py --self [--runs 10] [--seed N] [--workload NAME]
    python3 perfbench/compare.py --spread 10 [--seed N] [--workload NAME]

One row per workload x end-to-end metric: each side's value (as the run
reported it; the median of the runs in a spread file) and the quartiles of
its samples, the ratio B/A with its base, and a verdict against the bound
fixed in ``BENCHMARK.json``:

- ``worse``       B's value is worse than A's by more than the bound;
- ``unresolved``  either side's own spread (quartile distance / median) is
                  wider than the bound, so the row cannot be called
                  unchanged — unless every B sample beats every A sample
                  (``setup_s`` is exempt, as it is for the driver);
- ``better``      B's value is better by more than A's own spread;
- ``same``        anything else.

Metrics read off the simulation (``sim_*``, ``stored_*``, ``ok_op_share``)
repeat exactly for one seed, so when both sides ran the same seed they must
compare *equal*; any difference is ``worse`` or ``better`` by direction and
is a behaviour change, not a performance result.

``--self`` is the A/A criterion: ``--runs`` runs per side of every workload
on one seed, the two sides alternating (A B B A ...) so a drift of the box
lands on both alike; no row may be ``worse`` or ``unresolved``.  One run
per side is not enough on a shared box: its slow phases outlast a run.
``--spread N`` makes N runs
of each workload, each with another seed, and prints for every metric the
quartile distance of the N values as a share of their median — the figure
that has to stay under a third of the metric's bound — and writes the runs
as a result file, so two spread files can be compared like any other two.
Exit code 1 when any row is ``worse`` or ``unresolved``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run as perfbench


def is_exact(metric: str) -> bool:
    """Metrics read off the simulation: bit-identical for one seed."""
    return metric.startswith(("sim_", "stored_")) or metric == "ok_op_share"


def verdict(metric: str, a: dict, b: dict, bound: float, better: str, same_seed: bool) -> str:
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (b["value"] - a["value"]) / abs(a["value"]) if a["value"] else 0.0
    if same_seed and is_exact(metric):
        if a["value"] == b["value"]:
            return "same"
        return "better" if gain > 0 else "worse"
    spread_a, spread_b = (perfbench.spread_share(side["samples"]) for side in (a, b))
    # The driver gates the drift of ``setup_s`` but not its spread (one
    # warm-up per run cannot be repeated), so neither does this table.
    if metric != "setup_s" and max(spread_a, spread_b) > bound:
        a_s, b_s = [sign * v for v in a["samples"]], [sign * v for v in b["samples"]]
        if min(b_s) > max(a_s):
            return "better"
        if max(b_s) < min(a_s):
            return "worse"
        return "unresolved"
    if gain < -bound:
        return "worse"
    if gain > max(spread_a, 1e-12):
        return "better"
    return "same"


def compare(doc_a: dict, doc_b: dict, spec: dict) -> int:
    """Print the table; returns how many rows are worse or unresolved."""
    bad = 0
    for workload in (w["name"] for w in spec["workloads"]):
        side_a = doc_a["workloads"].get(workload)
        side_b = doc_b["workloads"].get(workload)
        if side_a is None or side_b is None:
            continue
        print(f"{workload}  (A seed {side_a['seed']}, B seed {side_b['seed']})")
        same_seed = isinstance(side_a["seed"], int) and side_a["seed"] == side_b["seed"]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a, b = side_a["end_to_end"][name], side_b["end_to_end"][name]
            (a1, a3), (b1, b3) = (perfbench.quartiles(side["samples"]) for side in (a, b))
            result = verdict(name, a, b, metric["bound"], metric["better"], same_seed)
            bad += result in ("worse", "unresolved")
            ratio = b["value"] / a["value"] if a["value"] else float("nan")
            print(
                f"  {name:30s} A {a['value']:>12.6g} [{a1:.6g}, {a3:.6g}]"
                f"  B {b['value']:>12.6g} [{b1:.6g}, {b3:.6g}]"
                f"  B/A {ratio:.4f} of {a['value']:.6g} {metric['unit']}"
                f"  bound {metric['bound']:.0%} {metric['better']:6s} -> {result}"
            )
    return bad


def _run(argv: list[str]) -> str:
    child = subprocess.run(
        [sys.executable, str(perfbench.HERE / "run.py"), *argv], capture_output=True, text=True
    )
    if child.returncode != 0:
        sys.exit(f"perfbench run {argv} failed:\n{child.stdout}\n{child.stderr}")
    return child.stdout


def run_once(workload: str, seed: int, out_dir: Path) -> dict[str, float]:
    """One end-to-end run in its own process; the driver line's values."""
    stdout = _run(["--workload", workload, "--seed", str(seed), "--out", str(out_dir)])
    metrics = json.loads(stdout.strip().splitlines()[-1])["metrics"]
    return {name: entry["value"] for name, entry in metrics.items()}


def as_result(runs: list[dict[str, float]], seed) -> dict:
    """Several runs of one workload as one comparable entry: the samples are
    the runs' values, the value their median."""
    return {
        "seed": seed,
        "end_to_end": {
            name: {"value": statistics.median(r[name] for r in runs),
                   "samples": [r[name] for r in runs]}
            for name in runs[0]
        },
    }


def run_self(workloads: list[str], runs: int, seed: int, out_dir: Path) -> tuple[dict, dict]:
    """The same code as both sides, alternating which side runs first."""
    doc_a = {"schema": perfbench.SCHEMA, "workloads": {}}
    doc_b = {"schema": perfbench.SCHEMA, "workloads": {}}
    for workload in workloads:
        sides: tuple[list, list] = ([], [])
        for pair in range(runs):
            for side in ((0, 1) if pair % 2 == 0 else (1, 0)):
                sides[side].append(run_once(workload, seed, out_dir))
        doc_a["workloads"][workload] = as_result(sides[0], seed)
        doc_b["workloads"][workload] = as_result(sides[1], seed)
    return doc_a, doc_b


def run_spread(spec: dict, workloads: list[str], runs: int, seed: int, out_dir: Path) -> dict:
    """N runs per workload on N seeds; prints each metric's spread."""
    document = {"schema": perfbench.SCHEMA, "workloads": {}}
    for workload in workloads:
        result = as_result(
            [run_once(workload, s, out_dir) for s in range(seed, seed + runs)],
            f"{seed}..{seed + runs - 1}",
        )
        document["workloads"][workload] = result
        print(f"{workload}: {runs} runs, seeds {result['seed']}")
        for metric in spec["end_to_end"]:
            entry = result["end_to_end"][metric["name"]]
            share = perfbench.spread_share(entry["samples"])
            flag = "" if share <= metric["bound"] / 3 else (
                "  > bound/3" if share <= metric["bound"] else "  > BOUND"
            )
            print(
                f"  {metric['name']:30s} median {entry['value']:>12.6g} {metric['unit']:10s}"
                f" spread {share:7.2%} of bound {metric['bound']:.0%}{flag}"
            )
    return document


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*", type=Path, help="A.json B.json")
    parser.add_argument("--self", dest="aa", action="store_true",
                        help="A/A: this code against itself, alternating runs on one seed")
    parser.add_argument("--runs", type=int, default=10, help="with --self: runs per side")
    parser.add_argument("--spread", type=int, metavar="N",
                        help="N runs of each workload on N seeds; print each metric's spread")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", action="append",
                        help="with --self or --spread: only this workload (repeatable)")
    parser.add_argument("--out", type=Path, default=perfbench.HERE / "out")
    args = parser.parse_args(argv)
    spec = perfbench.load_spec()

    names = args.workload or [w["name"] for w in spec["workloads"]]
    if args.spread or args.aa:
        args.out.mkdir(parents=True, exist_ok=True)
    if args.spread:
        document = run_spread(spec, names, args.spread, args.seed, args.out)
        path = args.out / f"spread_seed{args.seed}.json"
        path.write_text(json.dumps(document, indent=1))
        print(f"spread runs written to {path}")
        return 0
    if args.aa:
        doc_a, doc_b = run_self(names, args.runs, args.seed, args.out)
    elif len(args.files) == 2:
        doc_a, doc_b = (json.loads(p.read_text()) for p in args.files)
    else:
        parser.error("give two result files, --self, or --spread N")
    bad = compare(doc_a, doc_b, spec)
    print(f"{bad} rows worse or unresolved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
