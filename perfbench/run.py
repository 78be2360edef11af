#!/usr/bin/env python3
"""perfbench: the repository's two-clock benchmark.

    python3 perfbench/run.py --workload ia_replay --seed 0 --seconds 12 --trace 0
    python3 perfbench/run.py --all [--seed N] [--trace] [--out DIR]

One run = one workload in one process: build the inputs from the seed, run
one warm-up trial, then timed trials in a fresh world each (``gc.collect()``
and the calibration kernel between them) until ``--seconds`` of measuring
have passed.  ``host_*`` metrics are ``perf_counter`` seconds of this
process, reported as the better quartile of the timed trials (see
``better_quartile``); ``sim_*`` metrics come from the seeded simulation's
own clock and must be identical on every trial of a run — the run is marked
incorrect and exits 1 if they are not.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics (span recorder installed from ``spans.py``, isolated kernels from
``kernels.py``).  Every metric is printed by name with its unit; the last
line of standard output is one JSON object for the driver, and the full
result is written under ``--out`` (default ``perfbench/out``).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
SCHEMA = "perfbench/1"
MIN_TRIALS = 3


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def import_program():
    """Import the program under test and the perfbench modules that use it.

    Returns ``(workloads, spans, kernels, seconds the imports took)``.
    """
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit("perfbench: src/repro is missing; there is no program to measure")
    for path in (str(ROOT / "src"), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    t0 = time.perf_counter()
    import kernels
    import spans
    import workloads

    return workloads, spans, kernels, time.perf_counter() - t0


def environment(seed: int) -> dict:
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.partition(":")[2].strip()
                break
    except OSError:
        pass
    git = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git.stdout.strip() if git.returncode == 0 else "unknown",
        "seed": seed,
    }


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return (values[0], values[0])
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q1, q3)


def better_quartile(values: list[float], better: str) -> float:
    """The value a quarter of the trials beat (the 2nd best of 5 to 8).

    A neighbour on the box only ever slows a trial down, and slow phases here
    last for several trials, so the median trial is often a disturbed one;
    the better quartile estimates the undisturbed speed and still ignores a
    single lucky trial.
    """
    ordered = sorted(values, reverse=better == "higher")
    return ordered[(len(ordered) - 1) // 4]


def spread_share(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, q3 = quartiles(values)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else 0.0


class Runner:
    """One workload's trials, with the checks every trial must pass."""

    def __init__(self, workload, inputs: dict, calibration) -> None:
        self.workload = workload
        self.inputs = inputs
        self.calibration = calibration
        self.problems: list[str] = []
        self.reference = None  # the warm-up trial: every later trial must match its sim side

    def trial(self, traced: bool = False, inputs: dict | None = None):
        gc.collect()
        self.calibration.run()
        trial = self.workload.trial(self.inputs if inputs is None else inputs, traced)
        if inputs is None:
            self._check(trial)
        return trial

    def _check(self, trial) -> None:
        self.problems.extend(p for p in self.workload.check(trial) if p not in self.problems)
        if self.reference is None:
            self.reference = trial
        elif (trial.sim, trial.fingerprint) != (self.reference.sim, self.reference.fingerprint):
            self.problems.append("simulated results differ between trials of one run")

    def timed(self, seconds: float) -> list:
        trials, spent = [], 0.0
        while len(trials) < MIN_TRIALS or spent < seconds:
            t0 = time.perf_counter()
            trials.append(self.trial())
            spent += time.perf_counter() - t0
        self.calibration.run()
        return trials


def end_to_end(workloads, warm, trials, setup_s: float) -> dict:
    """The end-to-end metrics of one run, each with its per-trial samples."""
    rank = workloads.percentile_nearest_rank
    per_trial_sorted = [sorted(t.op_host_s) for t in trials]
    op_samples = sum(len(s) for s in per_trial_sorted)
    ops = [t.ops / t.host_s for t in trials]
    mbs = [t.user_bytes / 1e6 / t.host_s for t in trials]
    # Percentiles are taken per trial: pooling all trials lets one disturbed
    # trial drag the pooled tail with it.
    p50 = [1e6 * rank(s, 50) for s in per_trial_sorted]
    p95 = [1e6 * rank(s, 95) for s in per_trial_sorted]
    out = {
        "host_ops_per_s": {"value": better_quartile(ops, "higher"), "samples": ops},
        "host_mb_per_s": {"value": better_quartile(mbs, "higher"), "samples": mbs},
        "host_op_p50_us": {
            "value": better_quartile(p50, "lower"), "samples": p50, "n": op_samples
        },
        "host_op_p95_us": {
            "value": better_quartile(p95, "lower"), "samples": p95, "n": op_samples
        },
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0},
        "setup_s": {"value": setup_s},
    }
    for name, value in warm.sim.items():
        out[name] = {"value": value}
    for entry in out.values():
        entry.setdefault("samples", [entry["value"]])
    return out


def _median_of(stats_list, section: str, key: str, field: str) -> float:
    return statistics.median(s[section].get(key, {}).get(field, 0.0) for s in stats_list)


def per_layer(runner, build_stats, plain, traced, stats_list, counted, tracer_trial,
              one_frontend, kernel_values) -> dict:
    """The per-layer metrics of one traced run, by name."""
    warm = runner.reference

    def group(name: str, field: str = "self_s") -> float:
        return _median_of(stats_list, "groups", name, field)

    def span(name: str, field: str) -> float:
        return _median_of(stats_list, "names", name, field)

    def codec_self(prefix: str) -> float:
        return statistics.median(
            sum(v["self_s"] for n, v in s["names"].items() if n.startswith(prefix))
            for s in stats_list
        )

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    plain_host = statistics.median(t.host_s for t in plain)
    traced_host = statistics.median(t.host_s for t in traced)
    ops_per_s = statistics.median(t.ops / t.host_s for t in plain)
    out = {
        "workloads.synth_self_s": group("workloads.synth"),
        "workloads.synth_calls": group("workloads.synth", "calls"),
        "workloads.synth_mb": group("workloads.synth", "amount") / 1e6,
        "workloads.replay_self_s": group("workloads.replay"),
        "workloads.tracegen_s": group("workloads.tracegen")
        + build_stats["groups"].get("workloads.tracegen", {}).get("self_s", 0.0),
        "erasure.encode_self_s": group("erasure.encode"),
        "erasure.encode_calls": group("erasure.encode", "calls"),
        "erasure.encode_mb": group("erasure.encode", "amount") / 1e6,
        "erasure.decode_self_s": group("erasure.decode"),
        "erasure.decode_calls": group("erasure.decode", "calls"),
        "erasure.decode_mb": group("erasure.decode", "amount") / 1e6,
        "erasure.striping_self_s": group("erasure.striping"),
        "erasure.raid5.self_s": codec_self("Raid5Code."),
        "erasure.rs.self_s": codec_self("ReedSolomonCode."),
        "erasure.fmsr.self_s": codec_self("FMSRCode."),
        "schemes.op_self_s": group("schemes.op"),
        "schemes.op_calls": group("schemes.op", "calls"),
        "schemes.digest_cpu_s": group("schemes.digest"),
        "schemes.digest_calls": group("schemes.digest", "calls"),
        "schemes.digest_mb": group("schemes.digest", "amount") / 1e6,
        "core.dispatch_self_s": group("core.dispatch"),
        "fs.meta_self_s": group("fs.meta"),
        "fs.meta_calls": group("fs.meta", "calls"),
        "fs.meta_encoded_mb": span("metadata.encode_group", "amount") / 1e6,
        "fs.meta_cache_hit_share": ratio(
            span("MetadataStore.is_cached", "amount"), span("MetadataStore.is_cached", "calls")
        ),
        "cloud.provider_self_s": group("cloud.provider"),
        "cloud.provider_calls": group("cloud.provider", "calls"),
        "cloud.put_mb": span("SimulatedProvider.put", "amount") / 1e6,
        "cloud.get_mb": span("SimulatedProvider.get", "amount") / 1e6,
        "sim.bandwidth_self_s": group("sim.bandwidth"),
        "sim.bandwidth_calls": group("sim.bandwidth", "calls"),
        "sim.bandwidth_transfers_per_call": ratio(
            group("sim.bandwidth", "amount"), group("sim.bandwidth", "calls")
        ),
        "sim.events_self_s": group("sim.events"),
        "sim.events_steps": group("sim.events", "calls"),
        "sim.host_s_per_sim_event": ratio(plain_host, group("sim.events", "calls")),
        "metrics.registry_calls": float(counted),
        "metrics.registry_est_s": counted * kernel_values["metrics.inc_ns"] * 1e-9,
        "metrics.collector_self_s": group("metrics.collector"),
        "service.admission_self_s": group("service.admission"),
        "service.admission_calls": group("service.admission", "calls"),
        "service.frontend_self_s": group("service.frontend"),
        "service.frontend_scale_ratio": (
            ratio(warm.sim["sim_ops_per_s"], one_frontend.sim["sim_ops_per_s"])
            if one_frontend is not None else 0.0
        ),
        "obs.tracer_overhead_share": tracer_trial.host_s / plain_host - 1.0,
        "calib.kernel_ms": 1e3 * runner.calibration.median_s(),
        "calib.ops_per_kernel": ops_per_s * runner.calibration.median_s(),
        "trace.overhead_share": traced_host / plain_host - 1.0,
        "trace.coverage_share": statistics.median(
            s["covered_s"] / sum(w1 - w0 for w0, w1 in t.windows)
            for s, t in zip(stats_list, traced)
        ),
        "trial.spread_share": spread_share([t.ops / t.host_s for t in plain]),
        "failed_op_share": 1.0 - warm.sim["ok_op_share"],
    }
    for label in ("hyrd", "hyrd_rs", "nccloud"):
        out[f"schemes.{label}.host_ops_per_s"] = statistics.median(
            ratio(t.facts["scheme_ops"].get(label, 0), t.facts["scheme_host_s"].get(label, 0.0))
            for t in plain
        )
    for fact in ("shed_share", "fairness_index", "drr_rounds", "sojourn_p50_sim_s",
                 "sojourn_p95_sim_s"):
        out[f"service.{fact}"] = float(warm.facts.get(fact, 0.0))
    for phase, seconds in tracer_trial.facts["phase_sim_s"].items():
        out[f"obs.phase.{phase}_sim_s"] = seconds
    out.update(kernel_values)
    return out


def layer_shares(stats_list, traced) -> dict[str, float]:
    """Each layer's self time as a share of the traced trial (for reading a
    traced run: which layers the workload makes do the work)."""
    layers: dict[str, float] = {}
    wall = statistics.median(t.host_s for t in traced)
    for group in sorted({g for s in stats_list for g in s["groups"]}):
        split = group.startswith(("schemes.", "sim."))  # packages with two unlike halves
        layer = group if split else group.partition(".")[0]
        layers[layer] = layers.get(layer, 0.0) + _median_of(stats_list, "groups", group, "self_s")
    return {layer: seconds / wall for layer, seconds in sorted(layers.items())}


def run_workload(name: str, seed: int, seconds: float, scale: float, trace: bool,
                 out_dir: Path) -> dict:
    """Run one workload in this process; returns the full result."""
    workloads, spans, kernels, import_s = import_program()
    spec = load_spec()
    workload = workloads.WORKLOADS[name]
    out_dir.mkdir(parents=True, exist_ok=True)

    build_recorder = spans.SpanRecorder()
    t0 = time.perf_counter()
    if trace:
        with build_recorder.installed():
            inputs = workload.build(seed, scale)
    else:
        inputs = workload.build(seed, scale)
    t1 = time.perf_counter()
    runner = Runner(workload, inputs, kernels.Calibration())
    warm = runner.trial()

    result = {
        "workload": name,
        "why": workload.why,
        "seed": seed,
        "scale": scale,
        "params": inputs["params"],
        "ops_per_trial": warm.ops,
        "sim_fingerprint": warm.fingerprint,
    }
    if not trace:
        trials = runner.timed(seconds)
        every = [warm, *trials]
        setup_s = import_s + (t1 - t0) + statistics.median(t.world_s for t in every) + warm.host_s
        metrics = end_to_end(workloads, warm, trials, setup_s)
        section = "end_to_end"
    else:
        # Plain and traced trials alternate, so a drift of the machine during
        # the run lands on both sides of ``trace.overhead_share`` alike.
        recorder = spans.SpanRecorder()
        plain, traced, stats_list, counted = [], [], [], 0
        spent = 0.0
        while len(traced) < 2 or spent < seconds * 2.0 / 3.0:
            t_start = time.perf_counter()
            plain.append(runner.trial())
            with recorder.installed():
                trial = runner.trial()
            records, counted = recorder.take()
            traced.append(trial)
            stats_list.append(spans.analyze(records, recorder.names, trial.windows))
            if len(traced) == 1:
                dangling = spans.write_jsonl(
                    out_dir / f"{name}.spans.jsonl", records, recorder.names
                )
                if dangling:
                    runner.problems.append(f"{dangling} span parent ids do not resolve")
            del records
            spent += time.perf_counter() - t_start
        tracer_trial = runner.trial(traced=True)
        one_frontend = None
        if "drill" in inputs:
            drill = dict(inputs["drill"], frontends=1)
            one_frontend = runner.trial(inputs=dict(inputs, drill=drill))
        build_records, _ = build_recorder.take()
        build_stats = spans.analyze(build_records, build_recorder.names, [(t0, t1)])
        values = per_layer(runner, build_stats, plain, traced, stats_list, counted,
                           tracer_trial, one_frontend, kernels.layer_kernels())
        metrics = {k: {"value": v, "samples": [v]} for k, v in values.items()}
        section = "per_layer"
        trials = plain
        result["layer_self_share"] = layer_shares(stats_list, traced)
        result["spans_per_trial"] = stats_list[0]["spans"]

    units = {m["name"]: m["unit"] for m in spec[section]}
    if set(metrics) != set(units):
        runner.problems.append(
            f"metric names differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}"
        )
    for metric, entry in metrics.items():
        entry["unit"] = units.get(metric, "?")
    result.update(
        {
            section: metrics,
            "trials": len(trials),
            "trial_host_s": [t.host_s for t in trials],
            "attempted": sum(t.ops for t in trials),
            "failed": sum(t.failed for t in trials),
            "refused": sum(t.refused for t in trials),
            "calibration": {
                "kernel_ms": 1e3 * runner.calibration.median_s(),
                "spread_share": spread_share(runner.calibration.seconds),
                "noisy_box": spread_share(runner.calibration.seconds) > 0.10,
            },
            "correct": not runner.problems,
            "problems": runner.problems,
        }
    )
    return result


def print_result(result: dict, section: str) -> None:
    print(
        f"perfbench {result['workload']}: seed {result['seed']}, scale {result['scale']}, "
        f"{result['trials']} timed trials of {result['ops_per_trial']} ops "
        f"(+1 warm-up), calibration kernel {result['calibration']['kernel_ms']:.2f} ms"
        + (" [noisy box]" if result["calibration"]["noisy_box"] else "")
    )
    if "loop" in result["params"]:
        print(f"  {result['params']['loop']}")
    for name, entry in result[section].items():
        line = f"  {name:38s} {entry['value']:>16.6g} {entry['unit']}"
        if len(entry["samples"]) > 1:
            q1, q3 = quartiles(entry["samples"])
            line += f"   [q1 {q1:.6g}, q3 {q3:.6g}, {len(entry['samples'])} trials]"
        if "n" in entry:
            line += f"   ({entry['n']} op samples)"
        print(line)
    for share in sorted(result.get("layer_self_share", {}).items(), key=lambda kv: -kv[1]):
        print(f"  layer self time  {share[0]:21s} {share[1]:>16.1%} of the traced trial")
    for problem in result["problems"]:
        print(f"  PROBLEM: {problem}")


def driver_line(result: dict, section: str) -> str:
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": entry["value"], "unit": entry["unit"]}
                for name, entry in result[section].items()
            },
        }
    )


def write_result(out_dir: Path, results: list[dict], seed: int, stem: str) -> Path:
    path = out_dir / f"{stem}.json"
    document = {
        "schema": SCHEMA,
        "environment": environment(seed),
        "workloads": {r["workload"]: r for r in results},
    }
    path.write_text(json.dumps(document, indent=1))
    return path


def parse_args(argv, spec):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    names = [w["name"] for w in spec["workloads"]]
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=names)
    which.add_argument("--all", action="store_true", help="every workload, one process each")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help="how long the timed trials of one run measure")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
                        help="1: traced run printing the per-layer metrics")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every workload's op count (smoke runs only)")
    parser.add_argument("--out", type=Path, default=HERE / "out")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if not SPEC_PATH.is_file():
        sys.exit("perfbench: BENCHMARK.json is missing")
    spec = load_spec()
    args = parse_args(argv, spec)
    suffix = ".trace" if args.trace else ""
    if args.all:
        results, code = [], 0
        for workload in (w["name"] for w in spec["workloads"]):
            child = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace), "--scale", str(args.scale), "--out", str(args.out)]
            )
            code = code or child.returncode
            single = args.out / f"{workload}{suffix}.json"
            if single.is_file():
                results.append(json.loads(single.read_text())["workloads"][workload])
        suite = write_result(args.out, results, args.seed, "suite" + suffix)
        print(f"perfbench: suite written to {suite}")
        return code

    result = run_workload(args.workload, args.seed, args.seconds, args.scale, bool(args.trace),
                          args.out)
    section = "per_layer" if args.trace else "end_to_end"
    write_result(args.out, [result], args.seed, args.workload + suffix)
    print_result(result, section)
    print(driver_line(result, section))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
