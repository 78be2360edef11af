"""Microbenchmarks — erasure-codec encode/decode throughput.

Not a paper figure: these keep the substrate honest (encode cost must be
negligible next to simulated WAN transfer times) and give pytest-benchmark
something to time across rounds.

``test_rs_k2m2_encode_speedup_floor`` is the regression gate behind the
vectorised GF kernel (``repro.erasure.gfkernel``): RS(2+2) encode must stay
at least 10x the scalar parity product ``gf_matmul(generator[k:], shards)``
measured in the same process, and every fragment byte must match the
scalar ``gf_matmul`` oracle.  See ``docs/codecs.md`` for the kernel design
and ``docs/performance.md`` for the measured before/after table.

``test_fmsr_fresh_matrix_encode_gate`` is the gate behind the row-group
kernel and its width-8 column-pair group: NCCloud seeds one FMSR matrix
per (path, version), so its encodes
never find a warm table — the rate that matters there is encode *including*
table construction, gated as a same-process ratio to the scalar oracle.

``test_fmsr_fresh_matrix_lanes_gate`` is the gate behind the kernel's
lanes: the same fresh-matrix encode with the tile loop split over the
shared host pool must beat it on one lane.  It needs two CPUs.

All three gates are ratios of two rates taken on the same host in the same
process, best-of-N on each side, so they hold on any machine that runs
them rather than on the one a constant was recorded on.
"""

import gc
import os
import time

import numpy as np
import pytest

from repro import lanes
from repro.erasure.fmsr import FMSRCode
from repro.erasure.galois import gf_matmul
from repro.erasure.raid5 import Raid5Code
from repro.erasure.reed_solomon import ReedSolomonCode
from repro.erasure.striping import split_shards

MB = 1024 * 1024
PAYLOAD = np.random.default_rng(7).integers(0, 256, 4 * MB, dtype=np.uint8).tobytes()

#: RS k=2 m=2 encode MB/s measured at the pre-kernel commit with this same
#: payload on the reference box (recorded in BENCH_2026-08-06.json before
#: the overhaul) — printed as historical context only; the gate is the
#: same-process ratio to the scalar parity product
PRE_KERNEL_RS_K2M2_ENCODE_MB_S = 140.78
TARGET_SPEEDUP = 10.0
TRIALS = 5

#: fresh-matrix FMSR(4,2) encode over the scalar ``gf_matmul`` product of the
#: same matrices in the same process; measured 9.3-10.0x on the reference box
#: with width-4 row groups (6.4-6.5x with pair tables and two-step
#: construction), gated 20% under that; 11.3-12.5x with the width-8
#: column-pair group on a 2-vCPU Xeon VM
FMSR_FRESH_OVER_SCALAR_FLOOR = 7.4
FMSR_PAYLOAD = PAYLOAD[: 3 * MB // 2]  # the 1-2 MB objects NCCloud stripes
FMSR_MATRICES = 24

#: the fresh-matrix FMSR(4,2) encode on the pool's lanes over the same
#: encode on one lane, same process; 1.29-1.75x (median 1.48x) over eleven
#: runs on a 2-vCPU Xeon VM, where the table builds stay serial and the
#: lanes share the output's first-touch page faults
LANES_OVER_ONE_LANE_FLOOR = 1.3
#: rounds per side: one lane read 200-305 MB/s across runs on that VM, so
#: the best of five rounds was not always a quiet one
LANE_TRIALS = 9


@pytest.mark.parametrize(
    "codec",
    [Raid5Code(3), ReedSolomonCode(3, 2), FMSRCode(4)],
    ids=["raid5-3+1", "rs-3+2", "fmsr-4,2"],
)
def test_encode_throughput(benchmark, codec):
    fragments = benchmark(codec.encode, PAYLOAD)
    assert len(fragments) == codec.n


@pytest.mark.parametrize(
    "codec",
    [Raid5Code(3), ReedSolomonCode(3, 2), FMSRCode(4)],
    ids=["raid5-3+1", "rs-3+2", "fmsr-4,2"],
)
def test_degraded_decode_throughput(benchmark, codec):
    """Decode with fragment 0 erased — the outage reconstruction path."""
    fragments = codec.encode(PAYLOAD)
    available = {i: f for i, f in enumerate(fragments) if i != 0}
    result = benchmark(codec.decode, available, len(PAYLOAD))
    assert result == PAYLOAD


def test_raid5_repair_throughput(benchmark):
    codec = Raid5Code(3)
    fragments = codec.encode(PAYLOAD)
    available = {i: f for i, f in enumerate(fragments) if i != 1}
    rebuilt = benchmark(codec.reconstruct_fragment, available, 1, len(PAYLOAD))
    assert rebuilt == fragments[1]


def test_rs_k2m2_encode_speedup_floor(benchmark, emit):
    """The kernel gate: RS(2+2) encode >= 10x the scalar parity product.

    Warm best-of-N on the kernel side (the first call binds the encode plan
    and builds its gather tables; steady-state is what the replay data
    plane sees) against best-of-N of ``gf_matmul(generator[k:], shards)``
    in the same process, with fragment bytes asserted identical to the
    scalar GF oracle.
    """
    codec = ReedSolomonCode(2, 2)
    size_mb = len(PAYLOAD) / MB

    # Correctness first: kernel fragments == scalar-oracle fragments.
    shards = split_shards(PAYLOAD, codec.k)
    oracle = gf_matmul(codec.generator_matrix, shards)
    fragments = codec.encode_views(PAYLOAD)
    assert len(fragments) == codec.n
    for i, frag in enumerate(fragments):
        assert bytes(frag) == oracle[i].tobytes(), f"fragment {i} diverged"

    walls: list[float] = []

    def once() -> None:
        t0 = time.perf_counter()
        codec.encode_views(PAYLOAD)
        walls.append(time.perf_counter() - t0)
        gc.collect()

    benchmark.pedantic(once, rounds=TRIALS, warmup_rounds=1, iterations=1)
    best_mb_s = size_mb / min(walls)

    parity_rows = codec.generator_matrix[codec.k :]
    scalar_walls: list[float] = []
    for _ in range(TRIALS):
        gc.collect()
        t0 = time.perf_counter()
        gf_matmul(parity_rows, shards)
        scalar_walls.append(time.perf_counter() - t0)
    scalar_mb_s = size_mb / min(scalar_walls)
    speedup = best_mb_s / scalar_mb_s

    emit(
        "RS(2+2) encode throughput — vectorised GF kernel gate\n"
        f"  payload:       {size_mb:.0f} MiB\n"
        f"  best encode:   {best_mb_s:.1f} MB/s\n"
        f"  scalar parity: {scalar_mb_s:.1f} MB/s (same process)\n"
        f"  speedup:       {speedup:.1f}x (target >= {TARGET_SPEEDUP:.0f}x)\n"
        f"  pre-kernel:    {PRE_KERNEL_RS_K2M2_ENCODE_MB_S:.2f} MB/s "
        "(recorded on the reference box; context only)"
    )
    assert speedup >= TARGET_SPEEDUP, (
        f"RS(2+2) encode {best_mb_s:.1f} MB/s is {speedup:.1f}x the scalar "
        f"parity product ({scalar_mb_s:.1f} MB/s), below the "
        f"{TARGET_SPEEDUP:.0f}x floor"
    )


def test_fmsr_fresh_matrix_encode_gate(benchmark, emit):
    """FMSR(4,2) ``encode_views`` with a fresh matrix per call vs scalar.

    Each of ``FMSR_MATRICES`` codecs encodes once per round, and a round
    needs 24 x 2 column-pair tables — one and a half times the table
    budget, cycled in LRU order — so every encode builds its two tables, as
    every NCCloud put does.  The warm
    rate (one codec reused, what ``perfbench``'s
    ``erasure.fmsr_4_2.encode_mb_s`` measures) is reported beside it.
    Best-of-rounds on both sides of the ratio, fragments asserted identical
    to the scalar oracle.
    """
    codecs = [FMSRCode(4, 2, seed=1000 + i) for i in range(FMSR_MATRICES)]
    size_mb = len(FMSR_PAYLOAD) / MB
    native = split_shards(FMSR_PAYLOAD, 4)

    for codec in codecs[:3]:
        oracle = gf_matmul(codec.ecm, native)
        for node, frag in enumerate(codec.encode_views(FMSR_PAYLOAD)):
            assert bytes(frag) == oracle[2 * node : 2 * node + 2].tobytes()

    def best_mb_s(run, calls: int, rounds: int = TRIALS) -> float:
        walls = []
        for _ in range(rounds):
            gc.collect()
            t0 = time.perf_counter()
            run()
            walls.append(time.perf_counter() - t0)
        return calls * size_mb / min(walls)

    def fresh() -> None:
        for codec in codecs:
            codec.encode_views(FMSR_PAYLOAD)

    def warm() -> None:
        for _ in codecs:
            codecs[0].encode_views(FMSR_PAYLOAD)

    def scalar() -> None:
        for codec in codecs[:4]:
            gf_matmul(codec.ecm, native)

    fresh_mb_s = best_mb_s(fresh, len(codecs))
    warm_mb_s = best_mb_s(warm, len(codecs))
    scalar_mb_s = best_mb_s(scalar, 4, rounds=3)
    benchmark.pedantic(fresh, rounds=1, iterations=1)
    ratio = fresh_mb_s / scalar_mb_s

    emit(
        "FMSR(4,2) encode throughput — row-group kernel gate\n"
        f"  payload:             {size_mb:.1f} MiB, {len(codecs)} matrices\n"
        f"  fresh matrix/call:   {fresh_mb_s:.1f} MB/s\n"
        f"  warm matrix:         {warm_mb_s:.1f} MB/s\n"
        f"  scalar oracle:       {scalar_mb_s:.1f} MB/s\n"
        f"  fresh / scalar:      {ratio:.2f}x "
        f"(floor >= {FMSR_FRESH_OVER_SCALAR_FLOOR:.1f}x)"
    )
    assert ratio >= FMSR_FRESH_OVER_SCALAR_FLOOR, (
        f"fresh-matrix FMSR(4,2) encode is {ratio:.2f}x the scalar oracle, "
        f"below the {FMSR_FRESH_OVER_SCALAR_FLOOR:.1f}x floor"
    )


@pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="lanes need two CPUs",
)
def test_fmsr_fresh_matrix_lanes_gate(benchmark, emit, monkeypatch):
    """Fresh-matrix FMSR(4,2) ``encode_views`` on the pool's lanes vs one.

    The encode of ``test_fmsr_fresh_matrix_encode_gate`` — every call
    builds its two tables — timed with the lane count the process's CPU
    affinity gives and with one lane, in alternating order, best-of-rounds
    on each side.
    """
    codecs = [FMSRCode(4, 2, seed=2000 + i) for i in range(FMSR_MATRICES)]
    size_mb = len(FMSR_PAYLOAD) / MB
    native = split_shards(FMSR_PAYLOAD, 4)
    oracle = gf_matmul(codecs[0].ecm, native)
    for node, frag in enumerate(codecs[0].encode_views(FMSR_PAYLOAD)):
        assert bytes(frag) == oracle[2 * node : 2 * node + 2].tobytes()

    def fresh() -> None:
        for codec in codecs:
            codec.encode_views(FMSR_PAYLOAD)

    workers = lanes.WORKERS
    walls: dict[int, list[float]] = {workers: [], 1: []}
    for trial in range(LANE_TRIALS):
        for count in (workers, 1) if trial % 2 else (1, workers):
            monkeypatch.setattr(lanes, "WORKERS", count)
            gc.collect()
            t0 = time.perf_counter()
            fresh()
            walls[count].append(time.perf_counter() - t0)
    monkeypatch.setattr(lanes, "WORKERS", workers)
    benchmark.pedantic(fresh, rounds=1, iterations=1)
    lanes_mb_s, one_mb_s = (len(codecs) * size_mb / min(walls[c]) for c in (workers, 1))
    ratio = lanes_mb_s / one_mb_s

    emit(
        "FMSR(4,2) fresh-matrix encode — kernel lanes gate\n"
        f"  payload:    {size_mb:.1f} MiB, {len(codecs)} matrices\n"
        f"  {workers} lanes:    {lanes_mb_s:.1f} MB/s\n"
        f"  one lane:   {one_mb_s:.1f} MB/s\n"
        f"  speedup:    {ratio:.2f}x (floor >= {LANES_OVER_ONE_LANE_FLOOR:.1f}x)"
    )
    assert ratio >= LANES_OVER_ONE_LANE_FLOOR, (
        f"fresh-matrix FMSR(4,2) encode on {workers} lanes is {ratio:.2f}x the "
        f"one-lane encode, below the {LANES_OVER_ONE_LANE_FLOOR:.1f}x floor"
    )


def test_fmsr_functional_repair_throughput(benchmark):
    codec = FMSRCode(4)
    fragments = codec.encode(PAYLOAD)
    survivors = {i: f for i, f in enumerate(fragments) if i != 2}

    def repair():
        return codec.repair(survivors, 2, len(PAYLOAD))

    new_fragment, _successor = benchmark(repair)
    assert len(new_fragment) == codec.fragment_size(len(PAYLOAD))
