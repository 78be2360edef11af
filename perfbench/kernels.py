"""Isolated layer kernels and the machine calibration kernel.

Each layer kernel is a direct, warm call into one layer's public entry
point on a fixed input, reported as the median of ``REPEATS`` calls.  They
bound what a change to that layer can save: the matching ``*_self_s`` of a
traced run cannot fall below calls x this cost.

Degraded decode erases **one data fragment**, so the decoder has to do
arithmetic; a healthy decode of a systematic code only joins the data
fragments and measures nothing (the 7669 MB/s "RS decode" of
``BENCH_2026-08-08.json`` was that fast path).

The calibration kernel is work this repository's code has no part in — one
64 MiB ``bytes`` copy and one NumPy XOR of two 16 MiB arrays, into buffers
allocated once — run around every timed trial.  ``host_ops_per_s`` x its
median seconds is a rate in machine-normalised units, and its own spread
says how noisy the box was.
"""

from __future__ import annotations

import hashlib
import statistics
import time

import numpy as np

from repro.erasure import get_codec
from repro.fs.metadata import encode_group
from repro.fs.namespace import FileEntry
from repro.metrics.registry import MetricsRegistry
from repro.sim.bandwidth import TransferSpec, simulate_transfers
from repro.workloads import TraceReplayer

MIB = 1 << 20
REPEATS = 9
CODEC_PAYLOAD = 4 * MIB

CODECS = {
    "erasure.raid5_k3": ("raid5", {"k": 3}),
    "erasure.rs_k2m2": ("rs", {"k": 2, "m": 2}),
    "erasure.fmsr_4_2": ("fmsr", {"n": 4, "k": 2}),
}


def _median_seconds(fn, repeats: int = REPEATS) -> float:
    fn()  # warm: plan caches, first-touch pages
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def _codec_kernels() -> dict[str, float]:
    payload = np.random.default_rng(0).integers(0, 256, CODEC_PAYLOAD, dtype=np.uint8).tobytes()
    mb = CODEC_PAYLOAD / 1e6
    out = {}
    for name, (codec_name, kwargs) in CODECS.items():
        codec = get_codec(codec_name, **kwargs)
        fragments = [bytes(f) for f in codec.encode_views(payload)]
        survivors = {i: f for i, f in enumerate(fragments) if i != 0}
        if codec.decode(survivors, CODEC_PAYLOAD) != payload:
            raise AssertionError(f"{name}: degraded decode returned the wrong bytes")
        out[f"{name}.encode_mb_s"] = mb / _median_seconds(lambda: codec.encode_views(payload))
        out[f"{name}.degraded_decode_mb_s"] = mb / _median_seconds(
            lambda: codec.decode(survivors, CODEC_PAYLOAD)
        )
    return out


def layer_kernels() -> dict[str, float]:
    """Every isolated kernel metric, by per-layer metric name."""
    out = _codec_kernels()

    buffer = bytes(MIB)
    out["schemes.sha256_mb_s"] = (MIB / 1e6) / _median_seconds(
        lambda: hashlib.sha256(buffer).hexdigest()
    )

    replayer = TraceReplayer(seed=0)
    out["workloads.synth_mb_s"] = (8 * MIB / 1e6) / _median_seconds(
        lambda: replayer.payload("/kernel/item.bin", 1, 8 * MIB)
    )

    group = [
        FileEntry(
            path=f"/kernel/d/f{i:04d}.dat", size=4096 + i, version=2, codec="replication",
            codec_params=(("r", 2),), placements=(("aliyun", 0), ("azure", 1)),
            created=1.5 * i, modified=2.5 * i, access_count=i, digests=("0" * 64, "1" * 64),
        )
        for i in range(50)
    ]
    out["fs.meta_encode_us"] = 1e6 * _median_seconds(lambda: encode_group(group))

    specs = [TransferSpec(0.05 * (i + 1), 256 * 1024.0, 2e6 * (i + 1)) for i in range(4)]
    out["sim.bandwidth_us_n4"] = 1e6 * _median_seconds(lambda: simulate_transfers(specs, 5e6))

    registry = MetricsRegistry()
    calls = 20_000

    def bump() -> None:
        for _ in range(calls):
            registry.counter("ops_total", op="get", degraded="false").inc()

    out["metrics.inc_ns"] = 1e9 * _median_seconds(bump) / calls
    return out


class Calibration:
    """The fixed machine kernel, run between trials.

    Source and destination buffers are allocated once, so a run measures
    memory bandwidth and the XOR loop, not the allocator's page faults.
    """

    def __init__(self) -> None:
        self._blob = bytes(64 * MIB)
        self._copy = bytearray(64 * MIB)
        rng = np.random.default_rng(0)
        self._a = rng.integers(0, 256, 16 * MIB, dtype=np.uint8)
        self._b = rng.integers(0, 256, 16 * MIB, dtype=np.uint8)
        self._mixed = np.empty_like(self._a)
        self.seconds: list[float] = []

    def run(self) -> None:
        t0 = time.perf_counter()
        self._copy[:] = self._blob
        np.bitwise_xor(self._a, self._b, out=self._mixed)
        self.seconds.append(time.perf_counter() - t0)

    def median_s(self) -> float:
        return statistics.median(self.seconds)
