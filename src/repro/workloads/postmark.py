"""PostMark-compatible workload generation.

The paper's Figure 6 runs PostMark ("designed to portray performance in
desktop applications like electronic mail, netnews and web-based commerce")
against the Cloud-of-Clouds: an initial pool of random files between a lower
and an upper size bound, followed by a transaction phase mixing reads,
writes/updates, creates and deletes, plus the metadata operations (stat,
list) that §II says dominate real workloads.

The generator emits a :class:`~repro.workloads.trace.TraceOp` list, so the
same workload replays bit-identically against every scheme — matching the
paper's methodology of running the same PostMark configuration per scheme.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.workloads.filesizes import (
    FileSizeDistribution,
    PostmarkPoolFileSizes,
)
from repro.workloads.trace import TraceOp

__all__ = ["PostMarkConfig", "generate_postmark"]

KB = 1024
MB = 1024 * 1024


@dataclass(frozen=True)
class PostMarkConfig:
    """PostMark knobs (names follow the original tool where they map).

    ``op_mix`` weights the transaction phase; PostMark's own mix is
    read/append vs create/delete around a live file pool, extended here with
    the stat/list metadata transactions the paper's motivation leans on.
    """

    file_pool: int = 50  # `set number` — initial file count
    transactions: int = 200  # `set transactions`
    size_lo: int = 1 * KB  # `set size` lower bound (paper: 1 KB)
    size_hi: int = 100 * MB  # `set size` upper bound (paper: 100 MB)
    subdirectories: int = 10  # `set subdirectories`
    sizes: FileSizeDistribution = field(default_factory=PostmarkPoolFileSizes)
    op_mix: tuple[tuple[str, float], ...] = (
        ("get", 0.38),
        ("update", 0.14),
        ("put", 0.12),
        ("remove", 0.06),
        ("stat", 0.22),
        ("list", 0.08),
    )
    delete_pool_at_end: bool = False

    def __post_init__(self) -> None:
        if self.file_pool < 1 or self.transactions < 0 or self.subdirectories < 1:
            raise ValueError("file_pool/transactions/subdirectories out of range")
        if not (0 < self.size_lo <= self.size_hi):
            raise ValueError("need 0 < size_lo <= size_hi")
        total = sum(w for _, w in self.op_mix)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"op_mix weights must sum to 1, got {total}")
        kinds = {k for k, _ in self.op_mix}
        unknown = kinds - {"get", "update", "put", "remove", "stat", "list"}
        if unknown:
            raise ValueError(f"unknown op kinds in mix: {unknown}")


def _pool_sizes(config: PostMarkConfig, rng: np.random.Generator, n: int) -> np.ndarray:
    sizes = config.sizes.sample(rng, n)
    return np.clip(sizes, config.size_lo, config.size_hi)


def generate_postmark(
    config: PostMarkConfig, rng: np.random.Generator
) -> list[TraceOp]:
    """Generate the full PostMark trace (pool creation + transactions)."""
    ops: list[TraceOp] = []
    live: list[str] = []
    sizes: dict[str, int] = {}
    serial = 0

    def new_path() -> str:
        nonlocal serial
        sub = serial % config.subdirectories
        path = f"/postmark/s{sub:02d}/f{serial:06d}.dat"
        serial += 1
        return path

    # Phase 1: build the initial pool.
    for size in _pool_sizes(config, rng, config.file_pool):
        path = new_path()
        ops.append(TraceOp("put", path, size=int(size)))
        live.append(path)
        sizes[path] = int(size)

    # Phase 2: transactions.
    kinds = [k for k, _ in config.op_mix]
    weights = np.array([w for _, w in config.op_mix])
    draws = rng.choice(len(kinds), size=config.transactions, p=weights)
    for draw in draws:
        kind = kinds[draw]
        if kind == "put" or (not live and kind in ("get", "update", "remove", "stat")):
            size = int(_pool_sizes(config, rng, 1)[0])
            path = new_path()
            ops.append(TraceOp("put", path, size=size))
            live.append(path)
            sizes[path] = size
            continue
        if kind == "list":
            sub = int(rng.integers(0, config.subdirectories))
            ops.append(TraceOp("list", f"/postmark/s{sub:02d}"))
            continue
        path = live[int(rng.integers(0, len(live)))]
        if kind == "get":
            ops.append(TraceOp("get", path))
        elif kind == "stat":
            ops.append(TraceOp("stat", path))
        elif kind == "update":
            # In-place small (4 KB) write at a random aligned offset — the
            # paper's expensive case for erasure-coded schemes.
            patch = min(4 * KB, sizes[path])
            limit = max(sizes[path] - patch, 0)
            offset = int(rng.integers(0, limit + 1))
            ops.append(TraceOp("update", path, size=patch, offset=offset))
        elif kind == "remove":
            live.remove(path)
            sizes.pop(path)
            ops.append(TraceOp("remove", path))

    # Phase 3: PostMark's cleanup pass (optional here).
    if config.delete_pool_at_end:
        for path in list(live):
            ops.append(TraceOp("remove", path))
    return ops
