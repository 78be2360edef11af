"""The one host thread pool that GIL-releasing lane work runs on.

Two layers split their bytes into lanes that run on real cores: fragment
digests (``hashlib`` drops the GIL for a big buffer) and the GF(2^8)
kernel's tile loop (``np.take`` and the XOR passes release it between
Python calls).  Both share this pool, so the process never runs more lane
threads than it has CPUs.

:data:`WORKERS` is the CPUs this process may run on, taken from its
affinity mask (a pinned container has fewer than the host), capped at
four.  With one, neither layer splits and the pool is never built.
"""

from __future__ import annotations

import os

__all__ = ["WORKERS", "pool"]

WORKERS = min(
    4,
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1,
)

_POOL = None


def _reset_pool() -> None:
    # Pool threads do not survive fork; a child that inherited a live pool
    # would deadlock on its first lane, so drop the reference and let the
    # child lazily build its own (the parallel experiment runner forks
    # workers mid-session).
    global _POOL
    _POOL = None


if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX only
    os.register_at_fork(after_in_child=_reset_pool)


def pool():
    """The shared pool of :data:`WORKERS` threads, built on first use (a
    process that never splits work never imports ``concurrent.futures``)."""
    global _POOL
    if _POOL is None:
        from concurrent.futures import ThreadPoolExecutor

        _POOL = ThreadPoolExecutor(max_workers=WORKERS, thread_name_prefix="host-lane")
    return _POOL
