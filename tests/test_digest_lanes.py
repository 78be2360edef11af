"""Fragment digests hash as balanced byte lanes.

Every fragment a scheme stores is SHA-256'd once at write time (the
paper's HAIL-style integrity check, its ref. [8]).  A batch's bytes are cut
into equal contiguous lanes (McNaughton's wrap-around rule), so HyRD's
three-fragment stripe hashes as two equal lanes on two cores.  A fragment
that straddles a cut is hashed in two spans, head before tail, and the
digests are exactly ``hashlib.sha256`` of each fragment.  No lane may wait
forever: not when another lane raises, not behind another caller's lanes
on the shared pool, and not in a forked child.
"""

import hashlib
import os
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import lanes
from repro.cloud.provider import make_table2_cloud_of_clouds
from repro.core.config import MB
from repro.erasure.striping import split_views
from repro.schemes import HyrdScheme
from repro.schemes import base
from repro.schemes.base import Scheme, _hash_lanes, _lane_plan
from repro.sim.clock import SimClock

LANE_MIN = base._PARALLEL_DIGEST_MIN_BYTES
BYTES = np.random.default_rng(35).integers(0, 256, 3 * MB, dtype=np.uint8)
TIMEOUT_S = 30


def _oracle(fragments) -> list[str]:
    return [hashlib.sha256(bytes(f)).hexdigest() for f in fragments]


@pytest.fixture
def two_lanes(monkeypatch):
    """A fresh two-worker lane pool, shut down after the test."""
    monkeypatch.setattr(lanes, "WORKERS", 2)
    monkeypatch.setattr(lanes, "_POOL", None)
    yield
    if lanes._POOL is not None:
        lanes._POOL.shutdown(wait=False, cancel_futures=True)


def _finishes(target, *args) -> bool:
    """Run ``target`` on a thread; True if it returned within the timeout."""
    worker = threading.Thread(target=target, args=args, daemon=True)
    worker.start()
    worker.join(TIMEOUT_S)
    return not worker.is_alive()


# ------------------------------------------------------------------- the plan
sizes = st.lists(
    st.integers(0, 3 * LANE_MIN) | st.sampled_from([0, 1, LANE_MIN - 1, LANE_MIN]),
    min_size=1,
    max_size=9,
)
equal_sizes = st.builds(lambda n, size: [size] * n, st.integers(1, 9), st.integers(0, 3 * LANE_MIN))


class TestLanePlan:
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(sizes=sizes | equal_sizes, lanes=st.integers(1, 4))
    def test_every_byte_once_heads_first_lanes_balanced(self, sizes, lanes):
        plan = _lane_plan(sizes, lanes)
        assert 1 <= len(plan) <= lanes

        spans: dict[int, list[tuple[int, int, int, int]]] = {}
        for lane_no, lane in enumerate(plan):
            for pos, (i, start, stop) in enumerate(lane):
                assert 0 <= start < stop or start == stop == 0
                spans.setdefault(i, []).append((start, stop, lane_no, pos))
        assert sorted(spans) == list(range(len(sizes)))
        for i, pieces in spans.items():
            pieces.sort()
            covered = 0
            for start, stop, _, _ in pieces:
                assert start == covered
                covered = stop
            assert covered == sizes[i]
            if len(pieces) == 2:  # split: the head opens the next lane, the tail closes this one
                (_, _, head_lane, head_pos), (_, _, tail_lane, _) = pieces
                assert head_lane == tail_lane + 1 and head_pos == 0
                assert plan[tail_lane][-1][0] == i
            else:
                assert len(pieces) == 1

        share = -(-sum(sizes) // lanes)
        loads = [sum(stop - start for _, start, stop in lane) for lane in plan]
        if max(sizes) <= share:
            assert max(loads) <= share
        assert all(load == max(loads) for load in loads[:-1])

    def test_three_equal_fragments_take_two_equal_lanes(self):
        plan = _lane_plan([3, 3, 3], 2)
        assert plan == [[(0, 0, 3), (1, 1, 3)], [(1, 0, 1), (2, 0, 3)]]

    def test_a_fragment_longer_than_a_share_is_never_split(self):
        assert _lane_plan([10, 1], 2) == [[(0, 0, 10)], [(1, 0, 1)]]
        assert _lane_plan([10], 4) == [[(0, 0, 10)]]


# -------------------------------------------------------------- the digests
@st.composite
def fragments(draw):
    """1-9 fragments as bytes, memoryview, uint8 ndarray or split_views rows
    (equal lengths, a zero-padded tail, zero-length shards)."""
    batch = []
    while not batch or (len(batch) < 9 and draw(st.booleans())):
        size = draw(st.integers(0, 3 * LANE_MIN) | st.sampled_from([0, 1, LANE_MIN + 1]))
        offset = draw(st.integers(0, len(BYTES) - size))
        chunk = BYTES[offset : offset + size]
        kind = draw(st.sampled_from(["bytes", "memoryview", "ndarray", "split_views"]))
        if kind == "bytes":
            batch.append(chunk.tobytes())
        elif kind == "memoryview":
            batch.append(memoryview(chunk.tobytes()))
        elif kind == "ndarray":
            batch.append(chunk)
        else:
            batch.extend(split_views(chunk.tobytes(), draw(st.integers(2, 4))))
    return batch[:9]


class TestLaneDigests:
    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(batch=fragments(), lanes=st.integers(1, 4))
    def test_digests_equal_hashlib(self, batch, lanes):
        plan = _lane_plan([memoryview(f).nbytes for f in batch], lanes)
        assert _hash_lanes(plan, batch, Scheme._digest) == _oracle(batch)

    def test_zero_length_shards(self):
        batch = split_views(b"", 3) + split_views(b"abc", 4)
        plan = _lane_plan([len(f) for f in batch], 4)
        assert _hash_lanes(plan, batch, Scheme._digest) == _oracle(batch)


# ------------------------------------------------------- no lane waits forever
def _split_batch():
    """Three 600 KiB fragments whose middle one straddles the two lanes' cut."""
    batch = [BYTES[i * 600_000 : (i + 1) * 600_000] for i in range(3)]
    plan = _lane_plan([len(f) for f in batch], 2)
    assert len(plan) == 2 and plan[0][-1][1] > 0
    return batch, plan


class TestNoLaneWaitsForever:
    def test_a_raising_lane_raises_its_error_in_the_caller(self, two_lanes):
        batch, plan = _split_batch()
        boom = RuntimeError("head span")

        def digest(data, state=None):
            if state is not None:  # both spans of the split fragment
                raise boom
            return Scheme._digest(data)

        raised = []

        def call():
            with pytest.raises(RuntimeError) as info:
                _hash_lanes(plan, batch, digest)
            raised.append(info.value)

        assert _finishes(call)
        assert raised == [boom]
        assert _hash_lanes(plan, batch, Scheme._digest) == _oracle(batch)

    def test_a_non_contiguous_fragment_fails_its_batch_only(
        self, two_lanes, providers, clock
    ):
        hyrd = HyrdScheme(list(providers.values()), clock)
        batch, _ = _split_batch()
        strided = BYTES[: 2 * 600_000 : 2]  # the straddling fragment, not C-contiguous
        assert not strided.flags.c_contiguous
        errors = []

        def call():
            try:
                hyrd._digest_fragments(["a", "b", "c"], [batch[0], strided, batch[2]])
            except (TypeError, BufferError) as error:
                errors.append(error)

        assert _finishes(call)
        assert len(errors) == 1
        assert hyrd._digest_fragments(["a", "b", "c"], batch) == tuple(_oracle(batch))

    def test_two_callers_on_the_shared_pool_both_finish(self, two_lanes, monkeypatch, payload):
        """Both callers' first lanes take the pool's two workers before
        either second lane is queued: a first lane that waited for its
        partner's head would wait forever."""
        pool = lanes.pool()
        first_lanes = threading.Barrier(2)
        submitted = threading.local()

        class Interleaved:
            @staticmethod
            def submit(fn, *args):
                future = pool.submit(fn, *args)
                submitted.lanes = getattr(submitted, "lanes", 0) + 1
                if submitted.lanes % 2:  # every put here hashes one two-lane batch
                    first_lanes.wait(TIMEOUT_S)
                return future

        monkeypatch.setattr(lanes, "pool", lambda: Interleaved)
        data = payload(2 * MB)
        done = []

        def client():
            clock = SimClock()
            hyrd = HyrdScheme(list(make_table2_cloud_of_clouds(clock).values()), clock)
            for i in range(4):
                hyrd.put(f"/d/f{i}", data)
            done.append(hyrd)

        threads = [threading.Thread(target=client, daemon=True) for _ in range(2)]
        for t in threads:
            t.start()
        deadline = time.monotonic() + TIMEOUT_S
        for t in threads:
            t.join(max(0.0, deadline - time.monotonic()))
        assert len(done) == 2

    def test_many_callers_under_a_short_switch_interval(self, two_lanes):
        """More callers than cores race every handoff's claim and release;
        a lost claim hashes a head twice and a lost release hangs."""
        batches = []
        for n in range(1, 5):  # a one-byte first lane reaches its tail as the next lane starts
            batch = [BYTES[:1], BYTES[1 : 1 + 10_000 * n], BYTES[:1]]
            plan = _lane_plan([len(f) for f in batch], 2)
            assert len(plan) == 2 and plan[0][-1][1] > 0
            batches.append((batch, plan, _oracle(batch)))
        wrong = []
        finished = []

        def caller():
            for _ in range(25):
                for batch, plan, expected in batches:
                    if _hash_lanes(plan, batch, Scheme._digest) != expected:
                        wrong.append(plan)
            finished.append(True)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, daemon=True) for _ in range(6)]
            for t in threads:
                t.start()
            deadline = time.monotonic() + TIMEOUT_S
            for t in threads:
                t.join(max(0.0, deadline - time.monotonic()))
        finally:
            sys.setswitchinterval(switch)
        assert len(finished) == 6 and not wrong

    def test_a_forked_child_digests_on_its_own_pool(self, two_lanes, providers, clock):
        hyrd = HyrdScheme(list(providers.values()), clock)
        batch = split_views(BYTES[: 2 * MB].tobytes(), 3)
        expected = tuple(_oracle(batch))
        assert hyrd._digest_fragments(["a", "b", "c"], batch) == expected
        inherited = lanes._POOL
        assert inherited is not None

        pid = os.fork()
        if pid == 0:  # pragma: no cover - the child reports through its exit code
            status = 1
            try:
                fresh = lanes._POOL is None
                ok = hyrd._digest_fragments(["a", "b", "c"], batch) == expected
                status = 0 if fresh and ok and lanes._POOL is not inherited else 1
            finally:
                os._exit(status)
        deadline = time.monotonic() + TIMEOUT_S
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done or time.monotonic() > deadline:
                break
            time.sleep(0.01)
        if not done:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
        assert done and os.waitstatus_to_exitcode(status) == 0


# --------------------------------------------------------- the recorder's seam
class TestRecorderContract:
    """perfbench records a span per ``Scheme._digest`` call, reads its bytes
    off the first argument and expects every call on a pool thread while
    the caller blocks."""

    def test_every_digest_call_is_off_the_caller_and_covers_the_fragments(
        self, two_lanes, monkeypatch, providers, clock, payload
    ):
        calls = []
        real = Scheme._digest

        def recording(*args):
            calls.append((threading.get_ident(), *args))
            return real(*args)

        monkeypatch.setattr(Scheme, "_digest", staticmethod(recording))
        hyrd = HyrdScheme(list(providers.values()), clock)
        hyrd.put("/d/big", payload(2 * MB))

        entry = hyrd.namespace.get("/d/big")
        stored = sorted(
            bytes(providers[name].store.get(hyrd.container, key).data)
            for name, idx in entry.placements
            for key in [hyrd._fragment_key(entry.path, idx, entry.version)]
        )
        assert len(stored) == 3
        assert all(thread != threading.get_ident() for thread, *_ in calls)

        whole = [bytes(args[0]) for _, *args in calls if len(args) == 1]
        split: dict[int, list] = {}
        for _, *args in calls:
            if len(args) == 2:
                split.setdefault(id(args[1]), []).append(bytes(args[0]))
        assert len(split) == 1 and all(len(spans) == 2 for spans in split.values())
        hashed = whole + [b"".join(spans) for spans in split.values()]
        assert sorted(hashed) == stored
        assert sum(len(args[0]) for _, *args in calls) == sum(len(s) for s in stored)
