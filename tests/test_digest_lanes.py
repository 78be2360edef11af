"""Fragment digests are leaf lists, hashed as balanced lanes.

Every fragment a scheme stores is digested once at write time (the
paper's HAIL-style integrity check, its ref. [8]).  An object of one
64 KiB leaf or less keeps its plain SHA-256; a longer one is digested by
the SHA-256 of a zero prefix longer than a leaf, a header (its length and
the leaf size) and the SHA-256 of each leaf, so a truncated or extended
object, or its forged leaf list, still fails, and an in-place update
re-hashes only the leaves it changes.  A batch's leaves are cut
into near-equal contiguous lanes, every cut between two leaves, so HyRD's
three-fragment stripe hashes as two equal lanes on two cores and no lane
needs another's result.  Everything equals the serial reference
(``tests.conftest.leaf_list_digest``).  No lane may wait forever: not
when another lane raises, not behind another caller's lanes on the shared
pool, and not in a forked child.
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
from repro.core.config import MB, HyRDConfig
from repro.erasure.striping import split_views
from repro.schemes import HyrdScheme
from repro.schemes import base
from repro.schemes.base import Scheme, _hash_lanes, _lane_plan, _leaf_root
from repro.sim.clock import SimClock
from tests.conftest import DIGEST_LEAF as LEAF
from tests.conftest import leaf_list_digest

LANE_MIN = base._PARALLEL_DIGEST_MIN_BYTES
BYTES = np.random.default_rng(35).integers(0, 256, 3 * MB, dtype=np.uint8)
TIMEOUT_S = 30
#: the sizes a leaf list turns on: empty, one byte, either side of a leaf,
#: and several leaves with and without a short last one
EDGE_SIZES = [0, 1, LEAF - 1, LEAF, LEAF + 1, 3 * LEAF, 4 * LEAF + 17]


def _oracle(fragments) -> list[str]:
    return [leaf_list_digest(f) for f in fragments]


def _hashed(plan, batch, digest=Scheme._digest) -> list[str]:
    """Each fragment's digest, from a plan's lanes."""
    leaves = _hash_lanes(plan, batch, digest)
    return [_leaf_root(got, memoryview(f).nbytes) for got, f in zip(leaves, batch)]


@pytest.fixture
def two_lanes(monkeypatch):
    """A fresh two-worker lane pool, shut down after the test."""
    monkeypatch.setattr(lanes, "WORKERS", 2)
    monkeypatch.setattr(lanes, "_POOL", None)
    yield
    if lanes._POOL is not None:
        lanes._POOL.shutdown(wait=False, cancel_futures=True)


@pytest.fixture
def hyrd(providers, clock):
    return HyrdScheme(list(providers.values()), clock)


def _finishes(target, *args) -> bool:
    """Run ``target`` on a thread; True if it returned within the timeout."""
    worker = threading.Thread(target=target, args=args, daemon=True)
    worker.start()
    worker.join(TIMEOUT_S)
    return not worker.is_alive()


# ------------------------------------------------------------------- the plan
sizes = st.lists(
    st.integers(0, 6 * LEAF) | st.sampled_from(EDGE_SIZES),
    min_size=1,
    max_size=9,
)
equal_sizes = st.builds(lambda n, size: [size] * n, st.integers(1, 9), st.integers(0, 6 * LEAF))


class TestLanePlan:
    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(sizes=sizes | equal_sizes, lanes=st.integers(1, 4))
    def test_every_byte_once_cuts_between_leaves_lanes_balanced(self, sizes, lanes):
        plan = _lane_plan(sizes, lanes)
        assert 1 <= len(plan) <= lanes and all(plan)

        # In batch order, lane after lane, the runs tile every fragment.
        runs = [run for lane in plan for run in lane]
        at = {}
        for i, start, stop in runs:
            assert at.get(i, 0) == start and all(j <= i for j in at)
            assert start < stop or start == stop == 0
            assert start % LEAF == 0 and (stop % LEAF == 0 or stop == sizes[i])
            at[i] = stop
        assert at == dict(enumerate(sizes))

        total = sum(sizes)
        loads = [sum(stop - start for _, start, stop in lane) for lane in plan]
        if total // lanes >= LEAF:
            assert len(plan) == lanes
            assert all(abs(load - total / lanes) <= LEAF + 1 for load in loads)

    def test_three_equal_fragments_take_two_equal_lanes(self):
        plan = _lane_plan([MB, MB, MB], 2)
        assert plan == [[(0, 0, MB), (1, 0, MB // 2)], [(1, MB // 2, MB), (2, 0, MB)]]

    def test_a_fragment_longer_than_a_share_is_cut_between_leaves(self):
        assert _lane_plan([10 * LEAF, 1], 2) == [
            [(0, 0, 5 * LEAF)],
            [(0, 5 * LEAF, 10 * LEAF), (1, 0, 1)],
        ]
        quarters = [[(0, 2 * j * LEAF, 2 * (j + 1) * LEAF)] for j in range(4)]
        assert _lane_plan([8 * LEAF], 4) == quarters

    def test_a_fragment_end_is_a_leaf_boundary(self):
        assert _lane_plan([3, 3, 3], 2) == [[(0, 0, 3)], [(1, 0, 3), (2, 0, 3)]]
        assert _lane_plan([LEAF + 10] * 2, 2) == [[(0, 0, LEAF + 10)], [(1, 0, LEAF + 10)]]


# -------------------------------------------------------------- the digests
@st.composite
def fragments(draw):
    """1-9 fragments as bytes, memoryview, uint8 ndarray or split_views rows
    (equal lengths, a zero-padded tail, zero-length shards)."""
    batch = []
    while not batch or (len(batch) < 9 and draw(st.booleans())):
        size = draw(st.integers(0, 5 * LEAF) | st.sampled_from(EDGE_SIZES))
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
    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(batch=fragments(), lanes=st.integers(1, 4))
    def test_digests_equal_hashlib(self, batch, lanes):
        plan = _lane_plan([memoryview(f).nbytes for f in batch], lanes)
        assert _hashed(plan, batch) == _oracle(batch)

    def test_zero_length_shards(self):
        batch = split_views(b"", 3) + split_views(b"abc", 4)
        plan = _lane_plan([len(f) for f in batch], 4)
        assert _hashed(plan, batch) == _oracle(batch)

    @pytest.mark.parametrize("size", EDGE_SIZES)
    def test_every_digest_site_takes_the_reference(self, hyrd, size):
        data = BYTES[:size].tobytes()
        expected = leaf_list_digest(data)
        assert hyrd._record_digest("r", data) == expected
        assert hyrd._digest_fragments(["f"], [data]) == (expected,)
        assert hyrd._verify_digest("v", bytes(data), expected)
        if size <= LEAF:  # one leaf: the plain SHA-256, as before leaf lists
            assert expected == hashlib.sha256(data).hexdigest()


# ------------------------------------------------------ the incremental re-hash
def _changed(old: bytes, spans) -> bytes:
    """``old`` with every byte in ``spans`` inverted."""
    new = np.frombuffer(old, dtype=np.uint8).copy()
    for start, stop in spans:
        new[start:stop] ^= 0xFF
    return new.tobytes()


span_sets = st.integers(1, 6 * LEAF).flatmap(
    lambda size: st.tuples(
        st.just(size),
        st.lists(
            st.tuples(st.integers(0, size), st.integers(0, 2 * LEAF)).map(
                lambda s: (s[0], min(size, s[0] + s[1]))
            ),
            max_size=3,
        ),
    )
)


class TestIncrementalReHash:
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(drawn=span_sets)
    def test_reused_leaves_equal_a_full_recompute(self, drawn):
        clock = SimClock()
        hyrd = HyrdScheme(list(make_table2_cloud_of_clouds(clock).values()), clock)
        hashed = [0]

        def counting(data):
            hashed[0] += len(data)
            return Scheme._digest(data)

        hyrd._digest = counting
        size, spans = drawn
        old = BYTES[:size].tobytes()
        new = _changed(old, spans)
        hyrd._record_digest("k", old)
        hashed[0] = 0
        assert hyrd._digest_patched("k", old, new, spans) == leaf_list_digest(new)
        leaves = {at // LEAF for start, stop in spans for at in range(start, stop)}
        assert hashed[0] == sum(min(LEAF, size - leaf * LEAF) for leaf in leaves)
        # ...and the fresh object is recorded: a read of it hashes nothing.
        hashed[0] = 0
        assert hyrd._verify_digest("k", new, leaf_list_digest(new)) and hashed[0] == 0

    def test_any_other_object_is_hashed_whole(self, hyrd, hashed):
        old = BYTES[: 4 * LEAF].tobytes()
        new = _changed(old, [(10, 20)])
        hyrd._record_digest("k", old)
        hashed[0] = 0
        copy = bytes(bytearray(old))  # equal bytes, another object
        assert hyrd._digest_patched("k", copy, new, [(10, 20)]) == leaf_list_digest(new)
        assert hashed[0] == len(new)

    @pytest.mark.parametrize("codec", ["raid5", "rs"])
    @settings(max_examples=12, derandomize=True, deadline=None)
    @given(
        size=st.integers(3 * LEAF, 9 * LEAF),
        where=st.sampled_from(
            ["inside a leaf", "across a leaf", "across fragments", "padded tail", "start", "end"]
        ),
        length=st.integers(0, LEAF // 2),
    )
    def test_an_update_records_what_a_full_hash_would(self, codec, size, where, length):
        clock = SimClock()
        fleet = list(make_table2_cloud_of_clouds(clock).values())
        config = HyRDConfig(erasure_codec=codec, size_threshold=LEAF)
        scheme = HyrdScheme(fleet, clock, config=config)
        data = BYTES[:size].tobytes()
        scheme.put("/d/f", data)
        entry = scheme.namespace.get("/d/f")
        codec_ = scheme._codec_for(entry)
        assert codec_.systematic and codec_.k > 1  # a striped file, patched in place
        frag_len = codec_.fragment_size(size)
        tail = (codec_.k - 1) * frag_len  # the last data fragment, zero-padded
        offset = {
            "inside a leaf": LEAF + 10,
            "across a leaf": LEAF - length // 2,
            "across fragments": frag_len - length // 2,
            "padded tail": tail + (size - tail) // 2,
            "start": 0,
            "end": size - length,
        }[where]
        offset = max(0, min(offset, size - length))
        patch = bytes(range(256)) * (length // 256) + bytes(length % 256)
        scheme.update("/d/f", offset, patch)
        entry = scheme.namespace.get("/d/f")
        held = {idx: data for idx, data, _ in scheme._held_placements(entry)}
        assert entry.digests == tuple(leaf_list_digest(held[i]) for i in range(codec_.n))
        new = data[:offset] + patch + data[offset + length :]
        assert [bytes(held[i]) for i in range(codec_.n)] == codec_.encode(new)


# ------------------------------------------------------------- what it catches
class TestWhatTheDigestCatches:
    SIZE = 5 * LEAF + 17

    @pytest.fixture
    def recorded(self, hyrd):
        data = BYTES[: self.SIZE].tobytes()
        return data, hyrd._record_digest("k", data)

    @pytest.mark.parametrize("leaf", range(6))
    def test_a_one_byte_flip_in_any_leaf_fails(self, hyrd, recorded, leaf):
        data, digest = recorded
        damaged = bytearray(data)
        damaged[min(leaf * LEAF + 123, self.SIZE - 1)] ^= 0x01
        assert not hyrd._verify_digest("k", bytes(damaged), digest)

    @pytest.mark.parametrize(
        "cut",
        [
            lambda d: d[:-1],
            lambda d: d[: 5 * LEAF],
            lambda d: d[:LEAF],
            lambda d: d + b"\0",
            lambda d: d + bytes(LEAF),
        ],
        ids=["one byte short", "short leaf dropped", "one leaf left", "one zero more", "leaf more"],
    )
    def test_a_truncated_or_extended_buffer_fails(self, hyrd, recorded, cut):
        data, digest = recorded
        assert not hyrd._verify_digest("k", cut(data), digest)

    @pytest.mark.parametrize(
        "forge",
        [
            lambda header, leaves: leaves,
            lambda header, leaves: header + leaves,
            lambda header, leaves: bytes(LEAF + 1) + header + leaves,
        ],
        ids=["leaves", "header and leaves", "whole preimage"],
    )
    def test_a_forged_leaf_list_does_not_pass_as_the_object(self, hyrd, recorded, forge):
        """A provider that hands back (part of) the bytes a long object's
        root hashes instead of the object: without the zero prefix they are
        a short object whose plain SHA-256 must differ; with it, a long one
        whose own leaf list must."""
        data, digest = recorded
        header = base._LEAF_HEADER.pack(b"leaflist", self.SIZE, LEAF)
        forged = forge(header, Scheme._digest(memoryview(data)))
        assert leaf_list_digest(forged) != digest
        assert hyrd._record_digest("forged", forged) != digest
        assert not hyrd._verify_digest("k", forged, digest)

    def test_a_forged_fragment_is_corrupt_to_the_scrubber_and_an_erasure_to_a_read(
        self, hyrd, providers
    ):
        data = BYTES[: 2 * MB].tobytes()
        hyrd.put("/d/f", data)
        entry = hyrd.namespace.get("/d/f")
        prov, idx = entry.placements[0]
        key = hyrd._placement_storage_key(entry, idx)
        fragment = providers[prov].store.get(hyrd.container, key).data
        size = memoryview(fragment).nbytes
        forged = base._LEAF_HEADER.pack(b"leaflist", size, LEAF) + Scheme._digest(
            memoryview(fragment).cast("B")
        )
        providers[prov].store.tamper(hyrd.container, key, forged)
        audit = hyrd.verify_object("/d/f")
        assert [(f.provider, f.kind) for f in audit.findings] == [(prov, "corrupt")]
        got, report = hyrd.get("/d/f")
        assert got == data and report.degraded

    def test_objects_cut_into_other_leaves_differ(self):
        leaves = Scheme._digest(memoryview(BYTES[: 2 * LEAF]))
        assert _leaf_root(leaves, 2 * LEAF) != _leaf_root(leaves, 2 * LEAF - 1)


# ------------------------------------------------------- no lane waits forever
def _split_batch():
    """Three 600 KiB fragments whose middle one straddles the two lanes' cut."""
    batch = [BYTES[i * 600 * 1024 : (i + 1) * 600 * 1024] for i in range(3)]
    plan = _lane_plan([len(f) for f in batch], 2)
    assert len(plan) == 2 and plan[0][-1][0] == plan[1][0][0] == 1
    return batch, plan


class TestNoLaneWaitsForever:
    def test_a_raising_lane_raises_its_error_in_the_caller(self, two_lanes):
        batch, plan = _split_batch()
        boom = RuntimeError("last fragment")

        def digest(data):
            if data.obj is batch[2]:  # the second lane's last run
                raise boom
            return Scheme._digest(data)

        raised = []

        def call():
            with pytest.raises(RuntimeError) as info:
                _hashed(plan, batch, digest)
            raised.append(info.value)

        assert _finishes(call)
        assert raised == [boom]
        assert _hashed(plan, batch) == _oracle(batch)

    def test_a_non_contiguous_fragment_fails_its_batch_only(self, two_lanes, hyrd):
        batch, _ = _split_batch()
        strided = BYTES[: 2 * 600 * 1024 : 2]  # the straddling fragment, not C-contiguous
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
        either second lane is queued: a lane that waited on its partner
        would wait forever."""
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
        """More callers than cores share the pool's workers, switching
        threads every microsecond: every batch finishes, every digest
        right."""
        batches = []
        for n in range(1, 5):  # a fragment cut once, and cut into several runs
            batch = [BYTES[:1], BYTES[1 : 1 + 2 * n * LANE_MIN], BYTES[:LEAF + 1]]
            plan = _lane_plan([len(f) for f in batch], 2)
            assert len(plan) == 2 and plan[0][-1][0] == plan[1][0][0] == 1
            batches.append((batch, plan, _oracle(batch)))
        wrong = []
        finished = []

        def caller():
            for _ in range(25):
                for batch, plan, expected in batches:
                    if _hashed(plan, batch) != expected:
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

    def test_a_forked_child_digests_on_its_own_pool(self, two_lanes, hyrd):
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
    """perfbench records a span per ``Scheme._digest`` call and reads its
    bytes off the one argument.  A write's calls run on pool threads while
    the caller blocks, one per run of whole leaves of one fragment."""

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
        assert all(len(args) == 1 for _, *args in calls)
        assert all(thread != threading.get_ident() for thread, *_ in calls)

        pieces = [bytes(data) for _, data in calls]
        whole = [p for p in pieces if p in stored]
        split = [p for p in pieces if p not in stored]
        assert len(whole) == 2 and len(split) == 2  # one fragment is cut
        # the lanes may answer in either order
        head, tail = split if split[0] + split[1] in stored else split[::-1]
        assert len(head) % LEAF == 0  # ...between two leaves
        assert sorted([*whole, head + tail]) == stored
