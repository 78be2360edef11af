"""The vectorised GF kernel against the scalar oracle, byte for byte.

The kernel must reproduce ``gf_matmul`` exactly — on arbitrary coefficient
matrices, on the folded-column structures the planner exploits, at odd
lengths that exercise the uint16 pairing tail, through every codec's
``encode`` / ``encode_views`` surface, at every lane count its tile loop
splits into, and with two threads calling it at once.
"""

import importlib
import os
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import lanes
from repro.erasure import gfkernel
from repro.erasure.fmsr import FMSRCode
from repro.erasure.galois import gf_matmul, systematic_vandermonde
from repro.erasure.gfkernel import EncodePlan, gf_matmul_fast, plan_for, xor_rows
from repro.erasure.raid5 import Raid5Code
from repro.erasure.reed_solomon import ReedSolomonCode
from repro.erasure.replication import ReplicationCode
from repro.erasure.striping import split_shards

#: lengths that cross every kernel boundary: empty, single byte (odd tail
#: with no vector body), around the scalar cutoff, and around the tile size
BOUNDARY_LENGTHS = (0, 1, 2, 3, 2047, 2048, 2049, 65535, 65536, 65537)


def _random_case(seed: int, m: int, k: int, length: int):
    rng = np.random.default_rng(seed)
    coeff = rng.integers(0, 256, size=(m, k), dtype=np.uint8)
    rows = [rng.integers(0, 256, size=length, dtype=np.uint8) for _ in range(k)]
    stacked = (
        np.vstack(rows) if length else np.zeros((k, 0), dtype=np.uint8)
    )
    return coeff, rows, gf_matmul(coeff, stacked)


class TestKernelEquivalence:
    @pytest.mark.parametrize("length", BOUNDARY_LENGTHS)
    def test_matches_oracle_at_boundaries(self, length):
        coeff, rows, expected = _random_case(length + 17, 3, 4, length)
        got = plan_for(coeff).execute(rows, length)
        assert np.array_equal(got, expected)

    @given(
        seed=st.integers(0, 2**31),
        m=st.integers(1, 6),
        k=st.integers(1, 6),
        length=st.integers(0, 5000),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle_fuzzed(self, seed, m, k, length):
        coeff, rows, expected = _random_case(seed, m, k, length)
        assert np.array_equal(plan_for(coeff).execute(rows, length), expected)

    def test_vandermonde_folded_columns(self):
        """k=2 systematic generators hit the planner's difference-one fold;
        duplicated columns hit the difference-zero fold."""
        rng = np.random.default_rng(5)
        length = 70001  # odd, > tile
        for n in (3, 4, 6):
            gen = systematic_vandermonde(n, 2)[2:]
            rows = [rng.integers(0, 256, size=length, dtype=np.uint8) for _ in range(2)]
            expected = gf_matmul(gen, np.vstack(rows))
            got = plan_for(gen).execute(rows, length)
            assert np.array_equal(got, expected)
        dup = np.array([[7, 7, 3], [9, 9, 1], [4, 4, 4]], dtype=np.uint8)
        rows = [rng.integers(0, 256, size=length, dtype=np.uint8) for _ in range(3)]
        expected = gf_matmul(dup, np.vstack(rows))
        assert np.array_equal(plan_for(dup).execute(rows, length), expected)

    def test_unaligned_row_offsets(self):
        """Shard rows at odd byte offsets (split_views slices) still work."""
        rng = np.random.default_rng(9)
        base = rng.integers(0, 256, size=3 * 4097, dtype=np.uint8)
        rows = [base[i * 4097 : (i + 1) * 4097] for i in range(3)]
        coeff = rng.integers(0, 256, size=(2, 3), dtype=np.uint8)
        expected = gf_matmul(coeff, np.vstack(rows))
        got = plan_for(coeff).execute(rows, 4097)
        assert np.array_equal(got, expected)

    def test_zero_coefficient_rows(self):
        coeff = np.zeros((3, 2), dtype=np.uint8)
        rows = [np.arange(5000, dtype=np.uint8) % 251 for _ in range(2)]
        assert not plan_for(coeff).execute(rows, 5000).any()


class TestRowGroups:
    """The packed kernel takes output rows eight at a time by column pairs,
    then four, two and one at a time by byte pairs (``m = 7`` mixes the last
    three widths, ``m = 9`` an eight and a one); every mix must equal the
    oracle."""

    #: odd and even, below the scalar cutoff, and straddling one and two
    #: uint16 tiles (128 KiB of bytes each)
    LENGTHS = (
        1,
        2046,
        2047,
        2048,
        2049,
        5001,
        70000,
        131071,
        131072,
        131073,
        131075,
        262147,
    )

    @given(
        seed=st.integers(0, 2**31),
        m=st.integers(1, 9),
        k=st.integers(1, 6),
        length=st.sampled_from(LENGTHS),
        zero_rows=st.sets(st.integers(0, 8), max_size=3),
        zero_cols=st.sets(st.integers(0, 5), max_size=2),
        supply_out=st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_every_group_mix_matches_oracle(
        self, seed, m, k, length, zero_rows, zero_cols, supply_out
    ):
        rng = np.random.default_rng(seed)
        coeff = rng.integers(0, 256, size=(m, k), dtype=np.uint8)
        coeff[[r for r in zero_rows if r < m]] = 0
        coeff[:, [c for c in zero_cols if c < k]] = 0
        rows = [rng.integers(0, 256, size=length, dtype=np.uint8) for _ in range(k)]
        expected = gf_matmul(coeff, np.vstack(rows))
        out = np.full((m, length), 0xA5, dtype=np.uint8) if supply_out else None
        got = EncodePlan(coeff).execute(rows, length, out)
        assert out is None or got is out
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("m", range(1, 10))
    def test_group_widths_follow_the_row_count(self, m):
        plan = EncodePlan(np.ones((m, 2), dtype=np.uint8))
        widths = [8] * len(plan._octets) + [width for _, width, _ in plan._groups]
        rest = m % 8
        assert widths == (
            [8] * (m // 8) + [4] * (rest // 4) + [2] * (rest % 4 // 2) + [1] * (rest % 2)
        )
        starts = [r0 for r0, _ in plan._octets] + [r0 for r0, _, _ in plan._groups]
        assert starts == [sum(widths[:i]) for i in range(len(widths))]

    def test_fmsr_8x4_takes_one_column_pair_group(self):
        """FMSR(4,2)'s ECM gathers twice per byte position: shards 0|1 and
        2|3, each pair covering all eight rows."""
        plan = EncodePlan(FMSRCode(4, 2, seed=3).ecm)
        assert plan._groups == []
        ((r0, gathers),) = plan._octets
        assert r0 == 0
        assert [cols for cols, _ in gathers] == [(0, 1), (2, 3)]

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    @pytest.mark.parametrize("zero_cols", [(), (0,), (1, 2)])
    def test_column_pairs_skip_zero_columns_and_leave_an_odd_one(self, k, zero_cols):
        coeff, rows, _ = _random_case(k + 31, 8, k, 5001)
        coeff[coeff == 0] = 1
        coeff[:, [c for c in zero_cols if c < k]] = 0
        expected = gf_matmul(coeff, np.vstack(rows))
        plan = EncodePlan(coeff)
        live = [j for j in range(k) if j not in zero_cols]
        paired = [c for cols, _ in plan._octets[0][1] for c in cols if c is not None]
        assert paired == live
        assert np.array_equal(plan.execute(rows, 5001), expected)

    def test_a_fresh_8x4_matrix_builds_two_tables(self, monkeypatch):
        """A per-object FMSR matrix (NCCloud) builds two 512 KiB tables, and
        encoding with it again builds none."""
        monkeypatch.setattr(gfkernel, "_TABLES", gfkernel._TableCache())
        codec = FMSRCode(4, 2, seed=77)
        payload = np.random.default_rng(77).integers(0, 256, 300001, np.uint8).tobytes()
        codec.encode_views(payload)
        tables = dict(gfkernel._TABLES._entries)
        assert len(tables) == 2
        assert gfkernel._TABLES._bytes == 2 * (8 << 16)
        codec.encode_views(payload)
        assert gfkernel._TABLES._entries.keys() == tables.keys()
        assert all(gfkernel._TABLES._entries[k] is t for k, t in tables.items())

    def test_plan_survives_its_tables_being_recycled(self):
        """More distinct matrices than the table LRU holds: their tables
        are built into the evicted buffers, and the first plan — bound
        before any of that — must rebuild its own, not read a recycled one."""
        rng = np.random.default_rng(11)
        length = 9001
        rows = [rng.integers(0, 256, size=length, dtype=np.uint8)]
        stacked = np.vstack(rows)
        quad_bytes = np.dtype(np.uint64).itemsize << 16
        count = gfkernel._TABLE_BUDGET // quad_bytes + 8
        matrices = [
            rng.integers(1, 256, size=(4, 1), dtype=np.uint8) for _ in range(count)
        ]
        assert len({m.tobytes() for m in matrices}) == count
        first = plan_for(matrices[0])
        assert np.array_equal(
            first.execute(rows, length), gf_matmul(matrices[0], stacked)
        )
        for coeff in matrices[1:]:
            got = plan_for(coeff).execute(rows, length)
            assert np.array_equal(got, gf_matmul(coeff, stacked))
        assert gfkernel._TABLES._bytes <= gfkernel._TABLE_BUDGET
        assert np.array_equal(
            first.execute(rows, length), gf_matmul(matrices[0], stacked)
        )

    def test_one_plan_wider_than_the_table_budget(self, monkeypatch):
        """With room for one 512 KiB table, an 8x4 plan's two column-pair
        tables evict each other between gathers on every tile, and a 5x4
        plan's width-4 and width-1 tables do the same; both still equal the
        oracle."""
        monkeypatch.setattr(gfkernel, "_TABLE_BUDGET", 1 << 19)
        for m in (8, 5):
            coeff, rows, expected = _random_case(23, m, 4, 300001)
            for _ in range(2):
                assert np.array_equal(plan_for(coeff).execute(rows, 300001), expected)
            assert gfkernel._TABLES._bytes <= 1 << 19


class TestPlanApi:
    def test_plan_cache_reuse(self):
        coeff = np.array([[1, 2], [3, 4]], dtype=np.uint8)
        assert plan_for(coeff) is plan_for(coeff.copy())

    def test_out_parameter(self):
        coeff, rows, expected = _random_case(1, 2, 3, 3000)
        out = np.empty((2, 3000), dtype=np.uint8)
        got = plan_for(coeff).execute(rows, 3000, out)
        assert got is out
        assert np.array_equal(out, expected)

    def test_bad_out_rejected(self):
        plan = EncodePlan(np.ones((2, 2), dtype=np.uint8))
        rows = [np.zeros(10, dtype=np.uint8)] * 2
        with pytest.raises(ValueError, match="out must be"):
            plan.execute(rows, 10, out=np.empty((3, 10), dtype=np.uint8))

    def test_wrong_row_count_rejected(self):
        plan = EncodePlan(np.ones((2, 3), dtype=np.uint8))
        with pytest.raises(ValueError, match="shard rows"):
            plan.execute([np.zeros(4, dtype=np.uint8)], 4)

    def test_gf_matmul_fast_shape_contract(self):
        a = np.ones((2, 3), dtype=np.uint8)
        b = np.ones((4, 10), dtype=np.uint8)
        with pytest.raises(ValueError, match="incompatible shapes"):
            gf_matmul_fast(a, b)

    @given(
        seed=st.integers(0, 2**31),
        r=st.integers(1, 5),
        c=st.integers(1, 5),
        length=st.integers(0, 4000),
    )
    @settings(max_examples=40, deadline=None)
    def test_gf_matmul_fast_equals_oracle(self, seed, r, c, length):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 256, size=(r, c), dtype=np.uint8)
        b = rng.integers(0, 256, size=(c, length), dtype=np.uint8)
        assert np.array_equal(gf_matmul_fast(a, b), gf_matmul(a, b))


class TestXorRows:
    @given(
        seed=st.integers(0, 2**31),
        k=st.integers(1, 6),
        length=st.integers(0, 5000),
    )
    @settings(max_examples=40, deadline=None)
    def test_equals_reduce(self, seed, k, length):
        rng = np.random.default_rng(seed)
        rows = [rng.integers(0, 256, size=length, dtype=np.uint8) for _ in range(k)]
        expected = (
            np.bitwise_xor.reduce(np.vstack(rows), axis=0)
            if length
            else np.zeros(0, dtype=np.uint8)
        )
        assert np.array_equal(xor_rows(rows, length), expected)
        assert np.array_equal(
            xor_rows([r.tobytes() for r in rows], length), expected
        )

    def test_empty_row_list_zero_fills(self):
        assert not xor_rows([], 16).any()

    @pytest.mark.parametrize("count", [1, 2, 3])
    @pytest.mark.parametrize("length", [0, 1, 4 * gfkernel._TILE + 3])
    def test_one_two_and_three_rows_equal_the_fold(self, count, length):
        rng = np.random.default_rng(count * 7 + length)
        rows = [rng.integers(0, 256, size=length, dtype=np.uint8) for _ in range(count)]
        expected = rows[0].copy()
        for row in rows[1:]:
            expected ^= row
        snapshot = [r.copy() for r in rows]
        assert np.array_equal(xor_rows(rows, length), expected)
        out = np.full(length, 0xA5, dtype=np.uint8)
        assert xor_rows([memoryview(r) for r in rows], length, out=out) is out
        assert np.array_equal(out, expected)
        assert all(np.array_equal(r, s) for r, s in zip(rows, snapshot))


def _all_codecs():
    return [
        pytest.param(Raid5Code(3), id="raid5-3+1"),
        pytest.param(ReedSolomonCode(2, 2), id="rs-2+2"),
        pytest.param(ReedSolomonCode(3, 2), id="rs-3+2"),
        pytest.param(FMSRCode(4), id="fmsr-4,2"),
        pytest.param(ReplicationCode(2), id="replication-2"),
    ]


def _boundary_payload_sizes(codec):
    k = codec.k
    return sorted({0, 1, k - 1, k, k + 1, 3 * k * 2048 - 1, 3 * k * 2048, 3 * k * 2048 + 1} - {-1})


class TestCodecSurfaces:
    @pytest.mark.parametrize("codec", _all_codecs())
    def test_encode_views_equals_encode(self, codec):
        rng = np.random.default_rng(23)
        for size in _boundary_payload_sizes(codec):
            payload = rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()
            encoded = [bytes(f) for f in codec.encode(payload)]
            views = [bytes(f) for f in codec.encode_views(payload)]
            assert views == encoded, f"size={size}"

    @pytest.mark.parametrize("codec", _all_codecs())
    def test_encode_matches_scalar_oracle(self, codec, monkeypatch):
        """With the cutoff raised past the payload every GF product goes
        through ``gf_matmul``; the codec's fragments must not change."""
        rng = np.random.default_rng(31)
        payload = rng.integers(0, 256, size=3 * 2048 * codec.k + 1, dtype=np.uint8).tobytes()
        kernel = [bytes(f) for f in codec.encode(payload)]
        monkeypatch.setattr(gfkernel, "_SMALL_CUTOFF", len(payload) + 1)
        assert [bytes(f) for f in codec.encode(payload)] == kernel

    def test_rs_encode_matches_scalar_generator_product(self):
        """The gate's identity check, in miniature: kernel fragments equal
        the full scalar generator product."""
        codec = ReedSolomonCode(2, 2)
        payload = np.random.default_rng(3).integers(
            0, 256, size=1 * 1024 * 1024 + 1, dtype=np.uint8
        ).tobytes()
        oracle = gf_matmul(codec.generator_matrix, split_shards(payload, codec.k))
        for i, frag in enumerate(codec.encode_views(payload)):
            assert bytes(frag) == oracle[i].tobytes(), i


# ------------------------------------------------------------------- lanes
TILE = gfkernel._TILE
TIMEOUT_S = 30


@pytest.fixture
def lane_count(monkeypatch):
    """``lane_count(n)``: the kernel splits into up to ``n`` lanes on a
    fresh ``n``-worker pool; every pool made here is shut down after."""

    def set_count(n: int) -> None:
        monkeypatch.setattr(lanes, "WORKERS", n)
        monkeypatch.setattr(lanes, "_POOL", None)

    original = lanes._POOL
    yield set_count
    if lanes._POOL is not None and lanes._POOL is not original:
        lanes._POOL.shutdown(wait=False, cancel_futures=True)


@pytest.fixture
def lane_spy(monkeypatch):
    """Records each ``_run_lanes`` call's lane count, and the thread every
    lane ran on."""
    seen = {"counts": [], "threads": []}
    run_lanes, run_lane = gfkernel._run_lanes, EncodePlan._run_lane

    def counting(tasks):
        seen["counts"].append(len(tasks))
        return run_lanes(tasks)

    def recording(self, *args):
        seen["threads"].append(threading.get_ident())
        return run_lane(self, *args)

    monkeypatch.setattr(gfkernel, "_run_lanes", counting)
    monkeypatch.setattr(EncodePlan, "_run_lane", recording)
    return seen


def _finishes(target, *args) -> bool:
    """Run ``target`` on a thread; True if it returned within the timeout."""
    worker = threading.Thread(target=target, args=args, daemon=True)
    worker.start()
    worker.join(TIMEOUT_S)
    return not worker.is_alive()


def _in_child(check) -> bool:
    """Run ``check`` in a forked child; True if it returned True there
    within the timeout."""
    pid = os.fork()
    if pid == 0:  # pragma: no cover - the child reports through its exit code
        status = 1
        try:
            status = 0 if check() else 1
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
    return bool(done) and os.waitstatus_to_exitcode(status) == 0


class TestLaneCuts:
    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(
        even=st.integers(0, 5 * TILE).map(lambda n: 2 * n)
        | st.sampled_from([2 * TILE - 2, 2 * TILE, 4 * TILE - 2, 4 * TILE + 2]),
        count=st.integers(1, 4),
    )
    def test_cuts_are_even_disjoint_covering_and_a_tile_wide(self, even, count):
        cuts = gfkernel._lane_cuts(even, count)
        assert 1 <= len(cuts) <= count
        assert cuts[0][0] == 0 and cuts[-1][1] == even
        assert all(a[1] == b[0] for a, b in zip(cuts, cuts[1:]))
        assert all(start % 2 == 0 and stop % 2 == 0 for start, stop in cuts)
        widths = [stop - start for start, stop in cuts]
        assert max(widths) - min(widths) <= 2
        if len(cuts) > 1:
            assert min(widths) >= TILE
        if even < 2 * TILE:
            assert len(cuts) == 1
        else:
            assert len(cuts) == min(count, even // TILE)


#: longest row the lane-identity cases read: four lanes' worth plus one
LANE_ROWS = 2 * TILE * 4 + 1


@pytest.fixture(scope="module")
def lane_oracle():
    """Per matrix: shard rows of ``LANE_ROWS`` bytes and their scalar
    product; a shorter product is a column prefix of it."""
    rng = np.random.default_rng(37)
    matrices = {
        "fmsr-8x4": FMSRCode(4, 2, seed=37).ecm,
        "rs-2+2-folded": systematic_vandermonde(4, 2)[2:],
    }
    for m, k in [(1, 5), (2, 6), (5, 3), (7, 2), (9, 1)]:
        coeff = rng.integers(0, 256, size=(m, k), dtype=np.uint8)
        if m > 1:
            coeff[rng.integers(0, m)] = 0  # one all-zero row
        matrices[f"mix-{m}x{k}"] = coeff
    cases = {}
    for name, coeff in matrices.items():
        rows = [rng.integers(0, 256, size=LANE_ROWS, dtype=np.uint8) for _ in range(coeff.shape[1])]
        cases[name] = (coeff, rows, gf_matmul(coeff, np.vstack(rows)))
    return cases


class TestLanes:
    """The tile loop splits into lanes on the shared pool; every lane count
    must equal the scalar oracle, and no lane may wait forever."""

    @pytest.mark.parametrize("count", [1, 2, 3, 4])
    def test_every_lane_count_matches_oracle(
        self, count, monkeypatch, lane_count, lane_spy, lane_oracle
    ):
        lane_count(count)
        monkeypatch.setattr(gfkernel, "_LANE_MIN_GATHERED", 1)
        for name, (coeff, rows, expected) in lane_oracle.items():
            for length in (2 * TILE * count - 1, 2 * TILE * count + 1):
                lane_spy["counts"].clear()
                got = EncodePlan(coeff).execute(rows, length)
                assert np.array_equal(got, expected[:, :length]), (name, length)
                assert lane_spy["counts"] == [count], (name, length)

    def test_a_lane_gathers_at_least_its_minimum(self, lane_count, lane_spy):
        """RS(2+1)'s parity gathers one byte of table per byte column, so
        1 MiB rows stay on the caller; FMSR's 8x4 encode gathers sixteen,
        so 256 KiB rows take two lanes."""
        lane_count(2)
        rows = [np.zeros(1 << 20, dtype=np.uint8)] * 4
        EncodePlan(systematic_vandermonde(3, 2)[2:]).execute(rows[:2], 1 << 20)
        EncodePlan(FMSRCode(4, 2, seed=5).ecm).execute(rows, 1 << 18)
        assert lane_spy["counts"] == [1, 2]

    def test_a_plan_wider_than_the_table_budget_runs_as_one_lane(
        self, monkeypatch, lane_count, lane_spy
    ):
        """Half the budget is 256 KiB here and FMSR's 8x4 plan reads two
        512 KiB tables: fetched up front, the second would recycle the
        first, so the plan runs as today's single lane on the caller."""
        lane_count(2)
        monkeypatch.setattr(gfkernel, "_TABLE_BUDGET", 1 << 19)
        coeff, rows, expected = _random_case(43, 8, 4, 300001)
        assert np.array_equal(plan_for(coeff).execute(rows, 300001), expected)
        assert lane_spy["counts"] == [1]
        assert set(lane_spy["threads"]) == {threading.get_ident()}

    def test_a_raising_lane_raises_once_every_lane_has_stopped(self, lane_count):
        lane_count(2)
        stopped = []

        def raising():
            raise KeyError("lane 0")

        def slow(n):
            def lane():
                time.sleep(0.02 * n)
                stopped.append(n)
                if n == 1:
                    raise ValueError("lane 1")

            return lane

        with pytest.raises(KeyError, match="lane 0"):
            gfkernel._run_lanes([raising, slow(1), slow(2)])
        assert sorted(stopped) == [1, 2]

    def test_a_raising_lane_leaves_the_kernel_usable(self, monkeypatch, lane_count):
        lane_count(2)
        coeff, rows, expected = _random_case(47, 8, 4, 4 * TILE + 1)
        run = EncodePlan._run_column_pairs
        stopped = []

        def failing(self, rows, start, stop, out, fetch):
            if start:
                raise RuntimeError("second lane")
            time.sleep(0.02)
            run(self, rows, start, stop, out, fetch)
            stopped.append(start)

        monkeypatch.setattr(EncodePlan, "_run_column_pairs", failing)
        with pytest.raises(RuntimeError, match="second lane"):
            plan_for(coeff).execute(rows, 4 * TILE + 1)
        assert stopped == [0]
        monkeypatch.setattr(EncodePlan, "_run_column_pairs", run)
        assert np.array_equal(plan_for(coeff).execute(rows, 4 * TILE + 1), expected)

    def test_a_queued_lane_is_taken_back_by_the_caller(self, lane_count, lane_spy):
        """Blockers hold every pool worker: the caller runs its own lane,
        finds the other one still queued and runs it too."""
        lane_count(2)
        pool = lanes.pool()
        started = threading.Barrier(3)
        release = threading.Event()

        def blocker():
            started.wait(TIMEOUT_S)
            release.wait(TIMEOUT_S)

        blockers = [pool.submit(blocker) for _ in range(2)]
        started.wait(TIMEOUT_S)
        coeff, rows, expected = _random_case(53, 8, 4, 4 * TILE)
        results, callers = [], []

        def call():
            callers.append(threading.get_ident())
            results.append(EncodePlan(coeff).execute(rows, 4 * TILE))

        try:
            assert _finishes(call)
        finally:
            release.set()
        assert all(b.result(TIMEOUT_S) is None for b in blockers)
        assert np.array_equal(results[0], expected)
        assert lane_spy["counts"] == [2]
        assert lane_spy["threads"] == callers * 2

    def test_a_forked_child_encodes_on_its_own_pool(self, lane_count):
        lane_count(2)
        codec = FMSRCode(4, 2, seed=59)
        payload = np.random.default_rng(59).integers(0, 256, 1 << 20, np.uint8).tobytes()
        expected = [bytes(f) for f in codec.encode_views(payload)]
        inherited = lanes._POOL
        assert inherited is not None

        def child() -> bool:
            fresh = lanes._POOL is None
            ok = [bytes(f) for f in codec.encode_views(payload)] == expected
            return fresh and ok and lanes._POOL is not inherited

        assert _in_child(child)

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
    def test_one_cpu_never_builds_the_pool(self):
        """Pinned to one CPU, the pool module counts one worker and an FMSR
        encode runs the single-lane path without building the pool."""
        codec = FMSRCode(4, 2, seed=61)
        payload = np.random.default_rng(61).integers(0, 256, 1 << 20, np.uint8).tobytes()
        oracle = gf_matmul(codec.ecm, split_shards(payload, 4))

        def child() -> bool:
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
            importlib.reload(lanes)  # the worker count is read at import
            got = b"".join(bytes(f) for f in codec.encode_views(payload))
            return lanes.WORKERS == 1 and got == oracle.tobytes() and lanes._POOL is None

        assert _in_child(child)


class TestConcurrentCallers:
    def test_two_threads_with_distinct_matrices_match_the_oracle(
        self, monkeypatch, lane_count
    ):
        """Each thread cycles through its own two 8x4 matrices over
        528 KB of shards, on two lanes; with room for two plans' tables,
        fetches keep missing and recycle buffers the other thread's plans
        were built in."""
        lane_count(2)
        monkeypatch.setattr(gfkernel, "_TABLE_BUDGET", 2 << 20)
        monkeypatch.setattr(gfkernel, "_LANE_MIN_GATHERED", 1)
        rng = np.random.default_rng(67)
        rows = [rng.integers(0, 256, size=132_000, dtype=np.uint8) for _ in range(4)]
        stacked = np.vstack(rows)
        work = []
        for seed in (0, 1):
            coeffs = [FMSRCode(4, 2, seed=71 + 2 * seed + i).ecm for i in range(2)]
            work.append([(c, gf_matmul(c, stacked)) for c in coeffs])
        wrong, finished = [], []

        def caller(cases):
            for i in range(20):
                coeff, expected = cases[i % 2]
                if not np.array_equal(gf_matmul_fast(coeff, stacked), expected):
                    wrong.append(i)
            finished.append(True)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=caller, args=(w,), daemon=True) for w in work]
            for t in threads:
                t.start()
            deadline = time.monotonic() + TIMEOUT_S
            for t in threads:
                t.join(max(0.0, deadline - time.monotonic()))
        finally:
            sys.setswitchinterval(switch)
        assert len(finished) == 2 and not wrong

    def test_two_threads_share_a_full_plan_cache(self, monkeypatch):
        """With room for one plan, each thread's insert evicts the other's
        plan; a lookup that found its plan must not then lose it."""
        monkeypatch.setattr(gfkernel, "_PLAN_MAX", 1)
        errors = []

        def caller(seed):
            coeff = np.random.default_rng(seed).integers(0, 256, (2, 2), dtype=np.uint8)
            try:
                for _ in range(1000):
                    assert np.array_equal(plan_for(coeff).coeff, coeff)
            except Exception as error:
                errors.append(error)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(s,), daemon=True) for s in (0, 10)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(TIMEOUT_S)
        finally:
            sys.setswitchinterval(switch)
        assert not errors
