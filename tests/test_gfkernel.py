"""The vectorised GF kernel against the scalar oracle, byte for byte.

The kernel must reproduce ``gf_matmul`` exactly — on arbitrary coefficient
matrices, on the folded-column structures the planner exploits, at odd
lengths that exercise the uint16 pairing tail, and through every codec's
``encode`` / ``encode_views`` surface.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
