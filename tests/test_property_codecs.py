"""Property-based tests: erasure-codec invariants under arbitrary inputs.

The central MDS property — *any k fragments reconstruct the exact payload* —
is exercised with hypothesis-generated payloads, parameters, and erasure
patterns for every codec in the registry.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.erasure.fmsr import FMSRCode
from repro.erasure.galois import MUL_TABLE, gf_inv, gf_mul
from repro.erasure.raid5 import Raid5Code
from repro.erasure.reed_solomon import ReedSolomonCode
from repro.erasure.replication import ReplicationCode
from repro.erasure.striping import join_shards, split_shards
from repro.schemes.depsky_ca import BundleCode

payloads = st.binary(min_size=0, max_size=4096)


@st.composite
def rs_case(draw):
    k = draw(st.integers(1, 6))
    m = draw(st.integers(0, 4))
    data = draw(payloads)
    n = k + m
    subset = draw(st.permutations(range(n))) if n else []
    return k, m, data, tuple(subset[:k])


class TestStripingProperties:
    @given(data=payloads, k=st.integers(1, 16))
    def test_split_join_identity(self, data, k):
        assert join_shards(split_shards(data, k), len(data)) == data

    @given(data=payloads, k=st.integers(1, 16))
    def test_shards_equal_length(self, data, k):
        shards = split_shards(data, k)
        assert shards.shape[0] == k
        assert shards.shape[1] * k >= len(data)


class TestGaloisProperties:
    @given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
    def test_mul_associative(self, a, b, c):
        assert gf_mul(gf_mul(a, b), c) == gf_mul(a, gf_mul(b, c))

    @given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
    def test_distributive(self, a, b, c):
        assert gf_mul(a, b ^ c) == gf_mul(a, b) ^ gf_mul(a, c)

    @given(st.integers(1, 255))
    def test_inverse_involution(self, a):
        assert int(gf_inv(int(gf_inv(a)))) == a

    @given(st.integers(0, 255))
    def test_mul_table_row_is_permutation_for_nonzero(self, a):
        row = MUL_TABLE[a]
        if a == 0:
            assert np.all(row == 0)
        else:
            assert len(set(row.tolist())) == 256


class TestReedSolomonProperties:
    @given(case=rs_case())
    @settings(max_examples=40, deadline=None)
    def test_any_k_fragments_decode(self, case):
        k, m, data, subset = case
        rs = ReedSolomonCode(k, m)
        frags = rs.encode(data)
        available = {i: frags[i] for i in subset}
        assert rs.decode(available, len(data)) == data

    @given(data=payloads, k=st.integers(1, 5), m=st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_reconstruction_matches_encode(self, data, k, m):
        rs = ReedSolomonCode(k, m)
        frags = rs.encode(data)
        lost = (k + m) // 2
        available = {i: f for i, f in enumerate(frags) if i != lost}
        assert rs.reconstruct_fragment(available, lost, len(data)) == frags[lost]

    @given(data=payloads, k=st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_fragment_sizes_uniform(self, data, k):
        rs = ReedSolomonCode(k, 2)
        frags = rs.encode(data)
        assert len({len(f) for f in frags}) == 1
        assert len(frags[0]) == rs.fragment_size(len(data))


@st.composite
def bundle_case(draw):
    f = draw(st.integers(1, 3))
    n = draw(st.integers(2 * f + 1, 7))
    size = draw(st.sampled_from([0, 1, 4097, 64 * 1024]))
    seed = draw(st.integers(0, 2**16))
    data = np.random.default_rng(seed).integers(0, 256, size, dtype=np.uint8).tobytes()
    subset = draw(st.permutations(range(n)))[: f + 1]
    return n, f, data, tuple(subset), seed


class TestBundleCodeProperties:
    """DepSky-CA's encrypt + RS + secret-share transform as an (n, f+1) code."""

    @given(case=bundle_case())
    @settings(max_examples=40, deadline=None)
    def test_any_k_bundles_decode(self, case):
        n, f, data, subset, seed = case
        code = BundleCode(n, f, np.random.default_rng(seed))
        assert (code.n, code.k, code.systematic) == (n, f + 1, False)
        bundles = code.encode(data)
        assert len(bundles) == n
        assert code.decode({i: bundles[i] for i in subset}, len(data)) == data

    @given(case=bundle_case())
    @settings(max_examples=20, deadline=None)
    def test_two_encodes_share_no_bundle(self, case):
        """A fresh key and sharing per encode: nothing is deterministic."""
        n, f, data, _subset, seed = case
        code = BundleCode(n, f, np.random.default_rng(seed))
        first, second = code.encode(data), code.encode(data)
        assert all(a != b for a, b in zip(first, second))

    @given(case=bundle_case())
    @settings(max_examples=20, deadline=None)
    def test_bundles_of_two_encodes_do_not_combine(self, case):
        """Why ``repair_by_rewrite`` stays: one bundle re-encoded in place
        belongs to another sharing, and k bundles across the two sharings
        rebuild neither the key nor the ciphertext."""
        n, f, data, subset, seed = case
        assume(len(data) >= 64)  # a byte or none can collide by chance
        code = BundleCode(n, f, np.random.default_rng(seed))
        first, second = code.encode(data), code.encode(data)
        mixed = {i: first[i] for i in subset[:1]} | {i: second[i] for i in subset[1:]}
        assert code.decode(mixed, len(data)) != data


class TestRaid5Properties:
    @given(data=payloads, k=st.integers(1, 8), lost=st.integers(0, 8))
    @settings(max_examples=50, deadline=None)
    def test_single_erasure_always_recoverable(self, data, k, lost):
        lost = lost % (k + 1)
        c = Raid5Code(k)
        frags = c.encode(data)
        available = {i: f for i, f in enumerate(frags) if i != lost}
        assert c.decode(available, len(data)) == data

    @given(data=payloads, k=st.integers(1, 8))
    @settings(max_examples=30, deadline=None)
    def test_matches_rs_data_fragments(self, data, k):
        """RAID5's data half must agree with systematic RS(k, 1)."""
        raid = Raid5Code(k)
        rs = ReedSolomonCode(k, 1)
        assert raid.encode(data)[:k] == rs.encode(data)[:k]


class TestFMSRProperties:
    @given(
        data=st.binary(min_size=0, max_size=1024),
        seed=st.integers(0, 2**16),
        failed=st.integers(0, 3),
    )
    @settings(max_examples=15, deadline=None)
    def test_repair_preserves_mds(self, data, seed, failed):
        c = FMSRCode(4, seed=seed)
        frags = list(c.encode(data))
        survivors = {i: frags[i] for i in range(4) if i != failed}
        new_frag, c2 = c.repair(survivors, failed, len(data))
        frags[failed] = new_frag
        from itertools import combinations

        for subset in combinations(range(4), 2):
            assert c2.decode({i: frags[i] for i in subset}, len(data)) == data


class TestReplicationProperties:
    @given(data=payloads, n=st.integers(1, 6))
    def test_every_replica_decodes(self, data, n):
        c = ReplicationCode(n)
        frags = c.encode(data)
        for i in range(n):
            assert c.decode({i: frags[i]}, len(data)) == data


class TestCrossCodecInvariants:
    @given(data=payloads)
    @settings(max_examples=25, deadline=None)
    def test_storage_overhead_accounting(self, data):
        """Sum of fragment bytes ~= overhead * payload (up to padding)."""
        for codec in (ReedSolomonCode(3, 2), Raid5Code(3), FMSRCode(4), ReplicationCode(2)):
            frags = codec.encode(data)
            total = sum(len(f) for f in frags)
            if data:
                assert total >= codec.storage_overhead * len(data) - codec.n * codec.n
                assert total <= codec.storage_overhead * len(data) + codec.n * codec.n
