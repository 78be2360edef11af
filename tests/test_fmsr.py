"""Unit tests for the FMSR regenerating codec (NCCloud)."""

import zlib
from itertools import combinations

import numpy as np
import pytest

from repro.erasure.fmsr import FMSRCode
from repro.schemes import NCCloudScheme


class TestConstruction:
    def test_default_nccloud_params(self):
        c = FMSRCode(4)
        assert c.n == 4
        assert c.k == 2
        assert c.chunks_per_node == 2
        assert c.repair_traffic_ratio == pytest.approx(0.75)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            FMSRCode(2, 2)
        with pytest.raises(ValueError):
            FMSRCode(3, 0)

    def test_ecm_shape_and_read_only(self):
        c = FMSRCode(4)
        assert c.ecm.shape == (8, 4)
        with pytest.raises(ValueError):
            c.ecm[0, 0] = 1

    def test_bad_ecm_rejected(self):
        singular = np.zeros((8, 4), dtype=np.uint8)
        with pytest.raises(ValueError):
            FMSRCode(4, ecm=singular)
        with pytest.raises(ValueError):
            FMSRCode(4, ecm=np.zeros((3, 3), dtype=np.uint8))

    def test_deterministic_for_seed(self):
        a = FMSRCode(4, seed=5)
        b = FMSRCode(4, seed=5)
        assert np.array_equal(a.ecm, b.ecm)


class TestMatricesArePinned:
    """CRC32s taken with the Gauss-Jordan-inversion MDS check (PR 12's
    tree): the elimination-only check must accept and reject exactly the
    same draws, or every stored NCCloud fragment would change."""

    def test_seeded_ecms(self):
        crc = 0
        for seed in range(64):
            crc = zlib.crc32(FMSRCode(4, 2, seed=seed).ecm.tobytes(), crc)
        assert crc == 873603615

    @pytest.mark.parametrize(
        "n, k, crc", [(3, 1, 3871762749), (5, 3, 3155520657), (6, 4, 2818142441)]
    )
    def test_other_geometries(self, n, k, crc):
        assert zlib.crc32(FMSRCode(n, k, seed=3).ecm.tobytes()) == crc

    def test_repair_successor(self):
        codec = FMSRCode(4, 2, seed=7)
        data = bytes(range(256)) * 40
        frags = codec.encode(data)
        fragment, successor = codec.repair(
            {i: frags[i] for i in (0, 2, 3)}, 1, len(data)
        )
        assert zlib.crc32(fragment) == 3720388364
        assert zlib.crc32(successor.ecm.tobytes()) == 2058148014

    @pytest.mark.parametrize(
        "path, version, crc",
        [
            ("/a", 1, 3028544876),
            ("/a", 2, 1833451223),
            ("/dir/file.bin", 1, 3609998608),
            ("/x/y/z", 17, 375742842),
        ],
    )
    def test_nccloud_object_codecs(self, providers, clock, path, version, crc):
        nccloud = NCCloudScheme(list(providers.values()), clock)
        ecm = nccloud._object_codec(path, version).ecm
        assert zlib.crc32(ecm.tobytes()) == crc


class TestRoundTrip:
    def test_any_k_nodes_decode(self, payload):
        data = payload(4000)
        c = FMSRCode(4)
        frags = c.encode(data)
        assert len(frags) == 4
        for subset in combinations(range(4), 2):
            assert c.decode({i: frags[i] for i in subset}, 4000) == data

    def test_n5_k3(self, payload):
        data = payload(901)
        c = FMSRCode(5, 3)
        frags = c.encode(data)
        for subset in combinations(range(5), 3):
            assert c.decode({i: frags[i] for i in subset}, 901) == data

    def test_fragment_size(self):
        c = FMSRCode(4)
        # 4 native chunks of ceil(1000/4) = 250; 2 chunks per node.
        assert c.fragment_size(1000) == 500

    def test_empty_payload(self):
        c = FMSRCode(4)
        frags = c.encode(b"")
        assert all(f == b"" for f in frags)
        assert c.decode({0: b"", 2: b""}, 0) == b""

    def test_wrong_fragment_length(self, payload):
        c = FMSRCode(4)
        frags = c.encode(payload(100))
        with pytest.raises(ValueError):
            c.decode({0: frags[0][:-1], 1: frags[1]}, 100)


class TestEncodeViews:
    """Regression: FMSRCode used to inherit the copying ``encode_views``
    fallback from the ABC, so FMSR writes silently missed the zero-copy
    path every other codec took."""

    def test_override_exists(self):
        assert "encode_views" in FMSRCode.__dict__

    def test_views_equal_encode_bytes(self, payload):
        c = FMSRCode(4)
        for size in (0, 1, 7, 4096, 100_001):
            data = payload(size)
            views = c.encode_views(data)
            assert [bytes(v) for v in views] == c.encode(data)

    def test_views_are_zero_copy_and_flat(self, payload):
        c = FMSRCode(4)
        views = c.encode_views(payload(10_000))
        assert all(isinstance(v, memoryview) for v in views)
        # 1-D views: len() must count bytes, not chunk rows.
        assert all(len(v) == c.fragment_size(10_000) for v in views)
        # All node fragments alias one coded-matrix allocation: no two
        # separately-copied buffers, just adjacent windows of one matrix.
        arrays = [np.frombuffer(v, dtype=np.uint8) for v in views]
        merged = np.concatenate(arrays)
        whole = np.frombuffer(memoryview(views[0].obj.base).cast("B"), dtype=np.uint8)
        assert np.array_equal(merged, whole)
        assert all(np.shares_memory(a, whole) for a in arrays)


class TestFunctionalRepair:
    def test_repair_preserves_decodability(self, payload):
        data = payload(2048)
        c = FMSRCode(4)
        frags = list(c.encode(data))
        survivors = {0: frags[0], 2: frags[2], 3: frags[3]}
        new_frag, c2 = c.repair(survivors, failed=1, size=2048)
        frags[1] = new_frag
        for subset in combinations(range(4), 2):
            assert c2.decode({i: frags[i] for i in subset}, 2048) == data

    def test_repair_changes_ecm_only_for_failed_node(self, payload):
        c = FMSRCode(4)
        frags = c.encode(payload(512))
        _, c2 = c.repair({0: frags[0], 1: frags[1], 3: frags[3]}, failed=2, size=512)
        assert np.array_equal(c.ecm[:4], c2.ecm[:4])
        assert np.array_equal(c.ecm[6:], c2.ecm[6:])
        assert not np.array_equal(c.ecm[4:6], c2.ecm[4:6])

    def test_original_codec_untouched(self, payload):
        c = FMSRCode(4)
        before = c.ecm.copy()
        frags = c.encode(payload(256))
        c.repair({0: frags[0], 1: frags[1], 2: frags[2]}, failed=3, size=256)
        assert np.array_equal(c.ecm, before)

    def test_repeated_repairs_stay_mds(self, payload):
        data = payload(1200)
        c = FMSRCode(4)
        frags = list(c.encode(data))
        for failed in (0, 1, 2, 3, 0, 2):
            survivors = {i: frags[i] for i in range(4) if i != failed}
            new_frag, c = c.repair(survivors, failed=failed, size=1200)
            frags[failed] = new_frag
        for subset in combinations(range(4), 2):
            assert c.decode({i: frags[i] for i in subset}, 1200) == data

    def test_repair_requires_all_survivors(self, payload):
        c = FMSRCode(4)
        frags = c.encode(payload(100))
        with pytest.raises(ValueError):
            c.repair({0: frags[0], 1: frags[1]}, failed=3, size=100)

    def test_repair_invalid_index(self, payload):
        c = FMSRCode(4)
        frags = c.encode(payload(100))
        with pytest.raises(ValueError):
            c.repair({i: frags[i] for i in range(3)}, failed=7, size=100)
