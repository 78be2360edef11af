"""Unit tests for shard framing."""

import numpy as np
import pytest

from repro.erasure.striping import join_shards, shard_length, split_shards, split_views


class TestShardLength:
    @pytest.mark.parametrize(
        "size,k,expected",
        [(0, 3, 0), (1, 3, 1), (3, 3, 1), (4, 3, 2), (100, 7, 15), (100, 1, 100)],
    )
    def test_ceil_division(self, size, k, expected):
        assert shard_length(size, k) == expected

    def test_invalid(self):
        with pytest.raises(ValueError):
            shard_length(-1, 3)
        with pytest.raises(ValueError):
            shard_length(10, 0)


class TestSplitJoin:
    def test_roundtrip(self, payload):
        data = payload(1000)
        shards = split_shards(data, 3)
        assert shards.shape == (3, 334)
        assert join_shards(shards, 1000) == data

    def test_exact_multiple(self, payload):
        data = payload(300)
        shards = split_shards(data, 3)
        assert shards.shape == (3, 100)
        assert join_shards(shards, 300) == data

    def test_empty_payload(self):
        shards = split_shards(b"", 4)
        assert shards.shape == (4, 0)
        assert join_shards(shards, 0) == b""

    def test_padding_is_zero(self):
        shards = split_shards(b"\xff", 2)
        assert shards[0, 0] == 0xFF
        assert shards[1, 0] == 0x00

    def test_join_rejects_oversized_claim(self):
        shards = split_shards(b"abc", 2)
        with pytest.raises(ValueError):
            join_shards(shards, 100)

    def test_join_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            join_shards(np.zeros(4, dtype=np.uint8), 4)

    def test_single_shard(self, payload):
        data = payload(57)
        shards = split_shards(data, 1)
        assert shards.shape == (1, 57)
        assert join_shards(shards, 57) == data


class TestSplitViews:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("shard", [1, 2, 7, 64])
    def test_equals_split_shards_around_every_multiple(self, payload, k, shard):
        for size in (k * shard - 1, k * shard, k * shard + 1):
            data = payload(size)
            rows = split_views(data, k)
            expected = split_shards(data, k)
            assert len(rows) == k
            for row, want in zip(rows, expected):
                assert row.dtype == np.uint8
                assert np.array_equal(row, want)
