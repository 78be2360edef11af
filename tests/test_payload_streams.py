"""Payload streams drawn raw, and only as far as an op reads them.

The oracle throughout is the draw the streams replaced,
``Generator.integers(0, 256, n, dtype=np.uint8)``: every byte a replay or a
tenant writes must be the byte that draw gave.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.schemes import SingleCloudScheme
from repro.service.traffic import TrafficConfig, TrafficGenerator
from repro.sim.rng import make_bits, make_rng, raw_bytes, stable_u64
from repro.workloads import trace as trace_mod
from repro.workloads.trace import TraceOp, TraceReplayer

BLOCK = trace_mod._PAYLOAD_BLOCK
#: sizes at the word and tile edges, and past the tile
EDGE_SIZES = [0, 1, 7, 8, 9, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5]


def integers_draw(seed, labels, n) -> bytes:
    return make_rng(seed, *labels).integers(0, 256, n, dtype=np.uint8).tobytes()


def eager_block(seed, path) -> bytes:
    """The 64 KiB tile as it was drawn before streams grew lazily."""
    return integers_draw(seed, ("payload-block", path), BLOCK)


def eager_fill(block, marker, counter, size) -> bytes:
    """The tiling the replayer applies, over a whole eagerly drawn block."""
    stamp = bytes([marker]) + counter.to_bytes(7, "little") + size.to_bytes(8, "little")
    n = min(size, len(stamp))
    head = bytes(a ^ b for a, b in zip(stamp[:n], block[:n]))
    return (head + (block * (size // BLOCK + 1))[n:])[:size]


labels = st.lists(st.one_of(st.text(max_size=8), st.integers(-5, 5)), max_size=3)


class TestRawBytes:
    @given(
        seed=st.integers(0, 2**32 - 1),
        labels=labels,
        n=st.one_of(st.sampled_from(EDGE_SIZES), st.integers(0, 3 * BLOCK)),
    )
    @settings(max_examples=80, deadline=None)
    def test_equals_the_integers_draw_of_a_fresh_generator(self, seed, labels, n):
        assert raw_bytes(make_bits(seed, *labels), n) == integers_draw(seed, labels, n)

    @given(seed=st.integers(0, 2**40), labels=labels)
    @settings(max_examples=50)
    def test_make_rng_wraps_the_one_derivation(self, seed, labels):
        label = stable_u64(*labels)
        listed = np.random.SeedSequence([seed & 0xFFFFFFFF, label & 0xFFFFFFFF, label >> 32])
        state = np.random.default_rng(listed).bit_generator.state
        assert make_bits(seed, *labels).state == state
        assert make_rng(seed, *labels).bit_generator.state == state

    @given(parts=st.lists(st.integers(1, 40), min_size=1, max_size=6))
    def test_whole_word_extensions_continue_the_stream(self, parts):
        bits = make_bits(3, "stream")
        drawn = b"".join(raw_bytes(bits, 8 * words) for words in parts)
        assert drawn == integers_draw(3, ("stream",), len(drawn))


class TestReplayerStreams:
    @given(
        seed=st.integers(0, 1000),
        sizes=st.lists(
            st.one_of(st.sampled_from(EDGE_SIZES), st.integers(0, 2 * BLOCK)),
            min_size=1,
            max_size=8,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_grown_prefix_is_the_eager_block(self, seed, sizes):
        replayer = TraceReplayer(seed=seed)
        block = eager_block(seed, "/d/f")
        for version, size in enumerate(sizes, start=1):
            assert replayer.payload("/d/f", version, size) == eager_fill(
                block, trace_mod._PUT_MARKER, version, size
            )
            assert replayer.patch_payload("/d/f", version, size) == eager_fill(
                block, trace_mod._PATCH_MARKER, version, size
            )
            _bits, grown = replayer._blocks.get("/d/f", (None, b""))
            assert block.startswith(grown)
            assert len(grown) >= min(size, BLOCK)
        assert replayer._path_block("/d/f", BLOCK) == block

    def test_matches_tiled_verdicts_on_intact_and_flipped_data(self):
        for size in [s for s in EDGE_SIZES if s] + [1000, 16, 17]:
            data = TraceReplayer(seed=4).payload("/d/f", 3, size)
            for warm in (0, 1, size):  # fresh stream, short prefix, full prefix
                replayer = TraceReplayer(seed=4)
                replayer.payload("/d/f", 1, warm)
                assert replayer._matches_tiled("/d/f", trace_mod._PUT_MARKER, 3, data)
                for at in {0, size // 2, size - 1}:
                    flipped = bytearray(data)
                    flipped[at] ^= 0x40
                    assert not replayer._matches_tiled(
                        "/d/f", trace_mod._PUT_MARKER, 3, bytes(flipped)
                    )

    def test_fresh_small_files_draw_only_what_they_keep(self, providers, clock, monkeypatch):
        """A count, not a clock: N fresh 1 KiB files, written and read back
        verified, draw ⌈1 KiB / 8⌉ words each, not a 64 KiB tile each."""
        words = 0
        real_raw_bytes = trace_mod.raw_bytes

        def counting_raw_bytes(bits, n):
            nonlocal words
            words += (n + 7) >> 3
            return real_raw_bytes(bits, n)

        monkeypatch.setattr(trace_mod, "raw_bytes", counting_raw_bytes)
        files = 40
        paths = [f"/d/f{i}" for i in range(files)]
        scheme = SingleCloudScheme(providers["aliyun"], clock)
        replayer = TraceReplayer(seed=2)
        replayer.run(scheme, [TraceOp("put", p, size=1024) for p in paths])
        for p in paths:  # so the reads verify by the tiled comparison
            replayer._drop_retained(p)
        replayer.run(scheme, [TraceOp("get", p) for p in paths])
        assert 0 < words <= files * ((1024 + 7) >> 3)


#: sizes around the 16-byte stamp and the tile, and one with a body of
#: whole tiles between its first tile and its tail
WORD_SIZES = [1, 15, 16, 17, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5]


def flip_sites(size) -> list[int]:
    """The head, every tile boundary ±1, the last word of the whole-tile
    body and the tail."""
    full = size // BLOCK
    sites = {0, min(size, 16) - 1, size - 1}
    for edge in range(BLOCK, full * BLOCK + 1, BLOCK):
        sites |= {edge - 1, edge, edge + 1}
    if full > 1:
        sites.add(full * BLOCK - 8)
    return sorted(s for s in sites if s < size)


def as_bytes_and_view(data: bytes):
    """``data`` itself, and an unaligned memoryview of the same bytes."""
    return data, memoryview(b"\x00" + data)[1:]


class TestVerifiedReads:
    def test_a_path_read_again_outlives_unread_ones(self, providers, clock, monkeypatch):
        monkeypatch.setattr(trace_mod, "_RETAIN_BUDGET", 3 * 1024)
        scheme = SingleCloudScheme(providers["aliyun"], clock)
        replayer = TraceReplayer(seed=5)
        replayer.run(
            scheme,
            [TraceOp("put", p, size=1024) for p in ("/d/a", "/d/b", "/d/c")]
            + [TraceOp("get", "/d/a")]
            + [TraceOp("put", p, size=1024) for p in ("/d/d", "/d/e")],
        )
        assert list(replayer._retained) == ["/d/a", "/d/d", "/d/e"]
        assert replayer._retained_bytes == 3 * 1024

    @pytest.mark.parametrize("size", WORD_SIZES)
    def test_word_wide_compare_finds_every_flip(self, size):
        replayer = TraceReplayer(seed=9)
        data = replayer.payload("/d/f", 2, size)
        for view in as_bytes_and_view(data):
            assert replayer._matches_tiled("/d/f", trace_mod._PUT_MARKER, 2, view)
        for at in flip_sites(size):
            flipped = bytearray(data)
            flipped[at] ^= 0x80
            for view in as_bytes_and_view(bytes(flipped)):
                assert not replayer._matches_tiled(
                    "/d/f", trace_mod._PUT_MARKER, 2, view
                ), at

    @given(
        seed=st.integers(0, 1000),
        size=st.one_of(st.sampled_from(WORD_SIZES), st.integers(1, 4 * BLOCK)),
        flip=st.one_of(st.none(), st.tuples(st.integers(0, 2**31), st.integers(0, 7))),
    )
    @settings(max_examples=40, deadline=None)
    def test_verdict_is_equality_with_the_expected_content(self, seed, size, flip):
        replayer = TraceReplayer(seed=seed)
        replayer._recipes["/d/f"] = trace_mod._FileRecipe(
            version=4, base_size=size, size=size
        )
        expected = replayer.expected_content("/d/f")
        data = bytearray(expected)
        if flip is not None:
            at, bit = flip
            data[at % size] ^= 1 << bit
        for view in as_bytes_and_view(bytes(data)):
            verdict = replayer._matches_tiled("/d/f", trace_mod._PUT_MARKER, 4, view)
            assert verdict == (bytes(data) == expected)


def patched_recipe(replayer, base_size, patches) -> trace_mod._FileRecipe:
    """Record ``/d/f`` as version 3 of ``base_size`` bytes, then patched by
    ``(offset, length)`` in order, exactly as a replayed trace would."""
    rec = trace_mod._FileRecipe(version=3, base_size=base_size, size=base_size)
    for seq, (offset, length) in enumerate(patches, start=1):
        rec.apply(seq, offset, length)
    replayer._recipes["/d/f"] = rec
    return rec


def segment_edges(rec) -> list[int]:
    """Every span's first and last byte, and the bytes either side."""
    sites = set()
    for start, end, _ in rec.spans:
        sites |= {start - 1, start, start + 1, end - 2, end - 1, end}
    return sorted(s for s in sites if 0 <= s < rec.size)


patch_lists = st.lists(
    st.tuples(st.integers(0, 3 * BLOCK), st.integers(0, 2 * BLOCK)), min_size=1, max_size=5
)


class TestPatchedReads:
    """A patched file verifies span by span against the streams it was built
    from — never by materializing its expected content."""

    def test_every_segment_edge_flip_is_found_without_materializing(self, monkeypatch):
        replayer = TraceReplayer(seed=6)
        # overlapping patches, one straddling a tile edge, one past the end
        # leaving a zero-filled growth gap
        rec = patched_recipe(
            replayer,
            2 * BLOCK + 100,
            [(10, 50), (40, BLOCK), (BLOCK - 3, 6), (2 * BLOCK + 400, 30)],
        )
        expected = replayer.expected_content("/d/f")

        def materialized(*_):
            raise AssertionError("a patched read was materialized")

        monkeypatch.setattr(TraceReplayer, "expected_content", materialized)
        for view in as_bytes_and_view(expected):
            assert replayer._matches_expected("/d/f", view)
        for at in segment_edges(rec):
            flipped = bytearray(expected)
            flipped[at] ^= 0x01
            for view in as_bytes_and_view(bytes(flipped)):
                assert not replayer._matches_expected("/d/f", view), at

    @given(
        seed=st.integers(0, 1000),
        base_size=st.one_of(st.sampled_from(WORD_SIZES), st.integers(0, 3 * BLOCK)),
        patches=patch_lists,
        flip=st.one_of(st.none(), st.integers(0, 2**31), st.just("edges")),
    )
    @settings(max_examples=40, deadline=None)
    def test_verdict_is_equality_with_the_expected_content(
        self, seed, base_size, patches, flip
    ):
        replayer = TraceReplayer(seed=seed)
        rec = patched_recipe(replayer, base_size, patches)
        expected = replayer.expected_content("/d/f")
        variants = [expected]
        if rec.size and flip == "edges":
            sites = segment_edges(rec)
        elif rec.size and flip is not None:
            sites = [flip % rec.size]
        else:
            sites = []
        for at in sites:
            flipped = bytearray(expected)
            flipped[at] ^= 0x20
            variants.append(bytes(flipped))
        for data in variants:
            for view in as_bytes_and_view(data):
                assert replayer._matches_expected("/d/f", view) == (data == expected)


class TestTrafficPayload:
    @pytest.mark.parametrize("size", [0, 1, 9, 16 * 1024, 100_001])
    def test_equals_the_old_draw(self, size):
        traffic = TrafficGenerator(TrafficConfig(), seed=11)
        assert traffic.payload("t00003", "/d/obj2", size) == integers_draw(
            11, ("tenant-payload", "t00003", "/d/obj2"), size
        )
