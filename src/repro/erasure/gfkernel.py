"""Vectorised GF(2^8) encode kernel — the parity-generation hot path.

Parity generation is a constant-matrix product over GF(256): every output
row is ``XOR_j coeff[i, j] * shard[j]`` for a small, fixed coefficient
matrix and megabyte-wide shard rows.  The scalar reference
(:func:`repro.erasure.galois.gf_matmul`) evaluates it as one 2-D fancy
gather per shard column — a cache-hostile random walk over the 64 KiB
product table that topped out around 140 MB/s for RS(2+2).  This module
replaces that walk with contiguous table lookups shaped for NumPy's
``take`` and keeps every byte bit-identical to the scalar oracle.

Adjacent input bytes are paired through a natural little-endian ``uint16``
view (no index construction), and output rows are taken in *groups* of
four, two or one: a gathered entry packs the product pairs for every row
of its group into 16-bit lanes of a ``uint64`` / ``uint32`` / ``uint16`` —
one ``take`` on a width-4 group performs eight GF multiplies.  While eight
rows remain they go first, as a *column-pair* group: the index pairs the
same-position bytes of two shards and a ``uint64`` entry packs eight rows'
product bytes, so one ``take`` covers two columns for all eight rows —
FMSR's 8x4 encode gathers half as often and builds two tables, not eight.
Group widths follow from the row count alone (as many eights as fit, then
fours, then a two, then a one).  Tables are 64 Ki entries (128–512 KiB)
per coefficient group, built in one broadcast pass and kept in a
byte-bounded LRU; execution is tiled so accumulators stay cache-resident.
On top of that the planner folds the byte-pair groups' input columns
pairwise: whenever two coefficient columns are equal or differ by exactly
``1`` in every row (which is *always* true for the two data columns of a
systematic Vandermonde code with ``k = 2``), both shards are combined with
a single XOR pass and one gather covers them both.

There is one kernel and one selection, made by the input: products
shorter than ``_SMALL_CUTOFF`` bytes go to the scalar oracle, where the
NumPy call overhead would exceed the gather win.  See ``docs/codecs.md``
for the design and the formulations measured and rejected.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Sequence

import numpy as np

from repro.erasure.galois import MUL_TABLE, gf_matmul

__all__ = ["EncodePlan", "plan_for", "gf_matmul_fast", "xor_rows"]

#: uint16 elements per tile — 128 KiB of index bytes, so an index tile,
#: two accumulators (256 KiB each at width 2) and a couple of tables fit a
#: 2 MiB L2 together; a column-pair tile is as many byte positions
_TILE = 1 << 16
#: below this many bytes per shard the NumPy call overhead exceeds the
#: gather win and the scalar oracle is used directly
_SMALL_CUTOFF = 2048
#: bytes of cached gather tables: 32 of width 4 or 8, 64 of width 2
_TABLE_BUDGET = 16 << 20
_PLAN_MAX = 256
#: accumulator/table dtype per row-group width — one 16-bit lane per row of
#: a byte-pair group (widths 4, 2, 1), one 8-bit lane per row of a
#: column-pair group (width 8)
_LANES = {8: np.uint64, 4: np.uint64, 2: np.uint32, 1: np.uint16}


def _packed(coeffs, dtype, step: int) -> np.ndarray:
    """``P[x]``: ``coeffs[l] * x`` in the low byte of lane ``l`` (lanes
    ``step`` bits apart), for every byte ``x``."""
    lanes = MUL_TABLE[list(coeffs)].astype(dtype)
    lanes <<= np.arange(0, step * len(coeffs), step, dtype=dtype)[:, np.newaxis]
    return np.bitwise_or.reduce(lanes, axis=0)


# ------------------------------------------------------------------- tables
class _TableCache:
    """Byte-bounded LRU of row-group gather tables, keyed by coefficients.

    Every table is indexed by a ``uint16`` ``lo | hi << 8`` and holds
    ``P[lo] ^ Q[hi]``:

    - a byte-pair group (width ``w`` of 4, 2, 1; key ``(c0, .., cw-1)``) is
      indexed by the little-endian ``uint16`` view of one shard's adjacent
      byte pair; ``P`` packs ``c_l * x`` into the low byte of 16-bit lane
      ``l`` and ``Q = P << 8``, so lane ``l`` of an entry is the LE
      ``uint16`` view of row ``l``'s two product bytes;
    - a column-pair group (width 8; key: column a's eight coefficients,
      then column b's) is indexed by the same-position bytes of two shards;
      ``P`` and ``Q`` pack ``c_la * x`` and ``c_lb * x`` into 8-bit lane
      ``l``, so byte ``l`` of an entry is row ``l``'s product byte.

    A miss builds the table in one broadcast pass, into the buffer of an
    entry it evicts when that has the same dtype: per-object matrices
    (NCCloud) miss on every encode, so construction is on the hot path and a
    fresh 512 KiB allocation per miss would dominate it.  Callers must
    therefore use a table before asking for the next one.
    """

    __slots__ = ("_entries", "_bytes")

    def __init__(self) -> None:
        self._entries: OrderedDict[tuple[int, ...], np.ndarray] = OrderedDict()
        self._bytes = 0

    def get(self, coeffs: tuple[int, ...]) -> np.ndarray:
        entries = self._entries
        table = entries.get(coeffs)
        if table is not None:
            entries.move_to_end(coeffs)
            return table
        columns = len(coeffs) == 16  # a width-8 column-pair key
        dtype = np.dtype(_LANES[8 if columns else len(coeffs)])
        nbytes = dtype.itemsize << 16
        while entries and self._bytes + nbytes > _TABLE_BUDGET:
            _, evicted = entries.popitem(last=False)
            self._bytes -= evicted.nbytes
            if evicted.dtype == dtype:
                table = evicted
        if table is None:
            table = np.empty(1 << 16, dtype=dtype)
        if columns:
            lo, hi = _packed(coeffs[:8], dtype, 8), _packed(coeffs[8:], dtype, 8)
        else:
            lo = _packed(coeffs, dtype, 16)
            hi = lo << 8
        np.bitwise_xor(lo[np.newaxis, :], hi[:, np.newaxis], out=table.reshape(256, 256))
        entries[coeffs] = table
        self._bytes += nbytes
        return table


_TABLES = _TableCache()


# ---------------------------------------------------------------- workspace
class _Workspace:
    """Per-process scratch reused across every kernel execution.

    One tile of accumulator and gather scratch at the widest lane dtype
    (narrower groups view a prefix) plus on-demand index buffers; reuse
    avoids re-faulting megabytes of fresh pages on every encode call.
    """

    def __init__(self) -> None:
        self.acc = np.empty(_TILE, dtype=np.uint64)
        self.tmp = np.empty(_TILE, dtype=np.uint64)
        self._idx: list[np.ndarray] = []

    def idx(self, i: int) -> np.ndarray:
        """Index buffer for term ``i``: ``intp``, or viewed as ``uint16``."""
        while len(self._idx) <= i:
            self._idx.append(np.empty(_TILE, dtype=np.intp))
        return self._idx[i]


_WS = _Workspace()


# --------------------------------------------------------------------- plan
class _Term:
    """One gather term of the packed schedule.

    ``col`` is the shard column whose (possibly folded) bytes are the
    gather index; ``fold_col`` is the partner column folded into the index
    by XOR (or ``None``); ``fold_extra`` marks the difference-one fold,
    where the partner shard must additionally be XORed into *every*
    output row; ``coeffs`` is the per-output-row coefficient vector.
    """

    __slots__ = ("col", "fold_col", "fold_extra", "coeffs")

    def __init__(
        self, col: int, fold_col: int | None, fold_extra: bool, coeffs: np.ndarray
    ) -> None:
        self.col = col
        self.fold_col = fold_col
        self.fold_extra = fold_extra
        self.coeffs = coeffs


def _fold_schedule(coeff: np.ndarray) -> list[_Term]:
    """Greedy pairwise column folding.

    Two shard columns fold into one gather when their coefficient columns
    XOR to the same constant ``d`` in every output row and ``d`` is 0
    (identical columns: ``c*s1 ^ c*s2 = c*(s1 ^ s2)``) or 1
    (``c*s1 ^ (c^1)*s2 = c*(s1 ^ s2) ^ s2``).  Systematic Vandermonde
    generators with ``k = 2`` always satisfy the ``d = 1`` case, which is
    what makes the RS(2+m) write path one gather per output-row pair.
    """
    m, k = coeff.shape
    terms: list[_Term] = []
    used = [False] * k
    for j1 in range(k):
        if used[j1]:
            continue
        used[j1] = True
        fold: tuple[int, int] | None = None
        for j2 in range(j1 + 1, k):
            if used[j2]:
                continue
            diff = coeff[:, j1] ^ coeff[:, j2]
            d = int(diff[0])
            if d <= 1 and np.all(diff == d):
                fold = (j2, d)
                used[j2] = True
                break
        if fold is None:
            terms.append(_Term(j1, None, False, coeff[:, j1].copy()))
        else:
            j2, d = fold
            terms.append(_Term(j1, j2, d == 1, coeff[:, j1].copy()))
    return terms


class EncodePlan:
    """A coefficient matrix compiled for the packed kernel.

    Binding analyses the matrix once (column folding, row grouping) so a
    replay write burst pays the planning cost a single time; plans are
    cached by matrix bytes (:func:`plan_for`), and the gather tables live
    in their own LRU (:class:`_TableCache`) shared across plans.
    ``execute`` is byte-identical to ``gf_matmul(coeff, shards)`` — the
    hypothesis suite in ``tests/test_gfkernel.py`` holds it to the scalar
    oracle.
    """

    def __init__(self, coeff: np.ndarray) -> None:
        coeff = np.asarray(coeff, dtype=np.uint8)
        if coeff.ndim != 2:
            raise ValueError(f"coefficient matrix must be 2-D, got {coeff.shape}")
        self.coeff = coeff
        self.m, self.k = coeff.shape
        # Column-pair groups (first row, [((col a, col b), table key)]):
        # rows eight at a time, each gather indexed by the same-position
        # bytes of two shards, so it covers two columns for all eight rows;
        # all-zero columns drop, and an odd one out pairs with ``None``
        # (zero coefficients).
        self._r8 = r8 = self.m & ~7
        self._octets: list[tuple[int, list[tuple[tuple[int, int | None], tuple]]]] = []
        for r0 in range(0, r8, 8):
            keys = [tuple(col) for col in coeff[r0 : r0 + 8].T.tolist()]
            cols: list[int | None] = [j for j in range(self.k) if any(keys[j])]
            if len(cols) % 2:
                cols.append(None)
            gathers = [
                ((a, b), keys[a] + ((0,) * 8 if b is None else keys[b]))
                for a, b in zip(cols[::2], cols[1::2])
            ]
            self._octets.append((r0, gathers))
        # Byte-pair groups over the rows left (first row, width,
        # [(term, group coefficients)]): as many fours as fit, then a two,
        # then a one; all-zero gathers drop.
        self._terms = _fold_schedule(coeff[r8:]) if r8 < self.m else []
        self._groups: list[tuple[int, int, list[tuple[int, tuple[int, ...]]]]] = []
        r0 = r8
        for width in (4, 2, 1):
            while self.m - r0 >= width:
                lanes = slice(r0 - r8, r0 - r8 + width)
                gathers = [
                    (i, tuple(t.coeffs[lanes].tolist()))
                    for i, t in enumerate(self._terms)
                    if t.coeffs[lanes].any()
                ]
                self._groups.append((r0, width, gathers))
                r0 += width
        # NumPy converts a uint16 index to intp inside every ``take``; a
        # term gathered for more than one group is widened once instead.
        feeds = [i for _, _, gathers in self._groups for i, _ in gathers]
        self._widen = [feeds.count(i) > 1 for i in range(len(self._terms))]

    # ------------------------------------------------------------- dispatch
    def execute(
        self,
        rows: Sequence[np.ndarray],
        length: int,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Parity rows for ``rows`` (k 1-D uint8 arrays of >= ``length``).

        Returns an ``(m, length)`` C-contiguous uint8 matrix (``out`` may
        supply it); every fragment byte matches the scalar oracle exactly.
        """
        if len(rows) != self.k:
            raise ValueError(f"plan expects {self.k} shard rows, got {len(rows)}")
        if out is None:
            out = np.empty((self.m, length), dtype=np.uint8)
        elif out.shape != (self.m, length) or out.dtype != np.uint8:
            raise ValueError(
                f"out must be uint8 {(self.m, length)}, got {out.dtype} {out.shape}"
            )
        if length == 0 or self.m == 0:
            return out
        if length < _SMALL_CUTOFF:
            stacked = np.vstack([np.asarray(r[:length], dtype=np.uint8) for r in rows])
            out[:] = gf_matmul(self.coeff, stacked)
            return out
        self._run_packed(rows, length, out)
        return out

    def _run_packed(
        self, rows: Sequence[np.ndarray], length: int, out: np.ndarray
    ) -> None:
        even = length & ~1
        if self._octets:
            self._run_column_pairs(rows, even, out)
        if self._groups:
            self._run_byte_pairs(rows, even, out)
        if even < length:
            tail = np.array([[int(r[length - 1])] for r in rows], dtype=np.uint8)
            out[:, even:] = gf_matmul(self.coeff, tail)

    def _run_column_pairs(
        self, rows: Sequence[np.ndarray], even: int, out: np.ndarray
    ) -> None:
        ws = _WS
        for s in range(0, even, _TILE):
            e = min(s + _TILE, even)
            w = e - s
            acc, tmp = ws.acc[:w], ws.tmp[:w]
            for r0, gathers in self._octets:
                if not gathers:
                    out[r0 : r0 + 8, s:e] = 0
                    continue
                for n, ((a, b), coeffs) in enumerate(gathers):
                    if b is None:
                        idx = rows[a][s:e]
                    else:
                        # x_a | x_b << 8, interleaved as little-endian uint16
                        idx = ws.idx(n).view(np.uint16)[:w]
                        lanes = idx.view(np.uint8).reshape(w, 2)
                        lanes[:, 0] = rows[a][s:e]
                        lanes[:, 1] = rows[b][s:e]
                    table = _TABLES.get(coeffs)
                    if n == 0:
                        np.take(table, idx, out=acc, mode="clip")
                    else:
                        np.take(table, idx, out=tmp, mode="clip")
                        np.bitwise_xor(acc, tmp, out=acc)
                # byte l of an entry is row r0+l's product: one transpose
                out[r0 : r0 + 8, s:e] = acc.view(np.uint8).reshape(w, 8).T

    def _run_byte_pairs(
        self, rows: Sequence[np.ndarray], even: int, out: np.ndarray
    ) -> None:
        half = even >> 1
        row16 = [r[:even].view(np.uint16) for r in rows]
        out16 = [out[i, :even].view(np.uint16) for i in range(self.m)]
        ws = _WS
        for s in range(0, half, _TILE):
            e = min(s + _TILE, half)
            w = e - s
            idx_tiles: list[np.ndarray] = []
            for i, t in enumerate(self._terms):
                idx = row16[t.col][s:e]
                if self._widen[i] or t.fold_col is not None:
                    buf = ws.idx(i)
                    buf = buf[:w] if self._widen[i] else buf.view(np.uint16)[:w]
                    if t.fold_col is None:
                        np.copyto(buf, idx)
                    else:
                        np.bitwise_xor(idx, row16[t.fold_col][s:e], out=buf)
                    idx = buf
                idx_tiles.append(idx)
            for r0, width, gathers in self._groups:
                acc = ws.acc.view(_LANES[width])[:w]
                tmp = ws.tmp.view(_LANES[width])[:w]
                if not gathers:
                    acc[:] = 0
                for n, (i, coeffs) in enumerate(gathers):
                    table = _TABLES.get(coeffs)
                    if n == 0:
                        np.take(table, idx_tiles[i], out=acc, mode="clip")
                    else:
                        np.take(table, idx_tiles[i], out=tmp, mode="clip")
                        np.bitwise_xor(acc, tmp, out=acc)
                # truncating casts peel the lanes: the low uint16 of an
                # entry is row r0's product pair, the next one row r0+1's
                for r in range(r0, r0 + width):
                    if r > r0:
                        acc >>= 16
                    np.copyto(out16[r][s:e], acc, casting="unsafe")
            for t in self._terms:
                if t.fold_extra:
                    extra = row16[t.fold_col][s:e]
                    for i in range(self._r8, self.m):
                        np.bitwise_xor(out16[i][s:e], extra, out=out16[i][s:e])


# ------------------------------------------------------------------- caches
_PLANS: OrderedDict[tuple[tuple[int, int], bytes], EncodePlan] = OrderedDict()


def plan_for(coeff: np.ndarray) -> EncodePlan:
    """The cached :class:`EncodePlan` for ``coeff``.

    Keyed by matrix bytes, LRU-bounded: a replayer driving thousands of
    writes through one codec binds the matrix once and reuses the plan for
    the whole burst.
    """
    coeff = np.asarray(coeff, dtype=np.uint8)
    key = (coeff.shape, coeff.tobytes())
    plan = _PLANS.get(key)
    if plan is None:
        plan = EncodePlan(coeff)
        _PLANS[key] = plan
        if len(_PLANS) > _PLAN_MAX:
            _PLANS.popitem(last=False)
    else:
        _PLANS.move_to_end(key)
    return plan


def gf_matmul_fast(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Drop-in for :func:`~repro.erasure.galois.gf_matmul`, kernel-backed.

    Same shape contract — ``(r, c) x (c, L) -> (r, L)`` — and bit-identical
    output; small products fall back to the scalar oracle where the call
    overhead would dominate.
    """
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"incompatible shapes for GF matmul: {a.shape} x {b.shape}")
    return plan_for(a).execute(list(b), b.shape[1])


def xor_rows(
    rows: Sequence, length: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Tiled XOR-reduce of bytes-like rows (the RAID5 parity primitive).

    ``rows`` may be uint8 arrays or any bytes-like buffers of at least
    ``length`` bytes; returns a fresh (or supplied) uint8 array of
    ``length``.  Tiling keeps the accumulator cache-resident when folding
    many fragments; the first two rows XOR straight into it, so no row is
    copied first.
    """
    if out is None:
        out = np.empty(length, dtype=np.uint8)
    arrs = [
        r if isinstance(r, np.ndarray) else np.frombuffer(r, dtype=np.uint8)
        for r in rows
    ]
    if not arrs:
        out[:length] = 0
        return out
    first, rest = arrs[0], arrs[1:]
    tile = 4 * _TILE
    for s in range(0, length, tile):
        e = min(s + tile, length)
        acc = out[s:e]
        if rest:
            np.bitwise_xor(first[s:e], rest[0][s:e], out=acc)
        else:
            np.copyto(acc, first[s:e])
        for arr in rest[1:]:
            np.bitwise_xor(acc, arr[s:e], out=acc)
    return out
