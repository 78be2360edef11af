"""GF(2^8) arithmetic, vectorised with NumPy.

The field is GF(256) with the AES/Rijndael-compatible primitive polynomial
x^8 + x^4 + x^3 + x^2 + 1 (0x11d) and generator 2 — the same construction
used by jerasure/ISA-L, so fragment bytes produced here match standard RS
implementations bit-for-bit.

Scalar-times-vector products are a single fancy index into a precomputed
256x256 multiplication table; per the repo's HPC guides we never loop over
bytes in Python.  This module is the *scalar reference oracle*: correct and
simple, but its 2-D gathers walk the 64 KiB table cache-hostilely.  The
data-plane hot paths use :mod:`repro.erasure.gfkernel`, whose kernel is held
bit-identical to :func:`gf_matmul` by the property suite — see
``docs/codecs.md``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "EXP",
    "LOG",
    "MUL_TABLE",
    "gf_add",
    "gf_div",
    "gf_inv",
    "gf_inverse_matrix",
    "gf_is_invertible",
    "gf_matmul",
    "gf_matvec_bytes",
    "gf_mul",
    "gf_pow",
    "vandermonde",
    "systematic_vandermonde",
]

_PRIM_POLY = 0x11D
_ORDER = 255


def _build_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    exp = np.zeros(512, dtype=np.uint8)  # doubled so exp[log a + log b] never wraps
    log = np.zeros(256, dtype=np.int32)
    x = 1
    for i in range(_ORDER):
        exp[i] = x
        log[x] = i
        x <<= 1
        if x & 0x100:
            x ^= _PRIM_POLY
    exp[_ORDER : 2 * _ORDER] = exp[:_ORDER]
    exp[2 * _ORDER :] = exp[: 512 - 2 * _ORDER]

    # Full multiplication table: MUL_TABLE[a, b] = a * b in GF(256).
    a = np.arange(256)
    la = log[a][:, None]
    lb = log[a][None, :]
    mul = exp[(la + lb) % _ORDER].astype(np.uint8)
    mul[0, :] = 0
    mul[:, 0] = 0
    return exp, log, mul


EXP, LOG, MUL_TABLE = _build_tables()


def gf_add(a: np.ndarray | int, b: np.ndarray | int) -> np.ndarray | int:
    """Addition (= subtraction) in GF(2^8) is XOR."""
    return a ^ b


def gf_mul(a: np.ndarray | int, b: np.ndarray | int) -> np.ndarray | int:
    """Element-wise product; accepts scalars or uint8 arrays (broadcasting)."""
    return MUL_TABLE[a, b]


def gf_inv(a: np.ndarray | int) -> np.ndarray | int:
    """Multiplicative inverse; raises on zero."""
    if np.any(np.asarray(a) == 0):
        raise ZeroDivisionError("0 has no inverse in GF(256)")
    return EXP[_ORDER - LOG[a]]


def gf_div(a: np.ndarray | int, b: np.ndarray | int) -> np.ndarray | int:
    """a / b in GF(256); raises on division by zero."""
    return gf_mul(a, gf_inv(b))


def gf_pow(a: int, n: int) -> int:
    """a**n in GF(256) (n may be any integer, including negative)."""
    if a == 0:
        if n == 0:
            return 1
        if n < 0:
            raise ZeroDivisionError("0 has no inverse in GF(256)")
        return 0
    return int(EXP[(LOG[a] * n) % _ORDER])


def gf_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over GF(256) — the scalar reference implementation.

    Shapes follow NumPy's ``@``: (r, c) x (c, m) -> (r, m).  The inner loop
    runs over the *small* shared dimension c (the code's k), so multiplying a
    generator matrix by megabyte-wide shard matrices stays vectorised.

    This is the correctness oracle; hot paths call
    :func:`repro.erasure.gfkernel.gf_matmul_fast`, which is bit-identical
    but gathers from contiguous per-coefficient tables instead of the
    cache-hostile 2-D ``np.ix_`` walk here.
    """
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"incompatible shapes for GF matmul: {a.shape} x {b.shape}")
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.uint8)
    for j in range(a.shape[1]):
        # out ^= outer-product a[:, j] * b[j, :] via the mul table.
        out ^= MUL_TABLE[np.ix_(a[:, j], b[j, :])]
    return out


def gf_matvec_bytes(coeffs: np.ndarray, shards: np.ndarray) -> np.ndarray:
    """Combine shard rows with coefficients: ``sum_i coeffs[i] * shards[i]``.

    ``coeffs`` is a length-r uint8 vector, ``shards`` an (r, L) uint8 matrix;
    returns a length-L uint8 vector.  This is the repair/decode hot path.
    """
    coeffs = np.asarray(coeffs, dtype=np.uint8)
    shards = np.asarray(shards, dtype=np.uint8)
    if coeffs.ndim != 1 or shards.ndim != 2 or coeffs.shape[0] != shards.shape[0]:
        raise ValueError(
            f"incompatible shapes for GF matvec: {coeffs.shape} x {shards.shape}"
        )
    out = np.zeros(shards.shape[1], dtype=np.uint8)
    for i in range(coeffs.shape[0]):
        c = int(coeffs[i])
        if c:
            out ^= MUL_TABLE[c][shards[i]]
    return out


def gf_inverse_matrix(m: np.ndarray) -> np.ndarray:
    """Invert a square matrix over GF(256) by Gauss-Jordan elimination.

    Raises ``np.linalg.LinAlgError`` when the matrix is singular (which is how
    MDS-property checks detect a bad fragment subset).
    """
    m = np.asarray(m, dtype=np.uint8)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got {m.shape}")
    n = m.shape[0]
    aug = np.concatenate([m.copy(), np.eye(n, dtype=np.uint8)], axis=1)
    for col in range(n):
        pivot = None
        for row in range(col, n):
            if aug[row, col] != 0:
                pivot = row
                break
        if pivot is None:
            raise np.linalg.LinAlgError("matrix is singular over GF(256)")
        if pivot != col:
            aug[[col, pivot]] = aug[[pivot, col]]
        inv_p = gf_inv(int(aug[col, col]))
        aug[col] = MUL_TABLE[inv_p][aug[col]]
        for row in range(n):
            if row != col and aug[row, col] != 0:
                aug[row] ^= MUL_TABLE[int(aug[row, col])][aug[col]]
    return aug[:, n:].copy()


_EXP_LIST: list[int] = EXP.tolist()
_LOG_LIST: list[int] = LOG.tolist()


def gf_is_invertible(m: np.ndarray) -> bool:
    """Whether a square matrix has full rank over GF(256).

    Forward elimination only — no pivot normalisation, no back-substitution,
    no identity block — on plain Python ints: the MDS checks of FMSR test six
    4x4 subsets per drawn matrix and never need the inverse itself.  The
    verdict equals "``gf_inverse_matrix`` does not raise" for every input.
    """
    m = np.asarray(m, dtype=np.uint8)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got {m.shape}")
    rows: list[list[int]] = m.tolist()
    n = len(rows)
    exp, log = _EXP_LIST, _LOG_LIST
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            return False
        rows[col], rows[pivot] = rows[pivot], rows[col]
        prow = rows[col]
        log_pivot = log[prow[col]]
        for row in rows[col + 1 :]:
            if row[col]:
                # row -= (row[col] / pivot) * prow, right of the pivot column
                log_f = (log[row[col]] - log_pivot) % _ORDER
                for j in range(col + 1, n):
                    if prow[j]:
                        row[j] ^= exp[log_f + log[prow[j]]]
    return True


def vandermonde(rows: int, cols: int) -> np.ndarray:
    """Vandermonde matrix V[i, j] = i**j over GF(256).

    Any ``cols`` distinct rows are linearly independent for rows <= 255,
    which is what makes it a valid RS generator seed.
    """
    if rows > 255:
        raise ValueError(f"at most 255 rows supported in GF(256), got {rows}")
    v = np.zeros((rows, cols), dtype=np.uint8)
    for i in range(rows):
        for j in range(cols):
            v[i, j] = gf_pow(i + 1, j)  # use 1..rows so no zero row
    return v


def systematic_vandermonde(n: int, k: int) -> np.ndarray:
    """An (n, k) systematic MDS generator matrix: top k rows are the identity.

    Built by taking an (n, k) Vandermonde matrix and right-multiplying by the
    inverse of its top kxk block; column operations preserve the
    any-k-rows-invertible property.
    """
    if not (0 < k <= n <= 255):
        raise ValueError(f"need 0 < k <= n <= 255, got n={n}, k={k}")
    v = vandermonde(n, k)
    top_inv = gf_inverse_matrix(v[:k, :k])
    g = gf_matmul(v, top_inv)
    # By construction the top block is exactly I.
    assert np.array_equal(g[:k], np.eye(k, dtype=np.uint8))
    return g
