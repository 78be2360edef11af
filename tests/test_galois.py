"""Unit tests for GF(2^8) arithmetic and linear algebra."""

import numpy as np
import pytest

from repro.erasure.galois import (
    EXP,
    LOG,
    MUL_TABLE,
    gf_add,
    gf_div,
    gf_inv,
    gf_inverse_matrix,
    gf_is_invertible,
    gf_matmul,
    gf_matvec_bytes,
    gf_mul,
    gf_pow,
    systematic_vandermonde,
    vandermonde,
)


class TestFieldOps:
    def test_add_is_xor(self):
        assert gf_add(0b1010, 0b0110) == 0b1100

    def test_mul_identity(self):
        a = np.arange(256, dtype=np.uint8)
        assert np.array_equal(gf_mul(a, 1), a)

    def test_mul_zero(self):
        a = np.arange(256, dtype=np.uint8)
        assert np.all(gf_mul(a, 0) == 0)

    def test_mul_commutative(self):
        assert np.array_equal(MUL_TABLE, MUL_TABLE.T)

    def test_mul_known_value(self):
        # 2 * 128 = 0x11d reduced: 0x1d = 29 under the 0x11d polynomial.
        assert gf_mul(2, 128) == 29

    def test_inverse(self):
        a = np.arange(1, 256, dtype=np.uint8)
        inv = gf_inv(a)
        assert np.all(gf_mul(a, inv) == 1)

    def test_inv_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            gf_inv(0)

    def test_div(self):
        for a in (1, 7, 200, 255):
            for b in (1, 3, 99):
                assert gf_mul(gf_div(a, b), b) == a

    def test_pow(self):
        assert gf_pow(2, 0) == 1
        assert gf_pow(2, 1) == 2
        assert gf_pow(0, 5) == 0
        assert gf_pow(0, 0) == 1
        # a^255 = 1 for all non-zero a.
        for a in (2, 3, 29, 255):
            assert gf_pow(a, 255) == 1

    def test_pow_negative(self):
        assert gf_mul(gf_pow(7, -1), 7) == 1
        with pytest.raises(ZeroDivisionError):
            gf_pow(0, -1)

    def test_exp_log_roundtrip(self):
        a = np.arange(1, 256)
        assert np.all(EXP[LOG[a]] == a)


class TestMatrixOps:
    def test_matmul_identity(self):
        rng = np.random.default_rng(0)
        m = rng.integers(0, 256, (5, 5), dtype=np.uint8)
        eye = np.eye(5, dtype=np.uint8)
        assert np.array_equal(gf_matmul(eye, m), m)
        assert np.array_equal(gf_matmul(m, eye), m)

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ValueError):
            gf_matmul(np.zeros((2, 3), np.uint8), np.zeros((2, 3), np.uint8))

    def test_inverse_matrix(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            m = rng.integers(0, 256, (4, 4), dtype=np.uint8)
            try:
                inv = gf_inverse_matrix(m)
            except np.linalg.LinAlgError:
                continue
            assert np.array_equal(gf_matmul(m, inv), np.eye(4, dtype=np.uint8))
            assert np.array_equal(gf_matmul(inv, m), np.eye(4, dtype=np.uint8))

    def test_singular_matrix_raises(self):
        m = np.array([[1, 2], [1, 2]], dtype=np.uint8)
        with pytest.raises(np.linalg.LinAlgError):
            gf_inverse_matrix(m)

    def test_inverse_requires_square(self):
        with pytest.raises(ValueError):
            gf_inverse_matrix(np.zeros((2, 3), np.uint8))

    def test_is_invertible_agrees_with_inversion(self):
        """Elimination-only rank test == "the Gauss-Jordan inverse exists",
        on random matrices and on ones made singular three ways."""
        rng = np.random.default_rng(3)
        verdicts = []
        for trial in range(300):
            n = int(rng.integers(1, 7))
            m = rng.integers(0, 256, (n, n), dtype=np.uint8)
            if trial % 3 == 1 and n > 1:
                m[-1] = gf_matmul(rng.integers(0, 256, (1, n - 1)), m[:-1])[0]
            elif trial % 3 == 2:
                m[:, int(rng.integers(0, n))] = 0
            elif trial % 30 == 0:
                m = rng.integers(0, 2, (n, n), dtype=np.uint8)  # zero pivots
            try:
                gf_inverse_matrix(m)
                expected = True
            except np.linalg.LinAlgError:
                expected = False
            assert gf_is_invertible(m) is expected
            verdicts.append(expected)
        assert 50 < sum(verdicts) < 250  # both verdicts well represented

    def test_is_invertible_requires_square(self):
        with pytest.raises(ValueError):
            gf_is_invertible(np.zeros((2, 3), np.uint8))

    def test_matvec_bytes_matches_matmul(self):
        rng = np.random.default_rng(2)
        coeffs = rng.integers(0, 256, 4, dtype=np.uint8)
        shards = rng.integers(0, 256, (4, 100), dtype=np.uint8)
        via_matmul = gf_matmul(coeffs[None, :], shards)[0]
        assert np.array_equal(gf_matvec_bytes(coeffs, shards), via_matmul)


class TestVandermonde:
    def test_any_k_rows_invertible(self):
        v = vandermonde(8, 4)
        from itertools import combinations

        for rows in combinations(range(8), 4):
            gf_inverse_matrix(v[list(rows), :])  # must not raise

    def test_row_limit(self):
        with pytest.raises(ValueError):
            vandermonde(256, 3)

    def test_systematic_top_is_identity(self):
        g = systematic_vandermonde(6, 4)
        assert np.array_equal(g[:4], np.eye(4, dtype=np.uint8))

    def test_systematic_preserves_mds(self):
        g = systematic_vandermonde(7, 3)
        from itertools import combinations

        for rows in combinations(range(7), 3):
            gf_inverse_matrix(g[list(rows), :])  # must not raise

    def test_systematic_param_validation(self):
        with pytest.raises(ValueError):
            systematic_vandermonde(3, 5)
