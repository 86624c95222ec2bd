"""Field arithmetic and binomial helpers."""

import itertools
import math
import random

import numpy as np
import pytest

from hsderiv.errors import DivisionByZero
from hsderiv.gf import (
    FqContext,
    binom_mod_p,
    default_modulus,
    lambda_coeffs,
    multinomial_mod_p,
)


def test_binom_mod_p_known_values():
    assert binom_mod_p(1, 1, 2) == 1
    assert binom_mod_p(2, 1, 2) == 0
    assert binom_mod_p(4, 2, 2) == 0
    assert binom_mod_p(3, 1, 3) == 0
    assert binom_mod_p(4, 2, 3) == 0


def test_binom_mod_p_matches_integer_binomials():
    for p in (2, 3, 5, 7):
        for n in range(65):
            for k in range(n + 1):
                assert binom_mod_p(n, k, p) == math.comb(n, k) % p, (p, n, k)


def test_binom_mod_p_out_of_range_and_bad_p():
    assert binom_mod_p(3, 5, 2) == 0
    assert binom_mod_p(3, -1, 2) == 0
    with pytest.raises(ValueError):
        binom_mod_p(3, 1, 4)


def test_lambda_coeffs_known_values():
    assert lambda_coeffs(2) == (1,)
    assert lambda_coeffs(3) == (1, 1)
    assert lambda_coeffs(5) == (1, 2, 2, 1)


def _expand_x_plus_y_pow(p):
    # coefficient list of (x+y)^p by repeated convolution, exact integers
    coeffs = [1]
    for _ in range(p):
        nxt = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i] += c
            nxt[i + 1] += c
        coeffs = nxt
    return coeffs


def test_lambda_coeffs_carry_polynomial_identity():
    # sum_i lambda_i x^i y^(p-i) == ((x+y)^p - x^p - y^p)/p as polynomials mod p
    for p in (2, 3, 5, 7):
        full = _expand_x_plus_y_pow(p)
        lam = lambda_coeffs(p)
        for i in range(1, p):
            val = full[i]
            assert val % p == 0 or p == 1
            assert (val // p) % p == lam[i - 1], (p, i)
        assert lam[0] == 1
        assert lam == lam[::-1]


def test_multinomial_mod_p():
    assert multinomial_mod_p((2, 1), 5) == 3
    assert multinomial_mod_p((1, 1, 1), 7) == 6
    assert multinomial_mod_p((0, 0), 3) == 1
    # agrees with the factorial formula mod p on random splits
    rng = random.Random(901)
    for _ in range(50):
        parts = tuple(rng.randrange(4) for _ in range(3))
        expect = math.factorial(sum(parts))
        for a in parts:
            expect //= math.factorial(a)
        for p in (2, 3, 5):
            assert multinomial_mod_p(parts, p) == expect % p


# the first monic irreducible of each degree, constant coefficient varying
# fastest, as found by exhaustive trial division
DEFAULT_MODULI = {
    (2, 1): (0, 1), (2, 2): (1, 1, 1), (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (3, 1): (0, 1), (3, 2): (1, 0, 1), (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 1, 0, 0, 1),
    (5, 1): (0, 1), (5, 2): (2, 0, 1), (5, 3): (1, 1, 0, 1),
    (5, 4): (2, 0, 0, 0, 1),
    (7, 1): (0, 1), (7, 2): (1, 0, 1), (7, 3): (2, 0, 0, 1),
    (7, 4): (1, 1, 0, 0, 1),
    (367, 1): (0, 1), (367, 2): (1, 0, 1), (367, 3): (2, 0, 0, 1),
    (367, 4): (17, 1, 0, 0, 1),
}


def test_default_modulus_small_fields():
    for (p, d), modulus in DEFAULT_MODULI.items():
        assert default_modulus(p, d) == modulus
        assert FqContext(p, d).modulus == modulus


def _moebius(n):
    out, k = 1, 2
    while n > 1:
        if n % k == 0:
            n //= k
            if n % k == 0:
                return 0
            out = -out
        k += 1
    return out


def test_irreducible_count_matches_necklace_formula():
    # (1/d) sum_{k | d} mu(k) p^(d/k) monic irreducibles of degree d
    for p, d in ((2, 1), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (5, 2), (5, 3)):
        count = 0
        for low in itertools.product(range(p), repeat=d):
            try:
                FqContext(p, d, low + (1,))
                count += 1
            except ValueError:
                pass
        expect = sum(_moebius(k) * p ** (d // k) for k in range(1, d + 1) if d % k == 0)
        assert count == expect // d, (p, d)


def test_context_validation():
    with pytest.raises(ValueError):
        FqContext(4, 1)
    with pytest.raises(ValueError):
        FqContext(2, 5)
    with pytest.raises(ValueError):
        FqContext(2, 2, modulus=(0, 0, 1))
    with pytest.raises(ValueError):
        FqContext(2, 2, modulus=(1, 1, 2, 1))


def test_f4_multiplication_table():
    ctx = FqContext(2, 2)
    g = ctx.gen
    assert g * g == g + 1
    assert g**3 == 1
    assert (g + 1) * g == 1


def test_scalar_field_axioms_small_fields():
    for p, d in ((2, 1), (3, 1), (2, 2), (3, 2), (2, 3)):
        ctx = FqContext(p, d)
        els = list(ctx.elements())
        assert len(els) == p**d
        for a in els:
            assert a + ctx.zero == a
            assert a * ctx.one == a
            if a:
                assert a * a.inverse() == ctx.one
        # commutativity and distributivity spot checks on all pairs
        for a in els:
            for b in els:
                assert a + b == b + a
                assert a * b == b * a
        with pytest.raises(DivisionByZero):
            ctx.zero.inverse()


def test_frobenius_is_p_power_and_invertible():
    for p, d in ((2, 2), (3, 2), (2, 3), (5, 2)):
        ctx = FqContext(p, d)
        for a in ctx.elements():
            assert a.frobenius() == a**p
            assert a.frobenius().frobenius_inv() == a
            assert a.frobenius_inv().frobenius() == a


def test_scalar_pow_negative_and_division():
    ctx = FqContext(5, 1)
    a = ctx.scalar(3)
    assert a ** (-1) == a.inverse()
    assert (a / a) == 1
    assert a**0 == 1
    assert 2 / a == ctx.scalar(2) * a.inverse()


def test_matrix_kernels_match_scalar_arithmetic():
    rng = random.Random(12345)
    fields = ((2, 1), (3, 2), (2, 2), (2, 3), (2, 4), (3, 3), (5, 4), (7, 3), (367, 2))
    for p, d in fields:
        ctx = FqContext(p, d)
        n, k, m = 4, 3, 5
        A = np.array(
            [[ctx.random_scalar(rng).digits for _ in range(k)] for _ in range(n)],
            dtype=np.int64,
        )
        B = np.array(
            [[ctx.random_scalar(rng).digits for _ in range(m)] for _ in range(k)],
            dtype=np.int64,
        )
        C = ctx.mat_mul(A, B)
        for i in range(n):
            for j in range(m):
                acc = ctx.zero
                for t in range(k):
                    acc = acc + ctx.scalar(tuple(A[i, t])) * ctx.scalar(tuple(B[t, j]))
                assert tuple(C[i, j]) == acc.digits, (p, d, i, j)
        # elementwise product agrees with scalar product
        X = A[:, :2]
        Y = A[:, 1:]
        Z = ctx.arr_mul(X, Y)
        for i in range(n):
            for j in range(2):
                prod = ctx.scalar(tuple(X[i, j])) * ctx.scalar(tuple(Y[i, j]))
                assert tuple(Z[i, j]) == prod.digits


def test_matrix_power_and_identity():
    ctx = FqContext(3, 1)
    m = ctx.zeros((2, 2))
    m[0, 1, 0] = 1  # strictly upper triangular
    assert not ctx.arr_is_zero(m)
    assert ctx.arr_is_zero(ctx.mat_mul(m, m))
    eye = ctx.mat_eye(2)
    assert np.array_equal(ctx.mat_mul(eye, m), m)
    assert np.array_equal(ctx.mat_pow(m, 1), m)
    assert ctx.arr_is_zero(ctx.mat_pow(m, 3))


def test_arr_scale_matches_scalar_multiplication():
    rng = random.Random(777)
    ctx = FqContext(3, 2)
    a = np.array([ctx.random_scalar(rng).digits for _ in range(6)], dtype=np.int64)
    c = ctx.random_scalar(rng)
    out = ctx.arr_scale(c.digits, a)
    for i in range(6):
        assert tuple(out[i]) == (c * ctx.scalar(tuple(a[i]))).digits
