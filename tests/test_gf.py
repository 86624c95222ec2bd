"""Field arithmetic, digit-array kernels and the coefficients mod p, with
the Lucas binomial that tests take as their reference (oracles.binom_mod_p)."""

import functools
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsderiv.errors import DivisionByZero, ResourceGuard
from hsderiv.gf import (
    FqContext,
    default_modulus,
    exact_in_float64,
    float_pays,
    lambda_coeffs,
    multinomial_mod_p,
)
from oracles import (
    binom_mod_p,
    digit_add,
    digit_inv,
    digit_mat_mul,
    digit_mul,
    digit_neg,
    digit_pow,
    elements,
    random_scalar,
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
        els = list(elements(ctx))
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
            [[random_scalar(ctx, rng).digits for _ in range(k)] for _ in range(n)],
            dtype=np.int64,
        )
        B = np.array(
            [[random_scalar(ctx, rng).digits for _ in range(m)] for _ in range(k)],
            dtype=np.int64,
        )
        C = ctx.mat_mul(A, B)
        for i in range(n):
            for j in range(m):
                acc = ctx.zero
                for t in range(k):
                    acc = acc + ctx.scalar(tuple(A[i, t])) * ctx.scalar(tuple(B[t, j]))
                assert tuple(C[i, j]) == acc.digits, (p, d, i, j)


def test_matrix_power_and_identity():
    ctx = FqContext(3, 1)
    m = ctx.zeros((2, 2))
    m[0, 1, 0] = 1  # strictly upper triangular
    assert np.any(m)
    assert not np.any(ctx.mat_mul(m, m))
    eye = ctx.mat_eye(2)
    assert np.array_equal(ctx.mat_mul(eye, m), m)


def test_arr_scale_matches_scalar_multiplication():
    rng = random.Random(777)
    ctx = FqContext(3, 2)
    a = np.array([random_scalar(ctx, rng).digits for _ in range(6)], dtype=np.int64)
    c = random_scalar(ctx, rng)
    out = ctx.arr_scale(c.digits, a)
    for i in range(6):
        assert tuple(out[i]) == (c * ctx.scalar(tuple(a[i]))).digits


# -- raw values against the digit-tuple reference in oracles ----------------

RAW_FIELDS = [(p, d) for p in (2, 3, 5, 7, 251, 65521) for d in (1, 2, 3, 4)]


@functools.lru_cache(maxsize=None)
def _field(p, d):
    return FqContext(p, d)


@st.composite
def _raw_case(draw):
    p, d = draw(st.sampled_from(RAW_FIELDS))
    digits = st.tuples(*[st.integers(0, p - 1)] * d)
    return _field(p, d), draw(digits), draw(digits), draw(st.integers(0, 12))


@settings(max_examples=300, deadline=None)
@given(_raw_case())
def test_scalar_arithmetic_matches_digit_reference(case):
    ctx, a, b, n = case
    p, f = ctx.p, ctx.modulus
    x, y = ctx.scalar(a), ctx.scalar(b)
    assert ctx.unpack(ctx.pack(a)) == x.digits == a
    assert (x + y).digits == digit_add(p, a, b)
    assert (-x).digits == digit_neg(p, a)
    assert (x - y).digits == digit_add(p, a, digit_neg(p, b))
    assert (x * y).digits == digit_mul(p, f, a, b)
    assert (x**n).digits == digit_pow(p, f, a, n)
    if any(b):
        assert y.inverse().digits == digit_inv(p, f, b)
        assert (x / y).digits == digit_mul(p, f, a, digit_inv(p, f, b))
    else:
        with pytest.raises(DivisionByZero):
            y.inverse()


@pytest.mark.parametrize("p,d", RAW_FIELDS)
def test_lazy_sum_at_its_width_bound_is_exact(p, d):
    # every digit p - 1: one reduced value plus `lazy` products of it fill
    # each convolution digit as far as the width allows (a prime field has
    # one digit and no bound)
    ctx = _field(p, d)
    top = (p - 1,) * d
    x = ctx.pack(top)
    count = ctx.lazy if d > 1 else 1000
    if d > 1:
        assert (count + 1) * d * (p - 1) ** 2 < 1 << ctx.width
    square = digit_mul(p, ctx.modulus, top, top)
    want = digit_add(p, top, tuple(count * v % p for v in square))
    assert ctx.unpack(ctx.reduce(x + count * (x * x))) == want
    assert ctx.unpack(ctx.reduce(x + sum(x * x for _ in range(count)))) == want


# (n, k, m) on both sides of the size rule: tiny, vectors and rank-1 updates
# on int64, and shapes whose n*m*(k+8)*d^2 is past FLOAT_MIN_WORK even at
# d = 1, on float64 (drawn twice as often)
MAT_SHAPES = {
    "tiny": st.tuples(st.integers(1, 6), st.integers(0, 6), st.integers(1, 6)),
    "row": st.tuples(st.just(1), st.integers(1, 40), st.integers(1, 80)),
    "column": st.tuples(st.integers(1, 80), st.integers(1, 40), st.just(1)),
    "rank-1": st.tuples(st.integers(2, 80), st.just(1), st.integers(2, 80)),
    "large": st.tuples(st.integers(48, 90), st.integers(8, 40), st.integers(48, 70)),
}


@st.composite
def _mat_case(draw):
    p, d = draw(st.sampled_from(RAW_FIELDS))
    kind = draw(st.sampled_from(["tiny", "row", "column", "rank-1", "large", "large"]))
    n, k, m = draw(MAT_SHAPES[kind])
    # a stack of left matrices (rows of a tall product) or of right ones
    # (the conjugation's layout)
    stack = draw(st.sampled_from([None, "left", "right"]))
    depth = draw(st.integers(1, 4))
    sa, sb = (n, k, d), (k, m, d)
    if stack == "left":
        sa = (depth,) + sa
    elif stack == "right":
        sb = (depth,) + sb
    fill = draw(st.sampled_from(["random", "random", "top"]))
    if fill == "top":
        # every digit p - 1: every partial sum at its largest
        return _field(p, d), np.full(sa, p - 1), np.full(sb, p - 1)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return _field(p, d), rng.integers(0, p, sa), rng.integers(0, p, sb)


@settings(max_examples=150, deadline=None)
@given(_mat_case())
def test_mat_mul_matches_python_int_reference(case):
    ctx, a, b = case
    got = ctx.mat_mul(a, b)
    assert got.dtype == np.int64 and got.flags.c_contiguous
    assert np.array_equal(got, digit_mat_mul(ctx.p, ctx.modulus, a, b))


@settings(max_examples=80, deadline=None)
@given(_mat_case())
def test_mat_mul_into_out_is_the_returned_product(case):
    # every path (float64 row blocks, int64 with and without the fold)
    # writes the same digits into a given array and returns it
    ctx, a, b = case
    want = ctx.mat_mul(a, b)
    out = np.full(want.shape, -1, dtype=np.int64)
    assert ctx.mat_mul(a, b, out) is out
    assert np.array_equal(out, want)


def test_float_path_bound_at_its_edge():
    # (p-1)^2 = 4,292,870,400 for p = 65521, and 2^53 lies between 2,098,176
    # and 2,098,177 times it; the size rule passes both, so the bound decides
    top = 65520**2
    assert 2098176 * top < 2**53 <= 2098177 * top
    assert float_pays(64, 2098176, 64, 1) and float_pays(64, 2098177, 64, 1)
    assert exact_in_float64(2098176, 65521)
    assert not exact_in_float64(2098177, 65521)


def test_context_refuses_a_prime_past_the_int64_bound():
    # an unreduced rank-1 update in elimination adds up to d*(p-1)^2 to an
    # entry in [0, p); past 2^62 the int64 kernels would wrap silently
    for p, d in ((4294967311, 1), (2147483647, 2)):
        assert d * (p - 1) ** 2 > 2**62 - p
        with pytest.raises(ResourceGuard):
            FqContext(p, d)
    for p, d in ((2147483647, 1), (1073741789, 2)):
        assert FqContext(p, d).q == p**d


def test_int64_product_past_2_63_splits_the_inner_dimension():
    # one int64 product holds (2^63 - 1) // (d*(p-1)^2) inner terms: 2 at
    # p = 2^31 - 1 and 4 at p = 1073741789 over F_{p^2}. Entries near p - 1
    # wrap any longer unsplit sum; the split products must still be exact,
    # for a single matrix, a stack on either side and a wide product
    rng = np.random.default_rng(3)
    for p, d in [(2147483647, 1), (1073741789, 2)]:
        ctx = FqContext(p, d)
        top = np.full((1, 3, d), p - 1)
        got = ctx.mat_mul(top, top.reshape(3, 1, d))
        assert np.array_equal(got, digit_mat_mul(p, ctx.modulus, top, top.reshape(3, 1, d)))
        for sa, sb in [((4, 3), (3, 5)), ((2, 4, 7), (7, 3)), ((4, 9), (3, 9, 2)),
                       ((3, 41), (41, 64))]:
            a = rng.integers(p - 8, p, sa + (d,))
            b = rng.integers(p - 8, p, sb + (d,))
            want = digit_mat_mul(p, ctx.modulus, a, b)
            assert np.array_equal(ctx.mat_mul(a, b), want)
            out = np.empty_like(want)
            assert ctx.mat_mul(a, b, out) is out and np.array_equal(out, want)


def test_mat_mul_takes_both_paths(monkeypatch):
    calls = []
    blocks = FqContext._blocks
    monkeypatch.setattr(
        FqContext, "_blocks", lambda self, *args: calls.append(1) or blocks(self, *args)
    )
    ctx = FqContext(7)
    rng = np.random.default_rng(1)
    cases = [
        ((64, 32), (32, 64), True),
        ((49, 49), (3, 49, 49), True),  # one matrix against a stack
        ((3, 64, 32), (32, 64), True),
        ((16, 16), (16, 16), False),
        ((4096, 64), (64, 1), False),
        ((256, 1), (1, 256), False),
    ]
    for sa, sb, float_side in cases:
        a, b = rng.integers(0, 7, sa + (1,)), rng.integers(0, 7, sb + (1,))
        calls.clear()
        assert np.array_equal(ctx.mat_mul(a, b), digit_mat_mul(7, ctx.modulus, a, b))
        assert bool(calls) == float_side


def test_row_blocked_product_peaks_below_the_int64_product():
    # the int64 product and its reduction each hold one full result; the
    # blocked float64 product holds the result and one block of temporaries
    import tracemalloc

    ctx = FqContext(7)
    rng = np.random.default_rng(2)
    a, b = rng.integers(0, 7, (8192, 64, 1)), rng.integers(0, 7, (64, 64, 1))

    def peak(product):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = product()
            return out, tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    want, int64_peak = peak(lambda: ((a[..., 0] @ b[..., 0]) % 7)[..., None])
    got, float_peak = peak(lambda: ctx.mat_mul(a, b))
    assert np.array_equal(got, want)
    assert float_peak <= int64_peak


@pytest.mark.parametrize("p", [2, 5, 65521])
def test_prime_field_reduce_is_the_remainder(p):
    # over a prime field reduce is the closure x % p, for numpy integers too
    reduce = FqContext(p).reduce
    for x in (0, p - 1, 7 * p + 3, 10**30 + 1, -1, -5 * p - 2, np.int64(3 * p + 1), np.int64(-4)):
        assert reduce(x) == x % p
        assert type(reduce(x)) is type(x % p)
